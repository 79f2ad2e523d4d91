"""Finite Heisenberg groups in normal form, and their Schrödinger representations.

Elements are triples (a, b, c): translation part a and modulation part b in
F_p^m, central exponent c.  The multiplication rule is

    (a, b, c) (a', b', c') = (a + a', b + b', c + c' + kappa * (b . a'))

with kappa = 1 and c mod p for odd p, and kappa = 2 with c mod 4 for p = 2
(the central phase group is then the fourth roots of unity).  The group has
order p^(2m+1) for odd p and 2^(2m+2) for p = 2; for odd p every element has
order dividing p.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

__all__ = [
    "ParameterMismatch",
    "IndexOutOfRange",
    "HeisenbergElement",
    "group_elements",
    "schroedinger_rep",
    "displacement",
    "displacement_monomial",
    "monomial_matrix",
    "valid_rep_indices",
    "commutant_dimension",
    "check_unitary",
]


class ParameterMismatch(ValueError):
    """Operands live in Heisenberg groups with different (p, m)."""


class IndexOutOfRange(ValueError):
    """No faithful irreducible representation with that central index."""


@dataclass(frozen=True)
class HeisenbergElement:
    p: int
    m: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: int

    def __post_init__(self):
        if self.p < 2 or self.m < 1:
            raise ValueError("need p >= 2 and m >= 1")
        if len(self.a) != self.m or len(self.b) != self.m:
            raise ValueError("a and b must have length m")
        if any(not 0 <= x < self.p for x in self.a + self.b):
            raise ValueError("a and b entries must be reduced mod p")
        if not 0 <= self.c < self.phase_modulus:
            raise ValueError("central exponent must be reduced")

    @property
    def kappa(self) -> int:
        return 1 if self.p > 2 else 2

    @property
    def phase_modulus(self) -> int:
        return self.p if self.p > 2 else 4

    @classmethod
    def identity(cls, p: int, m: int) -> HeisenbergElement:
        return cls(p, m, (0,) * m, (0,) * m, 0)

    @classmethod
    def make(cls, p: int, m: int, a, b, c: int) -> HeisenbergElement:
        """Build with automatic reduction of all parts."""
        mod = p if p > 2 else 4
        return cls(
            p,
            m,
            tuple(x % p for x in a),
            tuple(x % p for x in b),
            c % mod,
        )

    def __mul__(self, other: HeisenbergElement) -> HeisenbergElement:
        if (self.p, self.m) != (other.p, other.m):
            raise ParameterMismatch(
                f"cannot multiply ({self.p},{self.m}) by ({other.p},{other.m})"
            )
        p = self.p
        twist = sum(x * y for x, y in zip(self.b, other.a))
        return HeisenbergElement(
            p,
            self.m,
            tuple((x + y) % p for x, y in zip(self.a, other.a)),
            tuple((x + y) % p for x, y in zip(self.b, other.b)),
            (self.c + other.c + self.kappa * twist) % self.phase_modulus,
        )

    def inverse(self) -> HeisenbergElement:
        p = self.p
        twist = sum(x * y for x, y in zip(self.b, self.a))
        return HeisenbergElement(
            p,
            self.m,
            tuple(-x % p for x in self.a),
            tuple(-x % p for x in self.b),
            (-self.c + self.kappa * twist) % self.phase_modulus,
        )

    def __pow__(self, k: int) -> HeisenbergElement:
        out = HeisenbergElement.identity(self.p, self.m)
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            out = out * base
        return out

    @property
    def is_central(self) -> bool:
        return not any(self.a) and not any(self.b)


def group_elements(p: int, m: int):
    """Every element, in lexicographic (a, b, c) order."""
    mod = p if p > 2 else 4
    for a in product(range(p), repeat=m):
        for b in product(range(p), repeat=m):
            for c in range(mod):
                yield HeisenbergElement(p, m, a, b, c)


def valid_rep_indices(p: int) -> tuple[int, ...]:
    """Central indices of the faithful irreducible representations."""
    return tuple(range(1, p)) if p > 2 else (1, 3)


def _points(p: int, m: int) -> list[tuple[int, ...]]:
    return list(product(range(p), repeat=m))


def lex_digits(p: int, m: int, index=None) -> np.ndarray:
    """Base-p digits of each index (default 0 .. p^m - 1), most significant
    first: row x is the x-th vector of F_p^m in lexicographic order."""
    index = np.arange(p**m) if index is None else np.asarray(index)
    return index[..., None] // p ** np.arange(m - 1, -1, -1) % p


def lex_index(x: np.ndarray, p: int) -> np.ndarray:
    """Inverse of lex_digits: the lexicographic index of each row of x mod p."""
    return x % p @ p ** np.arange(x.shape[-1] - 1, -1, -1)


def monomial_matrix(perm: np.ndarray, phase=1.0) -> np.ndarray:
    """Dense form of the monomial operator |x> -> phase[x] |perm[x]>.

    Leading axes of perm stack operators.  The dtype is that of phase, so real
    phases give a real matrix.
    """
    perm = np.asarray(perm)
    phase = np.broadcast_to(np.asarray(phase), perm.shape)
    out = np.zeros(perm.shape + perm.shape[-1:], dtype=phase.dtype)
    np.put_along_axis(out, perm[..., None, :], phase[..., None, :], axis=-2)
    return out


def _roots(p: int) -> np.ndarray:
    """The central phases zeta^t, t = 0 .. phase_modulus - 1: zeta = exp(2 pi i / p)
    for odd p and zeta = i for p = 2, each power taken with an exact integer
    exponent."""
    zeta = np.exp(2j * np.pi / p) if p > 2 else 1j
    return np.array([zeta**t for t in range(p if p > 2 else 4)])


def displacement_monomial(p: int, m: int, a, b, c=0, j: int = 1):
    """(perm, phase) of omega^(j c) X(a) Z(j b) over the p^m points in
    lexicographic order, as in monomial_matrix.

    Vectorized: a and b of shape (..., m) and c of shape (...) give perm and
    phase of shape (..., p^m).
    """
    if j not in valid_rep_indices(p):
        raise IndexOutOfRange(f"index {j} is not valid for p={p}")
    pts = lex_digits(p, m)
    a, b = np.asarray(a), np.asarray(b)
    perm = lex_index(pts + a[..., None, :], p)
    roots = _roots(p)
    kappa = 1 if p > 2 else 2
    expo = j * (np.asarray(c)[..., None] + kappa * (b @ pts.T)) % len(roots)
    return perm, roots[expo]


def schroedinger_rep(e: HeisenbergElement, j: int = 1) -> np.ndarray:
    """Matrix of e in the faithful irreducible representation of central index j.

    The model is omega^(j c) X(a) Z(j b) on functions over F_p^m, where
    X(a)|x> = |x + a> and Z(b)|x> = omega^(b.x)|x>, with omega = exp(2 pi i / p)
    for odd p and omega = i (so Z is the +-1 modulation and the central element
    acts by i^j) for p = 2.  This ordering makes e -> matrix a homomorphism for
    the multiplication rule above; the central element (0,0,1) maps to zeta^j I.
    """
    return monomial_matrix(*displacement_monomial(e.p, e.m, e.a, e.b, e.c, j))


def displacement(p: int, m: int, a, b, j: int = 1) -> np.ndarray:
    """Representation matrix of (a, b, 0): the displacement with those labels."""
    return monomial_matrix(*displacement_monomial(p, m, a, b, 0, j))


def check_unitary(U: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate U^dagger U = I within tol and return U as a complex array."""
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("matrix must be square")
    resid = np.abs(U.conj().T @ U - np.eye(U.shape[0])).max()
    if resid > tol:
        raise ValueError(f"matrix is not unitary: residual {resid:.3e}")
    return U


def commutant_dimension(mats, tol: float = 1e-8) -> int:
    """Dimension of {X : A X = X A for all A}, via the stacked linear system.

    Stacks vec(A X - X A) = (I (x) A - A^T (x) I) vec(X) over all A and counts
    the nullity; singular values below tol count as zero.
    """
    mats = [np.asarray(A, dtype=complex) for A in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    d = mats[0].shape[0]
    if any(A.shape != (d, d) for A in mats):
        raise ValueError("all matrices must be square of equal size")
    eye = np.eye(d)
    stack = np.vstack([np.kron(eye, A) - np.kron(A.T, eye) for A in mats])
    sv = np.linalg.svd(stack, compute_uv=False)
    return d * d - int(np.sum(sv >= tol))
