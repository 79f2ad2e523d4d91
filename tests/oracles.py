"""Reference implementations that only the tests use.

Each is the plain definition of something the package computes another way,
or a general tool the package does not need: the Heisenberg group-element
algebra and its Schrödinger representations, a stacked-SVD commutant, a
group closure, the frame potential and its gradient as standalone calls, the
quadratic form of case iii read coordinate by coordinate, its nonsingular
vectors and its transvections, the parity operator, the dense displacements
and the label map that conjugation by a unitary induces on them
(induced_symplectic), a dictionary table of the distinct entries of a
matrix, the rint rule of exact signs, and the numeric multiplicity
certificate of a line-0 stabilizer, whose rank one the 2-transitive action
implies (equiline.action).

Finite Heisenberg groups are in normal form.  Elements are triples (a, b, c):
translation part a and modulation part b in F_p^m, central exponent c.  The
multiplication rule is

    (a, b, c) (a', b', c') = (a + a', b + b', c + c' + kappa * (b . a'))

with kappa = 1 and c mod p for odd p, and kappa = 2 with c mod 4 for p = 2
(the central phase group is then the fourth roots of unity).  The group has
order p^(2m+1) for odd p and 2^(2m+2) for p = 2; for odd p every element has
order dividing p.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from equiline.action import Perm, _affine_map, compose, identity_perm, induced_permutation
from equiline.fiducial import _gathers, _gradient, _overlaps
from equiline.finfield import _packed_lex, dot2, quadratic
from equiline.heisenberg import (
    _roots,
    check_unitary,
    displacement_monomial,
    lex_digits,
    lex_index,
    monomial_matrix,
)
from equiline.lineset import _SIGN_IMAG_TOL, SIGN_TOL, LineSet, _case, line_translations
from equiline.symmetries import geometry_unitaries


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


def schroedinger_rep(e: HeisenbergElement, j: int = 1) -> np.ndarray:
    """Matrix of e in the faithful irreducible representation of central index j.

    The model is omega^(j c) X(a) Z(j b) on functions over F_p^m, where
    X(a)|x> = |x + a> and Z(b)|x> = omega^(b.x)|x>, with omega = exp(2 pi i / p)
    for odd p and omega = i (so Z is the +-1 modulation and the central element
    acts by i^j) for p = 2.  This ordering makes e -> matrix a homomorphism for
    the multiplication rule above; the central element (0,0,1) maps to zeta^j I.
    The gather index is that of the package's displacement X(a) Z(b): row y
    reads the point x = y - a, with the phase zeta^(j (c + kappa b.x)), an
    exact power of the root table.
    """
    if j not in valid_rep_indices(e.p):
        raise IndexOutOfRange(f"index {j} is not valid for p={e.p}")
    index, _ = displacement_monomial(e.p, e.m, e.a, e.b)
    roots = _roots(e.p)
    x = lex_digits(e.p, e.m, index)
    return monomial_matrix(index, roots[j * (e.c + e.kappa * (x @ e.b)) % len(roots)])


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


def close_permutations(gens: Sequence[Perm], limit: int = 2_000_000) -> list[Perm]:
    """All elements of the generated group, BFS order; error beyond `limit`."""
    if not gens:
        raise ValueError("empty generator list")
    n = len(gens[0])
    e = identity_perm(n)
    seen = {e}
    dq = deque([e])
    out = [e]
    while dq:
        p = dq.popleft()
        for g in gens:
            q = compose(g, p)
            if q not in seen:
                if len(seen) >= limit:
                    raise ValueError(f"closure exceeds {limit} elements")
                seen.add(q)
                dq.append(q)
                out.append(q)
    return out


def frame_potential(v: np.ndarray, disp) -> np.ndarray:
    """Quartic overlap sum of each row of v (shape (..., d)) over the
    displacement monomials disp = (index, phase)."""
    _, _, h = _overlaps(v, _gathers(disp))
    return np.sum(h * h, axis=-1)


def frame_potential_grad(v: np.ndarray, disp) -> np.ndarray:
    """Euclidean gradient of the potential at each row of v, packed as a
    complex vector.

    Component k holds d f / d Re(v_k) + i * d f / d Im(v_k), so it matches
    central finite differences taken separately in the real and imaginary
    parts.
    """
    gathers = _gathers(disp)
    return _gradient(*_overlaps(v, gathers), gathers[2])


@lru_cache(maxsize=None)
def quadratic_form(m: int, x: int) -> int:
    """Q(x) = x_0 + x_1 x_2 + x_3 x_4 + ... + x_{2m-1} x_{2m} of a packed x,
    read coordinate by coordinate (once per (m, x): the transvection tests
    take it hundreds of thousands of times)."""
    c = [x >> i & 1 for i in range(2 * m + 1)]
    return (c[0] + sum(c[2 * i - 1] * c[2 * i] for i in range(1, m + 1))) % 2


def nonsingular_vectors(m: int) -> list[int]:
    """All packed u with Q(u) = 1, in lexicographic order: the directions of
    every transvection of the quadratic space."""
    lex = np.array(_packed_lex(2 * m + 1))
    return lex[quadratic(m, lex) == 1].tolist()


def bilinear_form(m: int, x: int, y: int) -> int:
    """The polarization B(x, y) = Q(x + y) + Q(x) + Q(y) of quadratic_form."""
    return quadratic_form(m, x ^ y) ^ quadratic_form(m, x) ^ quadratic_form(m, y)


def transvection(m: int, u: int, x: int) -> int:
    """Isometry x -> x + B(x, u) u for Q(u) = 1; an involution fixing Q."""
    if not quadratic_form(m, u):
        raise ValueError("transvection direction must satisfy Q(u) = 1")
    return x ^ (u if bilinear_form(m, x, u) else 0)


def transvection_on_functional(m: int, u: int, phi: int) -> int:
    """Pullback phi o t of a functional along the transvection t in direction
    u, read off the point action: coordinate i is phi(t(e_i))."""
    return sum(dot2(phi, transvection(m, u, 1 << i)) << i for i in range(2 * m + 1))


def parity_operator(p: int, m: int) -> np.ndarray:
    """Permutation matrix of |x> -> |-x> on functions over F_p^m: an
    involution is its own gather index."""
    return monomial_matrix(lex_index(-lex_digits(p, m), p))


def displacement(p: int, m: int, a, b) -> np.ndarray:
    """Dense matrix of the displacement X(a) Z(b)."""
    return monomial_matrix(*displacement_monomial(p, m, a, b))


# Entrywise distance within which a conjugate must match a displacement.
_NORMALIZER_TOL = 1e-8


class NotNormalizing(ValueError):
    """Conjugation by the unitary does not permute the displacement classes."""


class NotSymplectic(ValueError):
    """Induced label map fails to preserve the commutator pairing."""


def _pairing_matrix(m: int) -> np.ndarray:
    # F((a,b),(a',b')) = b.a' - a.b' = (a,b) J (a',b')^T
    J = np.zeros((2 * m, 2 * m), dtype=np.int64)
    J[:m, m:] = -np.eye(m, dtype=np.int64)
    J[m:, :m] = np.eye(m, dtype=np.int64)
    return J


def _match_displacement(M: np.ndarray, p: int, m: int) -> np.ndarray:
    """The label (a'; b') with M = phase * X(a')Z(b'), or raise NotNormalizing."""
    col0 = M[:, 0]
    row = int(np.argmax(np.abs(col0)))
    phase = col0[row]
    if abs(abs(phase) - 1.0) > _NORMALIZER_TOL:
        raise NotNormalizing(f"leading coefficient has modulus {abs(phase):.6f}")
    a_img = lex_digits(p, m, row)
    # X(a')Z(b') takes |e_k> to zeta^(kappa b'_k) |e_k + a'>: decode b'_k by
    # the nearest of the p candidate roots
    units = np.eye(m, dtype=np.int64)
    ratio = M[lex_index(units + a_img, p), lex_index(units, p)] / phase
    roots = _roots(p)
    kappa = 1 if p > 2 else 2
    cands = roots[kappa * np.arange(p) % len(roots)]
    b_img = np.abs(ratio[:, None] - cands).argmin(axis=1)
    if np.abs(M - phase * displacement(p, m, a_img, b_img)).max() > _NORMALIZER_TOL:
        raise NotNormalizing("conjugate is not a scalar multiple of a displacement")
    return np.concatenate([a_img, b_img])


def chain_transvections(p: int, m: int) -> list[np.ndarray]:
    """The label maps x -> x + omega(x, u) u, omega(x, u) = b_x.a_u - a_x.b_u,
    as 2m x 2m int64 matrices mod p, for u along the chain a_1, b_1, ...,
    a_m, b_m (a_i = e_i, b_i = e_(m+i)) and then its neighbour sums: the
    closed form of the Weil transvections' label maps, in their order."""
    units = np.eye(2 * m, dtype=np.int64)
    chain = [units[j] for i in range(m) for j in (i, m + i)]
    J = _pairing_matrix(m)
    return [(units + np.outer(u, J @ u)) % p
            for u in chain + [x + y for x, y in zip(chain, chain[1:])]]


def induced_symplectic(U: np.ndarray, p: int, m: int) -> np.ndarray:
    """Label map induced by conjugation with U on the displacement classes,
    read numerically: the reference the Weil transvections' closed-form
    maps x -> x + omega(x, u) u are checked against.

    Returns the 2m x 2m int64 matrix S mod p acting on stacked columns (a; b):
    column k is the label e' with U D(e_k) U^dagger = phase * D(e'), for the
    k-th unit label e_k.  Maps compose by S @ T % p.  Raises NotNormalizing if
    any conjugate is not a scalar multiple of a displacement, NotSymplectic if
    S fails to preserve the pairing.
    """
    U = check_unitary(U)
    S = np.column_stack([
        _match_displacement(U @ displacement(p, m, e[:m], e[m:]) @ U.conj().T, p, m)
        for e in np.eye(2 * m, dtype=np.int64)
    ])
    J = _pairing_matrix(m)
    if ((S.T @ J @ S - J) % p != 0).any():
        raise NotSymplectic("induced label map does not preserve the pairing")
    return S


def entry_table(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of M in the order first seen, each + 0.0, and
    the code of each entry of M into them: a dictionary of complex numbers,
    in which -0.0 == 0.0 as in numpy."""
    table: dict[complex, int] = {}
    codes = [table.setdefault(z, len(table)) for z in np.asarray(M, complex).ravel().tolist()]
    return np.array(list(table), complex) + 0.0, np.array(codes, np.intp).reshape(M.shape)


def rint_signs(entries: np.ndarray, d: int) -> np.ndarray:
    """The int8 signs rint(sqrt(d) Re v) of entries, or ValueError unless each
    is +-1 with |sqrt(d) Re v - s| <= SIGN_TOL and |Im v| <= _SIGN_IMAG_TOL:
    the rule of exact signs as the reader once applied it, rounding first
    and checking before the cast, so that no value can wrap."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf is no sign either
        signs = np.rint(entries.real * np.sqrt(d))
        gap = np.abs(entries.real * np.sqrt(d) - signs)
    off = not gap.max() <= SIGN_TOL
    off = off or (np.iscomplexobj(entries) and np.abs(entries.imag).max() > _SIGN_IMAG_TOL)
    if not np.all(np.abs(signs) == 1) or off:
        raise ValueError("exact_signs declared but entries are not +-1/sqrt(d)")
    return signs.astype(np.int8)


def line0_stabilizer(lines: LineSet) -> tuple[list[np.ndarray], list[complex]]:
    """Generators h of a line-0 stabilizer of a constructed line set, each
    with its phase <v_0, h v_0>.  Cases iii and iv take the geometry
    unitaries, which fix line 0.  Cases i and ii take each scanned Clifford
    word U, whose label map is x -> S x + b, as h = T_b^-1 U with T_b the
    translation that maps line 0 to line b."""
    case, p, m = _case(lines.meta, lines.n, lines.d)
    unitaries = geometry_unitaries(lines)
    if case in ("i", "ii"):
        labels = lex_digits(p, 2 * m)
        for k, U in enumerate(unitaries):
            _, b = _affine_map(induced_permutation(lines, U), labels, p)
            index, phase = line_translations(lines, [lex_index(b, p)])
            unitaries[k] = monomial_matrix(index[0], phase[0]).conj().T @ U  # du = 1
    v0 = lines.vectors[:, 0]
    return unitaries, [complex(np.vdot(v0, h @ v0)) for h in unitaries]


# Distance from 1 within which multiplicity_certificate counts an eigenvalue.
_MULTIPLICITY_TOL = 1e-7


@dataclass(frozen=True)
class MultiplicityCertificate:
    rank: int
    range_is_line0: bool
    gap: float


def multiplicity_certificate(
    lines: LineSet,
    stab_unitaries: Sequence[np.ndarray],
    phases: Sequence[complex],
) -> MultiplicityCertificate:
    """Multiplicity of the character h -> phase_h of a line-0 stabilizer H,
    given the unitaries U_h of a generating set of H or of all of H.

    For a unit vector x, Re<x, conj(phase_h) U_h x> = 1 iff U_h x = phase_h x,
    so the vectors on which every generator acts by its phase, the character's
    isotypic space, are the eigenvectors at 1 of the Hermitian part of
    A = (1/k) sum_h conj(phase_h) U_h, whose eigenvalues are at most 1.  The
    rank counts those within _MULTIPLICITY_TOL of 1; rank 1 with the top
    eigenvector on line 0 certifies that the character occurs exactly once.
    gap is 1 less the second eigenvalue: how far the certificate was from a
    second vector.  Over a whole group A is the averaging projector, and the
    gap is 1 or 0.
    """
    if len(stab_unitaries) != len(phases) or not stab_unitaries:
        raise ValueError("need equally many unitaries and phases, at least one")
    A = sum(np.conj(lam) * U for U, lam in zip(stab_unitaries, phases)) / len(phases)
    eigvals, eigvecs = np.linalg.eigh((A + A.conj().T) / 2)  # ascending
    rank = int(np.sum(eigvals >= 1.0 - _MULTIPLICITY_TOL))
    range_ok = rank == 1 and bool(abs(np.vdot(eigvecs[:, -1], lines.vectors[:, 0])) >= 1.0 - 1e-6)
    return MultiplicityCertificate(rank, range_ok, float(1.0 - eigvals[-2]))
