"""Unitaries normalizing a Heisenberg image, for odd p: the finite Fourier
transform, quadratic phase diagonals, and index substitutions.

Each generator U satisfies U D(e) U^(-1) = phase * D(e') for every displacement
D(e), so conjugation induces a linear map on the (a, b) labels; that map
preserves the commutator pairing b.a' - a.b' and the induced maps of the whole
generator set generate the full symplectic group of the label space.  The
parity operator |x> -> |-x> commutes with all generators, so its eigenspaces
are invariant under every one of them.
"""

from __future__ import annotations

import numpy as np

from .heisenberg import (
    _roots,
    check_unitary,
    displacement,
    lex_digits,
    lex_index,
    monomial_matrix,
)

__all__ = [
    "NotNormalizing",
    "NotSymplectic",
    "weil_generators",
    "induced_symplectic",
    "parity_split",
    "primitive_root",
]


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


def primitive_root(p: int) -> int:
    """Smallest primitive root mod p (p an odd prime)."""
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ValueError(f"no primitive root found; is {p} prime?")


def _index_substitution(p: int, m: int, A: np.ndarray) -> np.ndarray:
    """Permutation matrix of |x> -> |A x> over F_p^m, the gather of its inverse."""
    return monomial_matrix(np.argsort(lex_index(lex_digits(p, m) @ A.T, p)))


def parity_split(p: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the even and odd parity eigenspaces.

    Returns (even, odd) as d x k column matrices with dimensions
    (p^m + 1)/2 and (p^m - 1)/2.  Pair representatives are taken in
    lexicographic order, so the bases are deterministic.
    """
    if p == 2:
        raise ValueError("parity split is used for odd p only")
    d = p**m
    neg = lex_index(-lex_digits(p, m), p)  # index of -x
    reps = np.flatnonzero(np.arange(d) < neg)  # the lex-first of each pair {x, -x}, x != 0
    cols = np.arange(len(reps))
    s = 1 / np.sqrt(2.0)
    even = np.zeros((d, len(reps) + 1))
    even[0, 0] = 1.0
    even[reps, cols + 1] = even[neg[reps], cols + 1] = s
    odd = np.zeros((d, len(reps)))
    odd[reps, cols] = s
    odd[neg[reps], cols] = -s
    return even.astype(complex), odd.astype(complex)


def _fourier(p: int, m: int) -> np.ndarray:
    pts = lex_digits(p, m)
    return _roots(p)[pts @ pts.T % p] / p ** (m / 2)


def _quad_diag(p: int, m: int, coeff: np.ndarray) -> np.ndarray:
    # diag omega^(x^T coeff x) for a symmetric integer coefficient matrix
    pts = lex_digits(p, m)
    return np.diag(_roots(p)[np.einsum("xi,ij,xj->x", pts, coeff, pts) % p])


def weil_generators(p: int, m: int) -> list[np.ndarray]:
    """Unitaries whose conjugation action generates the label symplectic group.

    The list holds the Fourier transform, one quadratic phase diagonal per
    monomial x_k^2 and x_k x_l, and index substitutions for a generating set of
    the invertible substitutions of F_p^m.  Each entry is checked to be unitary
    and to normalize the displacement classes.
    """
    if p == 2:
        raise ValueError("generators implemented for odd p only")
    if m < 1:
        raise ValueError("m must be >= 1")
    gens: list[np.ndarray] = [_fourier(p, m)]
    for k in range(m):
        C = np.zeros((m, m), dtype=np.int64)
        C[k, k] = 1
        gens.append(_quad_diag(p, m, C))
    for k in range(m):
        for l in range(k + 1, m):
            C = np.zeros((m, m), dtype=np.int64)
            # x_k x_l as a symmetric matrix needs a 2^-1 factor; keep integers
            # by using the polarized coefficient (value is x_k x_l * 2 below).
            C[k, l] = C[l, k] = 1
            gens.append(_quad_diag(p, m, C * pow(2, -1, p) % p))
    g = primitive_root(p)
    if m == 1:
        subs = [np.array([[g]], dtype=np.int64)]
    else:
        cyc = np.zeros((m, m), dtype=np.int64)
        for k in range(m):
            cyc[k, (k + 1) % m] = 1
        scale = np.eye(m, dtype=np.int64)
        scale[0, 0] = g
        shear = np.eye(m, dtype=np.int64)
        shear[0, 1] = 1
        subs = [cyc, scale, shear]
    gens.extend(_index_substitution(p, m, A) for A in subs)
    for U in gens:
        check_unitary(U)
        induced_symplectic(U, p, m)  # raises if anything fails to normalize
    return gens


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


def induced_symplectic(U: np.ndarray, p: int, m: int) -> np.ndarray:
    """Label map induced by conjugation with U on the displacement classes.

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
