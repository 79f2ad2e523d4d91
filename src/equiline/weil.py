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

from dataclasses import dataclass

import numpy as np

from .heisenberg import (
    IndexOutOfRange,
    _points,
    _roots,
    check_unitary,
    displacement,
    lex_digits,
    lex_index,
    monomial_matrix,
    valid_rep_indices,
)

__all__ = [
    "NotNormalizing",
    "NotSymplectic",
    "SymplecticAction",
    "weil_generators",
    "induced_symplectic",
    "parity_operator",
    "parity_split",
    "primitive_root",
]


class NotNormalizing(ValueError):
    """Conjugation by the unitary does not permute the displacement classes."""


class NotSymplectic(ValueError):
    """Induced label map fails to preserve the commutator pairing."""


@dataclass(frozen=True)
class SymplecticAction:
    """Linear map on (a, b) labels, stored as a (2m x 2m) tuple matrix mod p.

    Column convention: the map sends a stacked column (a; b) to matrix @ (a; b).
    """

    p: int
    m: int
    matrix: tuple[tuple[int, ...], ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=np.int64)

    def compose(self, other: SymplecticAction) -> SymplecticAction:
        if (self.p, self.m) != (other.p, other.m):
            raise ValueError("mismatched label spaces")
        prod = (self.as_array() @ other.as_array()) % self.p
        return SymplecticAction(self.p, self.m, _as_tuple(prod))

    def apply(self, a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
        vec = np.array(list(a) + list(b), dtype=np.int64)
        img = (self.as_array() @ vec) % self.p
        return tuple(int(x) for x in img[: self.m]), tuple(int(x) for x in img[self.m :])


def _as_tuple(mat: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in mat)


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
    """Permutation matrix of the index substitution |x> -> |A x> over F_p^m."""
    return monomial_matrix(lex_index(lex_digits(p, m) @ A.T, p))


def parity_operator(p: int, m: int) -> np.ndarray:
    """Permutation matrix of |x> -> |-x> on functions over F_p^m."""
    return _index_substitution(p, m, -np.eye(m, dtype=np.int64))


def parity_split(p: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the even and odd parity eigenspaces.

    Returns (even, odd) as d x k column matrices with dimensions
    (p^m + 1)/2 and (p^m - 1)/2.  Pair representatives are taken in
    lexicographic order, so the bases are deterministic.
    """
    if p == 2:
        raise ValueError("parity split is used for odd p only")
    pts = _points(p, m)
    index = {x: k for k, x in enumerate(pts)}
    d = p**m
    even_cols = [np.eye(d)[:, index[(0,) * m]]]
    odd_cols = []
    s = 1 / np.sqrt(2.0)
    for x in pts:
        nx = tuple(-xi % p for xi in x)
        if x == (0,) * m or x > nx:
            continue
        ex = np.zeros(d)
        ox = np.zeros(d)
        ex[index[x]] = ex[index[nx]] = s
        ox[index[x]] = s
        ox[index[nx]] = -s
        even_cols.append(ex)
        odd_cols.append(ox)
    return np.column_stack(even_cols).astype(complex), np.column_stack(odd_cols).astype(complex)


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


def _match_displacement(M: np.ndarray, p: int, m: int, j: int, tol: float):
    """Identify M = phase * X(a')Z(jb') or raise NotNormalizing."""
    pts = _points(p, m)
    index = {x: k for k, x in enumerate(pts)}
    col0 = M[:, 0]
    row = int(np.argmax(np.abs(col0)))
    phase = col0[row]
    if abs(abs(phase) - 1.0) > tol:
        raise NotNormalizing(f"leading coefficient has modulus {abs(phase):.6f}")
    a_img = pts[row]
    omega = np.exp(2j * np.pi / p) if p > 2 else -1.0
    b_img = []
    for k in range(m):
        ek = tuple(1 if i == k else 0 for i in range(m))
        target = tuple((x + y) % p for x, y in zip(ek, a_img))
        ratio = M[index[target], index[ek]] / phase
        # ratio should equal omega^(j * b'_k); decode by nearest root of unity
        cands = [(abs(ratio - omega ** ((j * t) % p)), t) for t in range(p)]
        b_img.append(min(cands)[1])
    b_img = tuple(b_img)
    T = displacement(p, m, a_img, b_img, j)
    if np.abs(M - phase * T).max() > tol:
        raise NotNormalizing("conjugate is not a scalar multiple of a displacement")
    return a_img, b_img


def induced_symplectic(
    U: np.ndarray, p: int, m: int, j: int = 1, tol: float = 1e-8
) -> SymplecticAction:
    """Label map induced by conjugation with U on the displacement classes.

    For each standard label generator e, matches U D(e) U^dagger to a unique
    phase * D(e') and assembles the 2m x 2m matrix of e -> e'.  Raises
    NotNormalizing if any conjugate is not a scalar multiple of a displacement,
    NotSymplectic if the assembled matrix fails to preserve the pairing.
    """
    if j not in valid_rep_indices(p):
        raise IndexOutOfRange(f"index {j} is not valid for p={p}")
    U = check_unitary(U)
    zero = (0,) * m
    cols = []
    for k in range(m):
        ek = tuple(1 if i == k else 0 for i in range(m))
        M = U @ displacement(p, m, ek, zero, j) @ U.conj().T
        a_img, b_img = _match_displacement(M, p, m, j, tol)
        cols.append(a_img + b_img)
    for k in range(m):
        ek = tuple(1 if i == k else 0 for i in range(m))
        M = U @ displacement(p, m, zero, ek, j) @ U.conj().T
        a_img, b_img = _match_displacement(M, p, m, j, tol)
        cols.append(a_img + b_img)
    S = np.array(cols, dtype=np.int64).T % p
    J = _pairing_matrix(m)
    if ((S.T @ J @ S - J) % p != 0).any():
        raise NotSymplectic("induced label map does not preserve the pairing")
    return SymplecticAction(p, m, _as_tuple(S))
