"""Quadratic forms over GF(2) on odd-dimensional spaces, and their hyperplane geometry.

Vectors in F_2^k are packed into Python ints, bit i holding coordinate i; form
evaluation is a masked popcount.  Everything here is exact integer arithmetic.
Hyperplane types are decided by the definition-level singular-vector count, never
by a shortcut formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .heisenberg import lex_digits

__all__ = [
    "HyperplaneType",
    "RadicalDimension",
    "ClassifierMismatch",
    "QuadForm2",
    "standard_form",
    "radical",
    "singular_count",
    "classify_hyperplane",
    "enumerate_hyperplanes",
    "nonsingular_vectors",
    "dot2",
]


class HyperplaneType(Enum):
    PLUS = "plus"
    MINUS = "minus"
    DEGENERATE = "degenerate"


class RadicalDimension(ValueError):
    """The polarization's radical is not a 1-space on which the form is nonzero."""


class ClassifierMismatch(ValueError):
    """Singular-vector count matches no hyperplane type; the form is malformed."""


def dot2(x: int, y: int) -> int:
    """Standard pairing of two packed F_2 vectors."""
    return (x & y).bit_count() & 1


def _packed_lex(dim: int) -> list[int]:
    """All of F_2^dim packed, in lexicographic order of coordinate tuples
    (coordinate 0 major)."""
    return (lex_digits(2, dim) @ (1 << np.arange(dim))).tolist()


@dataclass(frozen=True)
class QuadForm2:
    """Quadratic form on F_2^dim given by upper-triangular coefficients.

    rows[i] is the packed mask of coefficients c_{ij} for j >= i, so
    Q(x) = sum_{i <= j} c_{ij} x_i x_j over F_2.
    """

    dim: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.dim:
            raise ValueError("need one coefficient row per coordinate")
        for i, row in enumerate(self.rows):
            if row >> self.dim or row & ((1 << i) - 1):
                raise ValueError("coefficient rows must be upper triangular within dim")

    def evaluate(self, x: int) -> int:
        acc = 0
        y = x
        while y:
            i = (y & -y).bit_length() - 1
            acc += (self.rows[i] & x).bit_count()
            y &= y - 1
        return acc & 1

    __call__ = evaluate

    def bilinear(self, x: int, y: int) -> int:
        """Polarization B(x, y) = Q(x + y) + Q(x) + Q(y); alternating bilinear."""
        return self.evaluate(x ^ y) ^ self.evaluate(x) ^ self.evaluate(y)

    def bilinear_mask(self, u: int) -> int:
        """The functional B(., u) as a packed vector."""
        mask = 0
        for i in range(self.dim):
            if self.bilinear(1 << i, u):
                mask |= 1 << i
        return mask


def standard_form(m: int) -> QuadForm2:
    """Q(x) = x_0^2 + x_1 x_2 + ... + x_{2m-1} x_{2m} on F_2^(2m+1).

    The polarization's radical is generated by e_0 and Q(e_0) = 1.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    dim = 2 * m + 1
    rows = [0] * dim
    rows[0] = 1
    for i in range(1, dim, 2):
        rows[i] = 1 << (i + 1)
    return QuadForm2(dim, tuple(rows))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # cached: every caller gets the same array
    return a


@lru_cache(maxsize=None)
def _value_table(q: QuadForm2) -> np.ndarray:
    """Q(v) at every packed v = 0 .. 2^dim - 1."""
    return _readonly(np.array([q.evaluate(x) for x in range(1 << q.dim)], dtype=np.uint8))


@lru_cache(maxsize=None)
def _parity_table(dim: int) -> np.ndarray:
    """popcount(v) mod 2 at every packed v = 0 .. 2^dim - 1."""
    return _readonly(np.bitwise_count(np.arange(1 << dim)) & 1)


@lru_cache(maxsize=None)
def radical(q: QuadForm2) -> int:
    """Generator of the polarization's radical: the nonzero r with
    B(r, e_i) = Q(r + e_i) + Q(r) + Q(e_i) = 0 for every unit e_i, read off
    the value table.  Requires exactly one such r, and Q(r) = 1."""
    vt = _value_table(q)
    x = np.arange(1 << q.dim)
    polar = [vt[x ^ (1 << i)] ^ vt ^ vt[1 << i] for i in range(q.dim)]  # B(x, e_i)
    r = np.flatnonzero(~np.any(polar, axis=0))[1:]  # x = 0 pairs trivially too
    if len(r) != 1:
        raise RadicalDimension(f"radical has {len(r)} nonzero vectors, expected 1")
    if not vt[r[0]]:
        raise RadicalDimension("form vanishes on the radical generator")
    return int(r[0])


def singular_count(q: QuadForm2, phi: int) -> int:
    """Number of nonzero v in ker(phi) with Q(v) = 0, by full enumeration."""
    v = np.arange(1, 1 << q.dim)
    return int(np.count_nonzero((_value_table(q)[1:] == 0) & (_parity_table(q.dim)[phi & v] == 0)))


def classify_hyperplane(q: QuadForm2, phi: int) -> HyperplaneType:
    """Type of the hyperplane ker(phi) under the restricted form."""
    if phi == 0 or phi >> q.dim:
        raise ValueError("functional must be nonzero and fit the dimension")
    r = radical(q)
    if dot2(phi, r) == 0:
        return HyperplaneType.DEGENERATE
    m = (q.dim - 1) // 2
    s = singular_count(q, phi)
    if s == 2 ** (2 * m - 1) + 2 ** (m - 1) - 1:
        return HyperplaneType.PLUS
    if s == 2 ** (2 * m - 1) - 2 ** (m - 1) - 1:
        return HyperplaneType.MINUS
    raise ClassifierMismatch(f"singular count {s} fits no type at m={m}")


@lru_cache(maxsize=None)
def _hyperplanes(q: QuadForm2, tag: HyperplaneType) -> tuple[int, ...]:
    return tuple(phi for phi in _packed_lex(q.dim) if phi and classify_hyperplane(q, phi) is tag)


def enumerate_hyperplanes(q: QuadForm2, tag: HyperplaneType) -> list[int]:
    """The packed functionals phi whose hyperplanes ker(phi) have the given
    type, in lexicographic order.  The +-1 character of ker(phi) at e is
    (-1)^dot2(phi, e).  The enumeration is made once per (q, tag)."""
    return list(_hyperplanes(q, tag))


def nonsingular_vectors(q: QuadForm2) -> list[int]:
    """All u with Q(u) = 1, in lexicographic order."""
    return [u for u in _packed_lex(q.dim) if u and q.evaluate(u)]
