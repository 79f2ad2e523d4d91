"""The quadratic space of case iii, and its hyperplane geometry.

The space is F_2^(2m+1) with the form

    Q(x) = x_0 + x_1 x_2 + x_3 x_4 + ... + x_{2m-1} x_{2m},

whose polarization B(x, y) = Q(x + y) + Q(x) + Q(y) has radical spanned by
e_0, with Q(e_0) = 1.  Over F_2 every form on an odd-dimensional space whose
polarization has a 1-dimensional radical on which the form is nonzero is
isometric to this one, so every function here takes m in place of a form.

Vectors are packed into Python ints or int arrays, bit i holding coordinate
i, and both forms are bit operations: Q(x) is x_0 plus the parity of
x & (x >> 1) on the bits 1, 3, ..., 2m - 1, and B(., u) is u with its
coordinate pairs (1, 2), (3, 4), ... swapped and coordinate 0 dropped.
Everything here is exact integer arithmetic.  Hyperplane types are decided by
the definition-level singular-vector count, never by a shortcut formula.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from .heisenberg import lex_digits

__all__ = [
    "HyperplaneType",
    "quadratic",
    "bilinear_mask",
    "singular_count",
    "classify_hyperplane",
    "enumerate_hyperplanes",
    "dot2",
]


class HyperplaneType(Enum):
    PLUS = "plus"
    MINUS = "minus"
    DEGENERATE = "degenerate"


def dot2(x: int, y: int) -> int:
    """Standard pairing of two packed F_2 vectors."""
    return (x & y).bit_count() & 1


def _packed_lex(dim: int) -> list[int]:
    """All of F_2^dim packed, in lexicographic order of coordinate tuples
    (coordinate 0 major)."""
    return (lex_digits(2, dim) @ (1 << np.arange(dim))).tolist()


def quadratic(m: int, x):
    """Q(x) of a packed vector, or of each entry of an int array."""
    # x & 1, not x: numpy 2 counts the bits of a Python int as uint8, and
    # x ^ uint8 overflows once x > 255.  2(4^m - 1)/3 has bits 1, 3, ..., 2m - 1.
    return (x & 1) ^ (np.bitwise_count(x & (x >> 1) & (2 * (4**m - 1) // 3)) & 1)


def bilinear_mask(m: int, u):
    """The functional B(., u) as a packed vector, of a packed vector or of
    each entry of an int array: B(x, u) = dot2(x, bilinear_mask(m, u))."""
    odd = 2 * (4**m - 1) // 3  # bits 1, 3, ..., 2m - 1
    return ((u >> 1) & odd) | ((u << 1) & (odd << 1))


@lru_cache(maxsize=None)
def _singular(m: int) -> np.ndarray:
    """The nonzero v with Q(v) = 0, packed, in ascending order."""
    v = np.arange(1, 1 << (2 * m + 1))
    v = v[quadratic(m, v) == 0]
    v.flags.writeable = False  # cached: every caller gets the same array
    return v


def singular_count(m: int, phi: int) -> int:
    """Number of nonzero v in ker(phi) with Q(v) = 0, by full enumeration."""
    return int(np.count_nonzero((np.bitwise_count(phi & _singular(m)) & 1) == 0))


def classify_hyperplane(m: int, phi: int) -> HyperplaneType:
    """Type of the hyperplane ker(phi) under the restricted form; ValueError
    when its singular count fits no type."""
    if phi == 0 or phi >> (2 * m + 1):
        raise ValueError("functional must be nonzero and fit the dimension")
    if not dot2(phi, 1):  # ker(phi) holds the radical e_0
        return HyperplaneType.DEGENERATE
    s = singular_count(m, phi)
    if s == 2 ** (2 * m - 1) + 2 ** (m - 1) - 1:
        return HyperplaneType.PLUS
    if s == 2 ** (2 * m - 1) - 2 ** (m - 1) - 1:
        return HyperplaneType.MINUS
    raise ValueError(f"singular count {s} fits no type at m={m}")


@lru_cache(maxsize=None)
def _hyperplanes(m: int, tag: HyperplaneType) -> tuple[int, ...]:
    lex = _packed_lex(2 * m + 1)
    return tuple(phi for phi in lex if phi and classify_hyperplane(m, phi) is tag)


def enumerate_hyperplanes(m: int, tag: HyperplaneType) -> list[int]:
    """The packed functionals phi whose hyperplanes ker(phi) have the given
    type, in lexicographic order.  The +-1 character of ker(phi) at e is
    (-1)^dot2(phi, e).  The enumeration is made once per (m, tag)."""
    return list(_hyperplanes(m, tag))

