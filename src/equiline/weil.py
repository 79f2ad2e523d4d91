"""Parity eigenspaces and Weil transvections of functions on F_p^m, p odd.

A label u = (a; b) of F_p^(2m) has the displacement E(u) = zeta^(2^-1 a.b)
X(a) Z(b).  E(u)^k = E(k u), so E(u) = sum_j zeta^j P_j over eigenprojectors
P_j.  With t = (p - 1)/2, so -2t = 1 mod p, the Weil transvection along u is
the unitary U_u = sum_j zeta^(t j^2) P_j = sum_k g_k E(k u), a sum of p
monomials with g_k = (1/p) sum_j zeta^(t j^2 - j k).  Let omega = b_x.a_u -
a_x.b_u.  D(x) E(u) = zeta^omega E(u) D(x), so D(x) P_j = P_(j - omega) D(x):

    U_u D(x) U_u* = sum_i zeta^(t (i - omega)^2 - t i^2) D(x) P_i
                  = zeta^(t omega^2) D(x) E(omega u),

a multiple of D(x + omega u), so U_u maps labels by x -> x + omega u.  The
parity operator |x> -> |-x> sends E(k u) to E(-k u), and g_(-k) = g_k, so it
commutes with every U_u.  The generators take u along a_1, b_1, ..., a_m,
b_m (a_i = e_i and b_i = e_(m+i) in the stacked label), then along the
2m - 1 sums of neighbours in that order.  For m = 1 the maps along a_1 and
b_1 are the elementary matrices, which generate SL(2, p) = Sp(2, p).
"""

from __future__ import annotations

import numpy as np

from .heisenberg import (
    _roots,
    check_unitary,
    displacement_monomial,
    lex_digits,
    lex_index,
    monomial_matrix,
)

__all__ = ["transvection_unitaries", "parity_split"]


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


def transvection_unitaries(p: int, m: int) -> list[np.ndarray]:
    """The dense Weil transvections U_u along the 4m - 1 labels u of the chain
    (module docstring), each checked to be unitary."""
    if p == 2 or m < 1:
        raise ValueError("Weil transvections need an odd prime p and m >= 1")
    t, half, roots, k = (p - 1) // 2, (p + 1) // 2, _roots(p), np.arange(p)
    g = roots[(t * k**2 - np.outer(k, k)) % p].sum(axis=1) / p  # row k sums over j
    chain = np.eye(2 * m, dtype=np.int64)[np.arange(2 * m).reshape(2, m).T.ravel()]  # a_1, b_1, ...
    gens = []
    for u in np.concatenate([chain, chain[:-1] + chain[1:]]):
        a, b = np.hsplit(np.outer(k, u) % p, 2)  # row k is k u
        index, phase = displacement_monomial(p, m, a, b)
        phase = phase * roots[half * np.vecdot(a, b) % p, None]  # half = 2^-1 mod p
        gens.append(check_unitary(np.tensordot(g, monomial_matrix(index, phase), axes=1)))
    return gens
