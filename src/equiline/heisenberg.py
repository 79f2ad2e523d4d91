"""Displacement operators of the finite Heisenberg groups, as monomials.

Over the p^m points of F_p^m in lexicographic order, the displacement with
label (a, b) is X(a) Z(b), where X(a)|x> = |x + a> and Z(b)|x> =
zeta^(kappa b.x)|x>: zeta = exp(2 pi i / p) and kappa = 1 for odd p, zeta = i
and kappa = 2 (so Z is the +-1 modulation) for p = 2.  Each is a monomial in
gather form (index, phase), (D v)[y] = phase[y] v[index[y]], the one form in
which the constructions, the orbit check, the fiducial search, the
translation unitaries and the Weil transvections apply it, and its phase is
zeta^t for an exact exponent t (_displacement_exponents), which codes the
entries of a written orbit; monomial_matrix gives the dense matrix.
lex_digits and lex_index convert between points and their indices.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "displacement_monomial",
    "monomial_matrix",
    "check_unitary",
]


# Residual of U^dagger U - I above which check_unitary refuses U.
_UNITARY_TOL = 1e-10


@lru_cache(maxsize=256)
def _lex_weights(p: int, m: int) -> np.ndarray:
    """p^(m-1), ..., p, 1, read-only: the weight of each base-p digit."""
    weights = p ** np.arange(m - 1, -1, -1)
    weights.flags.writeable = False
    return weights


def lex_digits(p: int, m: int, index=None) -> np.ndarray:
    """Base-p digits of each index (default 0 .. p^m - 1), most significant
    first: row x is the x-th vector of F_p^m in lexicographic order."""
    index = np.arange(p**m) if index is None else np.asarray(index)
    return index[..., None] // _lex_weights(p, m) % p


def lex_index(x: np.ndarray, p: int) -> np.ndarray:
    """Inverse of lex_digits: the lexicographic index of each row of x mod p."""
    return x % p @ _lex_weights(p, x.shape[-1])


def monomial_matrix(index: np.ndarray, phase=1.0) -> np.ndarray:
    """Dense form of the monomial (M v)[y] = phase[y] v[index[y]]; the map
    |x> -> |perm[x]> is the gather of the inverse permutation.

    Leading axes of index stack operators.  The dtype is that of phase, so
    real phases give a real matrix.
    """
    index = np.asarray(index)
    phase = np.broadcast_to(np.asarray(phase), index.shape)
    out = np.zeros(index.shape + index.shape[-1:], dtype=phase.dtype)
    np.put_along_axis(out, index[..., None], phase[..., None], axis=-1)
    return out


def _roots(p: int) -> np.ndarray:
    """The central phases zeta^t, t = 0 .. len - 1, with len = p for odd p
    and 4 for p = 2, each power taken with an exact integer exponent."""
    zeta = np.exp(2j * np.pi / p) if p > 2 else 1j
    return np.array([zeta**t for t in range(p if p > 2 else 4)])


def _displacement_exponents(p: int, m: int, a, b):
    """(index, t) of X(a) Z(b), whose phase is _roots(p)[t]: t is the exact
    exponent kappa b.x of zeta, reduced, in the narrowest unsigned dtype."""
    x = (lex_digits(p, m) - np.asarray(a)[..., None, :]) % p
    kappa, order = (1, p) if p > 2 else (2, 4)
    t = kappa * np.vecdot(x, np.asarray(b)[..., None, :]) % order
    return lex_index(x, p), t.astype(np.min_scalar_type(order - 1))


def displacement_monomial(p: int, m: int, a, b):
    """(index, phase) of X(a) Z(b) over the p^m points in lexicographic order:
    (X(a) Z(b) v)[y] = zeta^(kappa b.x) v[x] with x = y - a.

    Vectorized: a and b of shape (..., m) give index and phase of shape
    (..., p^m).
    """
    index, t = _displacement_exponents(p, m, a, b)
    return index, _roots(p)[t]


def check_unitary(U: np.ndarray) -> np.ndarray:
    """Validate U^dagger U = I within _UNITARY_TOL and return U as a complex
    array."""
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("matrix must be square")
    resid = np.abs(U.conj().T @ U - np.eye(U.shape[0])).max()
    if resid > _UNITARY_TOL:
        raise ValueError(f"matrix is not unitary: residual {resid:.3e}")
    return U
