"""Equiangular line sets: the two algebraic constructions, Gram-matrix
certificates, and the dimension bookkeeping n = d + d'.

A line set is stored as a d x n complex matrix of unit columns, one column per
line.  Sign-matrix constructions keep their integer +-1 data alongside the
normalized columns so that angle certificates can be exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .finfield import HyperplaneType, enumerate_hyperplanes, standard_form
from .heisenberg import displacement_monomial, lex_digits
from .weil import parity_split

__all__ = [
    "SpanDeficient",
    "NotEquiangular",
    "WelchViolation",
    "UnknownCase",
    "LineSet",
    "GramMatrix",
    "AngleCertificate",
    "translations",
    "orbit",
    "construct_case_iii",
    "construct_case_iv",
    "gram",
    "certify_equiangular",
    "certify_tight",
    "dimension_pair",
    "classification_rows",
]

NORM_TOL = 1e-10


class SpanDeficient(ValueError):
    """The constructed columns fail to span the ambient space."""


class NotEquiangular(Exception):
    """Some pair's overlap deviates from the common angle beyond tolerance."""

    def __init__(self, i: int, j: int, deviation: float):
        self.pair = (i, j)
        self.deviation = deviation
        super().__init__(f"pair ({i}, {j}) deviates from the common angle by {deviation:.3e}")


class WelchViolation(Exception):
    """A tight equiangular set whose angle misses alpha^2 = (n - d) / (d (n - 1))."""


class UnknownCase(ValueError):
    """(n, d) is not a row of the classification table."""


@dataclass
class LineSet:
    """Unit representative columns of n lines spanning C^d."""

    vectors: np.ndarray
    meta: dict = field(default_factory=dict)
    signs: np.ndarray | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=complex)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a d x n matrix")
        d, n = self.vectors.shape
        if n <= d:
            raise ValueError(f"need more lines than dimensions, got n={n}, d={d}")
        norms = np.linalg.norm(self.vectors, axis=0)
        if np.abs(norms - 1.0).max() > NORM_TOL:
            raise ValueError("columns must be unit vectors")
        rank = np.linalg.matrix_rank(self.vectors)
        if rank != d:
            raise SpanDeficient(f"columns span rank {rank} < d = {d}")
        if self.signs is not None:
            self.signs = np.asarray(self.signs, dtype=np.int64)
            if self.signs.shape != (d, n):
                raise ValueError("sign matrix shape mismatch")

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]


@dataclass
class GramMatrix:
    """Gram matrix of a line set, with exact integer products when available.

    int_products holds d * <v_i, v_j> as integers for sign-matrix constructions.
    """

    values: np.ndarray
    d: int
    int_products: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class AngleCertificate:
    """Common angle evidence: alpha, worst deviation, and exactness flag."""

    alpha: float
    max_dev: float
    exact: bool
    numerator: int | None = None
    denominator: int | None = None


def translations(p: int, k: int, elements=None, *, du: int = 1, functionals=None):
    """Monomials (perm, phase) of the regular translation group F_p^(2k) on
    C^d, stacked in line order (see heisenberg.monomial_matrix).

    Element i has as label (a, b) the 2k base-p digits of i, most significant
    first, so the lines are in lexicographic label order and element i maps
    line 0 to line i.  elements picks rows (default all p^(2k)).  A label acts
    by the +-1 character diagonal (-1)^(phi . e) over the given hyperplane
    functionals phi, with e = (0, a, b) packed as in finfield (case iii, p = 2);
    otherwise by the displacement D(a, b) (x) I_du (du = 1 for cases i and ii).
    """
    labels = lex_digits(p, 2 * k, elements)
    if functionals is not None:
        bits = np.asarray(functionals)[None, :] >> np.arange(1, 2 * k + 1)[:, None] & 1
        phase = 1.0 - 2.0 * (labels @ bits % 2)
        return np.broadcast_to(np.arange(len(functionals)), phase.shape), phase
    perm, phase = displacement_monomial(p, k, labels[:, :k], labels[:, k:])
    perm = (perm[..., None] * du + np.arange(du)).reshape(len(labels), -1)
    return perm, np.repeat(phase, du, axis=-1)


def orbit(base: np.ndarray, perm: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """The d x N matrix whose column i is the image of base under the i-th of
    the stacked monomials (perm, phase)."""
    cols = np.empty(perm.shape[::-1], dtype=np.result_type(phase, base))
    np.put_along_axis(cols, perm.T, (phase * base).T, axis=0)
    return cols


def construct_case_iii(m: int, type_choice: HyperplaneType) -> LineSet:
    """Sign-matrix line set from hyperplanes of one type: n = 4^m lines in
    dimension d = 2^(m-1)(2^m -+ 1) (minus type gives the minus sign).

    Coordinates are indexed by the chosen-type hyperplanes in lexicographic
    order.  The lines are the translation orbit of the all-ones vector, so
    column(e)[M] = character_M(e) / sqrt(d) over the lexicographic-least
    representatives e of the cosets of the radical.  All signs are exact
    integers.
    """
    if m < 2:
        raise ValueError("m must be >= 2; m = 1 leaves no usable dimension pair")
    if type_choice is HyperplaneType.DEGENERATE:
        raise ValueError("degenerate hyperplanes do not give a line set")
    hyps = enumerate_hyperplanes(standard_form(m), type_choice)
    d = len(hyps)
    shifts = translations(2, m, functionals=[h.functional for h in hyps])
    signs = orbit(np.ones(d, dtype=np.int64), *shifts)
    meta = {
        "case": "iii",
        "m": m,
        "type": type_choice.value,
        "n": signs.shape[1],
        "d": d,
        "exact_signs": True,
    }
    return LineSet((signs / np.sqrt(d)).astype(complex), meta, signs=signs)


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    return all(p % k for k in range(3, isqrt(p) + 1, 2))


def construct_case_iv(p: int, m: int, eigen_choice: HyperplaneType) -> LineSet:
    """Heisenberg orbit of the parity-eigenspace fiducial: n = p^(2m) lines in
    dimension d = p^m (p^m -+ 1)/2 for odd p.

    The ambient space is the operator space Hom(U, W) with W the p^m-dimensional
    representation space and U the chosen parity eigenspace (minus = odd, the
    smaller one).  The fiducial is the normalized inclusion of U; line e is the
    flattened matrix D(e) @ iota / sqrt(dim U), the translation orbit of the
    flattened iota.  LineSet raises SpanDeficient if the orbit fails to span.
    """
    if not _is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if eigen_choice is HyperplaneType.DEGENERATE:
        raise ValueError("eigenspace choice must be plus or minus")
    even, odd = parity_split(p, m)
    iota = odd if eigen_choice is HyperplaneType.MINUS else even
    du = iota.shape[1]
    cols = orbit(iota.reshape(-1), *translations(p, m, du=du)) * (1 / np.sqrt(du))
    meta = {
        "case": "iv",
        "p": p,
        "m": m,
        "eigen": eigen_choice.value,
        "n": cols.shape[1],
        "d": cols.shape[0],
    }
    return LineSet(cols, meta)


def gram(L: LineSet) -> GramMatrix:
    """Hermitian Gram matrix of the line representatives, unit diagonal."""
    G = L.vectors.conj().T @ L.vectors
    if np.abs(G - G.conj().T).max() > 1e-12 or np.abs(np.diag(G) - 1.0).max() > 1e-10:
        raise ValueError("Gram matrix failed hermiticity/diagonal validation")
    ip = None
    if L.signs is not None:
        ip = L.signs.T @ L.signs
    return GramMatrix(G, L.d, ip)


def certify_equiangular(G: GramMatrix, tol: float = 1e-8) -> AngleCertificate:
    """Check all off-diagonal overlap magnitudes share one value alpha.

    Integer-product Grams are certified exactly (max_dev is exactly zero when
    all integer magnitudes agree); otherwise alpha is the mean off-diagonal
    magnitude and max_dev the worst deviation from it.  Raises NotEquiangular,
    carrying the worst pair, when max_dev > tol.
    """
    n = G.n
    iu = np.triu_indices(n, k=1)
    if G.int_products is not None:
        mags = np.abs(G.int_products[iu])
        lo, hi = int(mags.min()), int(mags.max())
        if lo == hi:
            return AngleCertificate(
                alpha=lo / G.d, max_dev=0.0, exact=True, numerator=lo, denominator=G.d
            )
        # fall through to a float certificate over the exact integers
        mean = mags.mean() / G.d
        devs = np.abs(mags / G.d - mean)
        worst = int(np.argmax(devs))
        i, j = iu[0][worst], iu[1][worst]
        if devs[worst] > tol:
            raise NotEquiangular(int(i), int(j), float(devs[worst]))
        return AngleCertificate(alpha=float(mean), max_dev=float(devs.max()), exact=True)
    mags = np.abs(G.values[iu])
    alpha = float(mags.mean())
    devs = np.abs(mags - alpha)
    worst = int(np.argmax(devs))
    if devs[worst] > tol:
        i, j = iu[0][worst], iu[1][worst]
        raise NotEquiangular(int(i), int(j), float(devs[worst]))
    return AngleCertificate(alpha=alpha, max_dev=float(devs.max()), exact=False)


def certify_tight(G: GramMatrix, d: int, tol: float = 1e-8) -> bool:
    """True iff G^2 = (n/d) G within tol (the frame-operator multiple-of-identity
    condition read off the Gram side).

    When the set is also equiangular, the common angle must satisfy the
    extremal identity alpha^2 = (n - d) / (d (n - 1)); a violation raises
    WelchViolation.
    """
    n = G.n
    resid = np.abs(G.values @ G.values - (n / d) * G.values).max()
    if resid > tol:
        return False
    try:
        cert = certify_equiangular(G, tol=max(tol, 1e-8))
    except NotEquiangular:
        return True
    welch = (n - d) / (d * (n - 1))
    if abs(cert.alpha**2 - welch) > max(tol, 1e-8):
        raise WelchViolation(
            f"tight equiangular set violates the extremal angle identity: "
            f"alpha^2 = {cert.alpha**2}, expected {welch}"
        )
    return True


def _factor_prime_power_square(n: int):
    """Yield (p, m) with n = p^(2m), p prime."""
    q = isqrt(n)
    if q * q != n:
        return
    # factor q as a prime power
    x = q
    for p in range(2, isqrt(q) + 1):
        if x % p == 0:
            m = 0
            while x % p == 0:
                x //= p
                m += 1
            if x == 1:
                yield p, m
            return
    if q >= 2:
        yield q, 1


def _valid_dims(n: int) -> dict[int, tuple[str, int, int]]:
    """Map of admissible d values to (case, p, m) for given n."""
    out: dict[int, tuple[str, int, int]] = {}
    for p, m in _factor_prime_power_square(n):
        if p == 2:
            if n == 4:
                out[2] = ("i", 2, 1)
            if n == 64:
                out[8] = ("ii", 2, 3)
                out[56] = ("ii", 2, 3)
            if m >= 2:
                out[2 ** (m - 1) * (2**m - 1)] = ("iii", 2, m)
                out[2 ** (m - 1) * (2**m + 1)] = ("iii", 2, m)
        else:
            q = p**m
            out[q * (q - 1) // 2] = ("iv", p, m)
            out[q * (q + 1) // 2] = ("iv", p, m)
    return out


def dimension_pair(n: int, d: int) -> int:
    """Complementary dimension d' = n - d, after validating (n, d) against the
    classification table.  Raises UnknownCase for parameters off the table.
    """
    dims = _valid_dims(n)
    if d not in dims:
        raise UnknownCase(f"(n, d) = ({n}, {d}) is not a classified pair")
    return n - d


def classification_rows(n_max: int = 4096) -> list[dict]:
    """All classified (case, n, d, d') rows with n <= n_max, ascending in n."""
    rows = []
    for n in range(4, n_max + 1):
        dims = _valid_dims(n)
        for d in sorted(dims):
            if 2 * d <= n:  # report each pair once, smaller d first
                case, p, m = dims[d]
                rows.append(
                    {"case": case, "n": n, "d": d, "d_prime": n - d, "p": p, "m": m}
                )
    return rows
