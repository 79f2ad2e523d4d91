"""Equiangular line sets: the two algebraic constructions, Gram-matrix
certificates, and the dimension bookkeeping n = d + d'.

A line set is stored as a d x n matrix of unit columns, one column per line:
C-ordered float64 when no entry has a nonzero imaginary part, as for the
sign-matrix sets of case iii, and complex128 otherwise.  Sign-matrix
constructions keep their +-1 signs alongside the normalized columns, as int8,
so that angle certificates can be exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import isqrt, prod
from pathlib import Path
from typing import Callable

import numpy as np

from .finfield import HyperplaneType, enumerate_hyperplanes, standard_form
from .heisenberg import displacement_monomial, lex_digits
from .weil import parity_split

__all__ = [
    "SpanDeficient",
    "NotEquiangular",
    "UnknownCase",
    "LineSet",
    "GramMatrix",
    "AngleCertificate",
    "translations",
    "orbit",
    "line_translations",
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


class UnknownCase(ValueError):
    """(n, d) is not a row of the classification table."""


def _gershgorin_full_rank(frame: np.ndarray, n: int) -> bool:
    """True when Gershgorin's discs prove that every eigenvalue of the d x d
    frame operator F = V V* clears _frame_rank's threshold with a factor 2 to
    spare: min_i (F_ii - R_i) > 2 max_i (F_ii + R_i) * max(d, n) * eps, with
    R_i = sum_{j != i} |F_ij|.  O(d^2); False leaves the rank to _frame_rank.
    """
    rows = np.abs(frame).sum(axis=1)  # |F_ii| + R_i
    diag = frame.diagonal()
    lower = (diag.real - (rows - np.abs(diag))).min()
    return bool(lower > 2 * rows.max() * max(len(frame), n) * np.finfo(float).eps)


def _frame_rank(frame: np.ndarray, n: int) -> int:
    """Rank of the span of n columns, read off their d x d frame operator
    F = V V*: the number of eigenvalues lambda > lambda_max * max(d, n) * eps,
    the size of the rounding error of F's eigenvalues.  Forming F squares the
    singular values of V, so a column direction below
    sigma_max * sqrt(max(d, n) * eps) counts as missing.
    """
    eigs = np.linalg.eigvalsh(frame)
    return int(np.count_nonzero(eigs > eigs[-1] * max(len(frame), n) * np.finfo(float).eps))


def _columns(V) -> np.ndarray:
    """V as C-ordered float64 when no entry has a nonzero imaginary part (-0.0
    counts as zero), else as complex128."""
    V = np.asarray(V)
    if V.dtype.kind not in "biuf":
        V = np.asarray(V, dtype=complex)
        if V.imag.any():
            return V
        V = V.real
    return np.ascontiguousarray(V, dtype=np.float64)


@dataclass
class LineSet:
    """Unit representative columns of n lines spanning C^d, n > d >= 2.

    vectors is stored as _columns gives it: real columns as C-ordered float64,
    taken without a copy when they come so, and all others as complex128.
    signs, when given, must be +-1 (ValueError otherwise) and is stored as
    int8.  norms holds the column norms, which must be 1 within NORM_TOL.
    frame is the d x d frame operator F = V V*, formed once here.  The
    columns span C^d iff F is nonsingular: a Gershgorin bound decides that in
    O(d^2) for well-conditioned F, and _frame_rank otherwise.
    """

    vectors: np.ndarray
    meta: dict = field(default_factory=dict)
    signs: np.ndarray | None = None
    norms: np.ndarray = field(init=False, repr=False, compare=False)
    frame: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vectors = V = _columns(self.vectors)
        if V.ndim != 2:
            raise ValueError("vectors must be a d x n matrix")
        if not np.isfinite(V).all():
            raise ValueError("columns must be finite")
        d, n = V.shape
        if n <= d:
            raise ValueError(f"need more lines than dimensions, got n={n}, d={d}")
        real = V.dtype == np.float64
        if real:  # real products: a quarter of the work
            self.norms = np.sqrt(np.einsum("ij,ij->j", V, V))
        else:  # per-column sums of squares, with no temporary the size of V
            re, im = V.real, V.imag
            self.norms = np.sqrt(np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im))
        if np.abs(self.norms - 1.0).max() > NORM_TOL:
            raise ValueError("columns must be unit vectors")
        if d < 2:
            raise ValueError("need d >= 2: every unit column of C^1 spans the same line")
        self.frame = V @ V.T if real else V @ V.conj().T
        if not _gershgorin_full_rank(self.frame, n):
            rank = _frame_rank(self.frame, n)
            if rank != d:
                raise SpanDeficient(f"columns span rank {rank} < d = {d}")
        if self.signs is not None:
            signs = np.asarray(self.signs)
            if signs.shape != (d, n):
                raise ValueError("sign matrix shape mismatch")
            # checked before the cast, so that no value can wrap into +-1
            if signs.dtype.kind not in "iuf" or not (np.abs(signs) == 1).all():
                raise ValueError("signs must be +-1")
            self.signs = signs.astype(np.int8, copy=False)

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]


@dataclass
class GramMatrix:
    """Gram matrix of the line set lines, whose d and frame it reads, with
    int_products d <v_i, v_j> = (S^T S)_ij as int64 for sign-matrix sets (its
    entries reach d, past the int8 range of the signs S).  A row Gram keeps
    only line 0's row: values and int_products have shape (1, n), and
    orbit_eps is the orbit residual of gram (None for an n x n Gram);
    certify_equiangular forms the n x n Gram from lines when the row does
    not prove the angle.
    """

    values: np.ndarray
    lines: LineSet = field(repr=False, compare=False)
    int_products: np.ndarray | None = None
    orbit_eps: float | None = None

    @property
    def d(self) -> int:
        return self.lines.d

    @property
    def frame(self) -> np.ndarray:
        return self.lines.frame

    @property
    def n(self) -> int:
        return self.values.shape[1]


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
        packed = labels @ (2 << np.arange(2 * k))  # e = (0, a, b), as in finfield
        parity = np.bitwise_count(packed[:, None] & np.asarray(functionals)) & 1
        phase = np.array([1.0, -1.0])[parity]
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


def _case(lines: LineSet) -> tuple[str, int, int]:
    """(case, p, m) of a constructed line set, after checking its meta against
    the classification row of (n, d); raises ValueError on any mismatch."""
    meta, n, d = lines.meta, lines.n, lines.d
    case = meta.get("case")
    if case not in ("i", "ii", "iii", "iv"):
        raise ValueError(
            f"line set carries no construction tag, meta={meta}; cannot derive symmetries"
        )
    row = _valid_dims(n).get(d)
    if row is None or row[0] != case:
        raise ValueError(f"(n, d) = ({n}, {d}) is not a case {case} line set")
    _, p, m = row
    if case in ("i", "ii") and d * d != n:
        raise ValueError(f"case {case} line sets are fiducial orbits with n = d^2, got ({n}, {d})")
    kind = "minus" if 2 * d < n else "plus"
    expected = {"iii": {"m": m, "type": kind}, "iv": {"p": p, "m": m, "eigen": kind}}
    for key, value in expected.get(case, {}).items():
        if meta.get(key) != value:
            raise ValueError(f"meta {key} = {meta.get(key)!r}, expected {value!r} for ({n}, {d})")
    return case, p, m


def line_translations(lines: LineSet, elements=None):
    """The translation monomials of a constructed line set, in line order
    (translations): element i maps line 0 to line i."""
    case, p, m = _case(lines)
    if case == "iii":
        phis = enumerate_hyperplanes(standard_form(m), HyperplaneType(lines.meta["type"]))
        return translations(2, m, elements, functionals=phis)
    return translations(p, m, elements, du=lines.d // p**m)


# Peak bytes per entry of the d x n columns while construct_case_iii or
# construct_case_iv runs: the translations' phases, the orbit, the columns
# and LineSet's checks (measured as the rise in peak RSS: case iii, float64
# columns and int8 signs, 25.3 B at m = 5 and 20.0 B at m = 6; case iv,
# complex columns, 56-61 B at (3, 3), (7, 2) and (61, 1)).
_BUILD_BYTES_PER_ENTRY = 64
_BUILD_WHAT = "building its {} x {} columns takes about {} bytes"
_CGROUP_MEMORY_MAX = Path("/sys/fs/cgroup/memory.max")


def _memory_limit() -> int:
    """Physical memory, or the cgroup v2 memory limit of this process where
    that is set and lower."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        limit = _CGROUP_MEMORY_MAX.read_text().strip()
    except OSError:
        return memory
    return min(memory, int(limit)) if limit.isdigit() else memory


def _shape_in_memory(what: str, entry_bytes: int, floors: tuple[int, ...],
                     shape: Callable[[], tuple[int, ...]]) -> tuple[int, ...]:
    """The shape() of an array of entry_bytes-byte entries, or MemoryError when
    the array would exceed _memory_limit().  what describes it, with a {} field
    for each dimension and one for the size in bytes.

    floors are lower bounds on the dimensions' log2, read off the parameters.
    An array that they put 2^64 times past memory is refused before shape()
    forms a single power (3^m takes minutes at m = 10^8), and its numbers are
    stated as 2^k+, at least 2^k, since str() of an int stops at 4300 digits."""
    memory = _memory_limit()
    bits = entry_bytes.bit_length() - 1 + sum(floors)  # the size is at least 2^bits
    if bits >= memory.bit_length() + 64:
        numbers = [f"2^{k}+" for k in (*floors, bits)]
    else:
        dims = shape()
        size = entry_bytes * prod(dims)
        if size <= memory:
            return dims
        numbers = [*dims, size]
    raise MemoryError(
        f"{what.format(*numbers)}, more than the {memory} bytes of memory available"
    )


def _case_iii_dims(m: int) -> tuple[int, int]:
    """The dimensions 2^(m-1)(2^m - 1) and 2^(m-1)(2^m + 1) of the minus- and
    plus-type case-iii line sets of 4^m lines."""
    return 2 ** (m - 1) * (2**m - 1), 2 ** (m - 1) * (2**m + 1)


def construct_case_iii(m: int, type_choice: HyperplaneType) -> LineSet:
    """Sign-matrix line set from hyperplanes of one type: n = 4^m lines in
    dimension d = 2^(m-1)(2^m -+ 1) (minus type gives the minus sign).

    Coordinates are indexed by the chosen-type hyperplanes in lexicographic
    order.  The lines are the translation orbit of the all-ones vector, so
    column(e)[M] = character_M(e) / sqrt(d) over the lexicographic-least
    representatives e of the cosets of the radical.  All signs are exact
    integers.  Raises MemoryError, before any enumeration, when the build's
    peak of _BUILD_BYTES_PER_ENTRY bytes per entry of the d x n columns would
    exceed the memory available (see _memory_limit).
    """
    if m < 2:
        raise ValueError("m must be >= 2; m = 1 leaves no usable dimension pair")
    if type_choice is HyperplaneType.DEGENERATE:
        raise ValueError("degenerate hyperplanes do not give a line set")
    minus = type_choice is HyperplaneType.MINUS
    d, _ = _shape_in_memory(  # d >= 2^(m-1) 2^(m-1)
        _BUILD_WHAT, _BUILD_BYTES_PER_ENTRY, (2 * m - 2, 2 * m),
        lambda: (_case_iii_dims(m)[0 if minus else 1], 4**m),
    )
    phis = enumerate_hyperplanes(standard_form(m), type_choice)
    perm, phase = translations(2, m, functionals=phis)
    signs = orbit(np.ones(d, dtype=np.int8), perm, phase.astype(np.int8))
    del phase  # 8 bytes an entry, not needed while LineSet checks the columns
    meta = {
        "case": "iii",
        "m": m,
        "type": type_choice.value,
        "n": signs.shape[1],
        "d": d,
        "exact_signs": True,
    }
    return LineSet(signs / np.sqrt(d), meta, signs=signs)


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
    Raises MemoryError before any work, the primality test of p included,
    when the build would exceed the memory available, as construct_case_iii
    does.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if eigen_choice is HyperplaneType.DEGENERATE:
        raise ValueError("eigenspace choice must be plus or minus")
    sign = -1 if eigen_choice is HyperplaneType.MINUS else 1
    b = m * (p.bit_length() - 1)  # q = p^m >= 2^b, and d >= q^2 / 3 >= 2^(2b - 2) for q >= 3
    _shape_in_memory(
        _BUILD_WHAT, _BUILD_BYTES_PER_ENTRY, (2 * b - 2, 2 * b),
        lambda: (p**m * (p**m + sign) // 2, p ** (2 * m)),
    )
    if not _is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
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


def _integral(P: np.ndarray) -> np.ndarray:
    """The float64 product P = S^T S of the n x n Gram of signs S as int64,
    or ValueError when rounding would move an entry."""
    ip = np.rint(P).astype(np.int64)
    if not np.array_equal(ip, P):
        raise ValueError("sign Gram is not integral")
    return ip


# Orbit residuals up to this count as the file being its translation orbit:
# rounding in the monomials leaves about 1e-16, and 3 * ORBIT_TOL is far
# below any certify tolerance.
ORBIT_TOL = 1e-12
# Entries of the d x b column blocks the orbit check compares at a time.
_ORBIT_BLOCK = 1 << 17


def _orbit_residual(L: LineSet) -> float | None:
    """eps when the tagged line set L is the translation orbit of its line 0,
    or None when L fails _case or the check.

    With T_a the monomials of line_translations, sign sets must satisfy
    S_a = T_a s_0 exactly (eps = 0); the others give
    eps = max_a min_phi ||v_a - e^(i phi) T_a v_0||, read off the difference
    vector at the best phase, which must not exceed ORBIT_TOL.  Both sides
    are compared at the coordinates perm[a] that T_a moves v_0 to, on
    _ORBIT_BLOCK entries at a time: O(nd) time, O(_ORBIT_BLOCK) memory.
    """
    try:
        _case(L)
    except ValueError:
        return None
    V = L.vectors if L.signs is None else L.signs
    step = max(1, _ORBIT_BLOCK // L.d)
    eps = 0.0
    for start in range(0, L.n, step):
        perm, phase = line_translations(L, np.arange(start, min(start + step, L.n)))
        W = phase * V[:, 0]  # W[a, k] = (T_a v_0)[perm[a, k]]
        X = np.ascontiguousarray(V[:, start : start + step].T)
        X = X.reshape(-1).take(perm + np.arange(0, X.size, L.d)[:, None])  # v_a[perm[a, k]]
        if L.signs is not None:
            if not np.array_equal(X, W):
                return None
            continue
        c = np.einsum("ak,ak->a", X, W.conj())  # <T_a v_0, v_a>
        size = np.abs(c)
        X -= np.divide(c, size, out=np.ones_like(c), where=size > 0)[:, None] * W
        eps = max(eps, float(np.sqrt(np.einsum("ak,ak->a", X.real, X.real)
                                     + np.einsum("ak,ak->a", X.imag, X.imag)).max()))
        if eps > ORBIT_TOL:
            return None
    return eps


def _pair_gram(L: LineSet) -> GramMatrix:
    """The n x n Gram of L: real columns take a real product."""
    V = L.vectors
    G = V.conj().T @ V
    if np.abs(G - G.conj().T).max() > 1e-12 or np.abs(np.diag(G) - 1.0).max() > 1e-10:
        raise ValueError("Gram matrix failed hermiticity/diagonal validation")
    if L.signs is None:
        return GramMatrix(G, L)
    S = L.signs.astype(np.float64)
    # one operand seen twice: numpy takes the symmetric syrk path
    return GramMatrix(G, L, _integral(S.T @ S))


def gram(L: LineSet) -> GramMatrix:
    """Hermitian Gram matrix of the line representatives, unit diagonal.

    A tagged line set (one that passes _case) that is the translation orbit
    of its line 0 (_orbit_residual) gets a row Gram: only line 0's row, in
    O(nd).  The translations satisfy T_a* T_b = lambda T_(b-a) with
    |lambda| = 1, so every overlap magnitude |<v_a, v_b>| lies within
    3 * orbit_eps of |<v_0, v_(b-a)>|.  Every other line set gets the n x n
    Gram.

    The exact row s_0^T S is an int64 product of the int8 signs S, with no
    widened copy of them.  The n x n S^T S is a float64 BLAS product of S,
    widened, rounded back to int64 by _integral: exact while its partial
    sums of d terms stay below 2^53, as for any S that fits in memory.
    """
    eps = _orbit_residual(L)
    if eps is None:
        return _pair_gram(L)
    if np.abs(L.norms**2 - 1.0).max() > 1e-10:  # the Gram diagonal
        raise ValueError("Gram matrix failed hermiticity/diagonal validation")
    row = np.einsum("k,kj->j", L.vectors[:, 0].conj(), L.vectors)[None, :]
    S = L.signs
    ip = None if S is None else np.einsum("k,kj->j", S[:, 0], S, dtype=np.int64)[None, :]
    return GramMatrix(row, L, ip, eps)


def certify_equiangular(G: GramMatrix, tol: float = 1e-8) -> AngleCertificate:
    """Check all off-diagonal overlap magnitudes share one value alpha.

    Integer-product Grams are decided exactly: equal integer magnitudes give
    max_dev = 0, and unequal ones raise NotEquiangular whatever tol is.
    Otherwise alpha is the mean off-diagonal magnitude and max_dev the worst
    deviation from it, and NotEquiangular is raised when max_dev > tol.  The
    error carries the pair farthest from the mean magnitude.

    A row Gram proves the angle from line 0's n - 1 overlaps: equal integer
    magnitudes, or a worst deviation from their mean alpha, plus 3 * orbit_eps
    (the bound of gram) and the rounding of the computed overlaps, of at most
    tol, which is then max_dev.  Where the row proves nothing, the n x n Gram
    decides as above, so every rejection is the n x n one.
    """
    n = G.n
    row = G.orbit_eps is not None
    iu = (np.zeros(n - 1, dtype=np.intp), np.arange(1, n)) if row else np.triu_indices(n, k=1)
    if G.int_products is not None:
        mags = np.abs(G.int_products[iu])
        lo, hi = int(mags.min()), int(mags.max())
        if lo == hi:
            return AngleCertificate(
                alpha=lo / G.d, max_dev=0.0, exact=True, numerator=lo, denominator=G.d
            )
        devs = np.abs(mags / G.d - mags.mean() / G.d)
    else:
        mags = np.abs(G.values[iu])
        alpha = float(mags.mean())
        devs = np.abs(mags - alpha)
        # (d + 2) eps bounds the rounding of a computed overlap of unit
        # vectors (Higham 2002, sec. 3.6) and of their mean
        slack = 3 * G.orbit_eps + (G.d + 2) * np.finfo(float).eps if row else 0.0
        max_dev = float(devs.max()) + slack
        if max_dev <= tol:
            return AngleCertificate(alpha=alpha, max_dev=max_dev, exact=False)
    if row:
        return certify_equiangular(_pair_gram(G.lines), tol)
    worst = int(np.argmax(devs))
    raise NotEquiangular(int(iu[0][worst]), int(iu[1][worst]), float(devs[worst]))


def certify_tight(G: GramMatrix, d: int, tol: float = 1e-8) -> bool:
    """True iff the frame operator F = V V* is (n/d) I; ValueError unless
    d = G.d.  Float columns test max|F - (n/d) I| <= tol.  That is the
    condition G^2 = (n/d) G read off the d x d side: G^2 = V* F V and V has
    rank d, so V* (F - cI) V = 0 iff F = cI.

    Sign sets are decided exactly, whatever tol, by the frame potential of
    P = S^T S (Benedetto and Fickus 2003): S S^T has d eigenvalues >= 0 with
    sum n d, and ||S S^T||_F^2 = ||P||_F^2, so sum P^2 >= n^2 d, with
    equality iff every eigenvalue is n, that is iff S S^T = n I.  A row Gram
    tests sum_c P_0c^2 = n d: gram proved s_a = T_a s_0, and T_a* T_b is a
    unit multiple of T_(b-a), so |P_ab| = |P_(0,b-a)| and
    sum P^2 = n sum_c P_0c^2.  An equiangular row (P_00 = d, |P_0c| = k)
    reads d^2 + (n - 1) k^2 = n d, the Welch identity.  A row of P sums to
    at most n d^2 <= (n d)^(3/2), below 2^63 while the 8 n d bytes of
    columns fit in memory, and the rows add as Python ints.
    """
    if d != G.d:
        raise ValueError(f"d = {d} is not the dimension {G.d} of the line set")
    n, P = G.n, G.int_products
    if P is not None:
        return sum(np.einsum("ab,ab->a", P, P).tolist()) == len(P) * n * d
    return bool(np.abs(G.frame - (n / d) * np.eye(d)).max() <= tol)


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
                for d in _case_iii_dims(m):
                    out[d] = ("iii", 2, m)
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
