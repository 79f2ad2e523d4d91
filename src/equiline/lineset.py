"""Equiangular line sets: the two algebraic constructions, Gram-matrix
certificates, and the dimension bookkeeping n = d + d'.

A line set is stored as a d x n matrix of unit columns, one column per line:
C-ordered float64 when no entry has a nonzero imaginary part, as for the
sign-matrix sets of case iii, and complex128 otherwise.  A set whose meta
declares exact_signs, as the sign-matrix constructions do, derives the +-1
signs of its columns and keeps them as int8, so that angle certificates can
be exact.  Each family is the orbit of line 0 under translations in gather
form, (T_a v)[y] = phase[a, y] v[index[a, y]] over q points, a column viewed
as q x du.

The frame operator of an orbit is read from its line 0 (Vale and Waldron,
"Tight frames and their symmetries", Constr. Approx. 21 (2005)).  With
w = v_0, F_orbit = sum_a T_a w w* T_a*:

- Case iii: T_a is the diagonal of the +-1 characters of the q = d
  hyperplanes at a.  The characters of distinct hyperplanes are orthogonal,
  sum_a chi_x(a) chi_y(a) = n [x = y], so F_orbit = n diag(|w|^2): d blocks
  1 x 1, all n/d for a sign set.
- Cases i, ii and iv: T_a = D_a (x) I_du runs over the q^2 displacements D_a
  of C^q, and (1/q) sum_a D_a A D_a* = Tr(A) I_q for every q x q matrix A:
  the D_b are an orthogonal basis, Tr(D_b* D_c) = q [b = c], and
  D_a D_b D_a* is D_b times a character of a, trivial only at b = 0, so the
  sum over a keeps only A's part along D_0 = I.  So F_orbit = I_q (x) M with
  M = q Tr_W(w w*) = q R^T conj(R), R the q x du view of w: one du x du
  block, 1 x 1 for cases i and ii.

When v_a = e^(i phi) T_a w + r_a with ||r_a|| <= eps, each rank-one term
moves by ||v_a v_a* - T_a w w* T_a*|| <= eps (2 ||w|| + eps), so
||F_V - F_orbit|| <= n eps (2 ||w|| + eps), about 2 n eps.  By Weyl's
inequality every eigenvalue of F_V lies that close to one of F_orbit, and
every entry of F_V - (n/d) I that close to one of F_orbit - (n/d) I.
"""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt, prod
from pathlib import Path
from typing import Callable

import numpy as np

from .finfield import HyperplaneType, enumerate_hyperplanes
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
# An entry v of a column is its exact sign s over sqrt(d) when
# |sqrt(d) Re v - s| <= SIGN_TOL and |Im v| <= _SIGN_IMAG_TOL.
SIGN_TOL = 1e-9
_SIGN_IMAG_TOL = 1e-15
# Entries of the d x b column blocks that the sign and orbit checks, and
# orbit's gathers, take at a time.
_BLOCK = 1 << 17


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


def _orbit_spans(frame: np.ndarray, slack: float, d: int, n: int) -> bool:
    """True when the closed-form frame blocks prove that the columns span
    C^d: every eigenvalue of the blocks, moved by slack, clears _frame_rank's
    threshold with a factor 2 to spare, lambda_min - slack >
    2 (lambda_max + slack) max(d, n) eps.  False leaves the span to the d x d
    frame operator.  A 1 x 1 block is its eigenvalue: cases i, ii and iii
    make no LAPACK call, whose first use raises a process's peak RSS by
    about 0.2 MB."""
    eigs = frame.real if frame.shape[-1] == 1 else np.linalg.eigvalsh(frame)
    lower, upper = eigs.min() - slack, eigs.max() + slack
    return bool(lower > 2 * upper * max(d, n) * np.finfo(float).eps)


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


def _exact_signs(V: np.ndarray) -> np.ndarray:
    """The int8 signs s of the finite d x n columns V, -1 where Re v < 0 and
    +1 elsewhere, or ValueError unless every entry v is its sign over
    sqrt(d): |sqrt(d) Re v - s| <= SIGN_TOL and |Im v| <= _SIGN_IMAG_TOL.  So
    0.0 and -0.0 are no sign, and no value can wrap.  Taken _BLOCK entries
    at a time; an empty block (d = 0) passes, and LineSet refuses it after."""
    d, n = V.shape
    step = max(1, _BLOCK // max(d, 1))
    signs = np.empty((d, n), np.int8)
    buffer = np.empty((d, min(step, n)))  # one block of gaps, reused
    for start in range(0, n, step):
        block = slice(start, start + step)
        X, s = V[:, block], signs[:, block]
        gap = buffer[:, : s.shape[1]]
        # not np.signbit: numpy 2.4 writes wrong values through its strided out
        np.less(X.real, 0, out=s.view(bool))
        s *= -2
        s += 1
        with np.errstate(over="ignore"):  # an entry near 1e308 is no sign either
            np.multiply(X.real, np.sqrt(d), out=gap)
        gap -= s
        np.abs(gap, out=gap)
        if not np.all(gap <= SIGN_TOL) or (
            np.iscomplexobj(X) and np.any(np.abs(X.imag) > _SIGN_IMAG_TOL)
        ):
            raise ValueError("exact_signs declared but entries are not +-1/sqrt(d)")
    return signs


@dataclass
class LineSet:
    """Unit representative columns of n lines spanning C^d, n > d >= 2.

    vectors is stored as _columns gives it: real columns as C-ordered float64,
    taken without a copy when they come so, and all others as complex128.
    meta["exact_signs"], when present, must be a bool (TypeError, before any
    other check).  When it is True, signs holds the int8 signs of the
    columns, derived from them by _exact_signs (ValueError unless every entry
    is +-1/sqrt(d)), and is None otherwise.  norms holds the column norms,
    which must be 1 within NORM_TOL.

    orbit_eps is the residual of a tagged set (one that passes _case) that
    is the translation orbit of its line 0, and None for any other set
    (_orbit_frame).  frame is the frame operator F = V V* as a stack of
    b x b blocks: F is block diagonal with d / b blocks, frame[0] each time
    when the stack holds one block (I_q (x) M) and frame[y] otherwise, within
    frame_slack in operator norm.  An orbit set takes the blocks in closed
    form from line 0, and they prove that the columns span C^d when they
    clear _orbit_spans' margin.  Every other set, and an orbit set whose
    blocks do not clear it, forms the d x d F (one block, slack 0): a
    Gershgorin bound decides its rank in O(d^2) when F is well conditioned,
    and _frame_rank otherwise.
    """

    vectors: np.ndarray
    meta: dict = field(default_factory=dict)
    signs: np.ndarray | None = field(init=False, repr=False, compare=False)
    norms: np.ndarray = field(init=False, repr=False, compare=False)
    orbit_eps: float | None = field(init=False, repr=False, compare=False)
    frame: np.ndarray = field(init=False, repr=False, compare=False)
    frame_slack: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        exact = self.meta.get("exact_signs", False)
        if type(exact) is not bool:
            raise TypeError(f"exact_signs must be a JSON boolean, got {exact!r}")
        self.vectors = V = _columns(self.vectors)
        if V.ndim != 2:
            raise ValueError("vectors must be a d x n matrix")
        if not np.isfinite(V).all():
            raise ValueError("columns must be finite")
        self.signs = _exact_signs(V) if exact else None
        d, n = V.shape
        if n <= d:
            raise ValueError(f"need more lines than dimensions, got n={n}, d={d}")
        if V.dtype == np.float64:  # real products: a quarter of the work
            self.norms = np.sqrt(np.einsum("ij,ij->j", V, V))
        else:  # per-column sums of squares, with no temporary the size of V
            re, im = V.real, V.imag
            self.norms = np.sqrt(np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im))
        if np.abs(self.norms - 1.0).max() > NORM_TOL:
            raise ValueError("columns must be unit vectors")
        if d < 2:
            raise ValueError("need d >= 2: every unit column of C^1 spans the same line")
        self.orbit_eps, self.frame, self.frame_slack = _orbit_frame(self) or (None, None, 0.0)
        if self.frame is not None and _orbit_spans(self.frame, self.frame_slack, d, n):
            return
        F = V @ V.conj().T  # conj() of real columns is the array itself
        self.frame, self.frame_slack = F[None], 0.0
        if not _gershgorin_full_rank(F, n):
            rank = _frame_rank(F, n)
            if rank != d:
                raise SpanDeficient(f"columns span rank {rank} < d = {d}")

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]


@dataclass
class GramMatrix:
    """Gram matrix of the line set lines, whose d and frame blocks it reads, with
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


def translations(p: int, k: int, elements=None, *, functionals=None):
    """Monomials (index, phase) of the regular translation group F_p^(2k) over
    q points, stacked in line order: (T_i v)[y] = phase[i, y] v[index[i, y]].

    Element i has as label (a, b) the 2k base-p digits of i, most significant
    first, and maps line 0 to line i; elements picks rows (default all
    p^(2k)).  Given hyperplane functionals phi (case iii, p = 2), q = d and a
    label acts by the int8 +-1 characters (-1)^(phi . e), e = (0, a, b)
    packed as in finfield; otherwise by the displacement D(a, b), q = p^k.
    """
    labels = lex_digits(p, 2 * k, elements)
    if functionals is not None:
        bits = np.min_scalar_type(2 << 2 * k)  # e = (0, a, b) and phi have 2k + 1 bits
        e = (labels @ (2 << np.arange(2 * k))).astype(bits)
        parity = np.bitwise_count(e[:, None] & np.array(functionals, bits)) & 1
        phase = 1 - 2 * parity.view(np.int8)
        return np.broadcast_to(np.arange(len(functionals)), phase.shape), phase
    return displacement_monomial(p, k, labels[:, :k], labels[:, k:])


def orbit(base: np.ndarray, index: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """The d x N matrix of columns (T_i (x) I_du) base, base viewed as q x du:
    (T_i base)[y, u] = phase[i, y] * base[index[i, y], u], flattened.  The
    columns are filled a block of elements at a time, so that no gather
    holds more than _BLOCK entries."""
    rows = np.reshape(base, (index.shape[-1], -1))
    cols = np.empty((*rows.shape, len(index)), dtype=np.result_type(phase, base))
    step = max(1, _BLOCK // rows.size)
    for start in range(0, len(index), step):
        block = slice(start, start + step)
        gather = rows[index[block].T].transpose(0, 2, 1)
        np.multiply(phase[block].T[:, None], gather, out=cols[..., block])
    return cols.reshape(-1, len(index))


def _case(meta: dict, n: int, d: int) -> tuple[str, int, int]:
    """(case, p, m) of a constructed line set, after checking its meta against
    the classification row of its (n, d); raises ValueError on any mismatch.
    The reader of serialize asks it of a file's header, before any column
    is parsed."""
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


@lru_cache(maxsize=8)
def _translation_table(p: int, m: int, kind: str | None):
    """The translations of all p^(2m) elements, read-only, made once per
    (p, m, kind): kind is the hyperplane type of case iii, whose q = d
    characters they are, and None for the displacements of cases i, ii and
    iv."""
    phis = None if kind is None else enumerate_hyperplanes(m, HyperplaneType(kind))
    table = translations(p, m, functionals=phis)
    for part in table:
        part.flags.writeable = False
    return table


def _line_table(meta: dict, n: int, d: int):
    """(case, index, phase) of a constructed line set (_case): its
    translations in line order, element i mapping line 0 to line i."""
    case, p, m = _case(meta, n, d)
    return case, *_translation_table(p, m, meta["type"] if case == "iii" else None)


def line_translations(lines: LineSet, elements=None):
    """The translation monomials of a constructed line set, in line order
    (translations): element i maps line 0 to line i."""
    _, index, phase = _line_table(lines.meta, lines.n, lines.d)
    return (index, phase) if elements is None else (index[elements], phase[elements])


# Peak bytes per entry of the d x n columns while construct_case_iii or
# construct_case_iv runs, as the rise in peak RSS (Python 3.11, numpy 2.4).
# The columns and the translation table set it; orbit's gathers and
# LineSet's checks take blocks, and its frame a few blocks b x b.  Case iii:
# 15.3 B at m = 5 and 11.3 B at m = 6 (float64 columns, the int8 orbit they
# are scaled from, the int8 signs LineSet derives, and the int8 table).
# Case iv: complex columns, 20.4 B at (7, 2), 18.4 B at (61, 1), and 49.0 B
# at (3, 3), whose 256k entries leave the fixed costs showing.
_BUILD_BYTES_PER_ENTRY = 64
_BUILD_WHAT = "building its {} x {} columns takes about {} bytes"
_CGROUP_MEMORY_MAX = Path("/sys/fs/cgroup/memory.max")


def _memory_limit() -> int:
    """Physical memory, or the cgroup v2 memory limit of this process or its
    soft RLIMIT_AS address-space limit, where those are set and lower."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        memory = min(memory, soft)
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
    table = _translation_table(2, m, type_choice.value)
    cols = orbit(np.ones(d, dtype=np.int8), *table) / np.sqrt(d)  # the int8 orbit dies here
    meta = {
        "case": "iii",
        "m": m,
        "type": type_choice.value,
        "n": cols.shape[1],
        "d": d,
        "exact_signs": True,
    }
    return LineSet(cols, meta)


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
    flattened iota / sqrt(dim U): every column is bitwise the orbit of the
    stored line 0, up to the sign of zero, as for the other three families,
    so a reader can rebuild the set from its line 0.  LineSet raises
    SpanDeficient if the orbit fails to span.
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
    cols = orbit(iota * (1 / np.sqrt(iota.shape[1])), *_translation_table(p, m, None))
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


def _orbit_frame(L: LineSet) -> tuple[float, np.ndarray, float] | None:
    """(eps, frame, slack) when the tagged line set L, its signs checked, is
    the translation orbit of its line 0, or None when L fails _case or the
    check.

    With T_a the monomials of line_translations, sign sets must satisfy
    S_a = T_a s_0 exactly (eps = 0): for case iii, whose index is the
    identity, S_a = phase[a] s_0.  The others give
    eps = max_a min_phi ||v_a - e^(i phi) T_a v_0||, read off the difference
    vector at the best phase, which must not exceed ORBIT_TOL.  Each block of
    columns is compared with the orbit of column 0 over the same elements,
    _BLOCK entries at a time: O(nd) time, O(_BLOCK) memory.

    frame is F_orbit of the module docstring for w = v_0, and slack is
    n e (2 ||w|| + e) with e = eps.  A sign set takes w = s_0 / sqrt(d) and
    e = 2 SIGN_TOL: by _exact_signs each column lies within
    SIGN_TOL + sqrt(d) _SIGN_IMAG_TOL of s_a / sqrt(d), below 2 SIGN_TOL for
    any d up to 10^12.  The blocks of case iii are one when they are all
    equal.
    """
    try:
        case, index, phase = _line_table(L.meta, L.n, L.d)
    except ValueError:
        return None
    V = L.vectors if L.signs is None else L.signs
    d, n = V.shape
    w = V[:, 0]
    step = max(1, _BLOCK // d)
    eps = 0.0
    for start in range(0, n, step):
        block = slice(start, start + step)
        X = V[:, block]
        if L.signs is not None:
            if case == "iii":
                W = phase[block].T * w[:, None]
            else:
                W = orbit(w, index[block], phase[block])
            if not np.array_equal(X, W):
                return None
            continue
        W = orbit(w, index[block], phase[block])  # T_a v_0
        c = np.einsum("ka,ka->a", X, W.conj())  # <T_a v_0, v_a>
        size = np.abs(c)
        W *= np.divide(c, size, out=np.ones_like(c), where=size > 0)
        np.subtract(X, W, out=W)
        eps = max(eps, float(np.sqrt(np.einsum("ka,ka->a", W.real, W.real)
                                     + np.einsum("ka,ka->a", W.imag, W.imag)).max()))
        if eps > ORBIT_TOL:
            return None
    if L.signs is None:
        e, norm = eps, L.norms[0]
    else:
        w, e, norm = w / np.sqrt(d), 2 * SIGN_TOL, 1.0
    if case == "iii":
        frame = n * (w * w.conj()).real
        frame = frame[:1] if (frame == frame[0]).all() else frame
        frame = frame[:, None, None]
    else:
        R = w.reshape(index.shape[-1], -1)
        frame = (index.shape[-1] * (R.T @ R.conj()))[None]
    return eps, frame, n * e * (2 * norm + e)


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
    of its line 0 (LineSet.orbit_eps) gets a row Gram: only line 0's row, in
    O(nd).  The translations satisfy T_a* T_b = lambda T_(b-a) with
    |lambda| = 1, so every overlap magnitude |<v_a, v_b>| lies within
    3 * orbit_eps of |<v_0, v_(b-a)>|.  Every other line set gets the n x n
    Gram.

    The exact row s_0^T S is an int64 product of the int8 signs S, with no
    widened copy of them.  The n x n S^T S is a float64 BLAS product of S,
    widened, rounded back to int64 by _integral: exact while its partial
    sums of d terms stay below 2^53, as for any S that fits in memory.
    """
    eps = L.orbit_eps
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
    rank d, so V* (F - cI) V = 0 iff F = cI.  The test reads the blocks of
    LineSet.frame, and adds its frame_slack: the off-diagonal blocks of the
    closed form are 0, and no entry of F_V - F_orbit exceeds its norm.

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
    F = G.frame  # within frame_slack of the frame operator
    return bool(np.abs(F - (n / d) * np.eye(F.shape[-1])).max() + G.lines.frame_slack <= tol)


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


# The largest n that classification_rows lists, as `equiline table` prints it.
_TABLE_N_MAX = 4096


def classification_rows() -> list[dict]:
    """All classified (case, n, d, d') rows with n <= _TABLE_N_MAX, ascending in n."""
    rows = []
    for n in range(4, _TABLE_N_MAX + 1):
        dims = _valid_dims(n)
        for d in sorted(dims):
            if 2 * d <= n:  # report each pair once, smaller d first
                case, p, m = dims[d]
                rows.append(
                    {"case": case, "n": n, "d": d, "d_prime": n - d, "p": p, "m": m}
                )
    return rows
