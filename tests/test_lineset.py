import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import equiline.lineset
from equiline.fiducial import SearchConfig, orbit_lineset, search_fiducial
from equiline.finfield import HyperplaneType
from equiline.heisenberg import lex_digits, lex_index
from equiline.lineset import (
    LineSet,
    NotEquiangular,
    SpanDeficient,
    UnknownCase,
    certify_equiangular,
    certify_tight,
    construct_case_iii,
    construct_case_iv,
    dimension_pair,
    gram,
    classification_rows,
    line_translations,
)

MINUS, PLUS = HyperplaneType.MINUS, HyperplaneType.PLUS

# (n, d, alpha) for every desk-scale construction
SIGN_CASES = [
    (2, MINUS, 16, 6, Fraction(1, 3)),
    (2, PLUS, 16, 10, Fraction(1, 5)),
    (3, MINUS, 64, 28, Fraction(1, 7)),
    (3, PLUS, 64, 36, Fraction(1, 9)),
]
ODD_CASES = [
    (3, 1, MINUS, 9, 3, Fraction(1, 2)),
    (3, 1, PLUS, 9, 6, Fraction(1, 4)),
    (5, 1, MINUS, 25, 10, Fraction(1, 4)),
    (5, 1, PLUS, 25, 15, Fraction(1, 6)),
    (3, 2, MINUS, 81, 36, Fraction(1, 8)),
    (3, 2, PLUS, 81, 45, Fraction(1, 10)),
]


def welch(n, d):
    return Fraction(n - d, d * (n - 1))


@pytest.mark.parametrize("m,tag,n,d,alpha", SIGN_CASES)
def test_sign_matrix_constructions(m, tag, n, d, alpha):
    L = construct_case_iii(m, tag)
    assert (L.n, L.d) == (n, d)
    assert L.signs is not None and set(np.unique(L.signs)) == {-1, 1}
    G = gram(L)
    cert = certify_equiangular(G)
    assert cert.exact and cert.max_dev == 0.0
    assert Fraction(cert.numerator, cert.denominator) == alpha
    assert alpha**2 == welch(n, d)
    assert certify_tight(G, d)


@pytest.mark.parametrize("p,m,tag,n,d,alpha", ODD_CASES)
def test_parity_eigenspace_constructions(p, m, tag, n, d, alpha):
    L = construct_case_iv(p, m, tag)
    assert (L.n, L.d) == (n, d)
    G = gram(L)
    cert = certify_equiangular(G, tol=1e-9)
    assert abs(cert.alpha - float(alpha)) < 1e-9
    assert cert.max_dev < 1e-9
    assert alpha**2 == welch(n, d)
    assert certify_tight(G, d)


def test_construction_metadata():
    L = construct_case_iii(2, MINUS)
    assert L.meta["case"] == "iii" and L.meta["type"] == "minus"
    assert L.meta["exact_signs"] is True
    K = construct_case_iv(3, 1, PLUS)
    assert K.meta["case"] == "iv" and K.meta["eigen"] == "plus"
    assert (K.meta["p"], K.meta["m"]) == (3, 1)


def test_construction_parameter_validation():
    with pytest.raises(ValueError):
        construct_case_iii(1, MINUS)
    with pytest.raises(ValueError):
        construct_case_iii(2, HyperplaneType.DEGENERATE)
    with pytest.raises(ValueError):
        construct_case_iv(4, 1, MINUS)
    with pytest.raises(ValueError):
        construct_case_iv(2, 1, MINUS)
    with pytest.raises(ValueError):
        construct_case_iv(3, 0, MINUS)


def test_lineset_validation():
    good = np.eye(2, dtype=complex)
    cols = np.hstack([good, np.array([[1.0], [1.0]]) / np.sqrt(2)])
    LineSet(cols)  # 3 unit columns spanning C^2
    with pytest.raises(ValueError):
        LineSet(np.eye(2))  # n must exceed d
    with pytest.raises(ValueError):
        LineSet(2.0 * cols)  # not unit norm
    with pytest.raises(ValueError):
        LineSet(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))  # rank deficient


def test_rank_deficient_columns_raise_span_deficient():
    # four unit columns of C^3 that all lie in the plane x_2 = 0
    cols = np.array([[1.0, 0.0, 0.6, 0.8], [0.0, 1.0, 0.8, -0.6], [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(SpanDeficient, match="rank 2 < d = 3"):
        LineSet(cols)
    assert issubclass(SpanDeficient, ValueError)  # the CLI maps it like any structure error


def test_subselection_is_not_tight():
    L = construct_case_iii(2, MINUS)
    sub = LineSet(L.vectors[:, :9], signs=L.signs[:, :9])
    G = gram(sub)
    cert = certify_equiangular(G)  # still equiangular
    assert cert.max_dev == 0.0
    assert not certify_tight(G, sub.d)


def test_perturbation_raises_not_equiangular():
    L = construct_case_iv(3, 1, MINUS)
    V = L.vectors.copy()
    v = V[:, 4] + 1e-3 * np.ones(L.d)
    V[:, 4] = v / np.linalg.norm(v)
    G = gram(LineSet(V))
    with pytest.raises(NotEquiangular) as exc:
        certify_equiangular(G, tol=1e-6)
    i, j = exc.value.pair
    assert 4 in (i, j)
    assert exc.value.deviation > 1e-6


def test_certify_tight_decides_only_the_frame(monkeypatch):
    def angle_check(G, tol):
        raise AssertionError("certify_tight repeated the angle check")

    monkeypatch.setattr(equiline.lineset, "certify_equiangular", angle_check)
    L = construct_case_iii(2, MINUS)
    assert certify_tight(gram(L), L.d)
    K = construct_case_iv(3, 1, MINUS)
    assert certify_tight(gram(K), K.d)
    sub = LineSet(L.vectors[:, :9], signs=L.signs[:, :9])
    assert not certify_tight(gram(sub), sub.d)


def test_integer_certificate_path_catches_bad_pairs():
    L = construct_case_iii(2, MINUS)
    signs = L.signs.copy()
    signs[0, 3] *= -1  # corrupt one sign; Gram stays integer
    V = signs / np.sqrt(L.d)
    G = gram(LineSet(V.astype(complex), signs=signs))
    with pytest.raises(NotEquiangular):
        certify_equiangular(G)


def test_dimension_pair():
    assert dimension_pair(16, 6) == 10
    assert dimension_pair(16, 10) == 6
    assert dimension_pair(64, 28) == 36
    assert dimension_pair(4, 2) == 2
    assert dimension_pair(64, 8) == 56
    assert dimension_pair(81, 36) == 45
    with pytest.raises(UnknownCase):
        dimension_pair(16, 7)
    with pytest.raises(UnknownCase):
        dimension_pair(15, 6)


def test_classification_rows_table():
    # one row per dimension pair, listed under the smaller d
    rows = classification_rows(256)
    key = {(r["n"], r["d"]): r for r in rows}
    assert all(r["d"] + r["d_prime"] == r["n"] for r in rows)
    assert all(2 * r["d"] <= r["n"] for r in rows)
    assert key[(4, 2)]["case"] == "i"
    assert key[(64, 8)]["case"] == "ii" and key[(64, 8)]["d_prime"] == 56
    assert key[(16, 6)]["case"] == "iii" and key[(16, 6)]["m"] == 2
    assert key[(64, 28)]["case"] == "iii" and key[(64, 28)]["d_prime"] == 36
    assert key[(9, 3)]["case"] == "iv" and key[(9, 3)]["p"] == 3
    assert key[(25, 10)]["case"] == "iv" and key[(25, 10)]["p"] == 5
    assert key[(49, 21)]["case"] == "iv" and key[(49, 21)]["m"] == 1
    assert key[(81, 36)]["case"] == "iv" and key[(81, 36)]["m"] == 2
    assert (256, 120) in key  # sign-matrix family, m = 4
    assert (121, 55) in key  # odd-prime family, p = 11
    assert (15, 6) not in key and (16, 7) not in key
    # n = 64 carries both an orbit-type pair and a sign-matrix pair
    assert {d for (n, d) in key if n == 64} == {8, 28}


def _untagged(L: LineSet) -> LineSet:
    """L without its construction tag, so gram takes the n x n path."""
    return LineSet(L.vectors, {}, signs=L.signs)


def _sign_frame_tight(signs: np.ndarray) -> bool:
    """The int64 oracle of the exact tight-frame test, S S^T == n I: the int8
    signs are widened first, as S S^T reaches n."""
    S = signs.astype(np.int64)
    return np.array_equal(S @ S.T, S.shape[1] * np.eye(len(S), dtype=np.int64))


def test_gram_validates_input():
    L = construct_case_iv(3, 1, MINUS)
    G = gram(_untagged(L))
    assert G.values.shape == (9, 9)
    assert np.abs(np.diag(G.values) - 1.0).max() < 1e-12
    assert G.int_products is None
    K = construct_case_iii(2, PLUS)
    Gs = gram(_untagged(K))
    assert Gs.int_products is not None
    assert Gs.int_products.dtype == np.int64
    # the tagged sets get line 0's row
    row, row_s = gram(L), gram(K)
    assert row.values.shape == (1, 9) and row.n == 9 and row.orbit_eps <= 1e-15
    assert abs(row.values[0, 0] - 1.0) < 1e-12
    assert row.int_products is None
    assert row_s.int_products.dtype == np.int64 and row_s.int_products.shape == (1, 16)
    assert row_s.orbit_eps == 0.0


@pytest.mark.parametrize("tag", [MINUS, PLUS])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_exact_gram_matches_int64_product(m, tag):
    # the int64 product is the oracle for the sign Gram and its row; the
    # int8 signs are widened first, as S^T S reaches d (496 at m = 5, past
    # the int8 range)
    L = construct_case_iii(m, tag)
    S = L.signs.astype(np.int64)
    G = gram(_untagged(L))
    assert G.int_products.dtype == np.int64
    assert np.array_equal(G.int_products, S.T @ S)
    row = gram(L)
    assert row.int_products.dtype == np.int64
    assert np.array_equal(row.int_products, S[:, :1].T @ S)
    assert row.int_products.max() == L.d
    assert certify_tight(row, L.d) == certify_tight(G, L.d) == _sign_frame_tight(L.signs)


@pytest.mark.parametrize("bad", [0, 2, -2, 2**30 + 1, 257, 0.5])
def test_lineset_refuses_signs_other_than_plus_minus_one(bad):
    # 257 and 2**30 + 1 would wrap to 1 in int8; they are refused before the cast
    L = construct_case_iii(2, MINUS)
    signs = L.signs.astype(np.float64 if isinstance(bad, float) else np.int64)
    signs[1, 2] = bad
    with pytest.raises(ValueError, match="signs must be \\+-1"):
        LineSet(L.vectors, signs=signs)
    with pytest.raises(ValueError, match="signs must be \\+-1"):
        LineSet(L.vectors, signs=L.signs * 1j)


def test_real_line_sets_are_stored_real():
    for L in (construct_case_iii(2, MINUS), construct_case_iii(3, PLUS)):
        assert L.vectors.dtype == np.float64 and L.vectors.flags.c_contiguous
        assert L.signs.dtype == np.int8
        assert L.frame.dtype == np.float64
    for L in (construct_case_iv(3, 1, MINUS), construct_case_iv(5, 1, PLUS),
              _searched(2, 1), _searched(8, 1)):
        assert L.vectors.dtype == np.complex128 and L.signs is None
    K = construct_case_iii(2, PLUS)
    zero = np.where(K.signs > 0, 0.0, -0.0)  # imaginary parts of either sign, all zero
    back = LineSet(K.vectors + 1j * zero, K.meta, signs=K.signs)
    assert back.vectors.dtype == np.float64 and back.vectors.flags.c_contiguous
    assert np.array_equal(back.vectors, K.vectors)
    tiny = K.vectors.astype(complex)
    tiny[0, 0] += 1e-300j  # any nonzero imaginary part keeps the columns complex
    assert LineSet(tiny).vectors.dtype == np.complex128


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_lineset_rejects_non_finite_entries(bad):
    V = construct_case_iv(3, 1, MINUS).vectors.copy()
    V[1, 2] = bad
    with pytest.raises(ValueError, match="columns must be finite"):
        LineSet(V)


def _gram_square_tight(G, d, tol=1e-8) -> bool:
    """The n x n test certify_tight made before reading the frame operator:
    G^2 = (n/d) G within tol.  Kept as its oracle for n <= 1024."""
    return np.abs(G.values @ G.values - (G.n / d) * G.values).max() <= tol


GOLDEN = [
    *(lambda m=m, t=t: construct_case_iii(m, t) for m in (2, 3, 4, 5) for t in (MINUS, PLUS)),
    *(lambda p=p, m=m, t=t: construct_case_iv(p, m, t)
      for p, m in ((3, 1), (5, 1), (3, 2), (3, 3), (5, 2)) for t in (MINUS, PLUS)),
]


@lru_cache(maxsize=None)
def _searched(d: int, seed: int) -> LineSet:
    return orbit_lineset(search_fiducial(SearchConfig(d=d, seed=seed))[0], d)


SEARCHED = [lambda d=d, seed=seed: _searched(d, seed) for d in (2, 8) for seed in (1, 2, 3)]


@pytest.mark.parametrize("build", GOLDEN + SEARCHED)
def test_row_certificate_agrees_with_the_pair_gram(build):
    L = build()
    G, oracle = gram(L), gram(_untagged(L))
    assert G.values.shape == (1, L.n) and G.lines is L
    assert oracle.values.shape == (L.n, L.n) and oracle.orbit_eps is None
    # searched fiducials stop about 5e-8 off the common angle
    tol = 1e-8 if L.meta["case"] in ("iii", "iv") else 1e-7
    cert, want = certify_equiangular(G, tol), certify_equiangular(oracle, tol)
    assert cert.exact == want.exact == (L.signs is not None)
    if cert.exact:
        assert G.orbit_eps == 0.0 and cert.max_dev == want.max_dev == 0.0
        fraction = Fraction(want.numerator, want.denominator)
        assert Fraction(cert.numerator, cert.denominator) == fraction
        S = L.signs.astype(np.int64)
        assert np.array_equal(G.int_products[0], (S.T @ S)[0])
    else:
        assert G.orbit_eps <= 1e-15
        assert abs(cert.alpha - want.alpha) <= 1e-14
        # the row's max_dev adds 3 * orbit_eps and (d + 2) eps of rounding
        rounding = (L.d + 2) * np.finfo(float).eps
        assert want.max_dev <= cert.max_dev <= want.max_dev + 2 * rounding


def _monomial_product(perm, phase, a, b):
    """(perm, phase) of T_a* T_b, for the monomials |x> -> phase[x] |perm[x]>
    stacked in perm and phase, over all index pairs (a, b) broadcast."""
    inverse = np.argsort(perm, axis=-1)
    y = np.take_along_axis(inverse[a], perm[b], axis=-1)  # T_a moves y to perm_b[x]
    return y, phase[b] * np.take_along_axis(phase[a], y, axis=-1).conj()


@pytest.mark.parametrize(
    "build,p,m",
    [
        *((lambda m=m, t=t: construct_case_iii(m, t), 2, m) for m in (2, 3) for t in (MINUS, PLUS)),
        *((lambda p=p, m=m, t=t: construct_case_iv(p, m, t), p, m)
          for p, m in ((3, 1), (5, 1), (3, 2)) for t in (MINUS, PLUS)),
        (lambda: _searched(2, 1), 2, 1),
        (lambda: _searched(8, 1), 2, 3),
    ],
)
def test_translations_compose_by_label_difference(build, p, m):
    # T_a* T_b = lambda T_(b - a) with |lambda| = 1, b - a taken digitwise
    # mod p: the lemma the row certificate rests on
    perm, phase = (np.asarray(x) for x in line_translations(build()))
    labels = lex_digits(p, 2 * m)
    a, b = np.meshgrid(np.arange(len(perm)), np.arange(len(perm)), indexing="ij")
    diff = lex_index(labels[b] - labels[a], p)
    got_perm, got_phase = _monomial_product(perm, phase, a, b)
    assert np.array_equal(got_perm, perm[diff])
    lam = got_phase / phase[diff]
    assert np.abs(np.abs(lam) - 1.0).max() < 1e-12
    assert np.abs(lam - lam[..., :1]).max() < 1e-12


def _traced_peak(fn, *args):
    """fn(*args) and the most memory it held at once, as tracemalloc counts it."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_lineset_checks_of_real_columns_make_no_copy_of_them():
    # the float64 columns and int8 signs are kept as given; the peak is the
    # d x d frame with its Gershgorin temporary, 3,950,000 B against a
    # 4,063,232 B copy of the columns (CPython 3.11, numpy 2.4)
    L = construct_case_iii(5, MINUS)
    checked, peak = _traced_peak(LineSet, L.vectors, L.meta, L.signs)
    assert checked.vectors is L.vectors and checked.signs is L.signs
    assert peak <= 2 * L.frame.nbytes + (1 << 16), peak
    assert np.abs(checked.frame - L.n / L.d * np.eye(L.d)).max() <= 1e-12
    assert np.abs(checked.norms - 1.0).max() <= 1e-12


@pytest.mark.parametrize("imag", [0.0, 1e-3], ids=["real", "complex"])
def test_lineset_messages_on_real_and_complex_columns(imag):
    cols = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]]) + 1j * imag
    cols /= np.linalg.norm(cols, axis=0)
    with pytest.raises(ValueError, match="columns must be unit vectors"):
        LineSet(2.0 * cols)
    with pytest.raises(ValueError, match="columns must be finite"):
        LineSet(np.where(cols == cols[0, 0], np.inf, cols))
    flat = np.vstack([cols, np.zeros((1, 3))])  # three columns in a plane of C^3, n = d
    with pytest.raises(ValueError, match="need more lines than dimensions"):
        LineSet(flat)
    with pytest.raises(SpanDeficient, match="rank 2 < d = 3"):
        LineSet(np.hstack([flat, flat[:, :1]]))
    assert LineSet(cols).frame.dtype == (np.float64 if imag == 0.0 else complex)


def test_row_certificate_stays_below_the_pair_gram_in_memory():
    # the n x n float Gram alone is n^2 * 8 bytes; the row path never forms it
    L = construct_case_iii(5, MINUS)
    tracemalloc.start()
    try:
        cert = certify_equiangular(gram(L))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.exact and Fraction(cert.numerator, cert.denominator) == Fraction(1, 31)
    assert peak < L.n**2 * 8


@pytest.mark.parametrize("m,tag", [(2, MINUS), (3, PLUS), (4, MINUS)])
def test_pair_gram_of_real_columns_is_a_real_product(m, tag):
    L = _untagged(construct_case_iii(m, tag))
    G = gram(L)
    assert G.values.dtype == np.float64
    assert np.abs(G.values - L.vectors.conj().T @ L.vectors).max() <= 1e-15
    S = L.signs.astype(np.int64)
    assert np.array_equal(G.int_products, S.T @ S)
    assert certify_tight(G, L.d) == _sign_frame_tight(L.signs)


def test_row_rejection_falls_back_to_the_pair_gram():
    L = construct_case_iii(2, MINUS)
    signs = L.signs.copy()
    signs[0, 3] *= -1  # no longer the orbit of line 0: the pair path decides
    bad = LineSet(signs / np.sqrt(L.d), L.meta, signs=signs)
    assert gram(bad).orbit_eps is None
    with pytest.raises(NotEquiangular) as row_exc:
        certify_equiangular(gram(bad))
    with pytest.raises(NotEquiangular) as pair_exc:
        certify_equiangular(gram(_untagged(bad)))
    assert row_exc.value.pair == pair_exc.value.pair
    # an exact orbit of a fiducial off the common angle: the row rejects,
    # and the pair Gram names the worst pair
    K = construct_case_iv(3, 1, MINUS)
    w = K.vectors[:, 0] + 1e-4 * np.arange(K.d)
    cols = equiline.lineset.orbit(w / np.linalg.norm(w), *line_translations(K))
    off = LineSet(cols, K.meta)
    G = gram(off)
    assert G.values.shape == (1, K.n) and G.orbit_eps <= 1e-15
    with pytest.raises(NotEquiangular) as row_exc:
        certify_equiangular(G, tol=1e-8)
    with pytest.raises(NotEquiangular) as pair_exc:
        certify_equiangular(gram(_untagged(off)), tol=1e-8)
    assert (row_exc.value.pair, row_exc.value.deviation) == (
        pair_exc.value.pair, pair_exc.value.deviation)


@pytest.mark.parametrize("build", GOLDEN)
def test_frame_operator_certificate_agrees_with_gram_square(build):
    L = build()
    # the Gershgorin bound settles the span of every construction
    assert equiline.lineset._gershgorin_full_rank(L.frame, L.n)
    assert equiline.lineset._frame_rank(L.frame, L.n) == L.d
    U = _untagged(L)
    G = gram(U)
    assert G.frame is U.frame and G.frame.shape == (L.d, L.d) and G.d == L.d
    assert (G.int_products is not None) == (L.signs is not None)
    assert certify_tight(G, L.d) and _gram_square_tight(G, L.d)
    row = gram(L)
    assert row.values.shape == (1, L.n) and row.frame is L.frame
    assert (row.int_products is not None) == (L.signs is not None)
    assert certify_tight(row, L.d)
    if L.signs is not None:
        assert _sign_frame_tight(L.signs)


def test_frame_operator_rejects_what_gram_square_rejects():
    L = construct_case_iii(2, MINUS)
    sub = LineSet(L.vectors[:, :9], signs=L.signs[:, :9])
    K = construct_case_iv(3, 1, MINUS)
    V = K.vectors.copy()
    v = V[:, 4] + 1e-3 * np.ones(K.d)
    V[:, 4] = v / np.linalg.norm(v)
    bent = LineSet(V)
    for lines in (sub, bent):
        G = gram(lines)
        assert not _gram_square_tight(G, lines.d)
        assert not certify_tight(G, lines.d)


def test_exact_frame_catches_one_flipped_sign():
    L = construct_case_iii(3, MINUS)
    assert certify_tight(gram(L), L.d) and _sign_frame_tight(L.signs)
    signs = L.signs.copy()
    signs[5, 17] *= -1
    G = gram(LineSet(signs / np.sqrt(L.d), signs=signs))
    assert G.int_products.dtype == np.int64
    assert not _sign_frame_tight(signs)
    assert not certify_tight(G, L.d, tol=1.0)  # the integer test ignores tol
    assert not _gram_square_tight(G, L.d)


@pytest.mark.parametrize("tag", [MINUS, PLUS])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_frame_potentials_agree_with_the_int64_frame(m, tag):
    # sum P^2 = n^2 d over the n x n integer Gram, and n d over line 0's row,
    # exactly when S S^T = n I; the row's sum is the Welch identity
    # d^2 + (n - 1) k^2 = n d
    L = construct_case_iii(m, tag)
    n, d = L.n, L.d
    tight = _sign_frame_tight(L.signs)
    row, pair = gram(L), gram(_untagged(L))
    assert row.int_products.shape == (1, n) and pair.int_products.shape == (n, n)
    k = abs(int(row.int_products[0, 1]))
    assert int(np.square(row.int_products).sum()) == d * d + (n - 1) * k * k
    assert (int(np.square(row.int_products).sum()) == n * d) == tight
    assert (int(np.square(pair.int_products).sum()) == n * n * d) == tight


def test_exact_tight_test_rejects_frames_that_are_not_tight():
    # the first 9 lines of iii m = 2 minus keep the common angle but are no
    # longer a tight frame: 6^2 + 8 * 2^2 = 68 > 9 * 6
    L = construct_case_iii(2, MINUS)
    sub = LineSet(L.vectors[:, :9], signs=L.signs[:, :9])
    G = gram(sub)
    assert certify_equiangular(G).exact
    assert int(np.square(G.int_products).sum()) > sub.n**2 * sub.d
    assert not _sign_frame_tight(sub.signs)
    assert not certify_tight(G, sub.d, tol=1e9)
    # line 0's row of the same set, read as a row Gram, fails the Welch identity
    row = equiline.lineset.GramMatrix(G.values[:1], sub, G.int_products[:1], 0.0)
    assert not certify_tight(row, sub.d, tol=1e9)
    # the one-flipped-sign set is test_exact_frame_catches_one_flipped_sign


@pytest.mark.parametrize("tagged", [True, False], ids=["row", "pair"])
def test_certify_tight_refuses_a_wrong_dimension(tagged):
    for L in (construct_case_iii(2, MINUS), construct_case_iv(3, 1, MINUS)):
        G = gram(L if tagged else _untagged(L))
        for d in (1, L.d - 1, L.d + 1):
            with pytest.raises(ValueError, match=f"d = {d} is not the dimension {L.d}"):
                certify_tight(G, d)
        assert certify_tight(G, L.d)


def test_exact_tight_test_stays_below_a_float_copy_of_the_signs():
    # line 0's integer row is formed from the int8 signs, with no float64
    # d x n temporary (4,063,232 B at iii m = 5 minus), and the frame
    # potential reads only that row
    L = construct_case_iii(5, MINUS)
    tracemalloc.start()
    try:
        G = gram(L)
        tight = certify_tight(G, L.d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tight and G.orbit_eps == 0.0
    assert peak < L.d * L.n * 8, peak


def _spy_frame_rank(monkeypatch) -> list[int]:
    """The ranks _frame_rank returns from here on, in call order."""
    ranks = []
    frame_rank = equiline.lineset._frame_rank

    def spy(frame, n):
        ranks.append(frame_rank(frame, n))
        return ranks[-1]

    monkeypatch.setattr(equiline.lineset, "_frame_rank", spy)
    return ranks


def test_span_threshold_keeps_ill_conditioned_spanning_sets(monkeypatch):
    ranks = _spy_frame_rank(monkeypatch)
    V = construct_case_iv(3, 2, MINUS).vectors.copy()
    V[0] *= 1e-6  # one direction squeezed: sigma_min / sigma_max about 1e-6
    V /= np.linalg.norm(V, axis=0)
    assert np.linalg.matrix_rank(V) == V.shape[0]
    L = LineSet(V)
    assert L.frame.shape == (V.shape[0],) * 2
    # F stays diagonal up to rounding, so its Gershgorin discs settle the span
    assert ranks == []


def test_span_threshold_keeps_a_squeeze_off_the_axes(monkeypatch):
    ranks = _spy_frame_rank(monkeypatch)
    V = construct_case_iv(3, 2, MINUS).vectors.copy()
    u = np.ones(len(V)) / np.sqrt(len(V))  # squeeze along a direction F mixes
    V -= (1 - 1e-6) * np.outer(u, u @ V)
    V /= np.linalg.norm(V, axis=0)
    assert np.linalg.matrix_rank(V) == V.shape[0]
    L = LineSet(V)
    assert L.frame.shape == (V.shape[0],) * 2
    assert ranks == [V.shape[0]]  # the discs overlap 0, and eigvalsh decided


def test_span_threshold_drops_rounding_noise_off_a_hyperplane(monkeypatch):
    ranks = _spy_frame_rank(monkeypatch)
    # eight unit columns of C^4 in the hyperplane x_3 = 0, plus 1e-14 noise
    rng = np.random.default_rng(5)
    V = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    V[3] = 1e-14 * rng.normal(size=8)
    V /= np.linalg.norm(V, axis=0)
    assert np.linalg.matrix_rank(V) == 4  # the SVD resolves the noise
    with pytest.raises(SpanDeficient, match="rank 3 < d = 4"):
        LineSet(V)
    assert ranks == [3]
