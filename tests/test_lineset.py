from fractions import Fraction

import numpy as np
import pytest

import equiline.lineset
from equiline.finfield import HyperplaneType
from equiline.lineset import (
    AngleCertificate,
    LineSet,
    NotEquiangular,
    SpanDeficient,
    UnknownCase,
    WelchViolation,
    certify_equiangular,
    certify_tight,
    construct_case_iii,
    construct_case_iv,
    dimension_pair,
    gram,
    classification_rows,
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


def test_welch_violation_is_raised_not_asserted(monkeypatch):
    G = gram(construct_case_iii(2, MINUS))
    wrong = AngleCertificate(alpha=0.5, max_dev=0.0, exact=False)
    monkeypatch.setattr(equiline.lineset, "certify_equiangular", lambda G, tol: wrong)
    with pytest.raises(WelchViolation, match="extremal angle identity"):
        certify_tight(G, 6)


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


def test_gram_validates_input():
    L = construct_case_iv(3, 1, MINUS)
    G = gram(L)
    assert G.values.shape == (9, 9)
    assert np.abs(np.diag(G.values) - 1.0).max() < 1e-12
    assert G.int_products is None
    Gs = gram(construct_case_iii(2, PLUS))
    assert Gs.int_products is not None
    assert Gs.int_products.dtype == np.int64
