import hashlib
from itertools import product

import numpy as np
import pytest

import equiline.finfield
from equiline.finfield import (
    HyperplaneType,
    _packed_lex,
    bilinear_mask,
    classify_hyperplane,
    dot2,
    enumerate_hyperplanes,
    quadratic,
    singular_count,
)
from equiline.heisenberg import lex_digits
from oracles import (
    bilinear_form,
    nonsingular_vectors,
    quadratic_form,
    transvection,
    transvection_on_functional,
)

# Census of hyperplane types for the standard odd-dimensional form:
# minus 2^(m-1)(2^m - 1), plus 2^(m-1)(2^m + 1), degenerate 2^(2m) - 1.
CENSUS = {
    1: (1, 3, 3),
    2: (6, 10, 15),
    3: (28, 36, 63),
    4: (120, 136, 255),
}


def lex_packed(dim):
    """F_2^dim in the lex_digits order, packed with bit i holding coordinate i."""
    return [sum(int(c) << i for i, c in enumerate(row)) for row in lex_digits(2, dim)]


def test_packing_follows_the_lex_digits_order():
    assert lex_packed(2) == [0, 2, 1, 3]  # coordinate 0 is the major digit
    assert lex_packed(3)[1] == 0b100  # digits (0, 0, 1): coordinate 2 is bit 2
    for dim in range(1, 9):
        tuples = product((0, 1), repeat=dim)
        assert lex_packed(dim) == [sum(c << i for i, c in enumerate(t)) for t in tuples]
        assert _packed_lex(dim) == lex_packed(dim)


def test_dot2_bilinearity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x, y, z = rng.integers(0, 1 << 8, size=3)
        assert dot2(x, y) == dot2(y, x)
        assert dot2(x ^ y, z) == dot2(x, z) ^ dot2(y, z)


def test_standard_form_polarization():
    for m in (1, 2, 3):
        dim = 2 * m + 1
        assert quadratic(m, 0) == 0
        assert quadratic(m, 1) == 1  # value on the radical generator
        rng = np.random.default_rng(m)
        for _ in range(50):
            x, y = (int(v) for v in rng.integers(0, 1 << dim, size=2))
            b = dot2(x, bilinear_mask(m, y))
            assert b == dot2(y, bilinear_mask(m, x))
            assert dot2(x, bilinear_mask(m, x)) == 0  # alternating
            assert b == quadratic(m, x ^ y) ^ quadratic(m, x) ^ quadratic(m, y)
        # the radical pairs trivially with everything
        assert bilinear_mask(m, 1) == 0


def _oracle_mask(m, u):
    """B(., u) packed, from the coordinate-by-coordinate polarization."""
    return sum(bilinear_form(m, 1 << i, u) << i for i in range(2 * m + 1))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_closed_forms_match_the_coordinate_oracles(m):
    # on every vector; by linearity in x the mask fixes B(x, u) for all x
    space = range(1 << (2 * m + 1))
    assert [quadratic(m, x) for x in space] == [quadratic_form(m, x) for x in space]
    assert [bilinear_mask(m, u) for u in space] == [_oracle_mask(m, u) for u in space]
    v = np.arange(1 << (2 * m + 1))
    assert quadratic(m, v).tolist() == [quadratic_form(m, x) for x in space]
    assert bilinear_mask(m, v).tolist() == [_oracle_mask(m, u) for u in space]


@pytest.mark.parametrize("m", [5, 6])
def test_closed_forms_beyond_a_byte(m):
    # numpy 2 counts the bits of a Python int as uint8: x ^ count overflows
    # for x > 255 unless the closed form keeps the int small
    dim = 2 * m + 1
    sample = [int(x) for x in np.random.default_rng(m).integers(256, 1 << dim, size=200)]
    assert [int(quadratic(m, x)) for x in sample] == [quadratic_form(m, x) for x in sample]
    assert [bilinear_mask(m, u) for u in sample] == [_oracle_mask(m, u) for u in sample]
    assert bilinear_mask(m, np.array(sample)).tolist() == [_oracle_mask(m, u) for u in sample]
    v = np.arange(1 << dim)
    assert quadratic(m, v).tolist() == [quadratic_form(m, x) for x in range(1 << dim)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_radical_is_e0(m):
    # e_0 is the only nonzero vector B-orthogonal to every unit vector
    dim = 2 * m + 1
    units = [1 << i for i in range(dim)]
    radical = [r for r in range(1, 1 << dim) if not any(bilinear_form(m, r, e) for e in units)]
    assert radical == [1]
    assert [r for r in range(1, 1 << dim) if bilinear_mask(m, r) == 0] == [1]
    assert quadratic_form(m, 1) == quadratic(m, 1) == 1


@pytest.mark.parametrize("m", sorted(CENSUS))
def test_hyperplane_census(m):
    minus, plus, degen = CENSUS[m]
    assert len(enumerate_hyperplanes(m, HyperplaneType.MINUS)) == minus
    assert len(enumerate_hyperplanes(m, HyperplaneType.PLUS)) == plus
    assert len(enumerate_hyperplanes(m, HyperplaneType.DEGENERATE)) == degen
    assert minus + plus + degen == (1 << (2 * m + 1)) - 1
    assert minus == 2 ** (m - 1) * (2**m - 1)
    assert plus == 2 ** (m - 1) * (2**m + 1)


def test_classification_matches_singular_counts():
    m = 2
    for phi in range(1, 1 << (2 * m + 1)):
        tag = classify_hyperplane(m, phi)
        s = singular_count(m, phi)
        if tag is HyperplaneType.PLUS:
            assert s == 2 ** (2 * m - 1) + 2 ** (m - 1) - 1
        elif tag is HyperplaneType.MINUS:
            assert s == 2 ** (2 * m - 1) - 2 ** (m - 1) - 1
        else:
            # degenerate = functional kills the radical generator
            assert dot2(phi, 1) == 0
    with pytest.raises(ValueError):
        classify_hyperplane(m, 0)
    with pytest.raises(ValueError):
        classify_hyperplane(m, 1 << (2 * m + 1))


def test_classify_refuses_a_count_that_fits_no_type(monkeypatch):
    monkeypatch.setattr(equiline.finfield, "singular_count", lambda m, phi: 0)
    with pytest.raises(ValueError, match="singular count 0 fits no type at m=2"):
        classify_hyperplane(2, 1)


@pytest.mark.parametrize("m", [2, 3])
def test_singular_count_matches_generator_form(m):
    space = range(1, 1 << (2 * m + 1))
    singular = [v for v in space if quadratic_form(m, v) == 0]
    for phi in space:
        expected = sum(1 for v in singular if dot2(phi, v) == 0)
        assert singular_count(m, phi) == expected


def test_hyperplane_character():
    # the +-1 character of ker(phi) is (-1)^dot2(phi, e): +1 exactly on the hyperplane
    phi = 0b101
    assert classify_hyperplane(1, phi) is HyperplaneType.PLUS

    def character(e):
        return -1 if dot2(phi, e) else 1

    assert character(0b010) == 1
    assert character(0b001) == -1
    assert sum(character(e) == 1 for e in range(8)) == 4
    # character is multiplicative along addition of vectors
    for e in range(8):
        for f in range(8):
            assert character(e ^ f) == character(e) * character(f)


def test_enumeration_order_is_lex():
    for m in (1, 2, 3):
        lex = lex_packed(2 * m + 1)
        for tag in HyperplaneType:
            expected = [phi for phi in lex if phi and classify_hyperplane(m, phi) is tag]
            assert enumerate_hyperplanes(m, tag) == expected
        assert nonsingular_vectors(m) == [u for u in lex if quadratic_form(m, u)]


@pytest.mark.parametrize("m", (1, 2))
def test_transvection_is_an_isometry_and_involution(m):
    for u in nonsingular_vectors(m):
        for x in range(1 << (2 * m + 1)):
            y = transvection(m, u, x)
            assert quadratic_form(m, y) == quadratic_form(m, x)
            assert transvection(m, u, y) == x
        # linearity
        for x in range(1 << (2 * m + 1)):
            for z in (3, 5):
                assert transvection(m, u, x ^ z) == transvection(m, u, x) ^ transvection(
                    m, u, z
                )


def test_transvection_rejects_singular_direction():
    with pytest.raises(ValueError):
        transvection(1, 2, 1)  # Q(e_1) = 0
    with pytest.raises(ValueError):
        transvection_on_functional(1, 2, 1)


def test_functional_pullback_matches_point_action():
    # phi'(x) = phi(t(x)) for the pullback phi' of phi along the transvection t.
    for m in (1, 2):
        for u in nonsingular_vectors(m):
            for phi in range(1, 1 << (2 * m + 1)):
                phi2 = transvection_on_functional(m, u, phi)
                for x in range(1 << (2 * m + 1)):
                    assert dot2(phi2, x) == dot2(phi, transvection(m, u, x))


def test_functional_pullback_preserves_type():
    for u in nonsingular_vectors(2):
        for tag in (HyperplaneType.MINUS, HyperplaneType.PLUS):
            for phi in enumerate_hyperplanes(2, tag):
                img = transvection_on_functional(2, u, phi)
                assert classify_hyperplane(2, img) is tag


def test_nonsingular_vector_counts():
    # Q = 1 on exactly half the space for the standard form.
    for m in (1, 2, 3):
        assert len(nonsingular_vectors(m)) == 1 << (2 * m)


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.int64).tobytes()).hexdigest()


# sha256 of the int64 bytes of each enumeration, as the general-form code
# gave them before the closed forms replaced it
HYPERPLANE_DIGESTS = {
    (2, HyperplaneType.PLUS): "9c5f5703099dea2d4265cd2ac19f589363984f768c1d38a718e500bfbba0cec8",
    (2, HyperplaneType.MINUS): "3ff4abee6cd59b2fd3ee96203f1c552c8befc87c5d53072f07c934f5f3f4ccd9",
    (2, HyperplaneType.DEGENERATE): "f2579b4343b38c08a8f18401258b9ad4f83a6192f793878da73dde47da565fcf",
    (3, HyperplaneType.PLUS): "b600184253ca0da8a5ddeeaaedd0abb25ab2746e167e940af8fe775164369697",
    (3, HyperplaneType.MINUS): "7effa7cfe6320b253db5586a7081d900480fcdb99f27ced89193db76f7dd4876",
    (3, HyperplaneType.DEGENERATE): "38be79423cdaf0f02146a955e3660ecbd758c9088d5ce4f92aae65238e04d8a1",
    (4, HyperplaneType.PLUS): "b65f71160cecb89d00e4e058894c680a10b3eb462c0ac23102bd136ce0881a3b",
    (4, HyperplaneType.MINUS): "b7ee3f64c5ca7cb7760ac25c1f99792f5b6ded4aee2e32633fb4d5e6ad5af71a",
    (4, HyperplaneType.DEGENERATE): "77a48d4461061bb84ad856ffa632a42446736b7817ac12582dd76a49d13fa8b4",
    (5, HyperplaneType.PLUS): "bb9ad0fba6ab44d12855bb95f30d7c7ca3eff5276e027d8fce2b33fa9845a6c8",
    (5, HyperplaneType.MINUS): "5fc012f813a374ae9853b58fb4e8e6eaf529682f3097bb2a5074f6b531a3dd4d",
    (5, HyperplaneType.DEGENERATE): "3f7f29340c804c9eab3107aa6226ba39b2b27065c9956229d7e4acbaaafeab91",
    (6, HyperplaneType.PLUS): "73385ed45fb12901990930cf05b4e947c4b764a1bc13ba0d641b58766f76b726",
    (6, HyperplaneType.MINUS): "00f5c08df3e5c484004d3cc4bcd26a641bd4bb0ce0d79c8da7d011f1730e05bb",
    (6, HyperplaneType.DEGENERATE): "4c809fd4217814dcc30991ace405b3eb2af6761ab7571f9142ae4bd3ee9c9385",
}


@pytest.mark.parametrize("m,tag", list(HYPERPLANE_DIGESTS))
def test_hyperplane_enumeration_digests(m, tag):
    assert _digest(enumerate_hyperplanes(m, tag)) == HYPERPLANE_DIGESTS[(m, tag)]
