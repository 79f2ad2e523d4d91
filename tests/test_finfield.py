from itertools import product

import numpy as np
import pytest

from equiline.finfield import (
    ClassifierMismatch,
    HyperplaneType,
    QuadForm2,
    RadicalDimension,
    _packed_lex,
    classify_hyperplane,
    dot2,
    enumerate_hyperplanes,
    nonsingular_vectors,
    radical,
    singular_count,
    standard_form,
)
from equiline.heisenberg import lex_digits
from oracles import transvection, transvection_on_functional

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


def test_quadform_validation():
    with pytest.raises(ValueError):
        QuadForm2(2, (1,))  # wrong row count
    with pytest.raises(ValueError):
        QuadForm2(2, (1, 1))  # lower-triangular coefficient
    with pytest.raises(ValueError):
        QuadForm2(2, (4, 2))  # coefficient outside dim


def test_standard_form_polarization():
    for m in (1, 2, 3):
        q = standard_form(m)
        assert q.dim == 2 * m + 1
        assert q.evaluate(0) == 0
        assert q.evaluate(1) == 1  # value on the radical generator
        assert radical(q) == 1
        rng = np.random.default_rng(m)
        for _ in range(50):
            x, y = rng.integers(0, 1 << q.dim, size=2)
            b = q.bilinear(int(x), int(y))
            assert b == q.bilinear(int(y), int(x))
            assert q.bilinear(int(x), int(x)) == 0  # alternating
            assert dot2(q.bilinear_mask(int(y)), int(x)) == b
        # the radical pairs trivially with everything
        assert all(q.bilinear(1, x) == 0 for x in range(1 << q.dim))


def test_radical_rejects_even_dimension_forms():
    # x0 x1 on F_2^2 is nondegenerate: radical has dimension 0, not 1.
    with pytest.raises(RadicalDimension):
        radical(QuadForm2(2, (2, 0)))


def test_radical_matches_the_bilinear_definition():
    # random forms on F_2^1 .. F_2^5 against the nonzero r with B(r, e_i) = 0
    # for every i, found by the bilinear form itself
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(300):
        dim = int(rng.integers(1, 6))
        rows = tuple(int(r) >> i << i for i, r in enumerate(rng.integers(0, 1 << dim, size=dim)))
        q = QuadForm2(dim, rows)
        rad = [r for r in range(1, 1 << dim) if not any(q.bilinear(r, 1 << i) for i in range(dim))]
        if len(rad) == 1 and q.evaluate(rad[0]):
            assert radical(q) == rad[0]
            seen.add("generator" if rad[0] == 1 else "off e_0")
        else:
            with pytest.raises(RadicalDimension):
                radical(q)
            seen.add("refused")
    assert seen == {"generator", "off e_0", "refused"}


@pytest.mark.parametrize("m", sorted(CENSUS))
def test_hyperplane_census(m):
    q = standard_form(m)
    minus, plus, degen = CENSUS[m]
    assert len(enumerate_hyperplanes(q, HyperplaneType.MINUS)) == minus
    assert len(enumerate_hyperplanes(q, HyperplaneType.PLUS)) == plus
    assert len(enumerate_hyperplanes(q, HyperplaneType.DEGENERATE)) == degen
    assert minus + plus + degen == (1 << q.dim) - 1
    assert minus == 2 ** (m - 1) * (2**m - 1)
    assert plus == 2 ** (m - 1) * (2**m + 1)


def test_classification_matches_singular_counts():
    q = standard_form(2)
    m = 2
    for phi in range(1, 1 << q.dim):
        tag = classify_hyperplane(q, phi)
        s = singular_count(q, phi)
        if tag is HyperplaneType.PLUS:
            assert s == 2 ** (2 * m - 1) + 2 ** (m - 1) - 1
        elif tag is HyperplaneType.MINUS:
            assert s == 2 ** (2 * m - 1) - 2 ** (m - 1) - 1
        else:
            # degenerate = functional kills the radical generator
            assert dot2(phi, 1) == 0
    with pytest.raises(ValueError):
        classify_hyperplane(q, 0)


@pytest.mark.parametrize("m", [2, 3])
def test_singular_count_matches_generator_form(m):
    q = standard_form(m)
    for phi in range(1, 1 << q.dim):
        expected = sum(
            1 for v in range(1, 1 << q.dim) if q.evaluate(v) == 0 and dot2(phi, v) == 0
        )
        assert singular_count(q, phi) == expected


def test_classify_rejects_malformed_form():
    # Totally singular form: every count collapses, no type fits.
    q = QuadForm2(3, (0, 0, 0))
    with pytest.raises((ClassifierMismatch, RadicalDimension)):
        classify_hyperplane(q, 1)


def test_hyperplane_character():
    # the +-1 character of ker(phi) is (-1)^dot2(phi, e): +1 exactly on the hyperplane
    phi = 0b101
    assert classify_hyperplane(standard_form(1), phi) is HyperplaneType.PLUS

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
        q = standard_form(m)
        lex = lex_packed(q.dim)
        for tag in HyperplaneType:
            expected = [phi for phi in lex if phi and classify_hyperplane(q, phi) is tag]
            assert enumerate_hyperplanes(q, tag) == expected
        assert nonsingular_vectors(q) == [u for u in lex if u and q.evaluate(u)]


@pytest.mark.parametrize("m", (1, 2))
def test_transvection_is_an_isometry_and_involution(m):
    q = standard_form(m)
    for u in nonsingular_vectors(q):
        for x in range(1 << q.dim):
            y = transvection(q, u, x)
            assert q.evaluate(y) == q.evaluate(x)
            assert transvection(q, u, y) == x
        # linearity
        for x in range(1 << q.dim):
            for z in (3, 5):
                assert transvection(q, u, x ^ z) == transvection(q, u, x) ^ transvection(
                    q, u, z
                )


def test_transvection_rejects_singular_direction():
    q = standard_form(1)
    with pytest.raises(ValueError):
        transvection(q, 2, 1)  # Q(e_1) = 0
    with pytest.raises(ValueError):
        transvection_on_functional(q, 2, 1)


def test_functional_pullback_matches_point_action():
    # phi'(x) = phi(t(x)) for the pullback phi' of phi along the transvection t.
    for m in (1, 2):
        q = standard_form(m)
        for u in nonsingular_vectors(q):
            for phi in range(1, 1 << q.dim):
                phi2 = transvection_on_functional(q, u, phi)
                for x in range(1 << q.dim):
                    assert dot2(phi2, x) == dot2(phi, transvection(q, u, x))


def test_functional_pullback_preserves_type():
    q = standard_form(2)
    for u in nonsingular_vectors(q):
        for tag in (HyperplaneType.MINUS, HyperplaneType.PLUS):
            for phi in enumerate_hyperplanes(q, tag):
                img = transvection_on_functional(q, u, phi)
                assert classify_hyperplane(q, img) is tag


def test_nonsingular_vector_counts():
    # Q = 1 on exactly half the space for the standard form.
    for m in (1, 2, 3):
        q = standard_form(m)
        assert len(nonsingular_vectors(q)) == 1 << (2 * m)
