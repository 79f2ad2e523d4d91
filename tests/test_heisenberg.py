import numpy as np
import pytest

from equiline.heisenberg import check_unitary
from oracles import (
    HeisenbergElement,
    IndexOutOfRange,
    ParameterMismatch,
    commutant_dimension,
    displacement,
    group_elements,
    schroedinger_rep,
    valid_rep_indices,
)

PARAMS = [(3, 1), (5, 1), (3, 2), (2, 3)]


def rand_element(rng, p, m):
    mod = p if p > 2 else 4
    return HeisenbergElement.make(
        p,
        m,
        tuple(int(x) for x in rng.integers(0, p, m)),
        tuple(int(x) for x in rng.integers(0, p, m)),
        int(rng.integers(0, mod)),
    )


@pytest.mark.parametrize("p,m", PARAMS)
def test_group_axioms(p, m):
    rng = np.random.default_rng(11)
    e = HeisenbergElement.identity(p, m)
    for _ in range(60):
        g = rand_element(rng, p, m)
        h = rand_element(rng, p, m)
        k = rand_element(rng, p, m)
        assert (g * h) * k == g * (h * k)
        assert g * e == g and e * g == g
        assert g * g.inverse() == e
        assert g.inverse() * g == e


@pytest.mark.parametrize("p,m", PARAMS)
def test_group_size_and_center(p, m):
    elems = list(group_elements(p, m))
    mod = p if p > 2 else 4
    assert len(elems) == p ** (2 * m) * mod
    assert len(set(elems)) == len(elems)
    central = [g for g in elems if g.is_central]
    assert len(central) == mod
    sample = elems[:: max(1, len(elems) // 40)]
    for z in central:
        assert all(z * g == g * z for g in sample)


def test_element_validation():
    with pytest.raises(ValueError):
        HeisenbergElement(3, 1, (3,), (0,), 0)  # entry not reduced
    with pytest.raises(ValueError):
        HeisenbergElement(3, 1, (0, 0), (0,), 0)  # wrong length
    with pytest.raises(ValueError):
        HeisenbergElement(2, 1, (0,), (0,), 4)  # central exponent not reduced mod 4
    with pytest.raises(ParameterMismatch):
        HeisenbergElement.identity(3, 1) * HeisenbergElement.identity(5, 1)


def test_powers():
    g = HeisenbergElement.make(3, 1, (1,), (2,), 1)
    e = HeisenbergElement.identity(3, 1)
    acc = e
    for k in range(1, 7):
        acc = acc * g
        assert g**k == acc
    assert g**0 == e
    assert g**-1 == g.inverse()


def test_valid_rep_indices():
    assert valid_rep_indices(3) == (1, 2)
    assert valid_rep_indices(5) == (1, 2, 3, 4)
    assert valid_rep_indices(2) == (1, 3)


@pytest.mark.parametrize("p,m", PARAMS)
def test_rep_is_a_homomorphism(p, m):
    rng = np.random.default_rng(17)
    for j in valid_rep_indices(p)[:2]:
        for _ in range(200):
            g = rand_element(rng, p, m)
            h = rand_element(rng, p, m)
            lhs = schroedinger_rep(g, j) @ schroedinger_rep(h, j)
            rhs = schroedinger_rep(g * h, j)
            assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("p,m", PARAMS)
def test_rep_unitary_and_central_scalars(p, m):
    d = p**m
    mod = p if p > 2 else 4
    omega = np.exp(2j * np.pi / mod)
    for j in valid_rep_indices(p):
        for c in range(mod):
            z = HeisenbergElement.make(p, m, (0,) * m, (0,) * m, c)
            U = schroedinger_rep(z, j)
            check_unitary(U)
            # central elements act as the scalar omega^(j c)
            assert np.abs(U - omega ** (j * c) * np.eye(d)).max() < 1e-12


@pytest.mark.parametrize("p,m", [(3, 1), (2, 1), (2, 3)])
def test_rep_is_injective(p, m):
    keys = set()
    for g in group_elements(p, m):
        keys.add((np.round(schroedinger_rep(g), 9) + (0 + 0j)).tobytes())
    mod = p if p > 2 else 4
    assert len(keys) == p ** (2 * m) * mod


def test_all_rep_indices_give_the_same_image():
    # j = 2 permutes the image of j = 1 for p = 3, m = 1
    img1 = {np.round(schroedinger_rep(g, 1) + 0j, 9).tobytes() for g in group_elements(3, 1)}
    img2 = {np.round(schroedinger_rep(g, 2) + 0j, 9).tobytes() for g in group_elements(3, 1)}
    assert img1 == img2


def test_rep_index_validation():
    g = HeisenbergElement.identity(3, 1)
    with pytest.raises(IndexOutOfRange):
        schroedinger_rep(g, 0)
    with pytest.raises(IndexOutOfRange):
        schroedinger_rep(g, 3)


def test_displacement_matches_rep():
    for p, m in PARAMS:
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = tuple(int(x) for x in rng.integers(0, p, m))
            b = tuple(int(x) for x in rng.integers(0, p, m))
            g = HeisenbergElement.make(p, m, a, b, 0)
            assert np.abs(displacement(p, m, a, b) - schroedinger_rep(g)).max() < 1e-12


def test_displacement_commutation_phase():
    # D(a,b) D(a',b') = omega^(b.a' - a.b') D(a',b') D(a,b) for odd p
    p, m = 5, 1
    omega = np.exp(2j * np.pi / p)
    rng = np.random.default_rng(5)
    for _ in range(30):
        a, b, a2, b2 = (int(x) for x in rng.integers(0, p, 4))
        lhs = displacement(p, m, (a,), (b,)) @ displacement(p, m, (a2,), (b2,))
        rhs = displacement(p, m, (a2,), (b2,)) @ displacement(p, m, (a,), (b,))
        assert np.abs(lhs - omega ** (b * a2 - a * b2) * rhs).max() < 1e-12


def test_check_unitary():
    U = check_unitary(np.eye(3))
    assert U.dtype == complex
    with pytest.raises(ValueError):
        check_unitary(np.ones((2, 2)))
    with pytest.raises(ValueError):
        check_unitary(np.eye(3)[:2])


def test_commutant_dimension_known_algebras():
    # full matrix algebra commutant = scalars; singletons of a scalar = everything
    rng = np.random.default_rng(3)
    mats = [displacement(3, 1, (1,), (0,)), displacement(3, 1, (0,), (1,))]
    assert commutant_dimension(mats) == 1
    assert commutant_dimension([np.eye(3)]) == 9
    # commutant of a diagonal with distinct entries = diagonals
    D = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert commutant_dimension([D]) == 3
    # random unitary conjugation does not change the dimension
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Q = np.linalg.qr(X)[0]
    assert commutant_dimension([Q @ D @ Q.conj().T]) == 3
