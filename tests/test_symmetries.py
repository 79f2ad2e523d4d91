from math import log

import numpy as np
import pytest

from equiline.action import (
    action_certificate,
    induced_permutation,
    is_transitive,
    multiplicity_certificate,
    two_transitivity,
)
from equiline.finfield import HyperplaneType
from equiline.fiducial import SearchConfig, orbit_lineset, search_fiducial
from equiline.heisenberg import check_unitary, monomial_matrix
from equiline.lineset import LineSet, construct_case_iii, construct_case_iv
from equiline.symmetries import (
    CLIFFORD_SEARCH_SEED,
    geometry_unitaries,
    line_translations,
    stabilizer_unitaries,
    symmetry_unitaries,
    translation_unitaries,
)

MINUS, PLUS = HyperplaneType.MINUS, HyperplaneType.PLUS


def fixed_points(perm):
    return sum(1 for i, j in enumerate(perm) if i == j)


def seeded_orbit(d):
    rng = np.random.default_rng(11)
    return orbit_lineset(rng.normal(size=d) + 1j * rng.normal(size=d), d)


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_case_iii(2, MINUS),
        lambda: construct_case_iii(2, PLUS),
        lambda: construct_case_iv(3, 1, MINUS),
        lambda: construct_case_iv(5, 1, PLUS),
        lambda: seeded_orbit(2),
        lambda: seeded_orbit(8),
    ],
)
def test_translations_act_freely_and_transitively(build):
    L = build()
    unis = monomial_matrix(*line_translations(L))
    assert len(unis) == L.n  # the whole group, identity first
    perms = [induced_permutation(L, U) for U in unis]
    assert perms[0] == tuple(range(L.n))
    for perm in perms[1:]:
        assert fixed_points(perm) == 0
    assert is_transitive(perms)
    # line order: element k maps line 0 to line k (so the action is simply transitive)
    assert [perm[0] for perm in perms] == list(range(L.n))
    # generator i is the unit label e_i, element p^(r-1-i)
    p = L.meta.get("p", 2)
    r = round(log(L.n, p))
    gens = translation_unitaries(L)
    assert len(gens) == r
    for i, U in enumerate(gens):
        assert np.array_equal(U, unis[p ** (r - 1 - i)])


def test_translation_generators_are_unitary():
    for L in (construct_case_iii(2, MINUS), construct_case_iv(3, 1, MINUS)):
        gens = translation_unitaries(L)
        assert len(gens) == 2 * L.meta["m"]
        for U in gens:
            check_unitary(U)


def test_sign_case_translations_are_diagonal():
    L = construct_case_iii(2, MINUS)
    unis = monomial_matrix(*line_translations(L))
    assert unis.dtype == np.float64  # real phases keep a real matrix
    for U in unis:
        assert np.abs(U - np.diag(np.diag(U))).max() == 0.0
        assert set(np.unique(np.diag(U).real)) <= {-1.0, 1.0}


def test_geometry_unitaries_are_unitary_symmetries():
    for L in (construct_case_iii(2, MINUS), construct_case_iv(3, 1, PLUS)):
        for U in geometry_unitaries(L):
            check_unitary(U)
            induced_permutation(L, U)  # raises if not a symmetry


@pytest.mark.parametrize(
    "build,order",
    [
        (lambda: construct_case_iii(2, MINUS), 11520),
        (lambda: construct_case_iii(2, PLUS), 11520),
        (lambda: construct_case_iv(3, 1, MINUS), 216),
        (lambda: construct_case_iv(3, 1, PLUS), 216),
        (lambda: construct_case_iv(5, 1, MINUS), 3000),
        (lambda: construct_case_iv(5, 1, PLUS), 3000),
    ],
)
def test_symmetry_groups_are_two_transitive_with_known_order(build, order):
    L = build()
    cert = action_certificate(L, symmetry_unitaries(L))
    assert cert.two_transitive
    assert cert.group_order == order


def test_stabilizer_sign_case():
    L = construct_case_iii(2, MINUS)
    unis, phases = stabilizer_unitaries(L)
    assert len(unis) == len(phases) == 1440  # 720 permutations times +-1
    assert set(phases) == {1.0, -1.0}
    base = L.vectors[:, 0]
    for U, lam in zip(unis[:50], phases[:50]):
        assert np.abs(U @ base - lam * base).max() < 1e-12
    cert = multiplicity_certificate(L, unis, phases)
    assert cert.rank == 1
    assert cert.range_is_line0
    assert cert.idempotency_residual < 1e-12


@pytest.mark.parametrize(
    "p,eigen,size", [(3, MINUS, 24), (3, PLUS, 24), (5, MINUS, 120), (5, PLUS, 120)]
)
def test_stabilizer_odd_prime_case(p, eigen, size):
    L = construct_case_iv(p, 1, eigen)
    unis, phases = stabilizer_unitaries(L)
    assert len(unis) == size  # the full 2x2 symplectic group over F_p
    base = L.vectors[:, 0]
    for lam in phases:
        assert abs(abs(lam) - 1.0) < 1e-8
    for U, lam in zip(unis, phases):
        assert np.abs(U @ base - lam * base).max() < 1e-7
    cert = multiplicity_certificate(L, unis, phases)
    assert cert.rank == 1
    assert cert.range_is_line0


def test_stabilizer_size_guards():
    with pytest.raises(ValueError):
        stabilizer_unitaries(construct_case_iii(3, MINUS))
    with pytest.raises(ValueError):
        stabilizer_unitaries(construct_case_iv(3, 2, MINUS))


def test_orbit_case_symmetries_reach_two_transitivity():
    v, _ = search_fiducial(SearchConfig(d=2, seed=1))
    L = orbit_lineset(v, 2)
    unis = symmetry_unitaries(L)
    perms = [induced_permutation(L, U) for U in unis]
    assert two_transitivity(perms)
    # translations alone are only simply transitive
    tperms = [induced_permutation(L, U) for U in translation_unitaries(L)]
    assert is_transitive(tperms) and not two_transitivity(tperms)


def test_clifford_scan_stops_as_soon_as_the_group_is_two_transitive():
    # case ii, d = 8, seed 1: the scan keeps three words, then the chain
    # reports 2-transitivity and the scan stops
    v, _ = search_fiducial(SearchConfig(d=8, seed=1))
    L = orbit_lineset(v, 8)
    assert len(geometry_unitaries(L)) == 3
    cert = action_certificate(L, symmetry_unitaries(L))
    assert cert.matched_unitaries == 9
    assert cert.group_order == 387072
    assert cert.two_transitive


def test_orbit_case_detection_is_deterministic():
    assert CLIFFORD_SEARCH_SEED == 7
    v, _ = search_fiducial(SearchConfig(d=2, seed=1))
    L = orbit_lineset(v, 2)
    a = [induced_permutation(L, U) for U in geometry_unitaries(L)]
    b = [induced_permutation(L, U) for U in geometry_unitaries(L)]
    assert a == b


def test_unknown_case_rejected():
    rng = np.random.default_rng(3)
    cols = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    cols /= np.linalg.norm(cols, axis=0)
    with pytest.raises(ValueError):
        symmetry_unitaries(LineSet(cols, {"case": "x"}))
    with pytest.raises(ValueError):
        translation_unitaries(LineSet(cols))


@pytest.mark.parametrize(
    "change",
    [
        {"m": None},  # missing
        {"m": 3},
        {"m": 40},
        {"type": "plus"},  # d = 6 is the minus row of n = 16
        {"case": "iv"},
        {"case": "ii"},
    ],
)
def test_meta_is_checked_against_the_dimensions(change):
    L = construct_case_iii(2, MINUS)
    meta = {k: v for k, v in {**L.meta, **change}.items() if v is not None}
    with pytest.raises(ValueError):
        symmetry_unitaries(LineSet(L.vectors, meta))


def test_odd_prime_meta_is_checked_against_the_dimensions():
    L = construct_case_iv(3, 1, MINUS)
    for change in ({"p": 5}, {"m": 2}, {"eigen": "plus"}, {"p": None}):
        meta = {k: v for k, v in {**L.meta, **change}.items() if v is not None}
        with pytest.raises(ValueError):
            translation_unitaries(LineSet(L.vectors, meta))
