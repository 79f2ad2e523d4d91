import numpy as np
import pytest

from equiline.fiducial import (
    NotConverged,
    SearchConfig,
    SearchReport,
    displacements,
    frame_potential,
    frame_potential_grad,
    orbit_lineset,
    potential_bound,
    search_fiducial,
)
from equiline.heisenberg import monomial_matrix
from equiline.lineset import certify_equiangular, certify_tight, gram, translations


def test_config_validation():
    cfg = SearchConfig(d=2)
    assert cfg.restarts == 8 and cfg.max_iters == 2000 and cfg.target_tol == 1e-10
    cfg8 = SearchConfig(d=8)
    assert cfg8.restarts == 64 and cfg8.max_iters == 5000 and cfg8.target_tol == 1e-8
    with pytest.raises(ValueError):
        SearchConfig(d=3)
    with pytest.raises(ValueError):
        SearchConfig(d=2, restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(d=2, max_iters=0)


@pytest.mark.parametrize("d", [2, 8])
def test_displacement_stack(d):
    disp = displacements(d)
    assert disp.shape == (d * d - 1, d, d)
    full = monomial_matrix(*translations(2, d.bit_length() - 1))
    assert full.shape == (d * d, d, d)
    assert np.abs(full[0] - np.eye(d)).max() == 0.0
    assert np.array_equal(full[1:], disp)  # the stack is the group minus the identity
    eye = np.eye(d)
    for M in disp:
        assert np.abs(M.conj().T @ M - eye).max() < 1e-12
        assert np.abs(np.trace(M)) < 1e-12  # nontrivial displacements are traceless


@pytest.mark.parametrize("d,basis_value", [(2, 1.0), (8, 7.0)])
def test_frame_potential_on_basis_vector(d, basis_value):
    # a standard basis vector meets every diagonal displacement with overlap 1
    disp = displacements(d)
    e0 = np.zeros(d, dtype=complex)
    e0[0] = 1.0
    assert abs(frame_potential(e0, disp) - basis_value) < 1e-12


def test_potential_bound_values():
    assert potential_bound(2) == pytest.approx(1 / 3)
    assert potential_bound(8) == pytest.approx(7 / 9)


@pytest.mark.parametrize("d", [2, 8])
def test_gradient_matches_central_differences(d):
    rng = np.random.default_rng(97)
    disp = displacements(d)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    g = frame_potential_grad(v, disp)
    h = 1e-6
    num = np.empty(d, dtype=complex)
    for k in range(d):
        step = np.zeros(d, dtype=complex)
        step[k] = h
        d_re = (frame_potential(v + step, disp) - frame_potential(v - step, disp)) / (2 * h)
        d_im = (frame_potential(v + 1j * step, disp) - frame_potential(v - 1j * step, disp)) / (
            2 * h
        )
        num[k] = d_re + 1j * d_im
    rel = np.linalg.norm(g - num) / np.linalg.norm(num)
    assert rel < 1e-6


def test_search_converges_at_d2():
    v, report = search_fiducial(SearchConfig(d=2, seed=1))
    assert isinstance(report, SearchReport)
    assert report.converged
    assert report.best_f - report.bound <= 1e-10
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert report.restarts_run == 8
    assert len(report.iterations_per_restart) == 8
    assert report.total_iterations == sum(report.iterations_per_restart)


def test_search_is_deterministic():
    v1, r1 = search_fiducial(SearchConfig(d=2, seed=1))
    v2, r2 = search_fiducial(SearchConfig(d=2, seed=1))
    assert v1.tobytes() == v2.tobytes()
    assert r1 == r2
    v3, _ = search_fiducial(SearchConfig(d=2, seed=2))
    assert v3.tobytes() != v1.tobytes()  # different seed, different starts


def test_search_not_converged_carries_report():
    with pytest.raises(NotConverged) as exc:
        search_fiducial(SearchConfig(d=2, seed=1, max_iters=1, restarts=2))
    rep = exc.value.report
    assert not rep.converged
    assert rep.best_f - rep.bound > rep.target_tol
    assert rep.restarts_run == 2


@pytest.mark.parametrize("d,seed", [(2, 1), (2, 2), (2, 3), (8, 1)])
def test_orbit_certifies(d, seed):
    v, _ = search_fiducial(SearchConfig(d=d, seed=seed))
    L = orbit_lineset(v, d)
    assert (L.n, L.d) == (d * d, d)
    assert L.meta["case"] == ("i" if d == 2 else "ii")
    G = gram(L)
    cert = certify_equiangular(G, tol=1e-7)
    assert abs(cert.alpha**2 - 1 / (d + 1)) < 1e-7
    assert certify_tight(G, d, tol=1e-7)


def test_orbit_lineset_validates_input():
    with pytest.raises(ValueError):
        orbit_lineset(np.ones(3), 2)
    L = orbit_lineset(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]) / np.sqrt(2), 8)
    assert L.n == 64  # any unit vector orbits to a full-rank set here
    extra = orbit_lineset(np.array([1.0, 1.0]) / np.sqrt(2), 2, meta={"seed": 9})
    assert extra.meta["seed"] == 9
