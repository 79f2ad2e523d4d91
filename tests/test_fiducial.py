import gc
import tracemalloc

import numpy as np
import pytest

from equiline import fiducial
from equiline.fiducial import (
    NotConverged,
    SearchConfig,
    SearchReport,
    displacements,
    orbit_lineset,
    potential_bound,
    search_fiducial,
)
from equiline.heisenberg import monomial_matrix
from equiline.lineset import certify_equiangular, certify_tight, gram, translations
from oracles import frame_potential, frame_potential_grad


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
    disp = monomial_matrix(*displacements(d))
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


# best_restart and iterations_per_restart as the one-restart-at-a-time search
# gave them; the lockstep search must take the same path on every restart.
PARENT_SEARCHES = {
    (2, 1): (5, [7, 7, 5, 5, 4, 6, 7, 6]),
    (8, 1): (26, [7, 9, 10, 9, 10, 10, 10, 12, 8, 9, 8, 11, 12, 11, 7, 8, 9, 11, 10, 7, 12, 9,
                  10, 14, 10, 8, 10, 9, 7, 8, 10, 8, 10, 9, 12, 11, 12, 11, 9, 15, 12, 8, 16, 11,
                  10, 7, 11, 8, 8, 9, 12, 12, 11, 11, 8, 9, 8, 11, 11, 15, 8, 10, 7, 9]),
    (8, 3): (34, [11, 9, 8, 12, 10, 10, 11, 8, 9, 9, 10, 9, 11, 9, 9, 10, 8, 12, 9, 7, 9, 6, 10,
                  12, 7, 10, 8, 11, 10, 11, 11, 9, 11, 7, 10, 7, 10, 10, 8, 11, 11, 10, 12, 8, 9,
                  12, 9, 11, 13, 19, 10, 9, 10, 11, 9, 12, 7, 10, 9, 14, 9, 9, 12, 9]),
}


@pytest.mark.parametrize("d,seed", sorted(PARENT_SEARCHES))
def test_lockstep_search_keeps_each_restart_path(d, seed):
    _, report = search_fiducial(SearchConfig(d=d, seed=seed))
    assert (report.best_restart, report.iterations_per_restart) == PARENT_SEARCHES[(d, seed)]


def _starts(d, rows, seed=5):
    z = np.random.default_rng(seed).normal(size=(rows, 2, d))
    return fiducial._normalized(z[:, 0] + 1j * z[:, 1])


@pytest.mark.parametrize("d", [2, 8])
def test_stacked_rows_give_each_rows_own_bits(d):
    v, disp = _starts(d, 7), displacements(d)
    f, g = frame_potential(v, disp), frame_potential_grad(v, disp)
    for r in range(len(v)):
        assert f[r] == frame_potential(v[r], disp)
        assert g[r].tobytes() == frame_potential_grad(v[r], disp).tobytes()


@pytest.mark.parametrize("d", [2, 8])
def test_each_row_descends_as_it_would_alone(d):
    cfg, disp, bound = SearchConfig(d=d, restarts=6), displacements(d), potential_bound(d)
    starts = _starts(d, 6)
    v, f, iters = fiducial._descend(starts, disp, cfg, bound)
    for r in range(len(starts)):
        vr, fr, ir = fiducial._descend(starts[r : r + 1], disp, cfg, bound)
        assert (vr[0].tobytes(), fr[0], ir[0]) == (v[r].tobytes(), f[r], iters[r])


# The descent batches its inner products with np.vecdot; these pin that each
# row still gets the bits of the per-row BLAS call a single restart makes, so a
# numpy or BLAS change that breaks it fails here and not only in the goldens.
@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("rows", [0, 1, 16, 64])
def test_batched_dots_give_the_per_row_bits(d, rows):
    rng = np.random.default_rng(100 * d + rows)
    x, y = rng.normal(size=(2, rows, d)) + 1j * rng.normal(size=(2, rows, d))
    per_row = np.array([np.vdot(a, b) for a, b in zip(x, y)], dtype=complex)
    assert np.vecdot(x, y).tobytes() == per_row.tobytes()
    # x.real and x.imag are strided views, as in _normalized
    sq = np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)
    assert sq.tobytes() == np.array([a.dot(a) + b.dot(b) for a, b in zip(x.real, x.imag)]).tobytes()
    alone = np.array([a / np.linalg.norm(a) for a in x]).reshape(rows, d)
    assert fiducial._normalized(x).tobytes() == alone.tobytes()


@pytest.mark.parametrize("d", [2, 8])
def test_adjoint_gather_is_the_signed_forward_gather(d):
    index, phase = disp = displacements(d)
    gathers = fiducial._gathers(disp)
    sign = gathers[2]
    assert set(sign.tolist()) <= {-1.0, 1.0}
    D = monomial_matrix(index, phase)
    assert np.array_equal(D.conj().transpose(0, 2, 1), sign[:, None, None] * D)
    v = _starts(d, 5)
    fwd, w, h = fiducial._overlaps(v, gathers)
    # D_g^dagger v gathered as it is defined: row x of D_g^dagger holds
    # conj(phase[y]) in the column y with index[y] = x, and index is an involution
    adj = v[..., index] * np.take_along_axis(phase, index, axis=-1).conj()
    assert adj.tobytes() == (sign[:, None] * fwd).tobytes()
    # so the gradient is, bit for bit, the one taken with the adjoint gather
    grad = 4.0 * np.einsum("...g,...gi->...i", h * w.conj(), fwd) + 4.0 * np.einsum(
        "...g,...gi->...i", h * w, adj
    )
    assert frame_potential_grad(v, disp).tobytes() == grad.tobytes()


@pytest.mark.parametrize(
    "disp",
    [
        (np.array([[1, 2, 0]]), np.ones((1, 3), dtype=complex)),  # a 3-cycle
        (np.array([[0, 1]]), np.array([[1.0, 1j]])),  # diag(1, i) is not +-diag(1, -i)
    ],
)
def test_gathers_refuse_a_monomial_that_is_not_signed_self_adjoint(disp):
    with pytest.raises(ValueError):
        fiducial._gathers(disp)


def test_repeated_searches_keep_no_memory():
    # nothing is cached from one search to the next: after a warm-up, the
    # memory still live stays within the interpreter's own free lists
    search_fiducial(SearchConfig(d=2, seed=1))
    tracemalloc.start()
    try:
        sizes = []
        for k in range(1, 51):
            search_fiducial(SearchConfig(d=2, seed=1))
            if k in (10, 50):
                gc.collect()
                sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert sizes[1] - sizes[0] < 4096


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
