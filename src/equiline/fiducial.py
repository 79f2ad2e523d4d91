"""Fiducial vector search for the two Pauli-orbit cases (d = 2 and d = 8).

The functional is the quartic overlap sum over the nontrivial displacement
classes,

    f(v) = sum_g |<v, D(g) v>|^4,       f(v) >= (d - 1)/(d + 1),

with equality exactly when the d^2 lines D(g) v are equiangular.  The search
is multi-restart projected gradient descent on the unit sphere with a
Barzilai-Borwein initial step and monotone Armijo backtracking.  All restarts
run in lockstep as the rows of one array, each with its own step, stop test
and iteration count, and a row drops out when it stops.  The displacements
are gathers, (D_g v)[y] = phase[g, y] v[index[g, y]], so the overlaps are
gathers and elementwise sums; each candidate point is gathered once for its
potential and, if accepted, its tangent.  The inner products of the descent
are batched with np.vecdot, which makes per row the BLAS call of np.vdot, or
the two real dots of np.linalg.norm.  Each row therefore takes, to the last
bit, the path it would take alone.  The search is deterministic for a fixed
seed: all starts are drawn up front, and the winner is the (f value, restart
index) minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lineset import LineSet, _shape_in_memory, _translation_table

__all__ = [
    "NotConverged",
    "SearchConfig",
    "SearchReport",
    "displacements",
    "potential_bound",
    "search_fiducial",
    "orbit_lineset",
]


class NotConverged(Exception):
    """No restart reached the target; carries the best report achieved."""

    def __init__(self, report: SearchReport):
        self.report = report
        super().__init__(
            f"best f = {report.best_f:.12f} after {report.restarts_run} restarts "
            f"(bound {report.bound:.12f}, target gap {report.target_tol:.1e})"
        )


# Armijo sufficient-decrease constant, the first step before Barzilai-Borwein
# steps are available, the backtracking factor and its number of halvings
_ARMIJO = 1e-4
_STEP_INIT = 0.1
_SHRINK = 0.5
_HALVINGS = 60
# Rows are evaluated in blocks whose (rows, g, d) complex images stay within
# this many bytes: at d = 8 that is 16 of the 64 restarts, and it takes a
# search-seeds pass's peak RSS from 40.0 to 39.3 MB (39.1 MB one restart at a
# time)
_BLOCK_BYTES = 1 << 17
_SEARCH_BYTES_PER_ENTRY = 320  # per restart coordinate; tracemalloc: 287 B at d = 2, 224 at 8


@dataclass
class SearchConfig:
    d: int = 8
    seed: int = 1
    restarts: int | None = None
    max_iters: int | None = None
    target_tol: float | None = None

    def __post_init__(self):
        if self.d not in (2, 8):
            raise ValueError(f"search supports d in {{2, 8}}, got {self.d}")
        if self.restarts is None:
            self.restarts = 8 if self.d == 2 else 64
        if self.max_iters is None:
            self.max_iters = 2000 if self.d == 2 else 5000
        if self.target_tol is None:
            self.target_tol = 1e-10 if self.d == 2 else 1e-8
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")


@dataclass
class SearchReport:
    converged: bool
    best_f: float
    bound: float
    target_tol: float
    best_restart: int
    restarts_run: int
    total_iterations: int
    iterations_per_restart: list[int] = field(default_factory=list)


def _qubits(d: int) -> int:
    k = d.bit_length() - 1
    if 1 << k != d:
        raise ValueError(f"d must be a power of two, got {d}")
    return k


def displacements(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomials (index, phase) of the nontrivial displacements in line order,
    each of shape (d^2 - 1, d): the cached translations after the identity."""
    return tuple(part[1:] for part in _translation_table(2, _qubits(d), None)[:2])


def potential_bound(d: int) -> float:
    return (d - 1) / (d + 1)


def _gathers(disp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The monomials disp = (index, phase), D_g v = phase_g * v[index_g], with
    the sign of each.  A qubit displacement squares to +-1, so D_g^dagger =
    sign_g D_g with sign_g = +-1: index_g is an involution, and the adjoint's
    gather conj(phase_g[index_g]) * v[index_g] is the forward one times
    sign_g, which rounds exactly (the phases are +-1 or +-i).  Raises
    ValueError if disp is not such a stack."""
    index, phase = disp
    back = np.take_along_axis(phase, index, axis=-1).conj()  # the adjoint's phases
    sign = np.where(back[:, :1] == phase[:, :1], 1.0, -1.0)
    involution = (np.take_along_axis(index, index, axis=-1) == np.arange(index.shape[-1])).all()
    if not (involution and np.array_equal(back, sign * phase)):
        raise ValueError("displacements must be their own adjoints up to sign")
    return index, phase, sign[:, 0]


def _overlaps(v: np.ndarray, gathers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The images D_g v of each row of v (shape (..., d)), of shape (..., g,
    d), the overlaps w_g = <v, D_g v> and h_g = |w_g|^2.  h is made
    C-contiguous so that np.sum takes each row pairwise, as it takes one row
    alone."""
    index, phase, _ = gathers
    fwd = np.take(v, index, axis=-1)
    fwd *= phase
    w = np.einsum("...i,...gi->...g", v.conj(), fwd)
    return fwd, w, np.ascontiguousarray((w * w.conj()).real)


def _gradient(fwd: np.ndarray, w: np.ndarray, h: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """4 sum_g h_g (conj(w_g) D_g v + w_g D_g^dagger v), with D_g^dagger v
    taken as sign_g D_g v on the side of the overlaps."""
    return 4.0 * np.einsum("...g,...gi->...i", h * w.conj(), fwd) + 4.0 * np.einsum(
        "...g,...gi->...i", h * w * sign, fwd
    )


# The inner products of the descent are batched with np.vecdot, which makes
# per row the BLAS call a single restart makes (np.vdot's zdotc, and the two
# real ddots of np.linalg.norm) with the same strides: a reduction that rounds
# differently would move the last bits of f, and those decide the winner among
# restarts that tie to 1e-16.
def _normalized(x: np.ndarray) -> np.ndarray:
    """The rows of x over their norms, each sqrt(re . re + im . im) as
    np.linalg.norm takes it for a complex vector."""
    return x / np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))[:, None]


def _evaluate(v: np.ndarray, gathers, bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The potential f at each row of v and, at the rows where f <= bar, the
    tangent: the gradient projected off the row (NaN at the other rows).  One
    gather and one set of overlaps serve both, a block of rows at a time."""
    rows = max(1, _BLOCK_BYTES // (16 * gathers[0].size))
    f, gt = np.empty(len(v)), np.full_like(v, np.nan)
    for lo in range(0, len(v), rows):
        x = v[lo : lo + rows]
        fwd, w, h = _overlaps(x, gathers)
        f[lo : lo + rows] = fb = np.sum(h * h, axis=-1)
        ok = fb <= bar[lo : lo + rows]
        if not ok.all():
            x, fwd, w, h = x[ok], fwd[ok], w[ok], h[ok]
        g = _gradient(fwd, w, h, gathers[2])
        gt[lo : lo + rows][ok] = g - x * np.vecdot(x, g)[:, None]
    return f, gt


def _descend(v: np.ndarray, disp, cfg: SearchConfig, bound: float):
    """Projected gradient descent from every row of v at once; returns the
    rows reached, their potentials and the iteration count of each."""
    gathers = _gathers(disp)
    v = v.copy()
    f, gt = _evaluate(v, gathers, np.full(len(v), np.inf))
    step = np.full(len(v), _STEP_INIT)
    prev_v, prev_gt = np.zeros_like(v), np.zeros_like(v)
    stepped = np.zeros(len(v), dtype=bool)
    iters = np.full(len(v), cfg.max_iters)
    live = np.arange(len(v))  # the restarts still descending
    for it in range(1, cfg.max_iters + 1):
        gnorm2 = np.vecdot(gt[live], gt[live]).real
        stop = (gnorm2 < 1e-26) | (f[live] - bound <= cfg.target_tol)
        iters[live[stop]] = it
        live, gnorm2 = live[~stop], gnorm2[~stop]
        if not live.size:
            break
        bb = live[stepped[live]]  # Barzilai-Borwein step from the last move
        s, y = v[bb] - prev_v[bb], gt[bb] - prev_gt[bb]
        sy = np.vecdot(s, y).real
        step[bb] = np.clip(
            np.divide(np.vecdot(s, s).real, sy, out=step[bb], where=sy > 1e-30), 1e-10, 1e3
        )
        # monotone Armijo backtracking: row i of pending still halves t[i]; an
        # accepted candidate comes with its tangent
        t = step[live]
        cand, gcand = np.empty((2, len(live), v.shape[1]), dtype=v.dtype)
        fcand = np.empty(len(live))
        pending = np.arange(len(live))
        for _ in range(_HALVINGS):
            rows = live[pending]
            c = _normalized(v[rows] - t[pending, None] * gt[rows])
            bar = f[rows] - _ARMIJO * t[pending] * gnorm2[pending]
            fc, gc = _evaluate(c, gathers, bar)
            ok = fc <= bar
            cand[pending[ok]], fcand[pending[ok]], gcand[pending[ok]] = c[ok], fc[ok], gc[ok]
            pending = pending[~ok]
            if not pending.size:
                break
            t[pending] *= _SHRINK
        moved = np.ones(len(live), dtype=bool)
        moved[pending] = False
        iters[live[pending]] = it
        live = live[moved]
        prev_v[live], prev_gt[live], stepped[live] = v[live], gt[live], True
        v[live], f[live], gt[live] = cand[moved], fcand[moved], gcand[moved]
    return v, f, iters


def search_fiducial(cfg: SearchConfig) -> tuple[np.ndarray, SearchReport]:
    """Best fiducial over cfg.restarts seeded starts; raises NotConverged if no
    restart closes the gap to the lower bound within cfg.target_tol, and
    MemoryError, before any start is drawn, when the restarts do not fit."""
    _shape_in_memory("its {} x {} restart arrays take about {} bytes", _SEARCH_BYTES_PER_ENTRY,
                     (cfg.restarts.bit_length() - 1, 1), lambda: (cfg.restarts, cfg.d))
    disp = displacements(cfg.d)
    bound = potential_bound(cfg.d)
    z = np.random.default_rng(cfg.seed).normal(size=(cfg.restarts, 2, cfg.d))
    v, f, iters = _descend(_normalized(z[:, 0] + 1j * z[:, 1]), disp, cfg, bound)
    best = int(np.argmin(f))  # the first restart of least f
    report = SearchReport(
        converged=bool(f[best] - bound <= cfg.target_tol),
        best_f=float(f[best]),
        bound=bound,
        target_tol=cfg.target_tol,
        best_restart=best,
        restarts_run=cfg.restarts,
        total_iterations=int(iters.sum()),
        iterations_per_restart=iters.tolist(),
    )
    if not report.converged:
        raise NotConverged(report)
    return v[best], report


def orbit_lineset(v: np.ndarray, d: int, meta: dict | None = None) -> LineSet:
    """The d^2 lines D(g) v over all displacement labels, identity first."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (d,):
        raise ValueError("fiducial must be a length-d vector")
    v = v / np.linalg.norm(v)
    return LineSet.from_orbit(v, {"case": "i" if d == 2 else "ii", "n": d * d, "d": d, **(meta or {})},
                              d * d)
