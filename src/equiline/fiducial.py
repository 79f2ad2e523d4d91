"""Fiducial vector search for the two Pauli-orbit cases (d = 2 and d = 8).

The functional is the quartic overlap sum over the nontrivial displacement
classes,

    f(v) = sum_g |<v, D(g) v>|^4,       f(v) >= (d - 1)/(d + 1),

with equality exactly when the d^2 lines D(g) v are equiangular.  The search
is multi-restart projected gradient descent on the unit sphere with a
Barzilai-Borwein initial step and monotone Armijo backtracking.  All restarts
run in lockstep as the rows of one array, each with its own step, stop test
and iteration count, and a row drops out when it stops.  The displacements
act as monomials (perm, phase), so the overlaps are gathers, formed once per
search, and elementwise sums; the inner products of the descent stay one
np.vdot, or the two real dots of np.linalg.norm, per row.  Each row therefore
takes, to the last bit, the path it would take alone.  The search is
deterministic for a fixed seed: all starts are drawn up front, and the winner
is the (f value, restart index) minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lineset import LineSet, orbit, translations

__all__ = [
    "NotConverged",
    "SearchConfig",
    "SearchReport",
    "displacements",
    "frame_potential",
    "frame_potential_grad",
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
# search-seeds pass's peak RSS from 41.2 to 40.3 MB (39.9 MB one restart at a
# time)
_BLOCK_BYTES = 1 << 17


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
    """Monomials (perm, phase) of the nontrivial displacements in line order,
    each of shape (d^2 - 1, d): the translations after the identity."""
    return translations(2, _qubits(d), np.arange(1, d * d))


def potential_bound(d: int) -> float:
    return (d - 1) / (d + 1)


def _gathers(disp) -> tuple:
    """The monomials disp = (perm, phase) and their adjoints as gathers
    (index, phase).  D_g sends e_x to phase_gx e_perm(g, x), so D_g v =
    v[inv] * phase[inv] with inv the inverse of perm, and D_g^dagger v =
    v[perm] * conj(phase).  The phases are +-1 or +-i, which multiply
    exactly."""
    perm, phase = disp
    inv = np.argsort(perm, axis=-1)
    return (inv, np.take_along_axis(phase, inv, axis=-1)), (perm, phase.conj())


def _gather(v: np.ndarray, gather) -> np.ndarray:
    """v[..., index] * phase for each row of v (shape (..., d)), of shape
    (..., g, d)."""
    index, phase = gather
    out = v[..., index]
    out *= phase
    return out


def _overlaps(v: np.ndarray, fwd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w_g = <v, D_g v> of each row of v and h_g = |w_g|^2.  h is made
    C-contiguous so that np.sum takes each row pairwise, as it takes one row
    alone."""
    w = np.einsum("...i,...gi->...g", v.conj(), fwd)
    return w, np.ascontiguousarray((w * w.conj()).real)


def frame_potential(v: np.ndarray, disp) -> np.ndarray:
    """Quartic overlap sum of each row of v (shape (..., d)) over the
    displacement monomials disp = (perm, phase)."""
    return _potential(v, _gathers(disp))


def frame_potential_grad(v: np.ndarray, disp) -> np.ndarray:
    """Euclidean gradient of the potential at each row of v, packed as a
    complex vector.

    Component k holds d f / d Re(v_k) + i * d f / d Im(v_k), so it matches
    central finite differences taken separately in the real and imaginary
    parts.
    """
    return _gradient(v, _gathers(disp))


def _potential(v: np.ndarray, gathers) -> np.ndarray:
    _, h = _overlaps(v, _gather(v, gathers[0]))
    return np.sum(h * h, axis=-1)


def _gradient(v: np.ndarray, gathers) -> np.ndarray:
    fwd, adj = _gather(v, gathers[0]), _gather(v, gathers[1])  # D_g v, D_g^dagger v
    w, h = _overlaps(v, fwd)
    return 4.0 * np.einsum("...g,...gi->...i", h * w.conj(), fwd) + 4.0 * np.einsum(
        "...g,...gi->...i", h * w, adj
    )


# The inner products of the descent are taken one row at a time with the BLAS
# calls a single restart makes (np.vdot, and the two real dots of
# np.linalg.norm): a batched reduction rounds differently, and the last bits of
# f decide the winner among restarts that tie to 1e-16.
def _vdots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.vdot of each pair of rows."""
    return np.array([np.vdot(a, b) for a, b in zip(x, y)], dtype=complex)


def _normalized(x: np.ndarray) -> np.ndarray:
    """The rows of x over their norms, each sqrt(re . re + im . im) as
    np.linalg.norm takes it for a complex vector."""
    return x / np.sqrt([a.dot(a) + b.dot(b) for a, b in zip(x.real, x.imag)])[:, None]


def _tangent(v: np.ndarray, gathers) -> np.ndarray:
    """The gradient at each row of v projected off that row."""
    g = _gradient(v, gathers)
    return g - v * _vdots(v, g)[:, None]


def _in_blocks(fn, v: np.ndarray, gathers) -> np.ndarray:
    """fn(rows, gathers) over blocks of the rows of v, concatenated."""
    rows = max(1, _BLOCK_BYTES // (16 * gathers[0][0].size))
    if len(v) <= rows:
        return fn(v, gathers)
    return np.concatenate([fn(b, gathers) for b in np.split(v, range(rows, len(v), rows))])


def _descend(v: np.ndarray, disp, cfg: SearchConfig, bound: float):
    """Projected gradient descent from every row of v at once; returns the
    rows reached, their potentials and the iteration count of each."""
    gathers = _gathers(disp)
    v = v.copy()
    f = _in_blocks(_potential, v, gathers)
    gt = _in_blocks(_tangent, v, gathers)
    step = np.full(len(v), _STEP_INIT)
    prev_v, prev_gt = np.zeros_like(v), np.zeros_like(v)
    stepped = np.zeros(len(v), dtype=bool)
    iters = np.full(len(v), cfg.max_iters)
    live = np.arange(len(v))  # the restarts still descending
    for it in range(1, cfg.max_iters + 1):
        gnorm2 = _vdots(gt[live], gt[live]).real
        stop = (gnorm2 < 1e-26) | (f[live] - bound <= cfg.target_tol)
        iters[live[stop]] = it
        live, gnorm2 = live[~stop], gnorm2[~stop]
        if not live.size:
            break
        bb = live[stepped[live]]  # Barzilai-Borwein step from the last move
        s, y = v[bb] - prev_v[bb], gt[bb] - prev_gt[bb]
        sy = _vdots(s, y).real
        step[bb] = np.clip(
            np.divide(_vdots(s, s).real, sy, out=step[bb], where=sy > 1e-30), 1e-10, 1e3
        )
        # monotone Armijo backtracking: row i of pending still halves t[i]
        t = step[live]
        cand = np.empty((len(live), v.shape[1]), dtype=v.dtype)
        fcand = np.empty(len(live))
        pending = np.arange(len(live))
        for _ in range(_HALVINGS):
            rows = live[pending]
            c = _normalized(v[rows] - t[pending, None] * gt[rows])
            fc = _in_blocks(_potential, c, gathers)
            ok = fc <= f[rows] - _ARMIJO * t[pending] * gnorm2[pending]
            cand[pending[ok]], fcand[pending[ok]] = c[ok], fc[ok]
            pending = pending[~ok]
            if not pending.size:
                break
            t[pending] *= _SHRINK
        moved = np.ones(len(live), dtype=bool)
        moved[pending] = False
        iters[live[pending]] = it
        live = live[moved]
        prev_v[live], prev_gt[live], stepped[live] = v[live], gt[live], True
        v[live], f[live] = cand[moved], fcand[moved]
        gt[live] = _in_blocks(_tangent, v[live], gathers)
    return v, f, iters


def search_fiducial(cfg: SearchConfig) -> tuple[np.ndarray, SearchReport]:
    """Best fiducial over cfg.restarts seeded starts; raises NotConverged if no
    restart closes the gap to the lower bound within cfg.target_tol."""
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
    cols = orbit(v, *translations(2, _qubits(d)))
    info = {"case": "i" if d == 2 else "ii", "n": d * d, "d": d}
    if meta:
        info.update(meta)
    return LineSet(cols, info)
