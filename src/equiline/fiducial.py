"""Fiducial vector search for the two Pauli-orbit cases (d = 2 and d = 8).

The functional is the quartic overlap sum over the nontrivial displacement
classes,

    f(v) = sum_g |<v, D(g) v>|^4,       f(v) >= (d - 1)/(d + 1),

with equality exactly when the d^2 lines D(g) v are equiangular.  The search
is multi-restart projected gradient descent on the unit sphere with a
Barzilai-Borwein initial step and monotone Armijo backtracking; it is
deterministic for a fixed seed (all starts are drawn up front, and the winner
is the (f value, restart index) minimum, so restarts could run in any order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .heisenberg import monomial_matrix
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
# steps are available, and the backtracking factor
_ARMIJO = 1e-4
_STEP_INIT = 0.1
_SHRINK = 0.5


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


def displacements(d: int) -> np.ndarray:
    """Stacked nontrivial displacement matrices in line order: shape
    (d^2 - 1, d, d), the translations after the identity."""
    return monomial_matrix(*translations(2, _qubits(d), np.arange(1, d * d)))


def potential_bound(d: int) -> float:
    return (d - 1) / (d + 1)


def frame_potential(v: np.ndarray, disp: np.ndarray) -> float:
    """Quartic overlap sum of the unit vector v over the given displacements."""
    w = np.einsum("i,gij,j->g", v.conj(), disp, v)
    h = (w * w.conj()).real
    return float(np.sum(h * h))


def frame_potential_grad(v: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the potential, packed as a complex vector.

    Component k holds d f / d Re(v_k) + i * d f / d Im(v_k), so it matches
    central finite differences taken separately in the real and imaginary
    parts.
    """
    w = np.einsum("i,gij,j->g", v.conj(), disp, v)
    h = (w * w.conj()).real
    Dv = np.einsum("gij,j->gi", disp, v)
    Dhv = np.einsum("gji,j->gi", disp.conj(), v)
    return 4.0 * np.einsum("g,gi->i", h * w.conj(), Dv) + 4.0 * np.einsum(
        "g,gi->i", h * w, Dhv
    )


def _descend(v0: np.ndarray, disp: np.ndarray, cfg: SearchConfig, bound: float):
    """One restart of projected gradient descent; returns (v, f, iterations)."""
    v = v0
    f = frame_potential(v, disp)
    g = frame_potential_grad(v, disp)
    gt = g - v * np.vdot(v, g)
    step = _STEP_INIT
    prev_v = prev_gt = None
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        gnorm2 = float(np.vdot(gt, gt).real)
        if gnorm2 < 1e-26 or f - bound <= cfg.target_tol:
            break
        if prev_v is not None:
            s = v - prev_v
            y = gt - prev_gt
            sy = float(np.vdot(s, y).real)
            if sy > 1e-30:
                step = float(np.vdot(s, s).real) / sy
            step = min(max(step, 1e-10), 1e3)
        accepted = False
        t = step
        for _ in range(60):
            cand = v - t * gt
            cand = cand / np.linalg.norm(cand)
            fc = frame_potential(cand, disp)
            if fc <= f - _ARMIJO * t * gnorm2:
                accepted = True
                break
            t *= _SHRINK
        if not accepted:
            break
        prev_v, prev_gt = v, gt
        v, f = cand, fc
        g = frame_potential_grad(v, disp)
        gt = g - v * np.vdot(v, g)
    return v, f, iters


def search_fiducial(cfg: SearchConfig) -> tuple[np.ndarray, SearchReport]:
    """Best fiducial over cfg.restarts seeded starts; raises NotConverged if no
    restart closes the gap to the lower bound within cfg.target_tol."""
    disp = displacements(cfg.d)
    bound = potential_bound(cfg.d)
    rng = np.random.default_rng(cfg.seed)
    starts = []
    for _ in range(cfg.restarts):
        z = rng.normal(size=cfg.d) + 1j * rng.normal(size=cfg.d)
        starts.append(z / np.linalg.norm(z))
    best_v = None
    best_f = np.inf
    best_r = -1
    iter_counts = []
    for r, v0 in enumerate(starts):
        v, f, iters = _descend(v0, disp, cfg, bound)
        iter_counts.append(iters)
        if f < best_f:
            best_v, best_f, best_r = v, f, r
    report = SearchReport(
        converged=bool(best_f - bound <= cfg.target_tol),
        best_f=float(best_f),
        bound=bound,
        target_tol=cfg.target_tol,
        best_restart=best_r,
        restarts_run=cfg.restarts,
        total_iterations=int(sum(iter_counts)),
        iterations_per_restart=iter_counts,
    )
    if not report.converged:
        raise NotConverged(report)
    return best_v, report


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
