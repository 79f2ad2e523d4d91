"""Workloads, command paths and the measuring loop of the equiline benchmark.

Each command path calls the same public functions, in the same order and at
the same default tolerance, as the matching handler in `equiline.cli`, and a
line set travels between commands as JSON text through a file.  A traced
pass splits `action_certificate` into its parts so each can be timed; an
untraced pass calls it whole, as the command does.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

from equiline.action import (
    ActionCertificate,
    NotASymmetry,
    action_certificate,
    group_order,
    induced_permutation,
    is_transitive,
    scalar_kernel_check,
    two_transitivity,
)
from equiline.fiducial import NotConverged, SearchConfig, orbit_lineset, search_fiducial
from equiline.finfield import HyperplaneType
from equiline.lineset import (
    NotEquiangular,
    certify_equiangular,
    certify_tight,
    construct_case_iii,
    construct_case_iv,
    gram,
)
from equiline.serialize import parse_lineset, serialize_lineset
from equiline.symmetries import geometry_unitaries, symmetry_unitaries, translation_unitaries

from gate import Gate
from spans import Recorder

# Default of `equiline certify --tol` and `equiline action --tol`.
TOL = 1e-8

# Everything one untraced run prints, with units.  construct_s, certify_s,
# action_s and failed_frac are zero on some workload, so only the metrics in
# GATED_END_TO_END carry a regression bound; the failure count reaches the
# result line as `attempted` and `failed`.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "construct_s": "s",
    "certify_s": "s",
    "action_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
GATED_END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")

# Per-layer metrics of a traced run: busy seconds and counts per pass.
# `flop` and `bytes` of gram and certify_tight are computed from n and d.
PER_LAYER = {
    "lineset.construct_case_iii.s": "s",
    "lineset.construct_case_iii.calls": "count",
    "lineset.construct_case_iv.s": "s",
    "lineset.construct_case_iv.calls": "count",
    "fiducial.search_fiducial.s": "s",
    "fiducial.search_fiducial.calls": "count",
    "fiducial.search_fiducial.iterations": "count",
    "fiducial.orbit_lineset.s": "s",
    "serialize.serialize_lineset.s": "s",
    "serialize.serialize_lineset.bytes": "B",
    "serialize.parse_lineset.s": "s",
    "serialize.parse_lineset.bytes": "B",
    "lineset.gram.s": "s",
    "lineset.gram.calls": "count",
    "lineset.gram.flop": "flop",
    "lineset.gram.bytes": "B",
    "lineset.certify_equiangular.s": "s",
    "lineset.certify_tight.s": "s",
    "lineset.certify_tight.flop": "flop",
    "action.scalar_kernel_check.s": "s",
    "symmetries.translation_unitaries.s": "s",
    "symmetries.geometry_unitaries.s": "s",
    "symmetries.geometry_unitaries.count": "count",
    "action.induced_permutation.s": "s",
    "action.induced_permutation.calls": "count",
    "action.group_order.s": "s",
    "action.is_transitive.s": "s",
    "action.two_transitivity.s": "s",
    "action.generators.dedup_ratio": "ratio",
    "cli.construct.s": "s",
    "cli.certify.s": "s",
    "cli.certify.failed": "count",
    "cli.action.s": "s",
    "cli.action.failed": "count",
    "lineset.self_s": "s",
    "fiducial.self_s": "s",
    "serialize.self_s": "s",
    "symmetries.self_s": "s",
    "action.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.overhead_s": "s",
}
COMPUTED = ("lineset.gram.flop", "lineset.gram.bytes", "lineset.certify_tight.flop")


@dataclass(frozen=True)
class Row:
    """One line set, named by the `equiline construct` options that build it,
    with the values the correctness gate pins for it."""

    case: str
    m: int | None = None
    p: int | None = None
    kind: str = "minus"  # --type for case iii, --eigen for case iv
    seed: int | None = None  # --seed for cases i and ii
    group_order: int | None = None
    alpha_fraction: str | None = None

    @property
    def key(self) -> str:
        if self.case == "iii":
            return f"iii-m{self.m}-{self.kind}"
        if self.case == "iv":
            return f"iv-p{self.p}-m{self.m}-{self.kind}"
        return f"{self.case}-seed{self.seed}"


@dataclass(frozen=True)
class Workload:
    rows: tuple[Row, ...]
    commands: tuple[str, ...]  # run on every row in every pass, in order


SEARCH_SEEDS = range(1, 21)


def workload(name: str, seed: int) -> Workload:
    """The rows are fixed; only search-seeds uses the seed, to order its rows.

    search-seeds runs the same twenty search seeds in every run: the Clifford
    scan takes from under 0.1 s to about 3 s depending on the seed, so a run
    that drew its own seeds would time different work each time.
    """
    if name == "certify-large":
        return Workload(
            (
                Row("iii", m=5, alpha_fraction="1/31"),
                Row("iv", p=3, m=3),
                Row("iv", p=5, m=2),
            ),
            ("construct", "certify"),
        )
    if name == "action-mid":
        return Workload(
            (
                Row("iii", m=3, group_order=92897280),
                Row("iv", p=3, m=2, group_order=4199040),
                Row("iv", p=5, m=2, group_order=5850000000),
            ),
            ("action",),
        )
    if name == "search-seeds":
        seeds = list(SEARCH_SEEDS)
        random.Random(seed).shuffle(seeds)
        return Workload(
            tuple(
                Row(case, seed=s, group_order=order)
                for s in seeds
                for case, order in (("ii", 387072), ("i", 12))
            ),
            ("construct", "certify", "action"),
        )
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Outcome:
    """What one command produced: its output text, or the rejection message."""

    row: str
    command: str
    ok: bool
    text: str


def construct(row: Row, path: Path, rec: Recorder) -> Outcome:
    """`equiline construct` with the row's options and `--out path`."""
    with rec.command("construct"):
        if row.case == "iii":
            lines = rec.call(construct_case_iii, row.m, HyperplaneType(row.kind))
        elif row.case == "iv":
            lines = rec.call(construct_case_iv, row.p, row.m, HyperplaneType(row.kind))
        else:
            d = 2 if row.case == "i" else 8
            cfg = SearchConfig(d=d, seed=row.seed)
            try:
                v, report = rec.call(search_fiducial, cfg)
            except NotConverged as exc:
                rec.count("fiducial.search_fiducial.iterations", exc.report.total_iterations)
                return Outcome(row.key, "construct", False, f"search did not converge: {exc}")
            rec.count("fiducial.search_fiducial.iterations", report.total_iterations)
            meta = {
                "seed": cfg.seed,
                "restarts": cfg.restarts,
                "max_iters": cfg.max_iters,
                "potential": report.best_f,
            }
            lines = rec.call(orbit_lineset, v, d, meta=meta)
        text = rec.call(serialize_lineset, lines)
        rec.count("serialize.serialize_lineset.bytes", len(text))
        path.write_text(text)
    return Outcome(row.key, "construct", True, text)


def _read(path: Path, rec: Recorder):
    """The lineset file parsed, or the rejection message of `_read_lineset`."""
    text = path.read_text()
    rec.count("serialize.parse_lineset.bytes", len(text))
    try:
        return rec.call(parse_lineset, text), None
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return None, f"not a lineset JSON file: {exc}"
    except ValueError as exc:
        return None, f"FAIL structure: {exc}"


def _count_kernels(rec: Recorder, n: int, d: int, exact: bool) -> None:
    """Computed work of gram and certify_tight: each array is counted as
    moved once, and a complex multiply-add as 8 operations."""
    flop, moved = 8 * d * n * n, 16 * (d * n + n * n)
    if exact:  # the int64 product signs.T @ signs
        flop += 2 * d * n * n
        moved += 8 * (d * n + n * n)
    rec.count("lineset.gram.flop", flop)
    rec.count("lineset.gram.bytes", moved)
    rec.count("lineset.certify_tight.flop", 8 * n**3)


def certify(row: Row, path: Path, rec: Recorder, tol: float = TOL) -> Outcome:
    """`equiline certify path --tol tol`; the report as `--out` would write it."""

    def rejected(message: str) -> Outcome:
        rec.count("cli.certify.failed", 1)
        return Outcome(row.key, "certify", False, message)

    with rec.command("certify"):
        lines, error = _read(path, rec)
        if lines is None:
            return rejected(error)
        try:
            G = rec.call(gram, lines)
        except ValueError as exc:
            return rejected(f"FAIL gram: {exc}")
        n, d = lines.n, lines.d
        _count_kernels(rec, n, d, G.int_products is not None)
        try:
            cert = rec.call(certify_equiangular, G, tol=tol)
        except NotEquiangular as exc:
            return rejected(f"FAIL equiangular: {exc}")
        if not rec.call(certify_tight, G, d, tol=tol):
            return rejected("FAIL tight-frame: frame operator is not a multiple of the identity")
        welch_residual = abs(cert.alpha**2 - (n - d) / (d * (n - 1)))
        if not rec.call(scalar_kernel_check, lines):
            return rejected("FAIL scalar-kernel: some non-scalar unitary fixes every line")
        report = {
            "n": n,
            "d": d,
            "alpha": cert.alpha,
            "max_dev": cert.max_dev,
            "exact": cert.exact,
            "welch_residual": welch_residual,
            "commutant_dimension": 1,
            "tight": True,
        }
        if cert.exact:
            g = gcd(cert.numerator, cert.denominator)
            report["alpha_fraction"] = f"{cert.numerator // g}/{cert.denominator // g}"
    return Outcome(row.key, "certify", True, json.dumps(report, sort_keys=True) + "\n")


def _split_certificate(lines, rec: Recorder, tol: float) -> ActionCertificate:
    """symmetry_unitaries + action_certificate, one span per layer call."""
    translations = rec.call(translation_unitaries, lines)
    geometry = rec.call(geometry_unitaries, lines)
    rec.count("symmetries.geometry_unitaries.count", len(geometry))
    unis = translations + geometry
    perms = [rec.call(induced_permutation, lines, U, tol) for U in unis]
    if not perms:
        raise ValueError("no unitaries supplied")
    order = rec.call(group_order, perms)
    return ActionCertificate(
        generators=tuple(dict.fromkeys(perms)),
        transitive=rec.call(is_transitive, perms),
        two_transitive=rec.call(two_transitivity, perms),
        group_order=order,
        matched_unitaries=len(perms),
    )


def action(row: Row, path: Path, rec: Recorder, tol: float = TOL) -> Outcome:
    """`equiline action path --tol tol`; the payload as it would print it."""

    def rejected(message: str) -> Outcome:
        rec.count("cli.action.failed", 1)
        return Outcome(row.key, "action", False, message)

    with rec.command("action"):
        lines, error = _read(path, rec)
        if lines is None:
            return rejected(error)
        if lines.meta.get("case") not in ("i", "ii", "iii", "iv"):
            return rejected("lineset carries no construction tag; cannot derive symmetries")
        try:
            if rec.traced:
                cert = _split_certificate(lines, rec, tol)
            else:
                cert = action_certificate(lines, symmetry_unitaries(lines), tol=tol)
        except (NotASymmetry, RuntimeError, ValueError) as exc:
            return rejected(f"action derivation failed: {exc}")
        rec.count("action.generators.distinct", len(cert.generators))
        rec.count("action.generators.matched", cert.matched_unitaries)
        payload = {
            "n": lines.n,
            "d": lines.d,
            "generators": [list(p) for p in cert.generators],
            "transitive": cert.transitive,
            "two_transitive": cert.two_transitive,
            "group_order": cert.group_order,
            "matched_unitaries": cert.matched_unitaries,
        }
    return Outcome(row.key, "action", True, json.dumps(payload, sort_keys=True) + "\n")


@dataclass
class Pass:
    seconds: float
    rec: Recorder
    outcomes: list[Outcome]

    @property
    def attempted(self) -> int:
        """Certificates asked for: the certify and action commands."""
        return sum(1 for o in self.outcomes if o.command != "construct")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.command != "construct" and not o.ok)


def run_pass(wl: Workload, workdir: Path, gate: Gate, traced: bool) -> Pass:
    """Every command of the workload on every row; the gate checks each output."""
    rec = Recorder(traced)
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    with rec.span("bench.pass"):
        for row in wl.rows:
            rec.row = row.key
            with rec.span("bench.row"):
                path = workdir / f"{row.key}.json"
                missing = None  # why the row has no line set
                for command in wl.commands:
                    if missing is not None:
                        out = Outcome(row.key, command, False, f"not run: {missing}")
                    elif command == "construct":
                        out = construct(row, path, rec)
                        missing = None if out.ok else out.text
                    elif command == "certify":
                        out = certify(row, path, rec)
                    else:
                        out = action(row, path, rec)
                    digest = gate.same_bytes(f"{row.key}/{command}", out.text)
                    if command == "construct" and out.ok:  # keep no copy of the line set
                        out.text = f"wrote {len(out.text)} bytes, sha256 {digest}"
                    outcomes.append(out)
                    if out.ok and command == "certify":
                        gate.certify_report(row, json.loads(out.text))
                    elif out.ok and command == "action":
                        gate.action_payload(row, json.loads(out.text))
    return Pass(time.perf_counter() - start, rec, outcomes)


@dataclass
class Run:
    setup_s: float
    digests: dict[str, str]  # sha256 of every command's output, by row/command
    passes: list[Pass] = field(default_factory=list)

    def end_to_end(self) -> dict[str, float]:
        untraced = [p for p in self.passes if not p.rec.traced]
        return {
            "setup_s": self.setup_s,
            "pass_s": statistics.median(p.seconds for p in untraced),
            **{
                f"{c}_s": statistics.median(p.rec.command_s.get(c, 0.0) for p in untraced)
                for c in ("construct", "certify", "action")
            },
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failed_frac": self.failed / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        traced = [p for p in self.passes if p.rec.traced]
        untraced = [p for p in self.passes if not p.rec.traced]
        stats = [p.rec.layer_stats() for p in traced]
        out = {name: statistics.median(s.get(name, 0.0) for s in stats) for name in PER_LAYER}
        matched = sum(s.get("action.generators.matched", 0.0) for s in stats)
        distinct = sum(s.get("action.generators.distinct", 0.0) for s in stats)
        out["action.generators.dedup_ratio"] = distinct / matched if matched else 0.0
        out["trace.overhead_s"] = statistics.median(p.seconds for p in traced) - statistics.median(
            p.seconds for p in untraced
        )
        return out

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)


def measure(wl: Workload, workdir: Path, seconds: float, trace: bool, t0: float) -> Run:
    """Set up, then run passes for about `seconds` seconds.

    Set-up builds the line sets of rows whose commands do not construct them
    and runs one untimed warm-up pass; `setup_s` counts from `t0`, the start
    of the process.  It is measured once: a second set-up in the same process
    would find any caches the first one filled.  A pass starts only if the
    median pass so far says it will end within `seconds`.  A traced run
    alternates traced and untraced passes, starting with a traced one, and
    runs at least one of each.
    """
    gate = Gate(TOL)
    warm = Recorder(False)
    for row in wl.rows:
        if "construct" not in wl.commands:
            out = construct(row, workdir / f"{row.key}.json", warm)
            gate.same_bytes(f"{row.key}/construct", out.text)
    run_pass(wl, workdir, gate, traced=False)
    run = Run(time.perf_counter() - t0, gate.digests)
    start = time.perf_counter()
    min_passes = 2 if trace else 1
    while True:
        run.passes.append(run_pass(wl, workdir, gate, traced=trace and len(run.passes) % 2 == 0))
        if len(run.passes) >= min_passes:
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p.seconds for p in run.passes) > seconds:
                return run
