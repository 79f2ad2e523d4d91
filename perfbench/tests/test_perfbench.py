"""Tests of the benchmark itself, on rows small enough to run in seconds.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import run  # noqa: E402
from bench import Row, Workload  # noqa: E402
from gate import Gate, WrongAnswer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# n = 16, 9 and 4.  Case i at seed 1 stops its search about 3e-8 off the
# common angle, so certify rejects it at the default tolerance.
TINY = Workload(
    (
        Row("iii", m=2, group_order=11520, alpha_fraction="1/3"),
        Row("iv", p=3, m=1, group_order=216),
        Row("i", seed=1, group_order=12),
    ),
    ("construct", "certify", "action"),
)


def _measure(tmp_path, wl=TINY, trace=False):
    return bench.measure(wl, tmp_path, seconds=0.0, trace=trace, t0=time.perf_counter())


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (name, bench.END_TO_END[name]) for name in bench.GATED_END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(bench.PER_LAYER.items())
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace, tmp_path, monkeypatch, capsys):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(bench, "workload", lambda name, seed: TINY)
    argv = ["--workload", "search-seeds", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv + ["--threads", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 1 <= result["failed"] < result["attempted"]
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    shown = bench.PER_LAYER if trace else bench.END_TO_END
    for name, unit in shown.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name
    record = json.loads((tmp_path / f"search-seeds-seed3-trace{trace}.json").read_text())
    assert record["machine"]["blas_threads"] == 1
    assert record["seed"] == 3
    assert bool(record["spans"]) == bool(trace)


def test_rejected_certificate_is_a_failure_not_a_wrong_answer(tmp_path):
    result = _measure(tmp_path)
    assert result.attempted == 6 * len(result.passes)
    assert result.failed == len(result.passes)
    (bad,) = [o for o in result.passes[0].outcomes if not o.ok]
    assert (bad.row, bad.command) == ("i-seed1", "certify")
    assert bad.text.startswith("FAIL equiangular")


def test_traced_pass_accounts_for_its_time(tmp_path):
    result = _measure(tmp_path, trace=True)
    traced, untraced = result.passes[0], result.passes[1]
    assert traced.rec.traced and not untraced.rec.traced
    stats = traced.rec.layer_stats()
    self_total = sum(v for k, v in stats.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(stats["bench.pass.s"], rel=1e-9)
    assert stats["lineset.gram.calls"] == 3
    assert stats["lineset.gram.flop"] == 8 * 6 * 16**2 + 2 * 6 * 16**2 + 8 * 3 * 9**2 + 8 * 2 * 4**2
    assert stats["lineset.certify_tight.flop"] == 8 * (16**3 + 9**3 + 4**3)
    layer = result.per_layer()
    assert 0 < layer["action.generators.dedup_ratio"] <= 1
    # TINY reaches every layer call, so a metric reading 0 names no span or counter
    idle = {name for name, value in layer.items() if value == 0}
    assert idle <= {"cli.action.failed", "trace.overhead_s"}


def test_gate_trips_on_a_wrong_group_order(tmp_path):
    wrong = Workload((Row("iv", p=3, m=1, group_order=215),), ("construct", "action"))
    with pytest.raises(WrongAnswer, match="group order 216"):
        _measure(tmp_path, wrong)


def test_gate_trips_on_a_flipped_output_byte(tmp_path, monkeypatch):
    real = bench.serialize_lineset
    calls = []

    def serialize_lineset(lines):
        text = real(lines)
        calls.append(text)
        if len(calls) == 2:  # the first timed pass, after the warm-up pass
            i = text.index("0.")
            text = text[:i] + "1" + text[i + 1 :]
        return text

    monkeypatch.setattr(bench, "serialize_lineset", serialize_lineset)
    wl = Workload((Row("iii", m=2, alpha_fraction="1/3"),), ("construct", "certify"))
    with pytest.raises(WrongAnswer, match="sha256"):
        _measure(tmp_path, wl)


def test_gate_trips_on_wrong_certificate_values():
    gate = Gate(1e-8)
    row = Row("iii", m=5, alpha_fraction="1/31")
    gate.certify_report(row, {"welch_residual": 0.0, "alpha_fraction": "1/31"})
    with pytest.raises(WrongAnswer, match="alpha_fraction"):
        gate.certify_report(row, {"welch_residual": 0.0, "alpha_fraction": "2/31"})
    with pytest.raises(WrongAnswer, match="Welch"):
        gate.certify_report(row, {"welch_residual": 2e-8, "alpha_fraction": "1/31"})
    with pytest.raises(WrongAnswer, match="2-transitive"):
        gate.action_payload(
            Row("i", seed=1, group_order=12),
            {"transitive": True, "two_transitive": False, "group_order": 12},
        )


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    argv = [sys.executable, "perfbench/run.py", "--workload", "certify-large", "--seed", "1"]
    proc = subprocess.run(
        argv + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
