"""Benchmark of the equiline pipeline: construct -> certify -> action.

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
Workloads:

  certify-large  construct -> certify on iii m=5, iv p=3 m=3 and iv p=5 m=2
  search-seeds   construct -> certify -> action on cases ii and i, seeds 1-20
  action-mid     action on iii m=3, iv p=3 m=2 and iv p=5 m=2 (built in set-up)

BENCHMARK.json lists the first two.  action-mid runs the same way, but is
left out there: three workloads leave each run too little time to steady its
figures on a shared 2-CPU host, and the other two still reach every layer.

With `--trace 0` every end-to-end metric is printed by name with its unit;
with `--trace 1` the per-layer metrics of a traced run are printed instead.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A full record of the run (machine,
metrics, every command's outcome, output digests and, when traced, the spans)
is written to `perfbench/out/<workload>-seed<seed>-trace<t>.json`.

BLAS threads are capped at `--threads` (default: the CPUs this process may
use) before numpy loads; run `--threads 1` for the single-threaded baseline.
Exit codes: 0 done and correct, 1 a wrong answer aborted the run, 2 the
checkout holds no equiline sources.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import dataclasses
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("certify-large", "search-seeds")  # the workloads of BENCHMARK.json
EXTRA_WORKLOADS = ("action-mid",)


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, help="BLAS thread cap (default: usable CPUs)")
    return parser.parse_args(argv)


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _machine(threads: int) -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "equiline" / "__init__.py").is_file():
        print(f"no equiline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = args.threads or len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))

    import bench
    from gate import WrongAnswer

    wl = bench.workload(args.workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        run = bench.measure(wl, workdir, args.seconds, bool(args.trace), T0)
    except WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir)

    end_to_end = run.end_to_end()
    if args.trace:
        shown = {name: (v, bench.PER_LAYER[name]) for name, v in run.per_layer().items()}
    else:
        shown = {name: (v, bench.END_TO_END[name]) for name, v in end_to_end.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(threads),
        "passes": [
            {"seconds": p.seconds, "traced": p.rec.traced, "commands": dict(p.rec.command_s)}
            for p in run.passes
        ],
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
        "end_to_end": end_to_end,
        "computed": list(bench.COMPUTED),
        "outcomes": [vars(o) | {"text": o.text[:300]} for o in run.passes[-1].outcomes],
        "digests": run.digests,
        "spans": [[dataclasses.asdict(s) for s in p.rec.spans] for p in run.passes if p.rec.traced],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(run.passes)}  BLAS threads {threads} of {m['nproc']} CPUs  "
        f"python {m['python']}  numpy {m['numpy']}  commit {m['git_commit']}"
    )
    for name, (value, unit) in shown.items():
        note = " (computed)" if name in bench.COMPUTED else ""
        print(f"{name:<38} {value!r:>24} {unit}{note}")
    if not args.trace:
        print(f"{'failed':<38} {run.failed:>24} of {run.attempted} certificates")
    print(f"record: {os.path.relpath(path)}")
    gated = bench.GATED_END_TO_END if not args.trace else tuple(bench.PER_LAYER)
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: record["metrics"][name] for name in gated},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
