"""Command-line interface: construct, certify, action, table.

Each command is a shell around the library calls of this module:
construct_lineset or read_lineset gives the line set, and certify_report and
action_payload return exactly the report and payload the commands write.
Every documented failure raises Refused(exit_code, message); main prints the
message to stderr and returns the code.

Exit codes: 0 success, 2 invalid parameters (a --tol that is not a finite
number >= 0 among them, and a `construct` whose line set or search, or an
`action` whose symmetries, would not fit in memory), unreadable input, an output path that
cannot be written ("cannot write <path>: ...") or a stdout that is closed
or full ("cannot write <stdout>: ..."), 3 fiducial search did not converge,
4 a certification check failed (the first failing certificate is named on
stderr; a file of lines in C^1 fails `structure`, as a line set needs
d >= 2), 5 the symmetry action could not be derived.

A run manifest (command, parameters, seed, version, tolerances, timestamp)
is printed to stderr; stdout and output files are byte-deterministic.
`EQUILINE_THREADS` is applied by the package on `import equiline`, before
numpy loads, so it caps the BLAS threads of every command.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from math import gcd, isfinite

from . import __version__ as _VERSION
from . import action, fiducial, finfield, lineset, serialize, symmetries

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_NOT_CONVERGED = 3
EXIT_CERT_FAILED = 4
EXIT_ACTION_FAILED = 5


class Refused(Exception):
    """A documented failure: message is the command's stderr line and
    exit_code its exit status."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code, self.message = exit_code, message


def construct_lineset(case: str, m=None, p=None, kind=None, seed: int = 1, restarts=None,
                      max_iters=None, tol=None) -> lineset.LineSet:
    """The line set `construct` writes: kind is the hyperplane type of case
    iii or the eigenspace of case iv; seed, restarts, max_iters and tol set
    the search of cases i and ii."""
    try:
        if case == "iii":
            if m is None or kind is None:
                raise Refused(EXIT_PARAMS, "construct --case iii needs --m and --type")
            return lineset.construct_case_iii(m, finfield.HyperplaneType(kind))
        if case == "iv":
            if p is None or m is None or kind is None:
                raise Refused(EXIT_PARAMS, "construct --case iv needs --p, --m and --eigen")
            return lineset.construct_case_iv(p, m, finfield.HyperplaneType(kind))
        if case not in ("i", "ii"):
            raise ValueError(f"unknown case {case!r}")
        d = 2 if case == "i" else 8
        cfg = fiducial.SearchConfig(d=d, seed=seed, restarts=restarts, max_iters=max_iters,
                                    target_tol=tol)
        try:
            v, report = fiducial.search_fiducial(cfg)
        except fiducial.NotConverged as exc:
            raise Refused(EXIT_NOT_CONVERGED, f"search did not converge: {exc}")
        except MemoryError as exc:
            raise Refused(EXIT_PARAMS, f"invalid parameters: search too large to run: {exc}")
        meta = {"seed": cfg.seed, "restarts": cfg.restarts, "max_iters": cfg.max_iters,
                "potential": report.best_f}
        return fiducial.orbit_lineset(v, d, meta=meta)
    except ValueError as exc:
        raise Refused(EXIT_PARAMS, f"invalid parameters: {exc}")
    except MemoryError as exc:  # numpy names the refused allocation
        raise Refused(EXIT_PARAMS, f"invalid parameters: line set too large to build: {exc}")


def read_lineset(path: str) -> lineset.LineSet:
    """The line set in the lineset JSON file at path: exit 2 when the file
    cannot be read or is not lineset JSON, 4 when it is not a line set."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise Refused(EXIT_PARAMS, f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise Refused(EXIT_PARAMS, f"not a lineset JSON file: {exc}")
    try:
        return serialize.parse_lineset(text)
    except KeyError as exc:  # its str() would quote the message
        raise Refused(EXIT_PARAMS, f"not a lineset JSON file: {exc.args[0]}")
    except (json.JSONDecodeError, TypeError, RecursionError) as exc:
        raise Refused(EXIT_PARAMS, f"not a lineset JSON file: {exc}")
    except ValueError as exc:
        raise Refused(EXIT_CERT_FAILED, f"FAIL structure: {exc}")


def certify_report(lines: lineset.LineSet, tol: float = 1e-8) -> dict:
    """The report `certify --out` writes.  The checks run in the order gram,
    equiangular, tight-frame, welch, scalar-kernel, and the first to fail
    refuses with exit 4, named on its message."""
    try:
        G = lineset.gram(lines)
    except ValueError as exc:
        raise Refused(EXIT_CERT_FAILED, f"FAIL gram: {exc}")
    try:
        cert = lineset.certify_equiangular(G, tol=tol)
    except lineset.NotEquiangular as exc:
        raise Refused(EXIT_CERT_FAILED, f"FAIL equiangular: {exc}")
    if not lineset.certify_tight(G, lines.d, tol=tol):
        raise Refused(
            EXIT_CERT_FAILED, "FAIL tight-frame: frame operator is not a multiple of the identity"
        )
    n, d = lines.n, lines.d
    welch = (n - d) / (d * (n - 1))  # alpha^2 of every tight equiangular set
    welch_residual = abs(cert.alpha**2 - welch)
    if welch_residual > max(tol, 1e-8):
        raise Refused(
            EXIT_CERT_FAILED,
            "FAIL welch: tight equiangular set violates the extremal angle identity: "
            f"alpha^2 = {cert.alpha**2}, expected {welch}",
        )
    if not action.scalar_kernel_check(lines):
        raise Refused(
            EXIT_CERT_FAILED, "FAIL scalar-kernel: some non-scalar unitary fixes every line"
        )
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
    return report


def action_payload(lines: lineset.LineSet, tol: float = 1e-8) -> dict:
    """The payload `action` writes; exit 5 when the symmetries cannot be
    derived or do not permute the lines, 2 when they are too large for
    memory."""
    try:  # no name holds the dense symmetries, which action_certificate drops
        cert = action.action_certificate(lines, symmetries.symmetry_unitaries(lines), tol=tol)
    except (action.NotASymmetry, RuntimeError, ValueError) as exc:
        raise Refused(EXIT_ACTION_FAILED, f"action derivation failed: {exc}")
    except MemoryError as exc:
        raise Refused(EXIT_PARAMS, f"invalid parameters: symmetries too large to build: {exc}")
    return {
        "n": lines.n,
        "d": lines.d,
        "generators": [list(p) for p in cert.generators],
        "transitive": cert.transitive,
        "two_transitive": cert.two_transitive,
        "group_order": cert.group_order,
        "matched_unitaries": cert.matched_unitaries,
    }


def _manifest(command: str, parameters: dict, seed, tolerances: dict) -> None:
    payload = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "version": _VERSION,
        "tolerances": tolerances,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    print("manifest: " + json.dumps(payload, sort_keys=True), file=sys.stderr)


# Characters handed to a text stream at a time: the stream encodes each
# write whole, so one write of a whole line set would copy all of it.
_WRITE_SLICE = 1 << 18


def _write_slices(fh, text: str) -> None:
    for start in range(0, len(text), _WRITE_SLICE):
        fh.write(text[start : start + _WRITE_SLICE])


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        _write_slices(sys.stdout, text)
        return
    try:
        with open(path, "w") as fh:
            _write_slices(fh, text)
    except OSError as exc:
        raise Refused(EXIT_PARAMS, f"cannot write {path}: {exc}")


def _tolerance(text: str) -> float:
    """The value of a --tol flag: a finite number >= 0, else exit 2."""
    tol = float(text)
    if not (isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equiline",
        description="Construct and certify the 2-transitive equiangular line families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a line set and write it as JSON")
    c.add_argument("--case", required=True, choices=["i", "ii", "iii", "iv"])
    c.add_argument("--m", type=int, help="exponent parameter (cases iii and iv)")
    c.add_argument("--p", type=int, help="odd prime (case iv)")
    c.add_argument("--type", choices=["plus", "minus"], help="hyperplane type (case iii)")
    c.add_argument("--eigen", choices=["plus", "minus"], help="eigenspace choice (case iv)")
    c.add_argument("--seed", type=int, default=1, help="search seed (cases i and ii)")
    c.add_argument("--restarts", type=int, help="search restarts (cases i and ii)")
    c.add_argument("--max-iters", type=int, help="iteration cap per restart (cases i and ii)")
    c.add_argument("--tol", type=_tolerance, help="search target gap (cases i and ii)")
    c.add_argument("--out", help="output path for the lineset JSON (default stdout)")
    c.add_argument("--gram-csv", help="also write the Gram matrix as CSV to this path")

    y = sub.add_parser("certify", help="run the certificates on a lineset JSON file")
    y.add_argument("input", help="lineset JSON path")
    y.add_argument("--tol", type=_tolerance, default=1e-8)
    y.add_argument("--out", help="write the JSON report here as well")

    a = sub.add_parser("action", help="derive symmetries and certify the group action")
    a.add_argument("input", help="lineset JSON path")
    a.add_argument("--tol", type=_tolerance, default=1e-8)
    a.add_argument("--out", help="output path for the action JSON (default stdout)")

    sub.add_parser("table", help="print the classification table up to n <= 4096")
    return parser


def _cmd_construct(args) -> None:
    kind = args.type if args.case == "iii" else args.eigen
    lines = construct_lineset(args.case, args.m, args.p, kind, args.seed, args.restarts,
                              args.max_iters, args.tol)
    keys = ("case", "m", "p", "type", "eigen", "restarts", "max_iters", "out", "gram_csv")
    parameters = {k: getattr(args, k) for k in keys}
    _manifest("construct", parameters, args.seed, {"search_target": args.tol})
    _write(args.out, serialize.serialize_lineset(lines))
    if args.gram_csv:
        _write(args.gram_csv, serialize.gram_csv(lines))


def _cmd_certify(args) -> None:
    lines = read_lineset(args.input)
    _manifest("certify", {"input": args.input}, None, {"tol": args.tol})
    report = certify_report(lines, args.tol)
    print(f"PASS equiangular: alpha = {report['alpha']:.12g}, max_dev = {report['max_dev']:.3g}")
    print("PASS tight-frame")
    print(f"PASS welch: |alpha^2 - (n-d)/(d(n-1))| = {report['welch_residual']:.3g}")
    print("PASS scalar-kernel: commutant dimension 1")
    if args.out:
        _write(args.out, json.dumps(report, sort_keys=True) + "\n")


def _cmd_action(args) -> None:
    lines = read_lineset(args.input)
    _manifest("action", {"input": args.input}, None, {"tol": args.tol})
    _write(args.out, json.dumps(action_payload(lines, args.tol), sort_keys=True) + "\n")


def _cmd_table(args) -> None:
    rows = lineset.classification_rows()
    header = f"{'case':<5} {'n':>5} {'d':>5} {'d_prime':>8}  command"
    print(header)
    print("-" * len(header))
    for row in rows:
        cmd = ""
        kind = "minus" if 2 * row["d"] < row["n"] else "plus"
        if row["case"] == "iii":
            cmd = f"equiline construct --case iii --m {row['m']} --type {kind}"
        elif row["case"] == "iv":
            cmd = f"equiline construct --case iv --p {row['p']} --m {row['m']} --eigen {kind}"
        elif row["case"] == "i":
            cmd = "equiline construct --case i --seed 1"
        elif row["case"] == "ii" and row["d"] == 8:
            cmd = "equiline construct --case ii --seed 1"
        print(f"{row['case']:<5} {row['n']:>5} {row['d']:>5} {row['d_prime']:>8}  {cmd}".rstrip())


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"construct": _cmd_construct, "certify": _cmd_certify, "action": _cmd_action,
                "table": _cmd_table}
    try:
        handlers[args.command](args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except Refused as exc:
        print(exc.message, file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # only stdout fails here, closed by its reader (`| head`) or full:
        # other files are refused where they are opened.  stdout still holds
        # what it could not write and flushes it again at exit, so it is
        # pointed at the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write <stdout>: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
