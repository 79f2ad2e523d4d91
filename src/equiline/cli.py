"""Command-line interface: construct, certify, action, table.

Exit codes: 0 success, 2 invalid parameters or unreadable input, 3 fiducial
search did not converge, 4 a certification check failed (the first failing
certificate is named on stderr), 5 the symmetry action could not be derived.

A run manifest (command, parameters, seed, version, tolerances, timestamp)
is printed to stderr; stdout and output files are byte-deterministic.
`EQUILINE_THREADS` is applied by the package on `import equiline`, before
numpy loads, so it caps the BLAS threads of every command.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

from . import __version__ as _VERSION

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_NOT_CONVERGED = 3
EXIT_CERT_FAILED = 4
EXIT_ACTION_FAILED = 5


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


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


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
    c.add_argument("--tol", type=float, help="search target gap (cases i and ii)")
    c.add_argument("--out", help="output path for the lineset JSON (default stdout)")
    c.add_argument("--gram-csv", help="also write the Gram matrix as CSV to this path")

    y = sub.add_parser("certify", help="run the certificates on a lineset JSON file")
    y.add_argument("input", help="lineset JSON path")
    y.add_argument("--tol", type=float, default=1e-8)
    y.add_argument("--out", help="write the JSON report here as well")

    a = sub.add_parser("action", help="derive symmetries and certify the group action")
    a.add_argument("input", help="lineset JSON path")
    a.add_argument("--tol", type=float, default=1e-8)
    a.add_argument("--out", help="output path for the action JSON (default stdout)")

    sub.add_parser("table", help="print the classification table up to n <= 4096")
    return parser


def _cmd_construct(args) -> int:
    from .finfield import HyperplaneType
    from .fiducial import NotConverged, SearchConfig, orbit_lineset, search_fiducial
    from .lineset import construct_case_iii, construct_case_iv
    from .serialize import gram_csv, serialize_lineset

    try:
        if args.case == "iii":
            if args.m is None or args.type is None:
                print("construct --case iii needs --m and --type", file=sys.stderr)
                return EXIT_PARAMS
            lines = construct_case_iii(args.m, HyperplaneType(args.type))
        elif args.case == "iv":
            if args.p is None or args.m is None or args.eigen is None:
                print("construct --case iv needs --p, --m and --eigen", file=sys.stderr)
                return EXIT_PARAMS
            lines = construct_case_iv(args.p, args.m, HyperplaneType(args.eigen))
        else:
            d = 2 if args.case == "i" else 8
            cfg = SearchConfig(
                d=d,
                seed=args.seed,
                restarts=args.restarts,
                max_iters=getattr(args, "max_iters"),
                target_tol=args.tol,
            )
            try:
                v, report = search_fiducial(cfg)
            except NotConverged as exc:
                print(f"search did not converge: {exc}", file=sys.stderr)
                return EXIT_NOT_CONVERGED
            lines = orbit_lineset(
                v,
                d,
                meta={
                    "seed": cfg.seed,
                    "restarts": cfg.restarts,
                    "max_iters": cfg.max_iters,
                    "potential": report.best_f,
                },
            )
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except MemoryError as exc:  # numpy names the refused allocation
        print(f"invalid parameters: line set too large to build: {exc}", file=sys.stderr)
        return EXIT_PARAMS

    _write(args.out, serialize_lineset(lines))
    if args.gram_csv:
        _write(args.gram_csv, gram_csv(lines))
    _manifest(
        "construct",
        {
            "case": args.case,
            "m": args.m,
            "p": args.p,
            "type": args.type,
            "eigen": args.eigen,
            "restarts": args.restarts,
            "max_iters": getattr(args, "max_iters"),
            "out": args.out,
            "gram_csv": args.gram_csv,
        },
        args.seed,
        {"search_target": args.tol},
    )
    return EXIT_OK


def _read_lineset(path: str):
    from .serialize import parse_lineset

    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None, EXIT_PARAMS
    try:
        return parse_lineset(text), EXIT_OK
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"not a lineset JSON file: {exc}", file=sys.stderr)
        return None, EXIT_PARAMS
    except ValueError as exc:
        print(f"FAIL structure: {exc}", file=sys.stderr)
        return None, EXIT_CERT_FAILED


def _cmd_certify(args) -> int:
    from .action import scalar_kernel_check
    from .lineset import NotEquiangular, certify_equiangular, certify_tight, gram

    lines, code = _read_lineset(args.input)
    if lines is None:
        return code
    _manifest("certify", {"input": args.input}, None, {"tol": args.tol})
    try:
        G = gram(lines)
    except ValueError as exc:
        print(f"FAIL gram: {exc}", file=sys.stderr)
        return EXIT_CERT_FAILED
    try:
        cert = certify_equiangular(G, tol=args.tol)
    except NotEquiangular as exc:
        print(f"FAIL equiangular: {exc}", file=sys.stderr)
        return EXIT_CERT_FAILED
    if not certify_tight(G, lines.d, tol=args.tol):
        print("FAIL tight-frame: frame operator is not a multiple of the identity", file=sys.stderr)
        return EXIT_CERT_FAILED
    n, d = lines.n, lines.d
    welch = (n - d) / (d * (n - 1))  # alpha^2 of every tight equiangular set
    welch_residual = abs(cert.alpha**2 - welch)
    if welch_residual > max(args.tol, 1e-8):
        print(
            "FAIL welch: tight equiangular set violates the extremal angle identity: "
            f"alpha^2 = {cert.alpha**2}, expected {welch}",
            file=sys.stderr,
        )
        return EXIT_CERT_FAILED
    if not scalar_kernel_check(lines):
        print("FAIL scalar-kernel: some non-scalar unitary fixes every line", file=sys.stderr)
        return EXIT_CERT_FAILED
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
        from math import gcd

        g = gcd(cert.numerator, cert.denominator)
        report["alpha_fraction"] = f"{cert.numerator // g}/{cert.denominator // g}"
    print(f"PASS equiangular: alpha = {cert.alpha:.12g}, max_dev = {cert.max_dev:.3g}")
    print("PASS tight-frame")
    print(f"PASS welch: |alpha^2 - (n-d)/(d(n-1))| = {welch_residual:.3g}")
    print("PASS scalar-kernel: commutant dimension 1")
    if args.out:
        _write(args.out, json.dumps(report, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_action(args) -> int:
    from .action import NotASymmetry, action_certificate
    from .symmetries import symmetry_unitaries

    lines, code = _read_lineset(args.input)
    if lines is None:
        return code
    _manifest("action", {"input": args.input}, None, {"tol": args.tol})
    try:
        unis = symmetry_unitaries(lines)
        cert = action_certificate(lines, unis, tol=args.tol)
    except (NotASymmetry, RuntimeError, ValueError) as exc:
        print(f"action derivation failed: {exc}", file=sys.stderr)
        return EXIT_ACTION_FAILED
    payload = {
        "n": lines.n,
        "d": lines.d,
        "generators": [list(p) for p in cert.generators],
        "transitive": cert.transitive,
        "two_transitive": cert.two_transitive,
        "group_order": cert.group_order,
        "matched_unitaries": cert.matched_unitaries,
    }
    _write(args.out, json.dumps(payload, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_table(args) -> int:
    from .lineset import classification_rows

    rows = classification_rows(4096)
    header = f"{'case':<5} {'n':>5} {'d':>5} {'d_prime':>8}  command"
    print(header)
    print("-" * len(header))
    for row in rows:
        cmd = ""
        if row["n"] <= 1024:
            kind = "minus" if 2 * row["d"] < row["n"] else "plus"
            if row["case"] == "iii":
                cmd = f"equiline construct --case iii --m {row['m']} --type {kind}"
            elif row["case"] == "iv":
                cmd = (
                    f"equiline construct --case iv --p {row['p']} --m {row['m']} "
                    f"--eigen {kind}"
                )
            elif row["case"] == "i":
                cmd = "equiline construct --case i --seed 1"
            elif row["case"] == "ii" and row["d"] == 8:
                cmd = "equiline construct --case ii --seed 1"
        print(f"{row['case']:<5} {row['n']:>5} {row['d']:>5} {row['d_prime']:>8}  {cmd}".rstrip())
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "construct": _cmd_construct,
        "certify": _cmd_certify,
        "action": _cmd_action,
        "table": _cmd_table,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
