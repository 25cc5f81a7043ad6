"""Command-line front end for the verification suite.

Subcommands: ``verify`` runs the full (or filtered) suite, ``check`` runs
named checks, ``example`` runs one of the worked closed-form examples.
Exit status 0 means every executed check passed, 1 means at least one
residual exceeded its tolerance, 2 means the configuration was invalid
or the ``--report`` file could not be written, and 3 means running the
checks raised an error (a ``ValueError`` or a ``RuntimeError`` such as
``GateError``).  Errors print as ``error: ...``; only an unwritable
``--report`` file leaves a report, on stdout.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (_SWEEP_INPUTS, CHECKS, EXAMPLES, SuiteConfig, emit_report,
                      load_config, resolve_checks, run_example, run_suite)


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file mirroring SuiteConfig; flags override it")
    parser.add_argument("--dims", nargs="+", type=int, metavar="N",
                        help="dimensions to sweep (default 2 3 4)")
    parser.add_argument("--weights", nargs="+", metavar="W",
                        help="conformal weights as rationals, e.g. 0 1/2 1")
    parser.add_argument("--seed", type=int, help="suite seed (default 2025)")
    parser.add_argument("--gauges", type=int, help="random gauges per sweep")
    parser.add_argument("--points", type=int, help="sample points per gauge")
    parser.add_argument("--trials", type=int, help="algebra-layer random trials")
    parser.add_argument("--degree", type=int, help="gauge polynomial degree")
    parser.add_argument("--margin", type=float,
                        help="metric eigenvalue margin in (0, 1)")
    parser.add_argument("--tol", action="append", default=[], metavar="KEY=VAL",
                        help="tolerance override, repeatable")
    parser.add_argument("--report", metavar="PATH",
                        help="also write the report to this file")
    parser.add_argument("--format", choices=("table", "machine"),
                        default="table", help="report format (default table)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weylspin",
        description="Seeded residual checks for Weyl-geometry spinor calculus.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full suite")
    _add_common(p_verify)
    p_verify.add_argument("--checks", nargs="+", metavar="KEY",
                          help="restrict to these checks (prefixes allowed)")

    p_check = sub.add_parser("check", help="run named checks")
    p_check.add_argument("keys", nargs="+", metavar="KEY",
                         help="check names or prefixes; known: " + ", ".join(CHECKS))
    _add_common(p_check)

    p_example = sub.add_parser("example", help="run a worked example")
    p_example.add_argument("name", choices=sorted(EXAMPLES),
                           help="example constructor name")
    _add_common(p_example)
    return parser


def _parse_tols(pairs):
    out = {}
    for item in pairs:
        key, sep, val = item.partition("=")
        if not sep or not key:
            raise ValueError(f"--tol expects KEY=VAL, got {item!r}")
        out[key] = val
    return out


def _build_config(args):
    base = load_config(args.config).to_dict() if args.config else SuiteConfig().to_dict()
    for name in _SWEEP_INPUTS:
        value = getattr(args, name, None)
        if value is not None:
            base[name] = value
    overrides = _parse_tols(args.tol)
    if overrides:
        base["tolerances"] = {**base["tolerances"], **overrides}
    if getattr(args, "checks", None):
        base["checks"] = list(args.checks)
    return SuiteConfig.from_dict(base)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        checks = resolve_checks(args.keys) if args.command == "check" else None
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        if args.command == "example":
            report = run_example(args.name, config)
        else:
            report = run_suite(config, checks=checks)
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    text = emit_report(report, args.format)
    sys.stdout.write(text)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
