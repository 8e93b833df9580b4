"""Command-line front end.

Exit codes: 0 on success, 1 on configuration errors, 2 when a property
check fails (assumption violation, non-decreasing convergence errors,
expansion identity failures, or state-invariant blowups).
"""

from __future__ import annotations

import argparse
import os
import sys

from .jsonio import write_json
from .scenarios import (
    ConfigError,
    load_scenario,
    run_converge,
    run_generators,
    run_simulate,
    run_verify,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PROPERTY = 2


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="config JSON path or builtin scenario name")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcollide",
        description="Collision-model simulation and correlated master-equation construction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "run the collision model and write the trajectory"),
        ("generators", "compute rate tables and generator matrices"),
        ("converge", "sweep collision counts against the master-equation reference"),
        ("verify", "check the weak-coupling expansion identities"),
    ):
        _add_common(sub.add_parser(name, help=text))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sc = load_scenario(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        sc.seed = args.seed

    try:
        if args.command == "simulate":
            traj = run_simulate(sc, out_dir=args.out, fmt=args.fmt)
            print(
                f"simulate {sc.name}: {len(traj)} samples, final trace {traj.traces[-1]:.12f}, "
                f"min eigenvalue {traj.min_eigenvalues[-1]:.3e}"
            )
            return EXIT_OK

        if args.command == "generators":
            gen = run_generators(sc, out_dir=args.out, fmt=args.fmt)
            n_cross = len(gen.rates.cross)
            print(
                f"generators {sc.name}: {len(gen.rates.local)} local terms, "
                f"{n_cross} cross terms, gamma {gen.rates.gamma:g}"
            )
            return EXIT_OK

        if args.command == "converge":
            report = run_converge(sc)
            if args.out is not None:
                os.makedirs(args.out, exist_ok=True)
                if args.fmt == "json":
                    write_json(os.path.join(args.out, "convergence.json"), report.to_dict())
                else:
                    report.to_csv(os.path.join(args.out, "convergence.csv"))
            for e in report.entries:
                print(f"n={e['n']:6d}  dt={e['dt']:.6g}  g={e['g']:.6g}  error={e['error']:.6e}")
            if report.fitted_order is not None:
                print(f"fitted order: {report.fitted_order:.3f}")
            if not report.assumption["passed"]:
                print(
                    "assumption check failed: max first moment "
                    f"{report.assumption['max_violation']:.3e}",
                    file=sys.stderr,
                )
                return EXIT_PROPERTY
            if not report.passed:
                print("convergence errors are not strictly decreasing", file=sys.stderr)
                return EXIT_PROPERTY
            return EXIT_OK

        if args.command == "verify":
            report = run_verify(sc, seed=args.seed)
            if args.out is not None:
                os.makedirs(args.out, exist_ok=True)
                write_json(os.path.join(args.out, "verify.json"), report.to_dict())
            worst_first = max(e["residual"] for e in report.first_order)
            worst_second = max(
                max(e["residual_a"], e["residual_b"]) for e in report.second_order
            )
            print(
                f"verify {sc.name}: first-order {worst_first:.3e}, "
                f"second-order {worst_second:.3e}, ratios "
                f"u={report.halving['unitary']['ratio']:.2f} "
                f"c={report.halving['column']['ratio']:.2f} "
                f"s={report.halving['step']['ratio']:.2f}"
            )
            return EXIT_OK if report.passed else EXIT_PROPERTY
    except RuntimeError as exc:
        print(f"property check failed: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
