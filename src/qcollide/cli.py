"""Command-line front end: runs a command's driver, writes its files under
--out from one table (`OUTPUTS`), and prints its summary.

Exit codes: 0 on success, 1 on configuration and usage errors, 2 when a
property check fails (assumption violation, non-decreasing convergence
errors, expansion identity failures, or state-invariant blowups); each
failed check prints one stderr line.  numpy's floating-point warnings are
off while a config loads and its command runs: a non-finite value is
reported by the check it fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from .jsonio import write_json
from .scenarios import (
    ConfigError,
    load_scenario,
    run_converge,
    run_simulate,
    run_verify,
    scenario_generator,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PROPERTY = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_CONFIG, since EXIT_PROPERTY (argparse's
    own usage-error code) means a failed property check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="config JSON path or builtin scenario name")
        cmd.add_argument("--out", default=None, help="output directory")
        if name == "verify":
            cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
            cmd.set_defaults(fmt="json")  # verify writes JSON only
        else:
            cmd.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    return parser


def _json(result, path) -> None:
    write_json(path, result.to_dict())


# The files a command writes under --out, by (command, --format): file name ->
# writer(result, path).  Methods are read off the result, so a wrapped one runs.
OUTPUTS = {
    ("simulate", "csv"): {"trajectory.csv": lambda traj, path: traj.to_csv(path)},
    ("simulate", "json"): {"trajectory.json": lambda traj, path: traj.to_json(path)},
    ("generators", "csv"): {"rates.csv": lambda gen, path: gen.rates.to_csv(path), "generators.json": _json},
    ("generators", "json"): {"rates.json": lambda gen, path: _json(gen.rates, path), "generators.json": _json},
    ("converge", "csv"): {"convergence.csv": lambda report, path: report.to_csv(path)},
    ("converge", "json"): {"convergence.json": _json},
    ("verify", "json"): {"verify.json": _json},
}


# main's parser, built on its first call and reused: parsing keeps no state
_parser = functools.cache(build_parser)


@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        sc = load_scenario(args.config)
        if getattr(args, "seed", None) is not None:
            sc = dataclasses.replace(sc, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out is not None:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"qcollide: error: --out {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_CONFIG

    # named when the command runs, so a wrapped driver is the one called
    drivers = dict(simulate=run_simulate, generators=scenario_generator, converge=run_converge, verify=run_verify)
    try:
        result = drivers[args.command](sc)
        if args.out is not None:
            for name, write in OUTPUTS[args.command, args.fmt].items():
                try:
                    write(result, path := os.path.join(args.out, name))
                except OSError as exc:
                    print(f"qcollide: error: {path}: {exc.strerror}", file=sys.stderr)
                    return EXIT_CONFIG

        if args.command == "simulate":
            print(
                f"simulate {sc.name}: {len(result)} samples, final trace {result.traces[-1]:.12f}, "
                f"min eigenvalue {np.linalg.eigvalsh(result.final_state().entries)[0]:.3e}"
            )
        elif args.command == "generators":
            rates = result.rates
            print(
                f"generators {sc.name}: {len(rates.local)} local terms, "
                f"{len(rates.cross)} cross terms, gamma {rates.gamma:g}"
            )
        elif args.command == "converge":
            for e in result.entries:
                print(f"n={e['n']:6d}  dt={e['dt']:.6g}  g={e['g']:.6g}  error={e['error']:.6e}")
            if result.fitted_order is not None:
                print(f"fitted order: {result.fitted_order:.3f}")
        else:
            first = max(e["residual"] for e in result.first_order)
            second = max(max(e["residual_a"], e["residual_b"]) for e in result.second_order)
            ratios = " ".join(f"{key[0]}={result.halving[key]['ratio']:.2f}" for key in ("unitary", "column", "step"))
            print(f"verify {sc.name}: first-order {first:.3e}, second-order {second:.3e}, ratios {ratios}")
        failures = result.failures() if args.command in ("converge", "verify") else []
        for line in failures:
            print(line, file=sys.stderr)
        return EXIT_PROPERTY if failures else EXIT_OK
    except RuntimeError as exc:
        print(f"property check failed: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
