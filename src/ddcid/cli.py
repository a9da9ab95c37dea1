"""Command-line benchmark runner.

    ddcid list-problems
    ddcid run --problem camel --budget 100 --seed 1 --reps 1 --out camel.json
    ddcid trace --problem molei --seed 3 --out trajectory.csv
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .diffusion import DiffusionConfig, NoiseSource, escape_minimum
from .explorer import ExplorationConfig, draw_start
from .harness import (
    METHODS,
    AnnealConfig,
    BenchmarkSpec,
    emit_report,
    run_benchmark,
    write_trajectory_csv,
)
from .local_search import CONVERGED, Tolerances, minimize
from .potentials import available_problems, get_potential


_FLOAT_OPTIONS = {"--alpha", "--atol", "--rtol", "--target", "--target-tol", "--neighbor-scale"}


def _join_float_values(argv: list[str]) -> list[str]:
    """argv with each float option joined to the next token as "--option=value":
    argparse reads "-1e1" or "-inf" after an option as an option (only "-1" and
    "-.5" look like numbers to it), but passes a joined value to float()."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _FLOAT_OPTIONS:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _output_path(out: str | None, problem: str, method: str, fmt: str) -> str:
    if out is None:
        out = f"{problem.replace(':', '_')}_{method}.{fmt}"
    return out if os.path.dirname(out) else os.path.join(os.environ.get("DDCID_OUT_DIR", "."), out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddcid", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-problems", help="list registry problem keys")

    # A settings option is parsed only when given, under its field's name.
    run = sub.add_parser("run", help="run a benchmark", argument_default=argparse.SUPPRESS)
    run.add_argument("--problem", required=True, help="registry key, e.g. camel or lj:7")
    run.add_argument("--budget", type=int, dest="max_critical_points", metavar="BUDGET",
                     help="critical-point attempts per run")
    run.add_argument("--seed", type=int)
    run.add_argument("--method", choices=METHODS)
    run.add_argument("--reps", type=int, dest="repetitions", metavar="REPS",
                     help="independent repetitions")
    run.add_argument("--out", default=None, help="output path (DDCID_OUT_DIR applies)")
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.add_argument("--alpha", type=float, help="diffusion kick amplitude")
    run.add_argument("--max-diffusive", type=int, dest="max_diffusive_steps", metavar="MAX_DIFFUSIVE")
    run.add_argument("--atol", type=float)
    run.add_argument("--rtol", type=float)
    run.add_argument("--max-iterations", type=int)
    run.add_argument("--max-restarts", type=int)
    run.add_argument("--target", type=float, dest="target_value", metavar="TARGET",
                     help="known global value")
    run.add_argument("--target-tol", type=float)
    run.add_argument("--mc-starts", type=int)
    run.add_argument("--anneal-budget", type=int, dest="iteration_budget", metavar="ANNEAL_BUDGET")
    run.add_argument("--neighbor-scale", type=float)

    trace = sub.add_parser("trace", help="dump one minimum-escape diffusion trajectory")
    trace.add_argument("--problem", required=True)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", default=None)
    trace.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    return parser


def _settings(cls, given: dict, **nested):
    """A ``cls`` made of the given options named after its fields, and its defaults for the rest."""
    return cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given}, **nested)


def _cmd_run(args) -> int:
    given = vars(args)
    config = _settings(ExplorationConfig, given, tolerances=_settings(Tolerances, given),
                       diffusion=_settings(DiffusionConfig, given))
    spec = _settings(BenchmarkSpec, given, config=config, anneal=_settings(AnnealConfig, given))
    report = run_benchmark(spec)
    path = _output_path(args.out, spec.problem, spec.method, args.format)
    emit_report(report, args.format, path)
    agg = report.aggregate()
    print(f"{spec.problem} [{spec.method}] reps={spec.repetitions} "
          f"best={agg['best_value']} distinct_minima={agg['distinct_minima']}")
    if "global_hits" in agg:
        print(f"target {spec.target_value} hit in {agg['global_hits']}/{spec.repetitions} reps")
    print(f"report written to {path}")
    return 0


def _cmd_trace(args) -> int:
    p = get_potential(args.problem)
    noise = NoiseSource(args.seed)
    result = minimize(p, draw_start(p, noise))
    if result.outcome != CONVERGED:
        print(f"initial minimization did not converge ({result.outcome})", file=sys.stderr)
        return 1
    esc = escape_minimum(p, result.final, _settings(DiffusionConfig, vars(args)), noise)
    path = _output_path(args.out, args.problem, "trace", "csv")
    write_trajectory_csv(esc.trajectory, path)
    print(f"minimum at g={result.final.value:.6g}; escape ({esc.outcome}) after "
          f"{esc.steps} diffusive steps; trajectory written to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_float_values(argv))
    try:
        if args.command == "list-problems":
            for key in available_problems():
                print(key)
            return 0
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "trace":
            return _cmd_trace(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
