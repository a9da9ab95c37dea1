#!/usr/bin/env python3
"""Print one SHA-256 digest per run of a fixed set of runs, to check that a
change leaves every report, CLI file and CLI output byte-identical.

    python3 tools/report_digests.py > digests.txt

Run it from two checkouts (or twice from one) and ``diff`` the outputs; the
program is imported from the ``src/`` next to this script.  It takes no
options.  Each line is a label and the SHA-256 of:

- ``to_json(include_timing=False)`` of an ``explore`` run, or the minima
  JSON of a Monte-Carlo descent, for every run of both benchmark workloads
  (``perfbench/workloads.py``), camel seeds 0-9 at budget 100, molei seeds
  0-9 at budget 4, boggs seeds 0-9 at budget 20, ``lj:2``...``lj:8`` seeds
  0-1 at budget 30 (``lj:6`` seeds 0-9) and ``morse:11:3`` seeds 0-1 at
  budget 40: 74 runs;
- ``run_benchmark(...).to_json(include_timing=False)`` on camel for each
  method;
- the exit code, standard output, standard error and written file of
  eleven CLI commands, run in an empty directory: seven with default
  settings, and four that together give every ``run`` option and ``trace
  --alpha`` a value other than its default;
- every field of the search and escape records, which no report holds: the
  histories of ``minimize``, ``gradient_descent`` and ``saddle_search`` from a
  ``draw_start`` point, then the ``escape_minimum`` trajectory from
  ``minimize``'s end point, the ``saddle_search`` history from where that
  escape ended and the ``escape_saddle`` trajectory from the point it found,
  on molei, camel, boggs and ``lj:5`` at seeds 0-1.  A stage that raises is
  digested by its exception, and the stages that need its result are
  skipped.
"""

import os

# One BLAS thread, as the tests and the benchmark run; the variables are
# read when numpy loads, which is below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import ddcid  # noqa: E402
import workloads  # noqa: E402
from ddcid.cli import main as cli_main  # noqa: E402
from ddcid.diffusion import escape_minimum, escape_saddle  # noqa: E402
from ddcid.explorer import draw_start  # noqa: E402
from ddcid.harness import METHODS  # noqa: E402
from ddcid.local_search import gradient_descent, minimize, saddle_search  # noqa: E402

# (problem, seeds, budget) of the explore runs beside the workloads.
EXPLORE_RUNS = ([("camel", range(10), 100), ("molei", range(10), 4), ("boggs", range(10), 20)]
                + [(f"lj:{d}", range(10 if d == 6 else 2), 30) for d in range(2, 9)]
                + [("morse:11:3", range(2), 40)])

CLI_COMMANDS = [
    ["run", "--problem", "molei", "--format", "csv", "--out", "molei.csv"],
    ["run", "--problem", "camel", "--reps", "2", "--format", "csv", "--out", "camel.csv"],
    ["run", "--problem", "molei", "--method", "mc_descent", "--format", "csv",
     "--out", "mc.csv"],
    ["trace", "--problem", "molei", "--seed", "3", "--out", "trace.csv"],
    ["trace", "--problem", "camel", "--seed", "1", "--out", "trace.csv"],
    ["trace", "--problem", "lj:5", "--seed", "0", "--out", "trace.csv"],
    ["trace", "--problem", "boggs", "--seed", "2", "--out", "trace.csv"],
    # Together these set every option to a value that changes their output,
    # so an option wired to the wrong setting changes a digest.
    ["run", "--problem", "camel", "--budget", "8", "--seed", "3", "--reps", "2",
     "--alpha", "0.5", "--max-diffusive", "4", "--atol", "1e-5", "--rtol", "1e-6",
     "--max-iterations", "8", "--max-restarts", "2", "--target", "-1.0316",
     "--target-tol", "1e-5", "--format", "csv", "--out", "flags.csv"],
    ["run", "--problem", "camel", "--method", "mc_descent", "--mc-starts", "7",
     "--format", "csv", "--out", "mc.csv"],
    ["run", "--problem", "molei", "--method", "sim_anneal", "--anneal-budget", "2000",
     "--neighbor-scale", "0.25", "--format", "csv", "--out", "anneal.csv"],
    ["trace", "--problem", "molei", "--seed", "3", "--alpha", "0.5", "--out", "trace.csv"],
]


RECORD_PROBLEMS = ("molei", "camel", "boggs", "lj:5")
RECORD_SEEDS = range(2)

# The fields of each record that are digested: every field, apart from
# those that restate another (a step's number, its start point, G at its
# predictor, and counts that are the lengths of the lists).
STEP_FIELDS = ("direction", "step_size", "point", "step_vector", "value", "aux_value")
TRAJECTORY_FIELDS = ("point", "value", "aux_value", "inertia", "predictor", "step_size")


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def cli_digest(argv: list[str]) -> str:
    """Digest of one CLI command run in a fresh empty directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
            path = Path(argv[argv.index("--out") + 1])
            written = path.read_bytes() if path.exists() else b""
        finally:
            os.chdir(cwd)
    return sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode() + written)


def canonical(value):
    """``value`` as plain text that changes with any bit of it."""
    if isinstance(value, np.ndarray):
        return value.astype(float).tobytes().hex()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def final_fields(final) -> list:
    return [canonical(final.x), canonical(final.value), canonical(final.aux)]


def search_digest(result) -> str:
    fields = [result.outcome, canonical(result.grad_tol), *final_fields(result.final),
              [[canonical(getattr(step, name)) for name in STEP_FIELDS] for step in result.history]]
    return sha256(repr(fields))


def escape_digest(result) -> str:
    fields = [result.outcome, *final_fields(result.final),
              [[canonical(getattr(step, name)) for name in TRAJECTORY_FIELDS]
               for step in result.trajectory]]
    return sha256(repr(fields))


def record_digests(problem: str, seed: int):
    """(stage, digest) of each search and escape of one chain on ``problem``."""
    p = ddcid.get_potential(problem)
    noise = ddcid.NoiseSource(seed)
    cfg = ddcid.DiffusionConfig()
    start = draw_start(p, noise)
    results = {}

    def stage(name, run, digest, *needs):
        if any(results.get(n) is None for n in needs):
            return name, "skipped"
        try:
            results[name] = run()
        except Exception as exc:   # a stage that raises is digested by its exception
            results[name] = None
            return name, sha256(f"{type(exc).__name__}: {exc}")
        return name, digest(results[name])

    yield stage("minimize", lambda: minimize(p, start.x), search_digest)
    yield stage("gradient_descent", lambda: gradient_descent(p, start.x), search_digest)
    yield stage("saddle_search", lambda: saddle_search(p, start.x), search_digest)
    yield stage("escape_minimum", lambda: escape_minimum(p, results["minimize"].final, cfg, noise),
                escape_digest, "minimize")
    yield stage("saddle_search after escape",
                lambda: saddle_search(p, results["escape_minimum"].final), search_digest,
                "escape_minimum")
    yield stage("escape_saddle",
                lambda: escape_saddle(p, results["saddle_search after escape"].final, cfg, noise),
                escape_digest, "saddle_search after escape")


def main() -> int:
    os.environ.pop("DDCID_OUT_DIR", None)
    for workload, runs in workloads.WORKLOADS.items():
        for run in runs:
            outcome = workloads.execute(ddcid, run, ddcid.get_potential(run.problem))
            print(f"{workload}: {run.label}  {outcome.digest or outcome.error}")
    for problem, seeds, budget in EXPLORE_RUNS:
        p = ddcid.get_potential(problem)
        for seed in seeds:
            report = ddcid.explore(p, ddcid.ExplorationConfig(max_critical_points=budget, seed=seed))
            print(f"explore {problem} seed={seed} budget={budget}  "
                  f"{sha256(report.to_json(include_timing=False))}")
    for method in METHODS:
        report = ddcid.run_benchmark(ddcid.BenchmarkSpec("camel", method=method))
        print(f"run_benchmark camel method={method}  {sha256(report.to_json(include_timing=False))}")
    for argv in CLI_COMMANDS:
        print(f"ddcid {' '.join(argv)}  {cli_digest(argv)}")
    for problem in RECORD_PROBLEMS:
        for seed in RECORD_SEEDS:
            for name, digest in record_digests(problem, seed):
                print(f"record {problem} seed={seed} {name}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
