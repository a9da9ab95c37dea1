#!/usr/bin/env python3
"""Benchmark of the ddcid explorer, end to end and layer by layer.

    python3 perfbench/run.py [--workload planar-rosenbrock|clusters|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.  A
workload is a fixed round of ``explore`` and Monte-Carlo-descent runs (see
``workloads.py``); the benchmark repeats whole rounds for ``--seconds`` in
this one process, with one BLAS thread, then checks the first round's
outputs and that every later round reproduced them byte for byte.
``--seed`` sets the order of the runs within a round.  With ``--workload
all`` each workload is measured in a child process of its own, so that
process-wide readings such as the peak resident set stay per workload.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced rounds
alternate, and the JSON object holds the per-layer metrics.  The spans of
the last traced round are written to ``perfbench/out/``.
"""

import os

# Every matrix here is small, so threaded BLAS only adds overhead.  The
# variables are read when numpy loads, which is below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7
# A traced run's measured time may exceed its layers' summed self time only
# by the root wrapper's own bookkeeping, a few microseconds, unless the
# process is preempted or collects garbage inside that bookkeeping.
ROOT_GAP_PER_RUN_S = 1e-3
ROOT_GAP_SHARE = 0.01

# Set-up as one user pays it: a fresh interpreter imports the program and
# builds the workload's potentials.  Timed from inside the child, so the
# interpreter's own start-up is left out.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ddcid import get_potential
for key in sys.argv[2:]:
    get_potential(key)
print(time.perf_counter() - start)
"""

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "critical_points_per_s": "1/s",
    "distinct_minima": "count", "target_hits": "count", "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def measure_setup(problems) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), *problems],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def _median(values):
    """The median; a count that every round repeats stays a whole number."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def _wall(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def median_wall(rounds) -> float:
    """Each run's median time over the rounds, summed over the runs.  A slow
    patch of the machine that lands on some runs of a round moves each
    run's median less than it moves a median of round totals."""
    per_run = zip(*(outcomes for outcomes, _ in rounds))
    return sum(statistics.median(o.seconds for o in same) for same in per_run)


class Rounds:
    """Whole rounds of one workload's runs, repeated for a time budget."""

    def __init__(self, ddcid, runs, potentials):
        self.ddcid = ddcid
        self.runs = runs
        self.potentials = potentials

    def one(self, tracer=None):
        execute = workloads.execute
        if tracer is None:
            return [execute(self.ddcid, r, self.potentials[r.problem]) for r in self.runs]
        explore = tracer.wrap("explore", self.ddcid.explore)
        mc = tracer.wrap("monte_carlo_descent", self.ddcid.monte_carlo_descent)
        with tracing.installed(tracer):
            return [execute(self.ddcid, r, tracer.potential(self.potentials[r.problem]),
                            explore, mc) for r in self.runs]

    def repeat(self, seconds: float, pattern=(False,)):
        """Rounds until the next one would end past ``seconds``, traced or
        not as ``pattern`` cycles; at least one round of each kind in it.
        Returns a list of (outcomes, tracer or None)."""
        done, elapsed = [], 0.0
        while len(done) < len(pattern) or elapsed + elapsed / len(done) <= seconds:
            tracer = tracing.Tracer() if pattern[len(done) % len(pattern)] else None
            outcomes = self.one(tracer)
            done.append((outcomes, tracer))
            elapsed += _wall(outcomes)
        return done


def layers_account_for(tracer, outcomes) -> bool:
    """Whether the layers' self times, summed, make up the traced runs' own
    measured time.  Spans whose names map to no layer, or a run with no
    root span, leave a gap; overlapping spans make the sum too large."""
    layer_s = sum(tracing.layer_self_ns(tracing.span_totals(tracer.spans)).values()) / 1e9
    measured = _wall(outcomes)
    gap = measured - layer_s
    return -1e-6 * len(outcomes) <= gap <= ROOT_GAP_PER_RUN_S * len(outcomes) + ROOT_GAP_SHARE * measured


def verdicts(rounds, reference):
    """Check the reference round; a later round passes only if every run
    reproduced its reference digest.  Returns (faults per run index,
    reproduced)."""
    faults = {i: workloads.check_outcome(o) for i, o in enumerate(reference)}
    reproduced = all(o.digest == ref.digest
                     for outcomes, _ in rounds for o, ref in zip(outcomes, reference))
    return faults, reproduced


def _report_counts(outcomes) -> Counter:
    total = Counter()
    for o in outcomes:
        total.update(o.counts)
    return total


def write_spans(tracer, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.csv"
    with open(path, "w") as fh:
        fh.write("index,name,start_ns,end_ns,parent\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{i},{name},{start},{end},{parent}\n")
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; the program must be importable."""
    runs = list(workloads.runs_for(workload, tiny))
    random.Random(seed).shuffle(runs)
    problems = sorted({r.problem for r in runs})
    setup_s = None if trace else measure_setup(problems)
    import ddcid

    potentials = {p: ddcid.get_potential(p) for p in problems}
    # Warm-up: one round at tiny budgets pays the one-time costs of a
    # process (first eigh, QR and scipy calls, each problem's code path)
    # that no timed round should carry.
    Rounds(ddcid, workloads.runs_for(workload, tiny=True), potentials).one()
    rounds = Rounds(ddcid, runs, potentials)
    # Traced rounds alternate with untraced ones, so that both see the same
    # phases of a shared machine and their difference is the tracing cost.
    all_rounds = rounds.repeat(seconds, (False, True) if trace else (False,))
    untraced = [r for r in all_rounds if r[1] is None]
    traced = [r for r in all_rounds if r[1] is not None]
    reference = untraced[0][0]
    faults, reproduced = verdicts(all_rounds, reference)
    failed_per_round = sum(bool(f) for f in faults.values())

    correct = reproduced
    walls = [_wall(outcomes) for outcomes, _ in untraced]
    wall_s = median_wall(untraced)
    counts = _report_counts(reference)
    if trace:
        per_round = []
        for outcomes, tracer in traced:
            m = tracing.layer_metrics(tracer, _report_counts(outcomes))
            correct = correct and layers_account_for(tracer, outcomes)
            m["tracing.traced_wall_s"] = tracing.root_ns(tracer.spans) / 1e9
            per_round.append(m)
        metrics = {k: _median([m[k] for m in per_round]) for k in per_round[0]}
        metrics["tracing.untraced_wall_s"] = wall_s
        metrics["tracing.overhead_s"] = metrics["tracing.traced_wall_s"] - wall_s
        write_spans(traced[-1][1], workload, seed)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "critical_points_per_s": counts["critical_points"] / wall_s,
            "distinct_minima": counts["distinct_minima"],
            "target_hits": counts["target_hits"],
            # The whole process, warm-up and checks included; it measures
            # one workload because ``all`` gives each its own process.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "workload": workload,
        "correct": bool(correct),
        "attempted": len(all_rounds) * len(runs),
        "failed": len(all_rounds) * failed_per_round,
        "rounds": len(all_rounds),
        "round_walls": walls,
        "faults": {reference[i].run.label: f for i, f in faults.items() if f},
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }


def _print_human(result: dict) -> None:
    print(f"== {result['workload']}: {result['rounds']} rounds, "
          f"{result['attempted']} runs attempted, {result['failed']} failed, "
          f"correct={result['correct']}")
    print("   untraced round times (s): " + " ".join(f"{w:.3f}" for w in result["round_walls"]))
    for label, faults in result["faults"].items():
        print(f"   FAILED {label}: {len(faults)} fault(s); first: {faults[0]}")
    for name, m in result["metrics"].items():
        print(f"   {name:40s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ddcid" / "__init__.py").is_file():
        print(f"perfbench: the program's source {SRC / 'ddcid'} is missing", file=sys.stderr)
        return 2
    if args.workload != "all":
        sys.path.insert(0, str(SRC))
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_human(result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    results = {}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        *human, last = child.stdout.splitlines()
        print("\n".join(human))
        results[name] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
