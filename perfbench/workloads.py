"""The benchmark's workloads: fixed sets of ``explore`` and baseline runs.

A workload is one round of runs.  Each run is one operation: it fails if it
raises or if its output fails a check in ``checks.py``.  The explorer seeds
are fixed (see README.md): the work and the outcome of one ``explore`` run
depend on its seed several-fold, so a round whose seeds changed with the
benchmark's ``--seed`` would measure the seeds rather than the program.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

import checks

EXPLORE = "explore"
MONTE_CARLO = "monte_carlo_descent"
TINY_BUDGET = 3


@dataclass(frozen=True)
class Run:
    problem: str
    seed: int
    budget: int                        # explore: max_critical_points; baseline: starts
    method: str = EXPLORE
    rtol: float | None = None          # Tolerances.rtol, default when None
    max_iterations: int | None = None  # Tolerances.max_iterations, default when None

    @property
    def label(self) -> str:
        return f"{self.method} {self.problem} seed={self.seed} budget={self.budget}"


def _runs(problem: str, seeds, budget: int, **kw) -> list[Run]:
    return [Run(problem, s, budget, **kw) for s in seeds]


# Problems and budgets follow the acceptance suite (criteria 1-6 and the
# Shubert check).  Two workloads rather than three: the machine's speed
# drifts over tens of seconds, and only a long run per workload steadies a
# median, so the planar problems and the Rosenbrock contrast share one.
WORKLOADS: dict[str, list[Run]] = {
    # 2x2 matrices: per-call overhead in spectral and potentials dominates.
    # boggs also takes the column-by-column fd_hessian path.  rosenbrock:50
    # adds newton_solve at n = 50 and long saddle searches, beside the
    # baseline that drives plain gradient descent with no spectral calls.
    # None of it touches the cluster Hessian.
    "planar-rosenbrock": (
        _runs("camel", (0, 1), 100) + _runs("shubert", (0, 1, 2), 100)
        + _runs("boggs", (0, 1), 20, rtol=0.0) + _runs("molei", range(5), 4)
        + _runs("rosenbrock:50", (0, 1), 20, rtol=0.0, max_iterations=2000)
        + _runs("rosenbrock:50", (0, 1), 20, method=MONTE_CARLO, max_iterations=500)),
    # Stacked forward-difference cluster Hessians and 50-step saddle escapes.
    "clusters": (_runs("lj:8", (0,), 30) + _runs("lj:13", (0,), 30)
                 + _runs("morse:11:3", (0,), 40) + _runs("morse:11:6", (0,), 40)),
}


def runs_for(workload: str, tiny: bool = False) -> list[Run]:
    runs = WORKLOADS[workload]
    if tiny:
        runs = [replace(r, budget=min(r.budget, TINY_BUDGET)) for r in runs]
    return runs


@dataclass
class Outcome:
    """What one run produced: its time, a digest of its report, the table
    entries the checks read, and the report-derived counts."""

    run: Run
    seconds: float
    digest: str | None = None          # None when the run raised
    error: str | None = None
    entries: list[dict] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def raised(self) -> bool:
        return self.error is not None


def _tolerances(ddcid, run: Run):
    kw = {}
    if run.rtol is not None:
        kw["rtol"] = run.rtol
    if run.max_iterations is not None:
        kw["max_iterations"] = run.max_iterations
    return ddcid.Tolerances(**kw)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _outside(location, region) -> bool:
    loc = np.asarray(location, dtype=float)
    return bool(np.any(loc < region[:, 0]) or np.any(loc > region[:, 1]))


def execute(ddcid, run: Run, potential, explore=None, monte_carlo_descent=None) -> Outcome:
    """Run one operation and time it.  ``explore`` and
    ``monte_carlo_descent`` default to the program's own functions; the
    traced round passes wrapped ones."""
    explore = explore or ddcid.explore
    monte_carlo_descent = monte_carlo_descent or ddcid.monte_carlo_descent
    tol = _tolerances(ddcid, run)
    start = time.perf_counter()
    try:
        if run.method == EXPLORE:
            result = explore(potential, ddcid.ExplorationConfig(
                max_critical_points=run.budget, seed=run.seed, tolerances=tol))
        else:
            result = monte_carlo_descent(potential, run.budget, tol, ddcid.NoiseSource(run.seed))
    except Exception as exc:   # a run that raises is a failed operation
        return Outcome(run, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start

    if run.method == EXPLORE:
        text = result.to_json(include_timing=False)
        entries = json.loads(text)["table"]
        ref, tol_hit = checks.REFERENCES[run.problem]
        region = potential.search_region
        counts = {
            "attempts": len(result.attempts),
            "recorded": sum(a.outcome == "recorded" for a in result.attempts),
            "critical_points": sum(e["kind"] != "degenerate" for e in entries),
            "degenerate_entries": sum(e["kind"] == "degenerate" for e in entries),
            "entries_outside_region": sum(_outside(e["location"], region) for e in entries),
            "distinct_minima": sum(e["kind"] == "minimum" for e in entries),
            "target_hits": int(abs(result.table.best_value() - ref) <= tol_hit),
        }
    else:
        entries = [e.as_dict() for e in result]
        counts = {"monte_carlo_minima": len(entries)}
        text = json.dumps(entries, sort_keys=True)
    return Outcome(run, seconds, _digest(text), entries=entries, counts=counts)


def check_outcome(outcome: Outcome) -> list[str]:
    """Faults in one run's output; empty when it passes every check."""
    if outcome.raised:
        return [f"{outcome.run.label}: raised {outcome.error}"]
    if outcome.run.method == EXPLORE:
        return checks.check_explorer_table(outcome.run.problem, outcome.entries)
    return checks.check_baseline_minima(outcome.run.problem, outcome.entries)
