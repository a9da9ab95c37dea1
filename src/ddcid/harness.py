"""Benchmark harness: runs the explorer or one of the baseline methods over
registry problems and emits CSV/JSON reports."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .diffusion import NoiseSource, TrajectoryStep, white_noise_id_step
from .explorer import (
    CriticalPoint,
    CriticalPointTable,
    ExplorationConfig,
    RunReport,
    classify,
    default_dedup_radius,
    explore,
)
from .local_search import CONVERGED, Tolerances, gradient_descent
from .potentials import EvaluationError, Potential, get_potential

METHODS = ("ddcid", "id_white", "mc_descent", "sim_anneal")

# Noisy Euler-Maruyama burst of the white-noise baseline: steps, step size h
# and noise amplitude sigma.
WHITE_NOISE_BURST_STEPS = 25
WHITE_NOISE_BURST_H = 1e-2
WHITE_NOISE_SIGMA = 1.0


@dataclass
class BenchmarkSpec:
    problem: str
    config: ExplorationConfig = field(default_factory=ExplorationConfig)
    repetitions: int = 1
    method: str = "ddcid"
    target_value: float | None = None    # optional known global value
    target_tol: float = 1e-3
    mc_starts: int = 20                  # Monte-Carlo baseline starts per rep
    anneal: "AnnealConfig | None" = None

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.mc_starts < 1:
            raise ValueError("mc_starts must be >= 1")
        if not self.target_tol >= 0:   # also rejects NaN
            raise ValueError("target_tol must be >= 0")


@dataclass
class AnnealConfig:
    neighbor_scale: float = 0.5
    iteration_budget: int = 20000

    def __post_init__(self):
        if self.iteration_budget < 1:
            raise ValueError("iteration_budget must be >= 1")
        if not self.neighbor_scale > 0:   # also rejects NaN
            raise ValueError("neighbor_scale must be positive")

    def temperature(self, ratio: float) -> float:
        """Linear cooling from T = 1 at iteration ratio 0, kept positive."""
        return max(1.0 - ratio, 1e-300)


@dataclass
class AnnealResult:
    point: np.ndarray
    value: float
    accepted_moves: int


def metropolis_probability(g_current: float, g_new: float, temperature: float) -> float:
    """1 for downhill proposals, exp(-(g_new - g_current)/T) uphill."""
    if g_new < g_current:
        return 1.0
    arg = -(g_new - g_current) / temperature
    return math.exp(arg) if arg > -700.0 else 0.0


def simulated_annealing(p: Potential, cfg: AnnealConfig,
                        noise: NoiseSource) -> AnnealResult:
    """Metropolis random walk with a cooling schedule; returns the best
    point ever visited."""
    x = noise.uniform_box(p.search_region)
    g = float(p.value(x))
    best_x, best_g = x.copy(), g
    accepted = 0
    budget = cfg.iteration_budget
    for k in range(budget):
        proposal = x + cfg.neighbor_scale * noise.normal(p.dimension)
        try:
            g_new = float(p.value(proposal))
        except EvaluationError:
            continue
        if not math.isfinite(g_new):
            continue
        t = cfg.temperature(k / budget)
        if metropolis_probability(g, g_new, t) > noise.uniform(0.0, 1.0):
            x, g = proposal, g_new
            accepted += 1
            if g < best_g:
                best_x, best_g = x.copy(), g
    return AnnealResult(best_x, best_g, accepted)


def monte_carlo_descent(p: Potential, starts: int, tol: Tolerances,
                        noise: NoiseSource) -> list[CriticalPoint]:
    """Gradient descent from uniform random starts; returns the
    deduplicated minima that converged."""
    table = CriticalPointTable(default_dedup_radius(p.search_region))
    for _ in range(starts):
        x0 = noise.uniform_box(p.search_region)
        try:
            result = gradient_descent(p, x0, tol)
            if result.outcome != CONVERGED:
                continue
            table.record(classify(p, result.final_point, grad_tol=math.inf))
        except EvaluationError:
            continue
    return table.entries


def white_noise_intermittent_descent(p: Potential, cycles: int, noise: NoiseSource,
                                     tol: Tolerances) -> list[CriticalPoint]:
    """White-noise baseline: alternate noisy Euler-Maruyama bursts with
    gradient descent, recording the minima reached after each burst."""
    table = CriticalPointTable(default_dedup_radius(p.search_region))
    x = noise.uniform_box(p.search_region)
    for _ in range(cycles):
        try:
            result = gradient_descent(p, x, tol)
            if result.outcome == CONVERGED:
                table.record(classify(p, result.final_point, grad_tol=math.inf))
                x = result.final_point
            for _ in range(WHITE_NOISE_BURST_STEPS):
                x = white_noise_id_step(p, x, WHITE_NOISE_BURST_H, WHITE_NOISE_SIGMA, noise)
        except EvaluationError:
            x = noise.uniform_box(p.search_region)
    return table.entries


@dataclass
class BenchmarkReport:
    spec: BenchmarkSpec
    dimension: int
    table: CriticalPointTable
    reps: list[dict] = field(default_factory=list)
    runs: list[RunReport] = field(default_factory=list)
    total_seconds: float = 0.0

    def aggregate(self) -> dict:
        best_values = [r["best_value"] for r in self.reps if r["best_value"] is not None]
        best = min(best_values, default=None)
        out = {
            "best_value": best,
            "distinct_points": len(self.table),
            "distinct_minima": len(self.table.minima()),
        }
        if self.spec.target_value is not None:
            out["target_value"] = self.spec.target_value
            out["global_hits"] = sum(
                1 for r in self.reps
                if r["best_value"] is not None
                and abs(r["best_value"] - self.spec.target_value) <= self.spec.target_tol)
        return out

    def canonical_dict(self, include_timing: bool = True) -> dict:
        d = {
            "spec": dataclasses.asdict(self.spec),
            "dimension": self.dimension,
            "reps": self.reps,
            "table": [e.as_dict() for e in self.table.entries],
            "aggregate": self.aggregate(),
            "runs": [r.canonical_dict(include_timing) for r in self.runs],
        }
        if include_timing:
            d["timing"] = {"total_seconds": self.total_seconds}
        return d

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.canonical_dict(include_timing), sort_keys=True, indent=2)


def run_benchmark(spec: BenchmarkSpec) -> BenchmarkReport:
    """Execute the chosen method ``repetitions`` times with per-repetition
    seeds and aggregate best value, distinct minima, and target hits."""
    p = get_potential(spec.problem)
    start = time.perf_counter()
    merged = CriticalPointTable(default_dedup_radius(p.search_region))
    report = BenchmarkReport(spec, p.dimension, merged)

    for rep in range(spec.repetitions):
        seed = spec.config.seed + rep
        if spec.method == "ddcid":
            run = explore(p, dataclasses.replace(spec.config, seed=seed))
            report.runs.append(run)
            entries = run.table.entries
            summary = run.summary()
            fields = {"summary": summary, "best_value": summary["best_value"]}
        elif spec.method == "sim_anneal":
            result = simulated_annealing(p, spec.anneal or AnnealConfig(), NoiseSource(seed))
            entries = [classify(p, result.point, grad_tol=math.inf)]
            fields = {"best_value": result.value, "accepted_moves": result.accepted_moves}
        else:
            if spec.method == "mc_descent":
                entries = monte_carlo_descent(p, spec.mc_starts, spec.config.tolerances,
                                              NoiseSource(seed))
            else:   # id_white
                entries = white_noise_intermittent_descent(
                    p, spec.config.max_critical_points, NoiseSource(seed),
                    spec.config.tolerances)
            fields = {"best_value": min((e.value for e in entries), default=None),
                      "minima_found": len(entries)}
        for entry in entries:
            merged.record(dataclasses.replace(entry))
        report.reps.append({"repetition": rep, "seed": seed, **fields})

    report.total_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

CSV_FIXED_COLUMNS = ["g", "grad_norm", "n_plus", "n_zero", "n_minus", "kind", "occurrences"]


def table_csv_rows(entries: list[CriticalPoint], dimension: int) -> tuple[list[str], list[list]]:
    header = [f"x{i}" for i in range(1, dimension + 1)] + CSV_FIXED_COLUMNS
    rows = []
    for e in entries:
        rows.append([repr(float(v)) for v in e.location]
                    + [repr(float(e.value)), repr(float(e.gradient_norm)),
                       e.inertia[0], e.inertia[1], e.inertia[2], e.kind, e.occurrences])
    return header, rows


def write_table_csv(entries: list[CriticalPoint], dimension: int, path: str) -> None:
    header, rows = table_csv_rows(entries, dimension)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_csv(trajectory: list[TrajectoryStep], path: str) -> None:
    """Diffusion trajectory dump: step index, point, g, G, inertia."""
    if not trajectory:
        raise ValueError("empty trajectory")
    n = trajectory[0].point.size
    header = ["step"] + [f"x{i}" for i in range(1, n + 1)] + ["g", "G", "n_plus", "n_zero", "n_minus"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in trajectory:
            writer.writerow([t.index] + [repr(float(v)) for v in t.point]
                            + [repr(float(t.value)), repr(float(t.aux_value)),
                               t.inertia[0], t.inertia[1], t.inertia[2]])


def emit_report(report: BenchmarkReport | RunReport, fmt: str, path: str) -> str:
    """Write the report as JSON (full) or CSV (table only); returns path."""
    if fmt == "json":
        with open(path, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    elif fmt == "csv":
        write_table_csv(report.table.entries, report.dimension, path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path
