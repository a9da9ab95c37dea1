"""Benchmark harness: runs the explorer or one of the baseline methods over
registry problems and emits CSV/JSON reports."""

from __future__ import annotations

import csv
import dataclasses
import math
import time
from dataclasses import dataclass, field

from .diffusion import NoiseSource, TrajectoryStep, white_noise_id_step
from .explorer import (
    CriticalPoint,
    CriticalPointTable,
    ExplorationConfig,
    RunReport,
    classify,
    default_dedup_radius,
    explore,
    report_json,
)
from .local_search import CONVERGED, Point, Tolerances, gradient_descent, require_count, require_real
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
        require_count("repetitions", self.repetitions, 1)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        require_count("mc_starts", self.mc_starts, 1)
        if self.target_value is not None:
            require_real("target_value", self.target_value)
        require_real("target_tol", self.target_tol, 0, strict=False)
        if not (isinstance(self.config, ExplorationConfig)
                and (self.anneal is None or isinstance(self.anneal, AnnealConfig))):
            raise ValueError("config must be an ExplorationConfig, anneal an AnnealConfig or None")


@dataclass
class AnnealConfig:
    neighbor_scale: float = 0.5
    iteration_budget: int = 20000

    def __post_init__(self):
        require_real("neighbor_scale", self.neighbor_scale, 0)
        require_count("iteration_budget", self.iteration_budget, 1)

    def temperature(self, ratio: float) -> float:
        """Linear cooling from T = 1 at iteration ratio 0, kept positive."""
        return max(1.0 - ratio, 1e-300)


@dataclass
class AnnealResult:
    point: Point                  # the best point visited, with its g
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
    point ever visited.  Proposals with no finite g are skipped."""
    at = best = Point(p, noise.uniform_box(p.search_region))
    at.value   # raises EvaluationError when the start has no finite g
    accepted = 0
    budget = cfg.iteration_budget
    for k in range(budget):
        proposal = Point(p, at.x + cfg.neighbor_scale * noise.normal(p.dimension))
        try:
            proposal.value
        except EvaluationError:
            continue
        t = cfg.temperature(k / budget)
        if metropolis_probability(at.value, proposal.value, t) > noise.uniform(0.0, 1.0):
            at = proposal
            accepted += 1
            if at.value < best.value:
                best = at
    return AnnealResult(best, accepted)


def _record_descents(p: Potential, descents: int, tol: Tolerances, noise: NoiseSource,
                     burst=None) -> list[CriticalPoint]:
    """The recording loop of both descent baselines: ``descents`` gradient
    descents, each recording its end point x when it converged.  With
    ``burst``, the next starts from ``burst(x)`` (x is the start if it did not
    converge); else, and after an EvaluationError, from a uniform draw."""
    table = CriticalPointTable(default_dedup_radius(p.search_region))
    x = None
    for _ in range(descents):
        if x is None:
            x = noise.uniform_box(p.search_region)
        try:
            result = gradient_descent(p, x, tol)
            if result.outcome == CONVERGED:
                table.record(classify(p, result.final, grad_tol=math.inf))
                x = result.final.x
            x = burst(x) if burst else None
        except EvaluationError:
            x = None
    return table.entries


def monte_carlo_descent(p: Potential, starts: int, tol: Tolerances,
                        noise: NoiseSource) -> list[CriticalPoint]:
    """Gradient descent from uniform random starts; returns the
    deduplicated minima that converged."""
    return _record_descents(p, starts, tol, noise)


def white_noise_intermittent_descent(p: Potential, cycles: int, noise: NoiseSource,
                                     tol: Tolerances) -> list[CriticalPoint]:
    """White-noise baseline: alternate gradient descent with noisy
    Euler-Maruyama bursts, recording the minima reached before each burst."""
    def burst(x):
        for _ in range(WHITE_NOISE_BURST_STEPS):
            x = white_noise_id_step(p, x, WHITE_NOISE_BURST_H, WHITE_NOISE_SIGMA, noise)
        return x

    return _record_descents(p, cycles, tol, noise, burst)


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
        out = {
            "best_value": min(best_values, default=None),
            "distinct_points": len(self.table),
            "distinct_minima": len(self.table.minima()),
        }
        if self.spec.target_value is not None:
            out["target_value"] = self.spec.target_value
            out["global_hits"] = sum(
                1 for v in best_values if abs(v - self.spec.target_value) <= self.spec.target_tol)
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
        return report_json(self.canonical_dict(include_timing))


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
            fields = {"best_value": result.point.value, "accepted_moves": result.accepted_moves}
        else:   # the descent baselines
            noise, tol = NoiseSource(seed), spec.config.tolerances
            entries = (monte_carlo_descent(p, spec.mc_starts, tol, noise)
                       if spec.method == "mc_descent" else
                       white_noise_intermittent_descent(p, spec.config.max_critical_points, noise, tol))
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
    return header, [[repr(float(v)) for v in e.location]
                    + [repr(float(e.value)), repr(float(e.gradient_norm)), *e.inertia, e.kind,
                       e.occurrences] for e in entries]


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
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
    _write_csv(path, header, [[step] + [repr(float(v)) for v in t.point]
                              + [repr(float(t.value)), repr(float(t.aux_value)), *t.inertia]
                              for step, t in enumerate(trajectory, 1)])


def emit_report(report: BenchmarkReport | RunReport, fmt: str, path: str) -> str:
    """Write the report as JSON (full) or CSV (table only); returns path.
    The text is made before the file is opened, so a report that cannot be
    serialized leaves no file behind."""
    if fmt == "json":
        text = report.to_json() + "\n"
        with open(path, "w") as fh:
            fh.write(text)
    elif fmt == "csv":
        _write_csv(path, *table_csv_rows(report.table.entries, report.dimension))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path
