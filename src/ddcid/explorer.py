"""Top-level exploration loop: alternate local searches and basin escapes,
maintaining a deduplicated table of classified critical points."""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .diffusion import (
    DiffusionConfig,
    InertiaMismatchError,
    NoiseSource,
    escape_minimum,
    escape_saddle,
)
from .local_search import (
    CONVERGED,
    Point,
    StepUnderflowError,
    Tolerances,
    evaluate,
    minimize,
    saddle_search,
)
from .potentials import EvaluationError, Potential

KIND_MINIMUM = "minimum"
KIND_SADDLE = "saddle"
KIND_MAXIMUM = "maximum"
KIND_DEGENERATE = "degenerate"

_SANE_GRADIENT = 1e8    # bound on a start draw's gradient norm
_MAX_DRAW_TRIES = 200


class NotCriticalError(ValueError):
    """The point's gradient is too large to record as a critical point."""


def kind_from_inertia(inertia: tuple[int, int, int]) -> str:
    n_plus, n_zero, n_minus = inertia
    if n_zero > 0:
        return KIND_DEGENERATE
    if n_minus == 0:
        return KIND_MINIMUM
    if n_plus == 0:
        return KIND_MAXIMUM
    return KIND_SADDLE


@dataclass
class CriticalPoint:
    location: np.ndarray
    value: float
    gradient_norm: float
    inertia: tuple[int, int, int]
    kind: str
    point: Point | None = field(repr=False, compare=False)   # its evaluations; not reported
    occurrences: int = 1

    def as_dict(self) -> dict:
        return {
            "location": [float(v) for v in self.location],
            "value": float(self.value),
            "gradient_norm": float(self.gradient_norm),
            "inertia": list(self.inertia),
            "kind": self.kind,
            "occurrences": self.occurrences,
        }


def classify(p: Potential, x: Point | np.ndarray, grad_tol: float = 1e-5) -> CriticalPoint:
    """Classify a (near-)critical point by the inertia of its Hessian.

    Rejects points whose gradient norm exceeds ``grad_tol``; with
    ``grad_tol=math.inf`` it describes any point, as the baselines use it.
    A non-finite value or gradient raises EvaluationError.
    """
    at = evaluate(p, x)
    grad_norm = float(np.linalg.norm(at.grad))
    if grad_norm > grad_tol:
        raise NotCriticalError(f"gradient norm {grad_norm:.3e} above {grad_tol:.3e}")
    s = at.spectral
    return CriticalPoint(at.x, at.value, grad_norm, s.inertia, kind_from_inertia(s.inertia), at)


@dataclass
class CriticalPointTable:
    """Multiset of found critical points; re-finding an entry within the
    dedup radius increments its occurrence count."""

    dedup_radius: float
    entries: list[CriticalPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def record(self, cp: CriticalPoint) -> CriticalPoint:
        """Append ``cp``, or merge it into the first entry within the dedup
        radius; returns the entry that holds it."""
        for existing in self.entries:
            d = existing.location - cp.location
            if math.sqrt(d.dot(d)) < self.dedup_radius:
                break
        else:
            self.entries.append(cp)
            return cp
        existing.occurrences += cp.occurrences
        if cp.gradient_norm < existing.gradient_norm:
            # Keep the sharper representative, with its evaluations.
            for name in ("location", "value", "gradient_norm", "inertia", "kind", "point"):
                setattr(existing, name, getattr(cp, name))
        return existing

    def minima(self) -> list[CriticalPoint]:
        return [e for e in self.entries if e.kind == KIND_MINIMUM]

    def best_value(self) -> float:
        return min((e.value for e in self.entries), default=float("nan"))


def select_escape_target(table: CriticalPointTable, noise: NoiseSource) -> CriticalPoint:
    """Uniform draw over distinct table entries (occurrences are ignored)."""
    if not table.entries:
        raise ValueError("cannot select from an empty table")
    return table.entries[noise.integer(len(table.entries))]


def default_dedup_radius(search_region: np.ndarray) -> float:
    """Distance within which two points are one table entry: 1e-4 times the
    region's diameter."""
    region = np.asarray(search_region, dtype=float)
    return 1e-4 * float(np.linalg.norm(region[:, 1] - region[:, 0]))


@dataclass
class ExplorationConfig:
    max_critical_points: int = 20
    tolerances: Tolerances = field(default_factory=Tolerances)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    seed: int = 0
    max_restarts: int = 5

    def __post_init__(self):
        if not (isinstance(self.max_critical_points, Integral) and self.max_critical_points >= 1
                and isinstance(self.max_restarts, Integral) and self.max_restarts >= 0):
            raise ValueError("need integers max_critical_points >= 1 and max_restarts >= 0")


@dataclass
class AttemptStats:
    """One budgeted attempt; retries within an attempt append episodes."""

    index: int
    source: str                    # "fresh" | "minimum" | "saddle"
    diffusive_step_counts: list[int] = field(default_factory=list)    # per escape episode
    search_iteration_counts: list[int] = field(default_factory=list)  # per search episode
    restarts: int = 0
    outcome: str = "failed"        # "recorded" | "failed"
    recorded_kind: str | None = None
    escape_outcome: str | None = None
    rose_above_source: bool | None = None   # g at result vs g at escape source
    episodes: list[str] = field(default_factory=list)
    escape_seconds: float = 0.0
    search_seconds: float = 0.0


@dataclass
class RunReport:
    problem: str
    config: ExplorationConfig
    table: CriticalPointTable
    attempts: list[AttemptStats] = field(default_factory=list)
    dimension: int = 0
    total_seconds: float = 0.0

    def mean_diffusive_steps(self) -> float:
        """Mean diffusive steps per escape episode."""
        counts = [c for a in self.attempts for c in a.diffusive_step_counts]
        return float(np.mean(counts)) if counts else 0.0

    def mean_search_iterations(self) -> float:
        """Mean accepted iterations per local-search episode."""
        counts = [c for a in self.attempts for c in a.search_iteration_counts]
        return float(np.mean(counts)) if counts else 0.0

    def summary(self) -> dict:
        recorded = sum(1 for a in self.attempts if a.outcome == "recorded")
        return {
            "attempts": len(self.attempts),
            "recorded": recorded,
            "distinct_points": len(self.table),
            "distinct_minima": len(self.table.minima()),
            "best_value": self.table.best_value() if self.table.entries else None,
            "mean_diffusive_steps": self.mean_diffusive_steps(),
            "mean_search_iterations": self.mean_search_iterations(),
        }

    def canonical_dict(self, include_timing: bool = True) -> dict:
        d = {
            "problem": self.problem,
            "dimension": self.dimension,
            "config": dataclasses.asdict(self.config),
            "table": [e.as_dict() for e in self.table.entries],
            "dedup_radius": self.table.dedup_radius,
            "attempts": [dataclasses.asdict(a) for a in self.attempts],
            "summary": self.summary(),
        }
        if include_timing:
            d["timing"] = {"total_seconds": self.total_seconds}
        else:
            for attempt in d["attempts"]:
                attempt.pop("escape_seconds")
                attempt.pop("search_seconds")
        return d

    def to_json(self, include_timing: bool = True) -> str:
        return report_json(self.canonical_dict(include_timing))


def report_json(canonical: dict) -> str:
    """The JSON text of a report's canonical dict, the one writer of every
    report.  A numpy scalar, say from a config field, is written as the
    number it holds (``np.generic.item``, which raises TypeError on any
    other value that JSON has no form for).  NaN and infinities, which
    strict JSON has no form for either, raise ValueError."""
    return json.dumps(canonical, sort_keys=True, indent=2, default=np.generic.item,
                      allow_nan=False)


def draw_start(p: Potential, noise: NoiseSource) -> Point:
    """A uniform draw from the search box with finite g and a sane gradient
    (nearly coincident cluster atoms give more), redrawn up to
    _MAX_DRAW_TRIES times: where fresh searches and traces start.  Raises
    EvaluationError when every draw fails."""
    for _ in range(_MAX_DRAW_TRIES):
        try:
            start = evaluate(p, noise.uniform_box(p.search_region))
        except EvaluationError:
            continue
        if np.linalg.norm(start.grad) <= _SANE_GRADIENT:
            return start
    raise EvaluationError(f"no start with finite g and a sane gradient in {_MAX_DRAW_TRIES} draws")


class _Explorer:
    def __init__(self, p: Potential, cfg: ExplorationConfig):
        self.p = p
        self.cfg = cfg
        self.noise = NoiseSource(cfg.seed)
        self.table = CriticalPointTable(default_dedup_radius(p.search_region))

    def _search_and_record(self, search, start: Point,
                           stats: AttemptStats) -> tuple[CriticalPoint, bool] | None:
        """Run ``search`` from ``start`` and record the critical point it converges
        to, with whether it is new; None on failure."""
        t0 = time.perf_counter()
        try:
            result = search(self.p, start, self.cfg.tolerances)
            stats.search_iteration_counts.append(result.iterations)
            if result.outcome != CONVERGED:
                return None
            cp = classify(self.p, result.final, result.grad_tol)
            before = len(self.table)
            return self.table.record(cp), len(self.table) > before
        except (EvaluationError, NotCriticalError):
            return None
        finally:
            stats.search_seconds += time.perf_counter() - t0

    def _fresh_search(self, stats: AttemptStats) -> tuple[CriticalPoint, bool] | None:
        """Minimize from a random point in the search box; None on failure."""
        stats.episodes.append("fresh->minimize")
        try:
            start = draw_start(self.p, self.noise)
        except EvaluationError:
            return None
        return self._search_and_record(minimize, start, stats)

    def _escape_attempt(self, entry: CriticalPoint,
                        stats: AttemptStats) -> tuple[CriticalPoint, bool] | None:
        """Escape from ``entry`` and chase the opposite kind of critical point."""
        from_minimum = entry.kind == KIND_MINIMUM
        stats.source = KIND_MINIMUM if from_minimum else KIND_SADDLE
        stats.episodes.append("minimum->saddle_search" if from_minimum
                              else "saddle->minimize")
        escape, search = ((escape_minimum, saddle_search) if from_minimum
                          else (escape_saddle, minimize))
        t0 = time.perf_counter()
        try:
            esc = escape(self.p, entry.point, self.cfg.diffusion, self.noise)
        except (StepUnderflowError, EvaluationError, InertiaMismatchError):
            return None
        finally:
            stats.escape_seconds += time.perf_counter() - t0
        stats.diffusive_step_counts.append(esc.steps)
        stats.escape_outcome = esc.outcome

        # Even when the diffusion budget ran out we proceed with the search
        # and record whatever critical point results.
        found = self._search_and_record(search, esc.final, stats)
        if found is not None:
            stats.rose_above_source = bool(found[0].value > entry.value)
        return found

    def _attempt(self, stats: AttemptStats) -> CriticalPoint | None:
        """One budgeted attempt of up to max_restarts + 1 episodes, until one
        records a new point.  Each episode is a fresh search when the table
        was empty at the start, else an escape from a random entry (on a
        retry, a different one when there is a choice).  When only known
        points were found, the last stands; when every escape failed
        outright, one fresh search is the fallback."""
        fresh = not self.table.entries
        recorded = previous = None
        for retry in range(self.cfg.max_restarts + 1):
            if retry:
                stats.restarts += 1
            if fresh:
                found = self._fresh_search(stats)
            else:
                entry = select_escape_target(self.table, self.noise)
                if entry is previous and len(self.table) > 1:
                    others = [e for e in self.table.entries if e is not previous]
                    entry = others[self.noise.integer(len(others))]
                found = self._escape_attempt(entry, stats)
                previous = entry
            if found is not None:
                recorded, is_new = found
                if is_new:
                    return recorded
        if recorded is None and not fresh:
            found = self._fresh_search(stats)
            recorded = found[0] if found is not None else None
        return recorded

    def run(self) -> RunReport:
        start = time.perf_counter()
        attempts: list[AttemptStats] = []
        for index in range(1, self.cfg.max_critical_points + 1):
            stats = AttemptStats(index=index, source="fresh")
            recorded = self._attempt(stats)
            if recorded is not None:
                stats.outcome = "recorded"
                stats.recorded_kind = recorded.kind
            attempts.append(stats)
        report = RunReport(self.p.name, self.cfg, self.table, attempts, self.p.dimension)
        report.total_seconds = time.perf_counter() - start
        return report


def explore(p: Potential, cfg: ExplorationConfig) -> RunReport:
    """Run the full exploration loop: seed the table with a minimum found
    from a random start, then repeatedly escape a randomly chosen table
    entry and search for the complementary critical point."""
    return _Explorer(p, cfg).run()
