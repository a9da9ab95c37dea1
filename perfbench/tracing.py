"""Spans around the program's layers, recorded from outside the program.

The tracer wraps the ``Potential`` callables the benchmark passes in, and
rebinds the names a module looked up from another module (such as
``ddcid.explorer.minimize`` or ``ddcid.local_search.eigendecompose``) to
wrappers that record a span and count outcomes.  Nothing in the program
changes; ``installed`` restores every name on exit.  A name a module no
longer has is skipped, so its time falls to the caller's self time.

Spans are kept in memory as (name, start_ns, end_ns, parent index) and
written out by the caller at the end of the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, deque
from contextlib import contextmanager

import numpy as np

LAYER_OF = {
    "value": "potentials", "gradient": "potentials", "hessian": "potentials",
    "eigendecompose": "spectral", "newton_solve": "spectral",
    "minimize": "local_search", "saddle_search": "local_search",
    "gradient_descent": "local_search",
    "escape_minimum": "diffusion", "escape_saddle": "diffusion",
    "explore": "explorer", "classify": "explorer",
    "monte_carlo_descent": "harness",
    "probe": "tracing",
}
LAYERS = ("potentials", "spectral", "local_search", "diffusion", "explorer", "harness",
          "tracing")
RECENT_POINTS = 8   # window of gradient points for gradient_repeats


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.failures: Counter = Counter()    # (span name, exception class) -> calls
        self.counts: Counter = Counter()      # outcomes observed at the boundaries
        self._stack = [-1]
        self._recent: deque = deque(maxlen=RECENT_POINTS)
        # Which kind of episode a table entry belongs to: "escape" from the
        # escape call until the next search starts a new episode, else "fresh".
        self._episode = "fresh"
        self._search_follows_escape = False

    def wrap(self, name, fn, before=None, observe=None, probe=None):
        """``fn`` inside a span named ``name``; ``before()`` runs ahead of
        the span and ``observe(result)`` after it.  ``probe(*args)`` is the
        tracer's own measuring work: it runs in a sibling span named
        "probe", so that its cost is booked to the tracing layer rather
        than to the caller or to ``fn``."""
        spans, stack, clock, failures = self.spans, self._stack, time.perf_counter_ns, self.failures

        def traced(*args, **kwargs):
            if before is not None:
                before()
            parent = stack[-1]
            if probe is not None:
                probe_start = clock()
                probe(*args)
                spans.append(("probe", probe_start, clock(), parent))
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                failures[name, type(exc).__name__] += 1
                raise
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    # -- potentials -----------------------------------------------------------

    def potential(self, p):
        """A copy of Potential ``p`` whose value, gradient and Hessian
        calls are spans."""
        from ddcid.potentials import Potential

        recent, counts = self._recent, self.counts

        def repeat_check(x):
            key = np.asarray(x, dtype=float).tobytes()
            if key in recent:
                counts["gradient_repeats"] += 1
            recent.append(key)

        return Potential(p.dimension, self.wrap("value", p.value),
                         self.wrap("gradient", p.gradient, probe=repeat_check),
                         self.wrap("hessian", p.hessian), p.search_region, p.name)

    # -- outcome observers ----------------------------------------------------

    def _search(self, name):
        def before():
            if self._search_follows_escape:
                self._search_follows_escape = False
            else:
                self._episode = "fresh"

        def observe(result):
            self.counts[f"{name}.iterations"] += result.iterations
            self.counts[f"{name}.converged"] += result.outcome == "converged"
        return before, observe

    def _escape(self, name):
        def before():
            self._episode = "escape"
            self._search_follows_escape = False

        def observe(result):
            self._search_follows_escape = True
            self.counts[f"{name}.escaped"] += result.outcome == "escaped"
            self.counts["diffusive_steps"] += result.steps
        return before, observe

    def _table_class(self, base):
        tracer = self

        class TracedTable(base):
            def record(self, cp):
                before = len(self.entries)
                out = super().record(cp)
                if len(self.entries) > before and tracer._episode == "escape":
                    tracer.counts["escape_new_points"] += 1
                return out
        return TracedTable


# (module, name, kind of wrapper) for every cross-module name that is traced.
REBINDINGS = [
    ("explorer", "minimize", "search"),
    ("explorer", "saddle_search", "search"),
    ("explorer", "escape_minimum", "escape"),
    ("explorer", "escape_saddle", "escape"),
    ("explorer", "eigendecompose", "plain"),
    ("explorer", "classify", "plain"),
    ("explorer", "CriticalPointTable", "table"),
    ("local_search", "eigendecompose", "plain"),
    ("local_search", "newton_solve", "plain"),
    ("diffusion", "eigendecompose", "plain"),
    ("diffusion", "newton_solve", "plain"),
    ("harness", "eigendecompose", "plain"),
    ("harness", "gradient_descent", "search"),
]


@contextmanager
def installed(tracer: Tracer):
    """Rebind the program's cross-module names to ``tracer``'s wrappers."""
    def replacement(kind, name, original):
        if kind == "table":
            return tracer._table_class(original)
        hooks = {"search": tracer._search, "escape": tracer._escape}.get(kind)
        return tracer.wrap(name, original, *(hooks(name) if hooks else ()))

    saved = {}
    try:
        for module_name, name, kind in REBINDINGS:
            module = importlib.import_module(f"ddcid.{module_name}")
            if hasattr(module, name):
                original = getattr(module, name)
                saved[module, name] = original
                setattr(module, name, replacement(kind, name, original))
        yield tracer
    finally:
        for (module, name), original in saved.items():
            setattr(module, name, original)


# ---------------------------------------------------------------------------
# Deriving the per-layer numbers
# ---------------------------------------------------------------------------

def span_totals(spans) -> dict[str, dict[str, int]]:
    """Per span name: calls, busy ns (whole duration) and self ns (duration
    minus the part its child spans cover).  Spans nest, so the children of
    a span cover exactly the sum of their durations."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, dict[str, int]] = {}
    for (name, start, end, parent), inner in zip(spans, child_ns):
        t = totals.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        t["calls"] += 1
        t["busy_ns"] += end - start
        t["self_ns"] += end - start - inner
    return totals


def layer_self_ns(totals) -> dict[str, int]:
    """Self time of each layer: the sum over its span names."""
    return {layer: sum(t["self_ns"] for name, t in totals.items() if LAYER_OF.get(name) == layer)
            for layer in LAYERS}


def root_ns(spans) -> int:
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, report_counts: Counter) -> dict[str, float]:
    """Every per-layer metric of one traced round.  ``report_counts`` sums
    the report-derived counts of the round's runs."""
    totals = span_totals(tracer.spans)
    c, fail = tracer.counts, tracer.failures

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def busy_s(name):
        return totals.get(name, {}).get("busy_ns", 0) / 1e9

    def self_s(name):
        return totals.get(name, {}).get("self_ns", 0) / 1e9

    m: dict[str, float] = {f"{layer}.self_s": ns / 1e9
                           for layer, ns in layer_self_ns(totals).items()}

    evaluation_errors = sum(v for (name, exc), v in fail.items()
                            if LAYER_OF.get(name) == "potentials" and exc == "EvaluationError")
    m.update({
        "potentials.value_calls": calls("value"),
        "potentials.gradient_calls": calls("gradient"),
        "potentials.hessian_calls": calls("hessian"),
        "potentials.value_s": busy_s("value"),
        "potentials.gradient_s": busy_s("gradient"),
        "potentials.hessian_s": busy_s("hessian"),
        "potentials.evaluation_errors": evaluation_errors,
        "potentials.gradient_repeats": c["gradient_repeats"],
        "spectral.eigendecompose_calls": calls("eigendecompose"),
        "spectral.eigendecompose_s": busy_s("eigendecompose"),
        "spectral.newton_solve_calls": calls("newton_solve"),
        "spectral.newton_solve_s": busy_s("newton_solve"),
    })
    for name in ("minimize", "saddle_search"):
        m[f"local_search.{name}_calls"] = calls(name)
        m[f"local_search.{name}_self_s"] = self_s(name)
        m[f"local_search.{name}_iterations"] = c[f"{name}.iterations"]
        m[f"local_search.{name}_converged_ratio"] = _ratio(c[f"{name}.converged"], calls(name))
    m["local_search.gradient_descent_calls"] = calls("gradient_descent")
    m["local_search.gradient_descent_self_s"] = self_s("gradient_descent")
    for name in ("escape_minimum", "escape_saddle"):
        m[f"diffusion.{name}_calls"] = calls(name)
        m[f"diffusion.{name}_self_s"] = self_s(name)
        m[f"diffusion.{name}_escaped_ratio"] = _ratio(c[f"{name}.escaped"], calls(name))
    m["diffusion.escape_saddle_underflows"] = fail["escape_saddle", "StepUnderflowError"]
    m["diffusion.diffusive_steps"] = c["diffusive_steps"]
    escapes = calls("escape_minimum") + calls("escape_saddle")
    m.update({
        "explorer.attempts": report_counts["attempts"],
        "explorer.recorded_ratio": _ratio(report_counts["recorded"], report_counts["attempts"]),
        "explorer.new_point_ratio": _ratio(c["escape_new_points"], escapes),
        "explorer.classify_calls": calls("classify"),
        "explorer.not_critical": fail["classify", "NotCriticalError"],
        "explorer.degenerate_entries": report_counts["degenerate_entries"],
        "explorer.entries_outside_region": report_counts["entries_outside_region"],
        "harness.monte_carlo_descent_s": busy_s("monte_carlo_descent"),
        "harness.monte_carlo_minima": report_counts["monte_carlo_minima"],
    })
    return m
