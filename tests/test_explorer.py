import dataclasses
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ddcid.diffusion import DiffusionConfig, NoiseSource
from ddcid.explorer import (
    KIND_DEGENERATE,
    KIND_MAXIMUM,
    KIND_MINIMUM,
    KIND_SADDLE,
    CriticalPoint,
    CriticalPointTable,
    ExplorationConfig,
    NotCriticalError,
    classify,
    default_dedup_radius,
    explore,
    kind_from_inertia,
    report_json,
    select_escape_target,
)
from ddcid.local_search import (
    CONVERGED,
    LocalSearchResult,
    StepUnderflowError,
    Tolerances,
    evaluate,
)
from ddcid.potentials import EvaluationError, Potential, get_potential, make_camel, make_molei
from ddcid.spectral import eigendecompose

MOLEI_POINTS = {
    "min+": np.array([1.0, 0.0]),
    "min-": np.array([-1.0, 0.0]),
    "saddle": np.array([0.0, 1.0]),
}


SRC = Path(__file__).resolve().parents[1] / "src"


def run_child(code, timeout=120, **env):
    """Run ``code`` in a fresh interpreter that imports ddcid from src/;
    returns its standard output.  A child still running after ``timeout``
    seconds is killed and fails the test."""
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout, check=True).stdout


def found(table, target, tol=1e-4):
    return any(np.linalg.norm(e.location - target) < tol for e in table.entries)


def make_cp(x, kind=KIND_MINIMUM, value=0.0):
    inertia = {KIND_MINIMUM: (2, 0, 0), KIND_SADDLE: (1, 0, 1),
               KIND_MAXIMUM: (0, 0, 2), KIND_DEGENERATE: (1, 1, 0)}[kind]
    return CriticalPoint(np.asarray(x, dtype=float), value, 1e-10, inertia, kind, None)


# --- classification ------------------------------------------------------------

def test_kind_from_inertia():
    assert kind_from_inertia((3, 0, 0)) == KIND_MINIMUM
    assert kind_from_inertia((0, 0, 3)) == KIND_MAXIMUM
    assert kind_from_inertia((2, 0, 1)) == KIND_SADDLE
    assert kind_from_inertia((2, 1, 0)) == KIND_DEGENERATE


def test_classify_camel_rows():
    p = make_camel()
    cp = classify(p, np.array([0.08984201310, -0.71265640302]))
    assert cp.kind == KIND_MINIMUM
    eig = np.sort(np.linalg.eigvalsh(p.hessian(cp.location)))
    assert np.max(np.abs(eig - [7.6822, 16.4932])) < 1e-3

    cp = classify(p, np.array([1.23022988, 0.16233458]))
    assert cp.kind == KIND_MAXIMUM
    eig = np.sort(np.linalg.eigvalsh(p.hessian(cp.location)))
    assert np.max(np.abs(eig - [-8.0149, -5.9537])) < 1e-3

    cp = classify(p, np.zeros(2))
    assert cp.kind == KIND_SADDLE
    assert cp.inertia[2] == 1


def test_classify_rejects_noncritical():
    with pytest.raises(NotCriticalError):
        classify(make_camel(), np.array([0.5, 0.5]))


def test_classify_rejects_non_finite_gradient():
    # A NaN gradient norm passes a `> grad_tol` test, so with a finite
    # Hessian the point would be classified with a NaN gradient norm.
    base = make_molei()
    p = Potential(2, base.value, lambda x: np.full(2, math.nan), base.hessian,
                  base.search_region, name="molei-nan-gradient")
    for grad_tol in (1e-5, math.inf):
        with pytest.raises(EvaluationError):
            classify(p, MOLEI_POINTS["min+"], grad_tol)


# --- table ----------------------------------------------------------------------

def test_record_deduplicates():
    table = CriticalPointTable(dedup_radius=1e-3)
    table.record(make_cp([0.0, 0.0]))
    entry = table.record(make_cp([1e-5, 0.0]))
    assert len(table) == 1
    assert entry.occurrences == 2


def test_record_separate_points():
    table = CriticalPointTable(dedup_radius=0.1)
    table.record(make_cp([0.0, 0.0]))
    table.record(make_cp([0.2, 0.0]))
    assert len(table) == 2
    assert all(e.occurrences == 1 for e in table.entries)


def test_record_keeps_sharper_representative():
    table = CriticalPointTable(dedup_radius=1e-2)
    blunt = make_cp([1e-3, 0.0])
    blunt.gradient_norm = 1e-6
    table.record(blunt)
    sharp = make_cp([0.0, 0.0])
    sharp.gradient_norm = 1e-12
    entry = table.record(sharp)
    assert entry.occurrences == 2
    assert entry.gradient_norm == 1e-12
    assert np.array_equal(entry.location, [0.0, 0.0])


def test_record_moves_the_evaluations_with_the_sharper_representative():
    p = make_camel()
    table = CriticalPointTable(dedup_radius=1e-2)
    minimum = np.array([0.08984201310, -0.71265640302])
    blunt = table.record(classify(p, minimum + [1e-4, 0.0], grad_tol=math.inf))
    sharp = classify(p, minimum, grad_tol=math.inf)
    assert sharp.gradient_norm < blunt.gradient_norm
    entry = table.record(sharp)
    assert entry is blunt and entry.occurrences == 2
    assert entry.point is sharp.point
    assert np.array_equal(entry.point.x, entry.location)


def test_default_dedup_radius():
    region = np.array([[-2.0, 2.0], [-1.0, 1.0]])
    assert default_dedup_radius(region) == pytest.approx(1e-4 * np.sqrt(20.0))


# --- selection --------------------------------------------------------------------

def test_select_single_entry():
    table = CriticalPointTable(1e-3)
    cp = table.record(make_cp([1.0, 2.0]))
    assert select_escape_target(table, NoiseSource(0)) is cp


def test_select_empty_table_rejected():
    with pytest.raises(ValueError):
        select_escape_target(CriticalPointTable(1e-3), NoiseSource(0))


def test_select_uniform_and_occurrence_independent():
    table = CriticalPointTable(1e-3)
    first = table.record(make_cp([0.0, 0.0]))
    table.record(make_cp([1.0, 0.0]))
    first.occurrences = 1000      # must not bias selection
    noise = NoiseSource(42)
    draws = 10000
    hits = sum(select_escape_target(table, noise) is first for _ in range(draws))
    sigma = 0.5 * np.sqrt(draws)
    assert abs(hits - draws / 2) <= 3 * sigma


# --- explore ------------------------------------------------------------------------

def test_explore_budget_one_single_minimum():
    rep = explore(make_molei(), ExplorationConfig(max_critical_points=1, seed=5))
    assert len(rep.attempts) == 1
    assert len(rep.table) == 1
    assert rep.table.entries[0].kind == KIND_MINIMUM


def test_explore_molei_budget_four():
    hits = 0
    for seed in range(10):
        rep = explore(make_molei(), ExplorationConfig(max_critical_points=4, seed=seed))
        ok = all(found(rep.table, t) for t in MOLEI_POINTS.values())
        hits += ok
        if ok:
            kinds = {}
            for name, target in MOLEI_POINTS.items():
                entry = next(e for e in rep.table.entries
                             if np.linalg.norm(e.location - target) < 1e-4)
                kinds[name] = entry.kind
            assert kinds["min+"] == KIND_MINIMUM
            assert kinds["min-"] == KIND_MINIMUM
            assert kinds["saddle"] == KIND_SADDLE
    assert hits >= 6


def test_explore_alternation_structure():
    rep = explore(make_molei(), ExplorationConfig(max_critical_points=6, seed=3))
    valid = {"fresh->minimize", "minimum->saddle_search", "saddle->minimize"}
    for attempt in rep.attempts:
        assert attempt.episodes
        assert set(attempt.episodes) <= valid
    # first attempt starts fresh; later ones escape
    assert rep.attempts[0].episodes[0] == "fresh->minimize"
    assert any(a.episodes[0] != "fresh->minimize" for a in rep.attempts[1:])


def test_explore_table_entries_are_critical():
    p = make_camel()
    cfg = ExplorationConfig(max_critical_points=20, seed=9)
    rep = explore(p, cfg)
    for e in rep.table.entries:
        assert np.linalg.norm(p.gradient(e.location)) < 1e-5
        s = eigendecompose(p.hessian(e.location))
        assert kind_from_inertia(s.inertia) == e.kind


def test_explore_deterministic_given_seed():
    cfg = ExplorationConfig(max_critical_points=8, seed=21)
    a = explore(make_camel(), cfg)
    b = explore(make_camel(), cfg)
    assert a.to_json(include_timing=False) == b.to_json(include_timing=False)


def test_explore_byte_identical_across_hash_seeds():
    code = ("from ddcid import ExplorationConfig, explore, make_camel\n"
            "print(explore(make_camel(), ExplorationConfig(max_critical_points=6, seed=3))"
            ".to_json(include_timing=False))")
    a = run_child(code, PYTHONHASHSEED="1")
    b = run_child(code, PYTHONHASHSEED="2")
    assert json.loads(a)["table"]
    assert a == b


def test_explore_survives_non_finite_hessians():
    # molei whose Hessian is NaN on the right of x = 0.5.  Classified as if
    # valid, such a point got inertia (0, 2, 0), and the escape from it
    # looped forever drawing a direction in an empty eigenspace; hence the
    # run in a child with a time limit.
    code = """
import json, math
from ddcid import ExplorationConfig, Potential, explore, make_molei
base = make_molei()

def hessian(x):
    return base.hessian(x) * (math.nan if x[0] > 0.5 else 1.0)

p = Potential(2, base.value, base.gradient, hessian, base.search_region, name="molei-nan")
print(explore(p, ExplorationConfig(max_critical_points=4, seed=0)).to_json(include_timing=False))
"""
    report = json.loads(run_child(code, timeout=60))
    assert len(report["attempts"]) == 4
    assert report["table"]
    for entry in report["table"]:
        assert np.isfinite(entry["value"]) and np.isfinite(entry["gradient_norm"])
        assert sum(entry["inertia"]) == 2


@pytest.mark.parametrize("key, budget", [("camel", 20), ("lj:5", 10)])
def test_explore_evaluates_each_point_once(key, budget):
    # Each stage hands its point to the next with the point's g, grad g,
    # Hessian and eigendecomposition: start draw to search, search to
    # classify, table entry to escape, escape to search.
    base = get_potential(key)
    calls = Counter()

    def counted(name, fn):
        def wrapped(x):
            calls[name, np.asarray(x, dtype=float).tobytes()] += 1
            return fn(x)
        return wrapped

    p = Potential(base.dimension, counted("value", base.value),
                  counted("gradient", base.gradient), counted("hessian", base.hessian),
                  base.search_region, base.name)
    explore(p, ExplorationConfig(max_critical_points=budget, seed=0))
    repeats = Counter(name for (name, _), n in calls.items() for _ in range(n - 1))
    assert repeats == Counter()


def test_explore_averages_match_raw_logs():
    rep = explore(make_molei(), ExplorationConfig(max_critical_points=5, seed=2))
    diff = [c for a in rep.attempts for c in a.diffusive_step_counts]
    iters = [c for a in rep.attempts for c in a.search_iteration_counts]
    assert rep.mean_diffusive_steps() == pytest.approx(np.mean(diff))
    assert rep.mean_search_iterations() == pytest.approx(np.mean(iters))
    summary = rep.summary()
    assert summary["mean_diffusive_steps"] == pytest.approx(np.mean(diff))
    assert summary["recorded"] == sum(1 for a in rep.attempts if a.outcome == "recorded")


@pytest.mark.parametrize("max_restarts", [0, 5])
def test_explore_counts_restarts_when_every_fresh_start_fails(max_restarts):
    # No start can be drawn: each fresh try gives up after its draws, and an
    # attempt makes max_restarts + 1 tries, i.e. max_restarts restarts.
    def fail(x):
        raise EvaluationError("unusable everywhere")

    p = Potential(2, fail, fail, fail, np.array([[-1.0, 1.0], [-1.0, 1.0]]), name="broken")
    rep = explore(p, ExplorationConfig(max_critical_points=3, max_restarts=max_restarts))
    assert [a.outcome for a in rep.attempts] == ["failed"] * 3
    assert all(a.restarts == max_restarts for a in rep.attempts)
    assert all(len(a.episodes) == max_restarts + 1 for a in rep.attempts)
    assert json.loads(rep.to_json())["summary"]["best_value"] is None


def test_explore_redraws_starts_with_non_finite_gradient():
    # molei whose gradient is NaN left of x = 0.  A start drawn there is
    # drawn again, not handed to a search that fails on it and costs a restart.
    base = make_molei()

    def gradient(x):
        return base.gradient(x) * (math.nan if x[0] < 0.0 else 1.0)

    p = Potential(2, base.value, gradient, base.hessian, base.search_region, name="molei-half-nan")
    for seed in range(10):
        first = explore(p, ExplorationConfig(max_critical_points=1, seed=seed)).attempts[0]
        assert (first.outcome, first.restarts) == ("recorded", 0)


@pytest.mark.parametrize("max_restarts", [0, 3])
def test_attempt_falls_back_to_one_fresh_search_when_every_escape_fails(monkeypatch,
                                                                       max_restarts):
    def fail(*args):
        raise StepUnderflowError("scripted escape failure")

    monkeypatch.setattr("ddcid.explorer.escape_minimum", fail)
    monkeypatch.setattr("ddcid.explorer.escape_saddle", fail)
    rep = explore(make_molei(), ExplorationConfig(max_critical_points=3, seed=0,
                                                  max_restarts=max_restarts))
    first, *rest = rep.attempts
    assert first.episodes == ["fresh->minimize"] and first.restarts == 0
    for a in rest:
        *escapes, last = a.episodes
        assert len(escapes) == max_restarts + 1
        assert all(e in ("minimum->saddle_search", "saddle->minimize") for e in escapes)
        assert last == "fresh->minimize"
        assert a.restarts == max_restarts
        assert a.diffusive_step_counts == [] and a.escape_outcome is None
        assert len(a.search_iteration_counts) == 1


@pytest.mark.parametrize("above", [False, True])
def test_explorer_records_by_the_threshold_its_search_stopped_on(monkeypatch, above):
    # The gate is the search's own result.grad_tol, here far above what
    # the default Tolerances would give: a converged end point whose
    # gradient norm is within it is recorded, one just above it is not.
    p = make_camel()
    end = evaluate(p, np.array([0.1, -0.7]))
    grad_norm = float(np.linalg.norm(end.grad))
    assert grad_norm > 1e-2
    grad_tol = np.nextafter(grad_norm, 0.0) if above else grad_norm

    def search(p, start, tol):
        return LocalSearchResult(end, 0, CONVERGED, grad_tol=grad_tol)

    monkeypatch.setattr("ddcid.explorer.minimize", search)
    rep = explore(p, ExplorationConfig(max_critical_points=1, max_restarts=0))
    assert [a.outcome for a in rep.attempts] == ["failed" if above else "recorded"]
    assert [e.gradient_norm for e in rep.table.entries] == ([] if above else [grad_norm])


def test_report_json_round_trip():
    rep = explore(make_molei(), ExplorationConfig(max_critical_points=4, seed=8))
    assert json.loads(rep.to_json()) == rep.canonical_dict()


def test_report_json_writes_a_numpy_count_as_its_number():
    # A numpy integer passes the config's count checks, so its report must
    # be written, and as the same text as for the plain int.
    reports = [explore(make_molei(), ExplorationConfig(max_critical_points=n, seed=8))
               for n in (np.int64(2), 2)]
    assert reports[0].to_json(include_timing=False) == reports[1].to_json(include_timing=False)


def test_report_json_rejects_non_finite_numbers():
    # Strict JSON has no NaN or Infinity.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            report_json({"atol": bad})


def test_explore_respects_config_region():
    # restrict to the right half-plane: only the (1, 0) basin is sampled
    p = dataclasses.replace(make_molei(), search_region=np.array([[0.5, 3.0], [-3.0, 3.0]]))
    rep = explore(p, ExplorationConfig(max_critical_points=1, seed=4))
    assert found(rep.table, MOLEI_POINTS["min+"], tol=1e-3)


def test_exploration_config_validation():
    with pytest.raises(ValueError):
        ExplorationConfig(max_critical_points=0)
    with pytest.raises(ValueError):
        Tolerances(atol=0.0)
    with pytest.raises(ValueError):
        DiffusionConfig(alpha=0.0)


@pytest.mark.parametrize("config, field_name", [
    (DiffusionConfig, "alpha"),
    (DiffusionConfig, "max_diffusive_steps"),
    (Tolerances, "atol"),
    (Tolerances, "rtol"),
    (Tolerances, "max_iterations"),
    (ExplorationConfig, "max_critical_points"),
    (ExplorationConfig, "max_restarts"),
])
def test_config_rejects_nan(config, field_name):
    # NaN passes a `<=` range check; with max_diffusive_steps=nan an escape
    # whose inertia never changes would never stop.  An infinite atol ends
    # every search at its start.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            config(**{field_name: bad})


@pytest.mark.parametrize("config, field_name", [
    (DiffusionConfig, "max_diffusive_steps"),
    (Tolerances, "max_iterations"),
    (ExplorationConfig, "max_critical_points"),
    (ExplorationConfig, "max_restarts"),
])
def test_config_rejects_non_integer_counts(config, field_name):
    # 2.5 passes the range check; a run then dies in range(), or takes 3
    # diffusive steps while the report's config says 2.5.
    for bad in (2.5, 3.0):
        with pytest.raises(ValueError):
            config(**{field_name: bad})
    assert getattr(config(**{field_name: np.int64(3)}), field_name) == 3
