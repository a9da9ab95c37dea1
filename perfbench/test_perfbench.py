"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q

A fast mode runs every workload at a tiny size through to its checks; each
check is shown to reject a corrupted report; the tracer is shown to leave
reports byte-identical and to restore the program's names.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import ddcid  # noqa: E402
from ddcid import ExplorationConfig, Tolerances, explore, get_potential  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _table(problem, budget, seed=0, **tol):
    report = explore(get_potential(problem), ExplorationConfig(
        max_critical_points=budget, seed=seed, tolerances=Tolerances(**tol)))
    return json.loads(report.to_json(include_timing=False))["table"]


@pytest.fixture(scope="module")
def camel_table():
    table = _table("camel", 40)
    assert checks.check_explorer_table("camel", table) == []
    return table


def _first(table, kind):
    return next(i for i, e in enumerate(table) if e["kind"] == kind)


# --- fast mode ---------------------------------------------------------------

@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_through_its_checks(workload, trace):
    result = run.run_workload(workload, seed=3, seconds=0.0, trace=trace, tiny=True)
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    for name, m in result["metrics"].items():
        assert m["unit"] == next(b["unit"] for b in BENCHMARK[section] if b["name"] == name)
    # correct: every round reproduced the first byte for byte (traced rounds
    # too), and the layers' self times make up the traced runs' measured time.
    assert result["correct"]
    assert result["attempted"] == result["rounds"] * len(workloads.WORKLOADS[workload])
    if workload != "clusters":   # clusters: see FOUND in CHANGES.md
        assert result["failed"] == 0, result["faults"]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "clusters",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode != 0
    assert "{" not in done.stdout


# --- the checks' own formulas agree with the program -------------------------

@pytest.mark.parametrize("problem", ["camel", "shubert", "molei", "boggs", "rosenbrock:50",
                                     "lj:8", "lj:13", "morse:11:3", "morse:11:6"])
def test_reference_objective_matches_the_program(problem):
    p = get_potential(problem)
    f = checks.objective(problem)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(p.search_region[:, 0], p.search_region[:, 1])
        assert f(x) == pytest.approx(p.value(x), rel=1e-11, abs=1e-11)


def test_references_regenerate():
    assert references.shubert_global_value() == pytest.approx(
        checks.REFERENCES["shubert"][0], abs=1e-9)
    for new, (x, y, value, spectrum) in zip(references.camel_catalog(), checks.CAMEL_ROWS):
        assert np.hypot(new[0] - x, new[1] - y) < 1e-4
        assert abs(new[2] - value) < 1e-4
        assert np.max(np.abs(np.array(new[3]) - spectrum)) < 1e-3


# --- each check rejects a corrupted report -----------------------------------

def test_wrong_value_is_rejected(camel_table):
    table = json.loads(json.dumps(camel_table))
    table[0]["value"] += 1e-3
    assert checks.check_values("camel", table)
    assert checks.check_explorer_table("camel", table)


def test_cluster_energy_is_recomputed():
    table = _table("morse:11:3", 3)
    assert checks.check_values("morse:11:3", table) == []
    table[0]["value"] *= 1.0 + 1e-6
    assert checks.check_values("morse:11:3", table)


def test_non_critical_point_is_rejected(camel_table):
    table = json.loads(json.dumps(camel_table))
    e = table[_first(table, "minimum")]
    e["location"] = [e["location"][0] + 1e-2, e["location"][1]]
    e["value"] = float(checks.objective("camel")(np.array(e["location"])))
    assert checks.check_values("camel", table) == []
    assert checks.check_critical("camel", table)


def test_wrong_kind_is_rejected(camel_table):
    table = json.loads(json.dumps(camel_table))
    table[_first(table, "saddle")]["kind"] = "minimum"
    assert checks.check_minima("camel", table)
    assert checks.check_camel_catalog(table)


def test_value_below_the_global_minimum_is_rejected(camel_table):
    table = json.loads(json.dumps(camel_table))
    table[0]["value"] = checks.REFERENCES["camel"][0] - 1e-3
    assert checks.check_global_bound("camel", table)


def test_camel_catalog_mismatch_is_rejected(camel_table):
    table = json.loads(json.dumps(camel_table))
    e = next(e for e in table if np.hypot(e["location"][0] - 0.0898,
                                          e["location"][1] + 0.7127) < 1e-3)
    e["value"] += 2e-4
    assert checks.check_camel_catalog(table)


def test_boggs_zero_off_the_roots_is_rejected():
    table = _table("boggs", 20, rtol=0.0)
    assert checks.check_explorer_table("boggs", table) == []
    table.append({"location": [0.5, 0.5], "value": 0.0, "gradient_norm": 0.0,
                  "inertia": [2, 0, 0], "kind": "minimum", "occurrences": 1})
    assert checks.check_boggs_zeros(table)


def test_baseline_checks_pass_and_reject():
    p = get_potential("camel")
    from ddcid import NoiseSource, monte_carlo_descent

    found = [e.as_dict() for e in monte_carlo_descent(p, 5, Tolerances(), NoiseSource(0))]
    assert found and checks.check_baseline_minima("camel", found) == []
    found[0]["value"] = -2.0
    assert checks.check_baseline_minima("camel", found)


# --- tracing -----------------------------------------------------------------

def test_tracing_keeps_reports_byte_identical_and_restores_names():
    import ddcid.explorer as explorer
    import ddcid.local_search as local_search

    before = (explorer.minimize, local_search.eigendecompose, explorer.CriticalPointTable)
    p = get_potential("molei")
    cfg = ExplorationConfig(max_critical_points=6, seed=2)
    plain = explore(p, cfg).to_json(include_timing=False)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = tracer.wrap("explore", explore)(tracer.potential(p), cfg)
    assert traced.to_json(include_timing=False) == plain
    assert (explorer.minimize, local_search.eigendecompose, explorer.CriticalPointTable) == before

    # Every entry after the first fresh one came from an escape episode here.
    episodes = [ep for a in traced.attempts for ep in a.episodes]
    assert episodes.count("fresh->minimize") == 1
    assert tracer.counts["escape_new_points"] == len(traced.table) - 1


def test_self_time_is_duration_minus_children():
    spans = [("explore", 0, 100, -1), ("minimize", 10, 60, 0), ("gradient", 20, 30, 1),
             ("value", 70, 75, 0)]
    totals = tracing.span_totals(spans)
    assert totals["explore"]["self_ns"] == 100 - 50 - 5
    assert totals["minimize"]["self_ns"] == 40
    assert totals["minimize"]["busy_ns"] == 50
    assert tracing.layer_self_ns(totals)["potentials"] == 15
    assert tracing.root_ns(spans) == 100


def _traced_round(workload):
    runs = workloads.runs_for(workload, tiny=True)
    rounds = run.Rounds(ddcid, runs, {r.problem: get_potential(r.problem) for r in runs})
    tracer = tracing.Tracer()
    return tracer, rounds.one(tracer)


def test_layers_account_for_the_measured_run_time():
    tracer, outcomes = _traced_round("planar-rosenbrock")
    assert tracer.counts["gradient_repeats"] > 0
    assert run.layers_account_for(tracer, outcomes)


def test_a_span_outside_every_layer_is_caught(monkeypatch):
    tracer, outcomes = _traced_round("planar-rosenbrock")
    for name in ("eigendecompose", "newton_solve"):   # the whole spectral layer
        monkeypatch.delitem(tracing.LAYER_OF, name)
    assert not run.layers_account_for(tracer, outcomes)


def test_a_run_measured_longer_than_its_spans_is_caught():
    tracer, outcomes = _traced_round("planar-rosenbrock")
    outcomes[0].seconds += 0.1
    assert not run.layers_account_for(tracer, outcomes)


def test_the_repeat_check_is_booked_to_tracing():
    tracer, _ = _traced_round("planar-rosenbrock")
    gradients = sum(1 for s in tracer.spans if s[0] == "gradient")
    assert sum(1 for s in tracer.spans if s[0] == "probe") == gradients > 0
    assert tracing.layer_metrics(tracer, Counter())["tracing.self_s"] > 0
