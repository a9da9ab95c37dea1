import csv
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ddcid.cli import main
from ddcid.diffusion import DiffusionConfig, NoiseSource
from ddcid.explorer import (
    KIND_MINIMUM,
    CriticalPointTable,
    ExplorationConfig,
    RunReport,
    explore,
    report_json,
)
from ddcid.harness import (
    AnnealConfig,
    BenchmarkSpec,
    emit_report,
    metropolis_probability,
    monte_carlo_descent,
    run_benchmark,
    simulated_annealing,
    table_csv_rows,
    white_noise_intermittent_descent,
    write_trajectory_csv,
)
from ddcid.local_search import (
    STEP_UNDERFLOW,
    LocalSearchResult,
    Tolerances,
    evaluate,
    gradient_descent,
)
from ddcid.potentials import EvaluationError, Potential, get_potential, make_molei, make_shubert

CSV_HEADER_2D = ["x1", "x2", "g", "grad_norm", "n_plus", "n_zero", "n_minus",
                 "kind", "occurrences"]


def make_quadratic():
    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    return Potential(2, lambda x: 0.5 * x @ a @ x, lambda x: a @ x, lambda x: a.copy(),
                     np.array([[-4.0, 4.0], [-4.0, 4.0]]), name="quad")


# --- simulated annealing ---------------------------------------------------------

def test_metropolis_downhill_always_accepted():
    assert metropolis_probability(2.0, 1.0, 1e-9) == 1.0
    assert metropolis_probability(2.0, 1.999, 1e-9) == 1.0


def test_metropolis_uphill_vanishes_at_zero_temperature():
    for t in (1e-2, 1e-4, 1e-8):
        assert metropolis_probability(1.0, 2.0, t) <= math.exp(-1.0 / t)
    assert metropolis_probability(1.0, 2.0, 1e-300) == 0.0


def test_metropolis_acceptance_frequency():
    delta, t = 0.7, 1.3
    expected = math.exp(-delta / t)
    noise = NoiseSource(17)
    trials = 10000
    accepted = sum(metropolis_probability(0.0, delta, t) > noise.uniform(0.0, 1.0)
                   for _ in range(trials))
    sigma = math.sqrt(trials * expected * (1 - expected))
    assert abs(accepted - trials * expected) <= 3 * sigma


def test_annealing_temperature_schedule_positive():
    cfg = AnnealConfig()
    assert cfg.temperature(0.0) == 1.0
    assert cfg.temperature(0.5) == 0.5
    assert cfg.temperature(0.99) > 0.0
    assert cfg.temperature(1.0) > 0.0


def test_annealing_finds_molei_minimum():
    p = make_molei()
    cfg = AnnealConfig(neighbor_scale=0.3, iteration_budget=20000)
    hits = 0
    for seed in range(5):
        result = simulated_annealing(p, cfg, NoiseSource(seed))
        hits += result.point.value < 1e-2
    assert hits >= 3


def test_annealing_skips_proposals_whose_value_is_not_finite():
    # g = -inf right of x = 0.5 would be the best value of all; a proposal
    # there is skipped, not accepted, so the best point stays on the left.
    # The start is drawn left of it, near the minimum at 0.
    quad = make_quadratic()
    p = Potential(2, lambda x: -math.inf if x[0] > 0.5 else quad.value(x), quad.gradient,
                  quad.hessian, np.array([[-4.0, 0.5], [-4.0, 4.0]]), name="cliff")
    result = simulated_annealing(p, AnnealConfig(iteration_budget=500), NoiseSource(0))
    assert math.isfinite(result.point.value) and result.point.x[0] <= 0.5
    assert result.accepted_moves > 0


# --- Monte-Carlo gradient descent --------------------------------------------------

def test_mc_descent_quadratic_single_minimum():
    found = monte_carlo_descent(make_quadratic(), 10, Tolerances(max_iterations=2000),
                                NoiseSource(3))
    assert len(found) == 1
    assert np.linalg.norm(found[0].location) < 1e-6
    assert found[0].kind == KIND_MINIMUM


def test_mc_descent_molei_finds_both_minima():
    p = make_molei()
    hits = 0
    for seed in range(5):
        found = monte_carlo_descent(p, 20, Tolerances(max_iterations=3000),
                                    NoiseSource(seed))
        mins = [e.location for e in found if e.kind == KIND_MINIMUM]
        both = (any(np.linalg.norm(m - [1, 0]) < 1e-4 for m in mins) and
                any(np.linalg.norm(m - [-1, 0]) < 1e-4 for m in mins))
        hits += both
    assert hits >= 3


def test_mc_descent_shubert_finds_several_minima():
    p = make_shubert()
    hits = 0
    for seed in range(5):
        found = monte_carlo_descent(p, 20, Tolerances(max_iterations=3000),
                                    NoiseSource(seed))
        hits += len([e for e in found if e.kind == KIND_MINIMUM]) >= 5
    assert hits >= 3


def test_white_noise_cycle_after_a_non_finite_gradient_starts_from_a_uniform_draw(monkeypatch):
    # g = x^2 whose gradient is NaN for |x| > 0.2; the box is [-0.1, 0.1].
    # A burst that reaches the NaN region must not hand a NaN point to the
    # next descent: it raises, and the next cycle draws a fresh start.
    p = Potential(1, lambda x: x[0] ** 2,
                  lambda x: np.array([2.0 * x[0] if abs(x[0]) <= 0.2 else math.nan]),
                  lambda x: np.array([[2.0]]), np.array([[-0.1, 0.1]]), name="nan-outside")
    starts = []

    def descent(p, x0, tol=None):
        starts.append(float(np.asarray(x0)[0]))
        return gradient_descent(p, x0, tol)

    monkeypatch.setattr("ddcid.harness.gradient_descent", descent)
    white_noise_intermittent_descent(p, 6, NoiseSource(1), Tolerances())
    assert len(starts) == 6
    assert all(math.isfinite(x) for x in starts), starts


def test_white_noise_baseline_molei():
    p = make_molei()
    found = white_noise_intermittent_descent(p, 10, NoiseSource(0),
                                             Tolerances(max_iterations=3000))
    assert found
    assert min(e.value for e in found) < 1e-6


# --- run_benchmark ------------------------------------------------------------------

def test_run_benchmark_unknown_problem():
    with pytest.raises(KeyError):
        run_benchmark(BenchmarkSpec(problem="nope"))


def test_benchmark_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        BenchmarkSpec(problem="molei", repetitions=0)
    with pytest.raises(ValueError):
        BenchmarkSpec(problem="molei", method="magic")
    # The output format is checked where the report is written.
    report = RunReport("molei", ExplorationConfig(), CriticalPointTable(1e-4), dimension=2)
    with pytest.raises(ValueError):
        emit_report(report, "xml", str(tmp_path / "report.xml"))
    assert not (tmp_path / "report.xml").exists()


# --- the settings rules ------------------------------------------------------------

def _spec(**kw):
    return BenchmarkSpec("camel", **kw)


NAN, INF = math.nan, math.inf
# Refused by every number setting, as is None but by target_value (no target).
NOT_NUMBERS = [True, False, "1", np.array(1e-8)]

# Every setting of the five settings classes: (make, field, values refused
# besides NOT_NUMBERS, values accepted and echoed as the numbers they hold).
# NaN passes a `<=` range check and 2.5 a `>= 1` one, then dies in range();
# a bool would be echoed as true or false, and a 0-d array cannot be written.
SETTINGS = [
    (Tolerances, "atol", [0.0, NAN, INF, None], [np.float64(1e-6), np.float32(0.5)]),
    (Tolerances, "rtol", [NAN, INF, None], [0, np.float64(0.0)]),
    (Tolerances, "max_iterations", [NAN, INF, 2.5, 3.0, None], [np.int64(3)]),
    (DiffusionConfig, "alpha", [0.0, NAN, INF, None], [np.float64(0.5), np.float32(2.0)]),
    (DiffusionConfig, "max_diffusive_steps", [NAN, INF, 2.5, 3.0, None], [np.int64(3)]),
    (ExplorationConfig, "max_critical_points", [0, NAN, INF, 2.5, 3.0, None], [np.int64(3)]),
    (ExplorationConfig, "max_restarts", [NAN, INF, 2.5, 3.0, None], [0, np.int64(3)]),
    (ExplorationConfig, "seed", [-1, 1.5, 3.0, None], [0, np.int64(3)]),
    (_spec, "repetitions", [0, 2.5, 3.0, None], [np.int64(3)]),
    (_spec, "mc_starts", [0, -3, 2.5, 3.0, None], [np.int64(3)]),
    (_spec, "target_value", [NAN, INF, -INF], [None, np.float64(-1.5), np.int64(-2)]),
    (_spec, "target_tol", [-1e-3, NAN, INF, None], [0, np.float64(1e-3)]),
    (AnnealConfig, "iteration_budget", [0, 2.5, 3.0, None], [np.int64(3)]),
    (AnnealConfig, "neighbor_scale", [0.0, -0.5, NAN, INF, None], [np.float64(0.25)]),
]
# The settings objects that other settings hold.
NESTED = [
    (ExplorationConfig, "tolerances", [None, DiffusionConfig()], [Tolerances(atol=1e-6)]),
    (ExplorationConfig, "diffusion", [None, Tolerances()], [DiffusionConfig(alpha=0.5)]),
    (_spec, "config", [None, Tolerances()], [ExplorationConfig(seed=3)]),
    (_spec, "anneal", [{"iteration_budget": 10}, ExplorationConfig()], [None, AnnealConfig()]),
]


def _rows():
    numbers = [(make, field, refused + NOT_NUMBERS, ok) for make, field, refused, ok in SETTINGS]
    for make, field, refused, accepted in numbers + NESTED:
        owner = "BenchmarkSpec" if make is _spec else make.__name__
        for value, ok in [(v, False) for v in refused] + [(v, True) for v in accepted]:
            name = type(value).__name__ if dataclasses.is_dataclass(value) else repr(value)
            yield pytest.param(make, field, value, ok,
                               id=f"{owner}.{field}={name}-{'accepted' if ok else 'refused'}")


@pytest.mark.parametrize("make, field, value, accepted", _rows())
def test_settings_rules(make, field, value, accepted):
    # Each setting is checked when its object is made, by the count rule, the
    # real rule or a type check, and the ValueError names the field.
    if not accepted:
        with pytest.raises(ValueError, match=field):
            make(**{field: value})
        return
    echoed = json.loads(report_json(dataclasses.asdict(make(**{field: value}))))[field]
    expected = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    assert echoed == expected
    assert type(echoed) is type(value.item() if isinstance(value, np.generic) else expected)


def test_run_benchmark_ddcid_aggregates():
    spec = BenchmarkSpec(problem="molei",
                         config=ExplorationConfig(max_critical_points=4, seed=0),
                         repetitions=3, target_value=0.0, target_tol=1e-6)
    report = run_benchmark(spec)
    assert len(report.reps) == 3
    assert [r["seed"] for r in report.reps] == [0, 1, 2]
    agg = report.aggregate()
    assert agg["best_value"] <= 1e-10
    assert agg["global_hits"] == 3
    assert agg["distinct_minima"] >= 2


def test_run_benchmark_empty_repetition_leaves_aggregate_best():
    # With one short search per repetition, seeds 2 and 4 record nothing.
    # Their best value is null, as for the baselines, so the aggregate is
    # seed 3's and the report is strict JSON.
    spec = BenchmarkSpec(problem="camel", repetitions=3, config=ExplorationConfig(
        max_critical_points=1, seed=2, max_restarts=0,
        tolerances=Tolerances(max_iterations=8)))
    report = run_benchmark(spec)
    assert [r["best_value"] for r in report.reps] == [None, 2.104250310311259, None]
    assert report.aggregate()["best_value"] == 2.104250310311259

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    data = json.loads(report.to_json(), parse_constant=reject)
    assert data["runs"][0]["summary"]["best_value"] is None


def test_run_benchmark_baselines_smoke():
    for method in ("mc_descent", "id_white", "sim_anneal"):
        spec = BenchmarkSpec(problem="molei",
                             config=ExplorationConfig(max_critical_points=5, seed=1),
                             method=method, mc_starts=8,
                             anneal=AnnealConfig(iteration_budget=3000,
                                                 neighbor_scale=0.3))
        report = run_benchmark(spec)
        assert report.reps[0]["best_value"] is not None
        assert report.table is not None


def test_run_benchmark_report_byte_identical():
    spec = BenchmarkSpec(problem="camel",
                         config=ExplorationConfig(max_critical_points=10, seed=7))
    a = run_benchmark(spec).to_json(include_timing=False)
    b = run_benchmark(spec).to_json(include_timing=False)
    assert a == b


# --- emission -----------------------------------------------------------------------

def test_emit_empty_table_header_only(tmp_path):
    report = RunReport("molei", ExplorationConfig(), CriticalPointTable(1e-4),
                       dimension=2)
    path = tmp_path / "empty.csv"
    emit_report(report, "csv", str(path))
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows == [CSV_HEADER_2D]


def test_emit_camel_table_rows(tmp_path):
    rep = explore(get_potential("camel"), ExplorationConfig(max_critical_points=100, seed=0))
    path = tmp_path / "camel.csv"
    emit_report(rep, "csv", str(path))
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == CSV_HEADER_2D
    assert len(rows) - 1 == len(rep.table)
    assert len(rows) - 1 >= 14
    kinds = {row[7] for row in rows[1:]}
    assert {"minimum", "saddle", "maximum"} <= kinds
    # values round-trip exactly through repr
    for row, entry in zip(rows[1:], rep.table.entries):
        assert float(row[2]) == entry.value
        assert int(row[8]) == entry.occurrences


def test_emit_json_round_trip(tmp_path):
    rep = explore(get_potential("molei"), ExplorationConfig(max_critical_points=4, seed=11))
    path = tmp_path / "molei.json"
    emit_report(rep, "json", str(path))
    assert json.loads(path.read_text()) == rep.canonical_dict()


def test_benchmark_report_writes_numpy_scalars_as_their_numbers():
    texts = [run_benchmark(BenchmarkSpec("molei", ExplorationConfig(max_critical_points=2),
                                         repetitions=reps, target_value=target))
             .to_json(include_timing=False)
             for reps, target in ((np.int64(1), np.float32(0.5)), (1, 0.5))]
    assert texts[0] == texts[1]


def test_emit_report_leaves_no_file_when_the_report_cannot_be_serialized(tmp_path):
    spec = BenchmarkSpec("molei", ExplorationConfig(max_critical_points=2),
                         target_value=Fraction(1, 2))
    report = run_benchmark(spec)
    path = tmp_path / "report.json"
    with pytest.raises(TypeError):
        emit_report(report, "json", str(path))
    assert not path.exists()


def test_table_csv_rows_shape():
    table = CriticalPointTable(1e-4)
    header, rows = table_csv_rows(table.entries, 3)
    assert header[:3] == ["x1", "x2", "x3"]
    assert rows == []


def test_write_trajectory_csv(tmp_path):
    from ddcid.diffusion import DiffusionConfig, escape_minimum

    p = make_molei()
    esc = escape_minimum(p, np.array([1.0, 0.0]), DiffusionConfig(), NoiseSource(2))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(esc.trajectory, str(path))
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["step", "x1", "x2", "g", "G", "n_plus", "n_zero", "n_minus"]
    assert len(rows) - 1 == len(esc.trajectory)
    last = rows[-1]
    assert int(last[5]) + int(last[6]) + int(last[7]) == 2


# --- CLI -----------------------------------------------------------------------------

def test_cli_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    assert "camel" in out and "morse:<d>:<rho>" in out


def test_cli_run_writes_json(tmp_path):
    out = tmp_path / "molei.json"
    code = main(["run", "--problem", "molei", "--budget", "4", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["spec"]["problem"] == "molei"
    assert data["aggregate"]["best_value"] < 1e-8


def test_cli_run_csv_and_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("DDCID_OUT_DIR", str(tmp_path))
    code = main(["run", "--problem", "molei", "--budget", "3", "--seed", "2",
                 "--format", "csv", "--out", "table.csv"])
    assert code == 0
    rows = list(csv.reader((tmp_path / "table.csv").read_text().splitlines()))
    assert rows[0] == CSV_HEADER_2D


@pytest.mark.parametrize("args", [
    ["--method", "mc_descent", "--mc-starts", "0"],
    ["--method", "mc_descent", "--mc-starts", "-3"],
    ["--method", "sim_anneal", "--anneal-budget", "0"],
    ["--method", "sim_anneal", "--neighbor-scale", "nan"],
])
def test_cli_out_of_range_baseline_setting_exit_code(tmp_path, capsys, args):
    out = tmp_path / "report.json"
    assert main(["run", "--problem", "camel", "--out", str(out)] + args) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", ["--alpha", "--atol", "--rtol"])
def test_cli_nan_explorer_setting_exit_code(tmp_path, capsys, option):
    out = tmp_path / "report.json"
    assert main(["run", "--problem", "camel", "--budget", "3", "--out", str(out),
                 option, "nan"]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--atol", "inf"],
    ["--rtol", "inf"],
    ["--alpha", "inf"],
    ["--target", "inf"],
    ["--target-tol", "inf"],
    ["--method", "sim_anneal", "--neighbor-scale", "inf"],
])
def test_cli_infinite_setting_exit_code(tmp_path, capsys, args):
    # With --atol inf every search would stop at its start, and the report
    # would hold the start point and an "atol": Infinity no strict JSON
    # parser reads.
    out = tmp_path / "report.json"
    assert main(["run", "--problem", "molei", "--budget", "2", "--out", str(out)] + args) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, value", [
    ("--alpha", "-1e1"), ("--atol", "-inf"), ("--rtol", "-1E-3"), ("--target-tol", "-nan"),
    ("--atol", "-Infinity"), ("--neighbor-scale", "-5e-1"),
])
def test_cli_negative_value_in_exponent_or_word_form_reaches_the_range_check(
        tmp_path, capsys, option, value):
    # argparse takes only "-1" and "-.5" forms for numbers: "--atol -inf"
    # exited 2 with "expected one argument" instead of reaching the check.
    out = tmp_path / "report.json"
    assert main(["run", "--problem", "molei", "--budget", "2", "--out", str(out),
                 option, value]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_negative_target_in_exponent_form_runs(tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", "--problem", "molei", "--budget", "2", "--out", str(out),
                 "--target", "-1e1", "--alpha", "2.5e-1"]) == 0
    spec = json.loads(out.read_text())["spec"]
    assert spec["target_value"] == -10.0 and spec["config"]["diffusion"]["alpha"] == 0.25
    assert main(["run", "--problem", "molei", "--budget", "2", "--out", str(out),
                 "--target=-1e1", "--seed", "-1"]) == 1


@pytest.mark.parametrize("rho", ["nan", "inf"])
def test_cli_non_finite_morse_width_exit_code(tmp_path, capsys, rho):
    out = tmp_path / "report.json"
    assert main(["run", "--problem", f"morse:5:{rho}", "--budget", "2", "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unknown_problem_exit_code(capsys):
    assert main(["run", "--problem", "unknown"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_unwritable_output_exit_code(capsys):
    code = main(["run", "--problem", "molei", "--budget", "2",
                 "--out", "/no/such/directory/report.json"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_trace_rejects_a_negative_seed_by_the_seed_rule(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["trace", "--problem", "molei", "--seed", "-1", "--out", str(out)]) == 1
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_trace(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["trace", "--problem", "molei", "--seed", "3", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][0] == "step"
    assert len(rows) >= 2


def test_cli_trace_redraws_a_start_as_the_explorer_does(tmp_path, monkeypatch):
    # lj:5 seed 1's first uniform draw has |grad g| = 2.45e20; the trace
    # redraws it, as the explorer's fresh searches do, before minimizing.
    p = get_potential("lj:5")
    first = NoiseSource(1).uniform_box(p.search_region)
    assert np.linalg.norm(p.gradient(first)) > 1e8
    starts = []

    def minimize(p, x0, tol=None):
        starts.append(evaluate(p, x0))
        return LocalSearchResult(starts[-1], STEP_UNDERFLOW)

    monkeypatch.setattr("ddcid.cli.minimize", minimize)
    assert main(["trace", "--problem", "lj:5", "--seed", "1",
                 "--out", str(tmp_path / "traj.csv")]) == 1
    [start] = starts
    assert np.linalg.norm(start.grad) <= 1e8


def test_cli_trace_exits_1_when_no_start_can_be_drawn(tmp_path, monkeypatch, capsys):
    def fail(x):
        raise EvaluationError("unusable everywhere")

    broken = Potential(2, fail, fail, fail, np.array([[-1.0, 1.0], [-1.0, 1.0]]), name="broken")
    monkeypatch.setattr("ddcid.cli.get_potential", lambda key: broken)
    assert main(["trace", "--problem", "broken", "--out", str(tmp_path / "traj.csv")]) == 1
    assert "error: no start with finite g" in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()
