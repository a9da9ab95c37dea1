import itertools
import math

import numpy as np
import pytest

from ddcid.local_search import (
    BUDGET_EXHAUSTED,
    CONVERGED,
    DIRECTION_DOUBLE_DESCENT,
    DIRECTION_GRADIENT,
    STEP_UNDERFLOW,
    MisalignedGradientError,
    Point,
    StepController,
    Tolerances,
    _damped_step,
    alignment_threshold,
    double_descent_direction,
    evaluate,
    gradient_descent,
    minimize,
    saddle_search,
    stopping_criterion,
)
from ddcid.potentials import EvaluationError, Potential, make_boggs, make_camel, make_molei
from ddcid.spectral import NoPositiveSubspaceError, eigendecompose

CAMEL_MINIMA = [
    (0.0898, -0.7127), (-0.0898, 0.7127), (1.6071, 0.5687),
    (-1.6071, -0.5687), (1.7036, -0.7961), (-1.7036, 0.7961),
]

BOGGS_SADDLES = [(-0.8898, 1.7671), (-0.3319, 1.1830), (0.4555, 2.4926)]


def make_quadratic(a, region_half=5.0):
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    return Potential(n, lambda x: 0.5 * x @ a @ x, lambda x: a @ x, lambda x: a.copy(),
                     np.tile([-region_half, region_half], (n, 1)), name="quadratic")


def random_spectrum_instance(rng, n, require_positive=True):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.2, 4.0, n) * rng.choice([-1.0, 1.0], n)
    if require_positive and np.all(lam < 0):
        lam[rng.integers(n)] *= -1.0
    h = q @ np.diag(lam) @ q.T
    return 0.5 * (h + h.T)


# --- Point -------------------------------------------------------------------

def counted_camel(calls, fail=None, how="nan"):
    """The camel potential, with each value, gradient and Hessian call
    appended by name to ``calls``.  The call named ``fail`` returns NaN
    (``how="nan"``) or raises EvaluationError (``how="raise"``)."""
    base = make_camel()

    def counted(name, fn):
        def call(x):
            calls.append(name)
            if name == fail:
                if how == "raise":
                    raise EvaluationError(f"{name} failed")
                return fn(x) * math.nan
            return fn(x)
        return call

    return Potential(2, counted("value", base.value), counted("gradient", base.gradient),
                     counted("hessian", base.hessian), base.search_region, name="counted-camel")


X_POINT = np.array([0.3, -0.4])


def test_point_evaluates_each_quantity_once_on_first_use(monkeypatch):
    calls, decompositions = [], []

    def counted_eigendecompose(h):
        decompositions.append(h)
        return eigendecompose(h)

    monkeypatch.setattr("ddcid.local_search.eigendecompose", counted_eigendecompose)
    at = Point(counted_camel(calls), X_POINT)
    assert calls == []
    first = [at.value, at.grad, at.aux, at.hessian, at.spectral]
    assert calls == ["value", "gradient", "hessian"]
    assert len(decompositions) == 1
    for _ in range(3):
        assert all(a is b for a, b in zip([at.value, at.grad, at.aux, at.hessian, at.spectral],
                                          first))
    assert evaluate(at.p, at) is at
    assert calls == ["value", "gradient", "hessian"]
    assert len(decompositions) == 1


@pytest.mark.parametrize("how", ["nan", "raise"])
@pytest.mark.parametrize("name, attribute", [("value", "value"), ("gradient", "grad")])
def test_point_caches_no_failed_evaluation(name, attribute, how):
    # A failed g or grad g is not stored: each read calls the potential
    # again and raises again.
    calls = []
    at = Point(counted_camel(calls, fail=name, how=how), X_POINT)
    for reads in (1, 2, 3):
        with pytest.raises(EvaluationError):
            getattr(at, attribute)
        assert calls.count(name) == reads
    assert name not in at.__dict__


def test_evaluate_forces_value_before_gradient():
    calls = []
    evaluate(counted_camel(calls), X_POINT)
    assert calls == ["value", "gradient"]
    # A failed g raises before grad g is evaluated.
    calls.clear()
    with pytest.raises(EvaluationError):
        evaluate(counted_camel(calls, fail="value"), X_POINT)
    assert calls == ["value"]


# --- StepController ----------------------------------------------------------

def test_step_controller_bounds():
    ctrl = StepController()
    assert ctrl.current_step == 1.0
    for _ in range(10):
        ctrl.accept()
    assert ctrl.current_step == 2.0 ** 5
    for _ in range(40):
        ctrl.reject()
    assert ctrl.current_step == 2.0 ** -26
    assert ctrl.at_min


def test_step_controller_invalid_start():
    with pytest.raises(ValueError):
        StepController(current_step=2.0 ** 6)


def test_step_controller_exhaustive_transcripts():
    # Independent reference model of the doubling/halving policy.
    def reference(events):
        h = 1.0
        out = []
        for accepted in events:
            h = min(2.0 * h, 2.0 ** 5) if accepted else max(0.5 * h, 2.0 ** -26)
            out.append(h)
        return out

    for events in itertools.product([True, False], repeat=10):
        ctrl = StepController()
        transcript = [ctrl.accept() if e else ctrl.reject() for e in events]
        assert transcript == reference(events)
        assert all(2.0 ** -26 <= h <= 2.0 ** 5 for h in transcript)


# --- damped line search -------------------------------------------------------

def _raise_evaluation_error(h):
    raise EvaluationError("outside the domain")


@pytest.mark.parametrize("reject", [lambda h: None, _raise_evaluation_error],
                         ids=["returns-none", "raises"])
def test_damped_step_halves_to_the_lower_bound_then_underflows(reject):
    tried = []

    def attempt(h):
        tried.append(h)
        return reject(h)

    assert _damped_step(StepController(), attempt) is None
    assert tried == [2.0 ** -k for k in range(27)]


def test_damped_step_returns_the_first_accepted_candidate():
    tried = []

    def attempt(h):
        tried.append(h)
        if h > 1.0:
            raise EvaluationError("too far")
        return "candidate" if h < 2.0 else None

    ctrl = StepController(current_step=8.0)
    assert _damped_step(ctrl, attempt) == (1.0, "candidate")
    assert tried == [8.0, 4.0, 2.0, 1.0]
    assert ctrl.current_step == 1.0     # growing the step is the caller's business


# --- stopping criterion ------------------------------------------------------

def test_stopping_zero_gradient():
    tol = Tolerances()
    x = np.ones(2)
    grad_tol, step_tol = tol.threshold(np.linalg.norm(np.ones(2))), tol.threshold(np.linalg.norm(x))
    assert stopping_criterion(np.zeros(2), x, x + 1.0, grad_tol, step_tol)


def test_stopping_no_displacement():
    tol = Tolerances()
    x = np.ones(2)
    grad_tol, step_tol = tol.threshold(np.linalg.norm(np.ones(2))), tol.threshold(np.linalg.norm(x))
    assert stopping_criterion(np.ones(2), x, x, grad_tol, step_tol)


def test_stopping_boundary_continues():
    tol = Tolerances(atol=1e-3, rtol=0.1)
    grad0 = np.array([1.0, 0.0])
    threshold = tol.atol + np.linalg.norm(grad0) * tol.rtol
    grad_k = np.array([threshold, 0.0])       # exactly on the boundary
    x0 = np.zeros(2)
    x_k = np.array([10.0, 0.0])
    grad_tol, step_tol = tol.threshold(np.linalg.norm(grad0)), tol.threshold(np.linalg.norm(x0))
    assert grad_tol == threshold
    assert not stopping_criterion(grad_k, x_k, np.zeros(2), grad_tol, step_tol)
    grad_k = np.array([np.nextafter(threshold, 0.0), 0.0])
    assert stopping_criterion(grad_k, x_k, np.zeros(2), grad_tol, step_tol)


def test_search_reports_its_stop_threshold():
    tol = Tolerances(atol=1e-6, rtol=1e-3)
    p = make_camel()
    x0 = np.array([0.3, -0.4])
    result = minimize(p, x0, tol)
    assert result.outcome == CONVERGED
    assert result.grad_tol == tol.threshold(np.linalg.norm(p.gradient(x0)))


# --- double-descent direction -------------------------------------------------

def test_dd_direction_positive_definite_equals_newton():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        h = q @ np.diag(rng.uniform(0.3, 5.0, n)) @ q.T
        h = 0.5 * (h + h.T)
        grad = rng.standard_normal(n)
        v = double_descent_direction(grad, eigendecompose(h))
        newton = -np.linalg.solve(h, grad)
        assert np.linalg.norm(v - newton) <= 1e-8 * max(1.0, np.linalg.norm(newton))


def test_dd_direction_diagonal_example():
    s = eigendecompose(np.diag([2.0, -1.0]))
    v = double_descent_direction(np.array([4.0, 3.0]), s)
    assert np.allclose(v, [-2.0, 0.0], atol=1e-14)


def test_dd_direction_descends_both_potentials():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 10))
        h = random_spectrum_instance(rng, n)
        s = eigendecompose(h)
        grad = rng.standard_normal(n)
        try:
            v = double_descent_direction(grad, s)
        except (MisalignedGradientError, NoPositiveSubspaceError):
            continue
        assert v @ grad < 0.0
        assert v @ h @ grad < 0.0
        checked += 1


def test_dd_direction_signals_fallbacks():
    with pytest.raises(NoPositiveSubspaceError):
        double_descent_direction(np.array([1.0, 1.0]), eigendecompose(-np.eye(2)))
    s = eigendecompose(np.diag([2.0, -1.0]))
    grad = s.eigenvectors[:, 1].copy()    # orthogonal to the positive subspace
    with pytest.raises(MisalignedGradientError):
        double_descent_direction(grad, s)


def test_alignment_threshold_value():
    assert alignment_threshold(4) == pytest.approx(0.2)


# --- minimize ----------------------------------------------------------------

def test_minimize_quadratic_newton_exact():
    p = make_quadratic([[3.0, 1.0], [1.0, 2.0]])
    rng = np.random.default_rng(2)
    for _ in range(10):
        r = minimize(p, rng.uniform(-5, 5, 2))
        assert r.outcome == CONVERGED
        assert r.iterations <= 2
        assert np.linalg.norm(r.final.x) < 1e-7


def test_minimize_at_minimum_returns_immediately():
    p = make_quadratic(np.eye(2))
    r = minimize(p, np.zeros(2))
    assert r.outcome == CONVERGED
    assert r.iterations == 0


def test_minimize_molei_basin():
    # Independent oracle: RK4 integration of dx/dt = -grad g from the same
    # start settles at (1, 0); the search must find the same minimum.
    p = make_molei()
    x = np.array([0.5, 0.5])
    for _ in range(200000):
        k1 = -p.gradient(x)
        k2 = -p.gradient(x + 5e-4 * k1)
        k3 = -p.gradient(x + 5e-4 * k2)
        k4 = -p.gradient(x + 1e-3 * k3)
        x = x + (1e-3 / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.linalg.norm(p.gradient(x)) < 1e-10:
            break
    assert np.linalg.norm(x - [1.0, 0.0]) < 1e-6

    r = minimize(p, np.array([0.5, 0.5]))
    assert r.outcome == CONVERGED
    assert np.linalg.norm(r.final.x - [1.0, 0.0]) < 1e-6


@pytest.mark.parametrize("target", CAMEL_MINIMA)
def test_minimize_camel_recovers_nearby_minima(target):
    p = make_camel()
    rng = np.random.default_rng(int(abs(target[0]) * 1000))
    for _ in range(3):
        start = np.array(target) + rng.uniform(-0.03, 0.03, 2)
        r = minimize(p, start)
        assert r.outcome == CONVERGED
        assert np.linalg.norm(r.final.x - target) < 1e-4 + 1e-4


def strictly_below(b, a):
    # strict decrease, allowing exact ties once the margin is below one ulp
    return b < a or b == a


def test_minimize_monotone_and_double_descent_decreases_aux():
    p = make_camel()
    rng = np.random.default_rng(3)
    for _ in range(10):
        start = rng.uniform(p.search_region[:, 0], p.search_region[:, 1])
        r = minimize(p, start)
        g0 = p.gradient(start)
        prev_aux = 0.5 * g0 @ g0
        prev_val = p.value(start)
        ties = 0
        for h in r.history:
            assert strictly_below(h.value, prev_val)
            ties += h.value == prev_val
            if h.direction == DIRECTION_DOUBLE_DESCENT:
                assert strictly_below(h.aux_value, prev_aux)
            prev_val, prev_aux = h.value, h.aux_value
        # ties can only appear where the Armijo margin underflows, i.e. at
        # the very end of the run
        assert ties <= 2


def test_minimize_accepted_dd_steps_descend_directionally():
    # Finite-difference directional derivatives of g and G along the
    # accepted double-descent direction are negative.
    p = make_camel()
    rng = np.random.default_rng(4)
    eps = 1e-7

    def aux(x):
        g = p.gradient(x)
        return 0.5 * g @ g

    for _ in range(5):
        start = rng.uniform(p.search_region[:, 0], p.search_region[:, 1])
        r = minimize(p, start)
        for h in r.history:
            if h.direction != DIRECTION_DOUBLE_DESCENT:
                continue
            v = h.step_vector / np.linalg.norm(h.step_vector)
            x0 = h.previous_point
            dg = (p.value(x0 + eps * v) - p.value(x0 - eps * v)) / (2 * eps)
            daux = (aux(x0 + eps * v) - aux(x0 - eps * v)) / (2 * eps)
            assert dg < 0.0
            assert daux < 0.0


def test_minimize_gradient_fallback_runs_five_steps():
    # On the y axis near camel's origin saddle the gradient lies almost
    # wholly in the negative eigenspace, so the first step is a gradient
    # step; five of them pass before double descent is tried again.
    p = make_camel()
    start = np.array([0.0, 0.05])
    with pytest.raises(MisalignedGradientError):
        double_descent_direction(p.gradient(start), eigendecompose(p.hessian(start)))
    r = minimize(p, start)
    assert r.outcome == CONVERGED
    assert np.linalg.norm(r.final.x - (-0.0898, 0.7127)) < 1e-4
    assert [h.direction for h in r.history[:6]] == [DIRECTION_GRADIENT] * 5 + [DIRECTION_DOUBLE_DESCENT]


def _hessian_recorder(hessian):
    """A Hessian function that also lists the points it is evaluated at:
    minimize evaluates it only where it tries double descent."""
    points = []

    def recorded(x):
        points.append(x.copy())
        return hessian.copy()
    return points, recorded


def test_minimize_fallback_counter_when_double_descent_is_unavailable():
    # g = -|x|^2 / 2 has no positive curvature anywhere.  Each try of double
    # descent is followed by GRADIENT_FALLBACK_STEPS accepted gradient steps.
    points, hessian = _hessian_recorder(-np.eye(2))
    p = Potential(2, lambda x: -0.5 * x @ x, lambda x: -x, hessian,
                  np.array([[-5.0, 5.0], [-5.0, 5.0]]), name="concave")
    x0 = np.array([1.0, 0.5])
    r = minimize(p, x0, Tolerances(max_iterations=12))
    assert r.outcome == BUDGET_EXHAUSTED
    assert all(h.direction == DIRECTION_GRADIENT for h in r.history)
    tried_at = [x0, r.history[4].point, r.history[9].point]
    assert len(points) == len(tried_at)
    assert all(np.array_equal(a, b) for a, b in zip(points, tried_at))


def test_minimize_fallback_counter_after_damping_retries_run_out():
    # g is linear, so G is constant and no double-descent try can lower it,
    # although the Hessian claims the curvature double descent needs.  Each
    # iteration that tries it makes DAMPING_RETRY_BUDGET tries; the gradient
    # try then runs at h / 2^10, and GRADIENT_FALLBACK_STEPS accepted
    # gradient steps pass before the next such iteration.
    points, hessian = _hessian_recorder(np.eye(1))
    p = Potential(1, lambda x: -x[0], lambda x: np.array([-1.0]), hessian,
                  np.array([[-5.0, 5.0]]), name="linear")
    r = minimize(p, np.zeros(1), Tolerances(max_iterations=12))
    assert r.outcome == BUDGET_EXHAUSTED
    assert all(h.direction == DIRECTION_GRADIENT for h in r.history)
    assert [h.step_size for h in r.history] == [
        2.0 ** -k for k in (10, 9, 8, 7, 6, 15, 14, 13, 12, 11, 20, 19)]
    assert [x[0] for x in points] == [0.0, r.history[4].point[0], r.history[9].point[0]]


def test_minimize_step_underflow():
    region = np.array([[-1.0, 1.0]])
    home = np.array([0.3])

    def value(x):
        if abs(x[0] - home[0]) > 1e-12:
            raise EvaluationError("blocked")
        return 1.0

    p = Potential(1, value, lambda x: np.array([1.0]), lambda x: np.eye(1), region,
                  name="blocked")
    r = minimize(p, home)
    assert r.outcome == STEP_UNDERFLOW


def test_search_rejects_non_finite_starting_gradient():
    p = Potential(1, lambda x: 0.0, lambda x: np.array([np.nan]), lambda x: np.eye(1),
                  np.array([[-1.0, 1.0]]), name="nan-gradient")
    for search in (minimize, saddle_search, gradient_descent):
        with pytest.raises(EvaluationError):
            search(p, np.array([0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_search_rejects_non_finite_starting_value(bad):
    # A finite neighbourhood around a non-finite start: without the check the
    # first Armijo test would compare against a non-finite g.
    start = np.array([0.5])
    p = Potential(1, lambda x: bad if np.array_equal(x, start) else float(x @ x),
                  lambda x: 2.0 * x, lambda x: 2.0 * np.eye(1),
                  np.array([[-1.0, 1.0]]), name="non-finite-start")
    for search in (minimize, saddle_search, gradient_descent):
        with pytest.raises(EvaluationError):
            search(p, start)


def test_minimize_budget_exhausted():
    p = make_camel()
    r = minimize(p, np.array([1.9, 0.9]), Tolerances(atol=1e-300, rtol=0.0, max_iterations=3))
    assert r.outcome == BUDGET_EXHAUSTED
    assert r.iterations == 3


def test_positive_region_line_search_always_succeeds():
    # In a positive-definite region with a nonzero gradient an accepted step
    # exists, so no search may underflow on a smooth convex potential.
    rng = np.random.default_rng(5)
    p = make_quadratic([[2.0, 0.5], [0.5, 1.0]])
    for _ in range(20):
        r = minimize(p, rng.uniform(-5, 5, 2))
        assert r.outcome == CONVERGED
        assert all(h.step_size > 2.0 ** -26 for h in r.history)


# --- saddle search -----------------------------------------------------------

def test_saddle_search_molei():
    p = make_molei()
    r = saddle_search(p, np.array([0.1, 1.1]))
    assert r.outcome == CONVERGED
    assert np.linalg.norm(r.final.x - [0.0, 1.0]) < 1e-6
    assert {step.direction for step in r.history} == {"newton"}


def test_saddle_search_zero_iterations_at_critical_point():
    p = make_molei()
    r = saddle_search(p, np.array([0.0, 1.0]))
    assert r.outcome == CONVERGED
    assert r.iterations == 0


@pytest.mark.parametrize("target", BOGGS_SADDLES)
def test_saddle_search_boggs(target):
    p = make_boggs()
    rng = np.random.default_rng(int(abs(target[0]) * 997))
    hits = 0
    for _ in range(3):
        start = np.array(target) + rng.uniform(-0.03, 0.03, 2)
        r = saddle_search(p, start)
        if r.outcome == CONVERGED and np.linalg.norm(r.final.x - target) < 2e-3:
            hits += 1
    assert hits >= 2


def test_saddle_search_aux_monotone():
    p = make_molei()
    start = np.array([0.3, 0.7])
    r = saddle_search(p, start)
    g0 = p.gradient(start)
    prev = 0.5 * g0 @ g0
    for h in r.history:
        assert h.aux_value < prev
        prev = h.aux_value


# --- gradient descent baseline ------------------------------------------------

def test_gradient_descent_quadratic():
    p = make_quadratic(np.diag([2.0, 0.5]))
    r = gradient_descent(p, np.array([3.0, -4.0]), Tolerances(max_iterations=2000))
    assert r.outcome == CONVERGED
    assert np.linalg.norm(r.final.x) < 1e-6


def test_gradient_descent_uses_gradient_only():
    p = make_molei()
    r = gradient_descent(p, np.array([0.4, 0.2]), Tolerances(max_iterations=5000))
    assert {step.direction for step in r.history} <= {DIRECTION_GRADIENT}
