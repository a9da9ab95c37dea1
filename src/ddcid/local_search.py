"""Deterministic local searches: double-descent minimization with gradient
fallback, and damped-Newton saddle search driven by the auxiliary potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .potentials import EvaluationError, Potential
from .spectral import SpectralInfo, eigendecompose, newton_solve, positive_part_pseudoinverse

# Armijo fraction for the "appreciable decrease" demanded from g.
SUFFICIENT_DECREASE = 1e-4
# Consecutive halvings of a double-descent step before falling back.
DAMPING_RETRY_BUDGET = 10
# Accepted gradient-descent steps taken before retrying double descent.
GRADIENT_FALLBACK_STEPS = 5
# Bounds of the step length h.
MIN_STEP = 2.0 ** -26
MAX_STEP = 2.0 ** 5

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget_exhausted"
STEP_UNDERFLOW = "step_underflow"

DIRECTION_DOUBLE_DESCENT = "double-descent"
DIRECTION_GRADIENT = "gradient"
DIRECTION_NEWTON = "newton"


class StepUnderflowError(RuntimeError):
    """The step size would drop below its lower bound."""


class StepController:
    """Doubling/halving step-length state machine bounded to
    [MIN_STEP, MAX_STEP] = [2^-26, 2^5], starting at h = 1."""

    def __init__(self):
        self.current_step = 1.0

    def accept(self) -> float:
        self.current_step = min(2.0 * self.current_step, MAX_STEP)
        return self.current_step

    def reject(self) -> float:
        self.current_step = max(0.5 * self.current_step, MIN_STEP)
        return self.current_step

    @property
    def at_min(self) -> bool:
        return self.current_step <= MIN_STEP


def require_count(name: str, value, minimum: int):
    """The count rule: an integer >= minimum, numpy integers too, bools not."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}")
    return value


def require_real(name: str, value, bound: float = -math.inf, strict: bool = True):
    """The real rule: a finite real > bound (>= bound unless strict), numpy reals too, bools not."""
    if isinstance(value, bool) or not (isinstance(value, Real) and math.isfinite(value)
                                       and (value > bound if strict else value >= bound)):
        raise ValueError(f"{name} must be a finite number {'>' if strict else '>='} {bound}")


@dataclass
class Tolerances:
    atol: float = 1e-8
    rtol: float = 1e-8
    max_iterations: int = 500

    def __post_init__(self):
        require_real("atol", self.atol, 0)
        require_real("rtol", self.rtol, 0, strict=False)
        require_count("max_iterations", self.max_iterations, 1)

    def threshold(self, reference_norm: float) -> float:
        """atol + rtol * reference_norm: the starting gradient norm or point norm."""
        return self.atol + reference_norm * self.rtol


class _lazy:
    """A lazy attribute without a lock (functools.cached_property takes one
    before Python 3.12).  The first read stores the value in the instance
    ``__dict__``, which every later read finds ahead of this non-data
    descriptor; a computation that raises stores nothing."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, point, owner=None):
        if point is None:
            return self
        value = point.__dict__[self.name] = self.compute(point)
        return value


@dataclass(eq=False)
class Point:
    """A point x of the potential p whose g, grad g, |grad g|, G =
    |grad g|^2 / 2, Hessian and eigendecomposition are each evaluated once,
    on first use, and shared by every stage the point passes.  A non-finite g
    or grad g raises EvaluationError: the one finiteness rule."""

    p: Potential = field(repr=False)
    x: np.ndarray

    @_lazy
    def value(self) -> float:
        value = float(self.p.value(self.x))
        if not math.isfinite(value):
            raise EvaluationError("non-finite value")
        return value

    @_lazy
    def grad(self) -> np.ndarray:
        grad = np.asarray(self.p.gradient(self.x), dtype=float)
        if not np.isfinite(grad).all():
            raise EvaluationError("non-finite gradient")
        return grad

    @_lazy
    def grad_norm(self) -> float:
        return _norm(self.grad)

    @_lazy
    def aux(self) -> float:
        grad = self.grad
        return 0.5 * float(grad.dot(grad))

    @_lazy
    def hessian(self) -> np.ndarray:
        return self.p.hessian(self.x)

    @_lazy
    def spectral(self) -> SpectralInfo:
        return eigendecompose(self.hessian)


def evaluate(p: Potential, x: Point | np.ndarray) -> Point:
    """x as a Point (a copy of an array; a Point itself) with g and grad g
    evaluated: the boundary each public entry point crosses once.  Raises
    EvaluationError when g or grad g is not finite."""
    at = x if isinstance(x, Point) else Point(p, np.array(x, dtype=float))
    at.value, at.grad   # evaluated here, in this order, or raise here
    return at


@dataclass
class StepInfo:
    """One accepted iteration, for diagnostics and trajectory dumps."""

    direction: str
    step_size: float
    point: np.ndarray
    step_vector: np.ndarray       # raw direction v; the move is step_size * v
    value: float
    aux_value: float


@dataclass
class LocalSearchResult:
    final: Point                  # where the search stopped, with its evaluations
    outcome: str
    history: list[StepInfo] = field(default_factory=list)
    grad_tol: float = math.nan    # the stop threshold on ||grad g||, also the record gate

    iterations = property(lambda self: len(self.history))


def _norm(v: np.ndarray) -> float:
    # What np.linalg.norm computes for a real vector, without its dispatch.
    return math.sqrt(v.dot(v))


def stopping_criterion(grad_norm: float, x: np.ndarray, x_prev: np.ndarray | None,
                       grad_tol: float, step_tol: float) -> bool:
    """True when iteration should stop: the one stop rule of every search.

    Iteration continues as long as both ``grad_norm`` = ||grad g(x)|| >=
    grad_tol and ||x - x_prev|| >= step_tol hold; equality continues.
    ``x_prev=None`` skips the displacement test.  The searches take both
    thresholds from ``Tolerances.threshold``: of ||grad g(x0)|| and of ||x0||.
    """
    return grad_norm < grad_tol or (x_prev is not None and _norm(x - x_prev) < step_tol)


def double_descent_direction(at: Point) -> np.ndarray | None:
    """The one double-descent rule: -(H_plus)^dagger grad g at ``at``, a
    descent direction for both g and G; or None, and callers take gradient
    steps, when grad g is zero or its fraction in the positive eigenspace,
    ||V_plus^T grad g|| / ||grad g||, is at most sqrt(n)/10 (0 with no
    positive eigenvalue).  A Hessian that cannot be evaluated raises."""
    s, grad = at.spectral, at.grad
    if at.grad_norm == 0.0:
        return None
    projected = s.eigenvectors[:, : s.n_plus].T @ grad
    if _norm(projected) / at.grad_norm <= math.sqrt(grad.size) / 10.0:
        return None
    return -positive_part_pseudoinverse(s) @ grad


def _damped_step(ctrl: StepController, attempt):
    """The damped line search every search and escape uses.

    Calls ``attempt(h)`` at the controller's current step h and halves h
    after each rejection, until ``attempt`` returns a candidate.  An attempt
    rejects by returning None or by raising EvaluationError.  Returns
    ``(h, candidate)``, or None when a rejection comes at the lower step
    bound.  Growing the step after an accepted one is left to the caller.
    """
    while True:
        h = ctrl.current_step
        try:
            candidate = attempt(h)
        except EvaluationError:
            candidate = None
        if candidate is not None:
            return h, candidate
        if ctrl.at_min:
            return None
        ctrl.reject()


def _try_step(at: Point, direction_name: str, h: float, v: np.ndarray, slope: float | None):
    """The step to x + h v from ``at`` (with its Point), or None.  Unless
    ``slope`` is None, g must decrease appreciably: g_new <= g -
    SUFFICIENT_DECREASE h slope; the gradient is evaluated only then.  Every
    step but a plain gradient step must also strictly decrease G."""
    new = Point(at.p, at.x + h * v)
    if slope is not None and new.value > at.value - SUFFICIENT_DECREASE * h * slope:
        return None
    evaluate(at.p, new)
    if direction_name != DIRECTION_GRADIENT and not new.aux < at.aux:
        return None
    return direction_name, v, new


def _search(p: Potential, x0: Point | np.ndarray, tol: Tolerances | None,
            next_attempt) -> LocalSearchResult:
    """The damped iteration every search runs from x0 to convergence.  Each
    iteration line-searches the attempt ``next_attempt(at)`` builds at the
    current point ``at`` (None when no direction exists, which ends the
    search as a step underflow) and commits the accepted step."""
    tol = tol if tol is not None else Tolerances()
    ctrl = StepController()
    at = evaluate(p, x0)
    grad_tol, step_tol = tol.threshold(at.grad_norm), tol.threshold(_norm(at.x))
    history: list[StepInfo] = []

    def result(outcome: str) -> LocalSearchResult:
        return LocalSearchResult(at, outcome, history, grad_tol)

    if stopping_criterion(at.grad_norm, at.x, None, grad_tol, step_tol):
        return result(CONVERGED)
    for _ in range(tol.max_iterations):
        attempt = next_attempt(at)
        found = _damped_step(ctrl, attempt) if attempt is not None else None
        if found is None:
            return result(STEP_UNDERFLOW)
        h, (direction_name, v, new) = found
        prev, at = at.x, new
        ctrl.accept()
        history.append(StepInfo(direction_name, h, new.x, v, new.value, new.aux))
        if stopping_criterion(at.grad_norm, at.x, prev, grad_tol, step_tol):
            return result(CONVERGED)
    return result(BUDGET_EXHAUSTED)


def minimize(p: Potential, x0: Point | np.ndarray,
             tol: Tolerances | None = None) -> LocalSearchResult:
    """Minimize g by double descent with gradient-descent fallback.

    Double-descent steps must appreciably decrease g (Armijo fraction) and
    strictly decrease the auxiliary potential G.  While the fallback counter
    is 0, each line search makes DAMPING_RETRY_BUDGET double-descent tries
    when the direction exists (a meaningful positive-subspace component);
    its further tries are normalized gradient steps (with only the g
    condition).  An accepted gradient step sets the counter to
    (counter or GRADIENT_FALLBACK_STEPS) - 1: GRADIENT_FALLBACK_STEPS
    accepted gradient steps, then double descent again.
    """
    fallback = 0   # accepted gradient steps still owed before double descent

    def next_attempt(at):
        try:
            v = double_descent_direction(at) if fallback == 0 else None
        except EvaluationError:   # the Hessian cannot be evaluated
            v = None
        tries = iter([(DIRECTION_DOUBLE_DESCENT, v, abs(float(v.dot(at.grad))))] * DAMPING_RETRY_BUDGET
                     if v is not None else [])
        # Then unit gradient steps, whose slope |v . grad| is ||grad||.
        gradient = (DIRECTION_GRADIENT, -at.grad / at.grad_norm, at.grad_norm)

        def attempt(h):
            nonlocal fallback
            direction_name, v, slope = next(tries, gradient)
            step = _try_step(at, direction_name, h, v, slope)
            if step is not None and direction_name == DIRECTION_GRADIENT:
                fallback = (fallback or GRADIENT_FALLBACK_STEPS) - 1
            return step

        return attempt

    return _search(p, x0, tol, next_attempt)


def saddle_search(p: Potential, x0: Point | np.ndarray,
                  tol: Tolerances | None = None) -> LocalSearchResult:
    """Damped Newton iteration on grad g = 0, accepting steps that strictly
    decrease the auxiliary potential G.  Converges to a critical point of
    any index (saddle, maximum, or back to a minimum)."""

    def next_attempt(at):
        try:
            v = -newton_solve(at.hessian, at.grad)
        except EvaluationError:
            return None
        if not v.any():
            # Gradient entirely outside range(H): no Newton direction exists.
            return None
        return lambda h: _try_step(at, DIRECTION_NEWTON, h, v, None)

    return _search(p, x0, tol, next_attempt)


def gradient_descent(p: Potential, x0: Point | np.ndarray,
                     tol: Tolerances | None = None) -> LocalSearchResult:
    """Plain normalized gradient descent with the shared step policy; the
    local engine of the Monte-Carlo baseline."""

    def next_attempt(at):
        v = -at.grad / at.grad_norm
        return lambda h: _try_step(at, DIRECTION_GRADIENT, h, v, at.grad_norm)

    return _search(p, x0, tol, next_attempt)
