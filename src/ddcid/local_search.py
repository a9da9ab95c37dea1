"""Deterministic local searches: double-descent minimization with gradient
fallback, and damped-Newton saddle search driven by the auxiliary potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .potentials import EvaluationError, Potential
from .spectral import (
    NoPositiveSubspaceError,
    SpectralInfo,
    alignment_ratio,
    eigendecompose,
    newton_solve,
    positive_part_pseudoinverse,
)

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


class MisalignedGradientError(ValueError):
    """Gradient has no meaningful component in the positive eigenspace."""


def alignment_threshold(n: int) -> float:
    """Minimum positive-subspace gradient fraction for double descent."""
    return math.sqrt(n) / 10.0


@dataclass
class StepController:
    """Doubling/halving step-length state machine bounded to
    [MIN_STEP, MAX_STEP] = [2^-26, 2^5]."""

    current_step: float = 1.0

    def __post_init__(self):
        if not (MIN_STEP <= self.current_step <= MAX_STEP):
            raise ValueError("initial step outside [MIN_STEP, MAX_STEP]")

    def accept(self) -> float:
        self.current_step = min(2.0 * self.current_step, MAX_STEP)
        return self.current_step

    def reject(self) -> float:
        self.current_step = max(0.5 * self.current_step, MIN_STEP)
        return self.current_step

    @property
    def at_min(self) -> bool:
        return self.current_step <= MIN_STEP


@dataclass
class Tolerances:
    atol: float = 1e-8
    rtol: float = 1e-8
    max_iterations: int = 500

    def __post_init__(self):
        if self.atol <= 0 or self.rtol < 0:
            raise ValueError("need atol > 0 and rtol >= 0")
        if self.max_iterations < 1:
            raise ValueError("need max_iterations >= 1")

    def gradient_threshold(self, grad0_norm: float) -> float:
        return self.atol + grad0_norm * self.rtol

    def displacement_threshold(self, x0_norm: float) -> float:
        return self.atol + x0_norm * self.rtol


@dataclass
class StepInfo:
    """One accepted iteration, for diagnostics and trajectory dumps."""

    direction: str
    step_size: float
    point: np.ndarray
    previous_point: np.ndarray
    step_vector: np.ndarray       # raw direction v; the move is step_size * v
    value: float
    aux_value: float


@dataclass
class LocalSearchResult:
    final_point: np.ndarray
    iterations: int
    outcome: str
    history: list[StepInfo] = field(default_factory=list)
    final_value: float = math.nan
    final_grad_norm: float = math.nan
    initial_grad_norm: float = math.nan

    @property
    def converged(self) -> bool:
        return self.outcome == CONVERGED


def stopping_criterion(x_k: np.ndarray, x_km1: np.ndarray | None, grad_k: np.ndarray,
                       x0: np.ndarray, grad0: np.ndarray, tol: Tolerances) -> bool:
    """True when iteration should stop.

    Iteration continues as long as both
        ||grad_k|| >= atol + ||grad0|| rtol   and
        ||x_k - x_km1|| >= atol + ||x0|| rtol
    hold; equality continues.  ``x_km1=None`` skips the displacement test.
    """
    if np.linalg.norm(grad_k) < tol.gradient_threshold(np.linalg.norm(grad0)):
        return True
    if x_km1 is None:
        return False
    return bool(np.linalg.norm(x_k - x_km1) < tol.displacement_threshold(np.linalg.norm(x0)))


def double_descent_direction(grad: np.ndarray, s: SpectralInfo) -> np.ndarray:
    """Direction -(H_plus)^dagger grad: simultaneous descent for g and G.

    Requires at least one positive eigenvalue and a gradient fraction in the
    positive eigenspace above sqrt(n)/10; otherwise raises so callers revert
    to plain gradient descent.
    """
    grad = np.asarray(grad, dtype=float)
    ratio = alignment_ratio(s, grad)   # raises ZeroGradientError on grad = 0
    if s.n_plus == 0:
        raise NoPositiveSubspaceError("no positive eigenvalues at this point")
    if ratio <= alignment_threshold(grad.size):
        raise MisalignedGradientError(
            f"positive-subspace gradient fraction {ratio:.3g} below threshold")
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


class _Search:
    """Shared state and iteration of the damped direction-based searches."""

    def __init__(self, p: Potential, x0: np.ndarray, tol: Tolerances | None):
        self.p = p
        self.tol = tol if tol is not None else Tolerances()
        self.ctrl = StepController()
        self.x = np.array(x0, dtype=float)
        self.grad = np.asarray(p.gradient(self.x), dtype=float)
        if not np.isfinite(self.grad).all():
            raise EvaluationError("non-finite gradient at the starting point")
        self.value = float(p.value(self.x))
        self.x0 = self.x.copy()
        self.grad0 = self.grad.copy()
        self.history: list[StepInfo] = []

    @property
    def aux(self) -> float:
        return 0.5 * float(self.grad @ self.grad)

    def done(self, x_prev: np.ndarray | None) -> bool:
        return stopping_criterion(self.x, x_prev, self.grad, self.x0, self.grad0, self.tol)

    def result(self, outcome: str) -> LocalSearchResult:
        return LocalSearchResult(
            final_point=self.x,
            iterations=len(self.history),
            outcome=outcome,
            history=self.history,
            final_value=self.value,
            final_grad_norm=float(np.linalg.norm(self.grad)),
            initial_grad_norm=float(np.linalg.norm(self.grad0)),
        )

    def spectral(self) -> SpectralInfo:
        return eigendecompose(self.p.hessian(self.x))

    def try_step(self, direction_name: str, h: float, v: np.ndarray, accept):
        """Evaluate x + h v; return the step to commit, or None.

        ``accept(h, g_new, grad_new)`` is called once with grad_new=None
        (value-only tests) and, if that passes, once with the gradient.
        """
        candidate = self.x + h * v
        g_new = float(self.p.value(candidate))
        if not math.isfinite(g_new) or not accept(h, g_new, None):
            return None
        grad_new = np.asarray(self.p.gradient(candidate), dtype=float)
        if not np.all(np.isfinite(grad_new)) or not accept(h, g_new, grad_new):
            return None
        return direction_name, v, candidate, g_new, grad_new

    def run(self, next_attempt) -> LocalSearchResult:
        """Iterate to convergence.  Each iteration line-searches the attempt
        ``next_attempt()`` builds at the current point (None when no
        direction exists, which ends the search as a step underflow) and
        commits the accepted step."""
        if self.done(None):
            return self.result(CONVERGED)
        for _ in range(self.tol.max_iterations):
            attempt = next_attempt()
            found = _damped_step(self.ctrl, attempt) if attempt is not None else None
            if found is None:
                return self.result(STEP_UNDERFLOW)
            h, (direction_name, v, candidate, g_new, grad_new) = found
            prev = self.x
            self.x, self.value, self.grad = candidate, g_new, grad_new
            self.ctrl.accept()
            self.history.append(StepInfo(
                direction=direction_name, step_size=h, point=candidate,
                previous_point=prev, step_vector=v, value=g_new, aux_value=self.aux))
            if self.done(prev):
                return self.result(CONVERGED)
        return self.result(BUDGET_EXHAUSTED)


def minimize(p: Potential, x0: np.ndarray, tol: Tolerances | None = None) -> LocalSearchResult:
    """Minimize g by double descent with gradient-descent fallback.

    Double-descent steps must appreciably decrease g (Armijo fraction) and
    strictly decrease the auxiliary potential G.  When the gradient has no
    meaningful positive-subspace component, or damping retries run out, the
    search takes normalized gradient steps (with only the g condition) for
    GRADIENT_FALLBACK_STEPS accepted iterations before retrying.
    """
    st = _Search(p, x0, tol)
    fallback_remaining = 0

    def next_attempt():
        nonlocal fallback_remaining
        grad_norm = float(np.linalg.norm(st.grad))
        gradient_v = -st.grad / grad_norm
        mode, v = DIRECTION_GRADIENT, gradient_v
        slope = grad_norm                      # |v . grad| for the unit gradient step
        if fallback_remaining == 0:
            try:
                v = double_descent_direction(st.grad, st.spectral())
                mode = DIRECTION_DOUBLE_DESCENT
                slope = abs(float(v @ st.grad))
            except (NoPositiveSubspaceError, MisalignedGradientError, EvaluationError):
                fallback_remaining = GRADIENT_FALLBACK_STEPS
        g_cur, aux_cur = st.value, st.aux
        tries = 0

        def accept(h, g_new, grad_new):
            if g_new > g_cur - SUFFICIENT_DECREASE * h * slope:
                return False
            if grad_new is None or mode != DIRECTION_DOUBLE_DESCENT:
                return True
            return 0.5 * float(grad_new @ grad_new) < aux_cur

        def attempt(h):
            nonlocal mode, v, slope, tries, fallback_remaining
            if mode == DIRECTION_DOUBLE_DESCENT and tries == DAMPING_RETRY_BUDGET:
                # Too much damping: revert to gradient descent for a while.
                mode, v, slope = DIRECTION_GRADIENT, gradient_v, grad_norm
                fallback_remaining = GRADIENT_FALLBACK_STEPS
            tries += 1
            step = st.try_step(mode, h, v, accept)
            if step is not None and mode == DIRECTION_GRADIENT and fallback_remaining > 0:
                fallback_remaining -= 1
            return step

        return attempt

    return st.run(next_attempt)


def saddle_search(p: Potential, x0: np.ndarray, tol: Tolerances | None = None) -> LocalSearchResult:
    """Damped Newton iteration on grad g = 0, accepting steps that strictly
    decrease the auxiliary potential G.  Converges to a critical point of
    any index (saddle, maximum, or back to a minimum)."""
    st = _Search(p, x0, tol)

    def next_attempt():
        try:
            v = -newton_solve(p.hessian(st.x), st.grad)
        except EvaluationError:
            return None
        if not np.any(v):
            # Gradient entirely outside range(H): no Newton direction exists.
            return None
        aux_cur = st.aux

        def accept(h, g_new, grad_new):
            return grad_new is None or 0.5 * float(grad_new @ grad_new) < aux_cur

        return lambda h: st.try_step(DIRECTION_NEWTON, h, v, accept)

    return st.run(next_attempt)


def gradient_descent(p: Potential, x0: np.ndarray,
                     tol: Tolerances | None = None) -> LocalSearchResult:
    """Plain normalized gradient descent with the shared step policy; the
    local engine of the Monte-Carlo baseline."""
    st = _Search(p, x0, tol)

    def next_attempt():
        grad_norm = float(np.linalg.norm(st.grad))
        v = -st.grad / grad_norm
        g_cur = st.value

        def accept(h, g_new, grad_new):
            return g_new <= g_cur - SUFFICIENT_DECREASE * h * grad_norm

        return lambda h: st.try_step(DIRECTION_GRADIENT, h, v, accept)

    return st.run(next_attempt)
