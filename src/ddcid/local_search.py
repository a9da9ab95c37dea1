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
        if not (self.atol > 0 and self.rtol >= 0):   # also rejects NaN
            raise ValueError("need atol > 0 and rtol >= 0")
        if not self.max_iterations >= 1:
            raise ValueError("need max_iterations >= 1")

    def threshold(self, reference_norm: float) -> float:
        """atol + rtol * reference_norm: the starting gradient norm or point norm."""
        return self.atol + reference_norm * self.rtol


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
    initial_grad_norm: float = math.nan


def stopping_criterion(x_k: np.ndarray, x_km1: np.ndarray | None, grad_k: np.ndarray,
                       x0: np.ndarray, grad0: np.ndarray, tol: Tolerances) -> bool:
    """True when iteration should stop.

    Iteration continues as long as both
        ||grad_k|| >= atol + ||grad0|| rtol   and
        ||x_k - x_km1|| >= atol + ||x0|| rtol
    hold; equality continues.  ``x_km1=None`` skips the displacement test.
    """
    return _should_stop(grad_k, x_k, x_km1, tol.threshold(_norm(grad0)), tol.threshold(_norm(x0)))


def _norm(v: np.ndarray) -> float:
    # What np.linalg.norm computes for a real vector, without its dispatch.
    return math.sqrt(v.dot(v))


def _should_stop(grad: np.ndarray, x: np.ndarray, x_prev: np.ndarray | None,
                 grad_tol: float, step_tol: float) -> bool:
    return _norm(grad) < grad_tol or (x_prev is not None and _norm(x - x_prev) < step_tol)


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
        if not math.isfinite(self.value):
            raise EvaluationError("non-finite value at the starting point")
        self.grad0_norm = _norm(self.grad)
        self.grad_threshold = self.tol.threshold(self.grad0_norm)
        self.step_threshold = self.tol.threshold(_norm(self.x))
        self.aux = 0.5 * float(self.grad @ self.grad)   # G = |grad g|^2 / 2 at x
        self.history: list[StepInfo] = []

    def done(self, x_prev: np.ndarray | None) -> bool:
        return _should_stop(self.grad, self.x, x_prev, self.grad_threshold, self.step_threshold)

    def result(self, outcome: str) -> LocalSearchResult:
        return LocalSearchResult(
            final_point=self.x,
            iterations=len(self.history),
            outcome=outcome,
            history=self.history,
            final_value=self.value,
            initial_grad_norm=self.grad0_norm,
        )

    def spectral(self) -> SpectralInfo:
        return eigendecompose(self.p.hessian(self.x))

    def try_step(self, direction_name: str, h: float, v: np.ndarray,
                 slope: float | None, lower_aux: bool):
        """Evaluate x + h v; return the step (with its g, grad g and G) or None.

        The step needs finite g and grad g.  Unless ``slope`` is None, g must
        decrease appreciably: g_new <= g - SUFFICIENT_DECREASE h slope.  With
        ``lower_aux``, G must also strictly decrease.  The gradient is only
        evaluated once the g test passes.
        """
        candidate = self.x + h * v
        g_new = float(self.p.value(candidate))
        if not math.isfinite(g_new):
            return None
        if slope is not None and g_new > self.value - SUFFICIENT_DECREASE * h * slope:
            return None
        grad_new = np.asarray(self.p.gradient(candidate), dtype=float)
        if not np.isfinite(grad_new).all():
            return None
        aux_new = 0.5 * float(grad_new @ grad_new)
        if lower_aux and not aux_new < self.aux:
            return None
        return direction_name, v, candidate, g_new, grad_new, aux_new

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
            h, (direction_name, v, candidate, g_new, grad_new, aux_new) = found
            prev = self.x
            self.x, self.value, self.grad, self.aux = candidate, g_new, grad_new, aux_new
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
        grad_norm = _norm(st.grad)
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
        tries = 0

        def attempt(h):
            nonlocal mode, v, slope, tries, fallback_remaining
            if mode == DIRECTION_DOUBLE_DESCENT and tries == DAMPING_RETRY_BUDGET:
                # Too much damping: revert to gradient descent for a while.
                mode, v, slope = DIRECTION_GRADIENT, gradient_v, grad_norm
                fallback_remaining = GRADIENT_FALLBACK_STEPS
            tries += 1
            step = st.try_step(mode, h, v, slope, mode == DIRECTION_DOUBLE_DESCENT)
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
        if not v.any():
            # Gradient entirely outside range(H): no Newton direction exists.
            return None
        return lambda h: st.try_step(DIRECTION_NEWTON, h, v, None, True)

    return st.run(next_attempt)


def gradient_descent(p: Potential, x0: np.ndarray,
                     tol: Tolerances | None = None) -> LocalSearchResult:
    """Plain normalized gradient descent with the shared step policy; the
    local engine of the Monte-Carlo baseline."""
    st = _Search(p, x0, tol)

    def next_attempt():
        grad_norm = _norm(st.grad)
        v = -st.grad / grad_norm
        return lambda h: st.try_step(DIRECTION_GRADIENT, h, v, grad_norm, False)

    return st.run(next_attempt)
