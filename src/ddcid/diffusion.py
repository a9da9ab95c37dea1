"""Stochastic basin escaping: colored intermittent diffusion from minima
toward saddles and back, plus the white-noise baseline step."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .local_search import (
    BUDGET_EXHAUSTED,
    MisalignedGradientError,
    Point,
    StepController,
    StepUnderflowError,
    _damped_step,
    double_descent_direction,
    evaluate,
)
from .potentials import Potential
from .spectral import NoPositiveSubspaceError, SpectralInfo, newton_solve

ESCAPED = "escaped"
# Relative gap below which extremal eigenvalues count as repeated.
EIGENVALUE_MULTIPLICITY_TOL = 1e-8


class InertiaMismatchError(ValueError):
    """The point's Hessian inertia does not match the requested escape."""


class NoiseSource:
    """Seeded stream of standard-normal draws; identical seeds reproduce
    identical sequences bit-for-bit."""

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(int(seed))

    def normal(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n)

    def uniform(self, low: float, high: float) -> float:
        return self._gen.uniform(low, high)

    def uniform_box(self, region: np.ndarray) -> np.ndarray:
        region = np.asarray(region, dtype=float)
        return self._gen.uniform(region[:, 0], region[:, 1])

    def integer(self, n: int) -> int:
        return int(self._gen.integers(n))


@dataclass
class DiffusionConfig:
    alpha: float = 1.0                          # kick amplitude
    max_diffusive_steps: int = 50

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:   # also rejects NaN
            raise ValueError("alpha must be positive and finite")
        if not (isinstance(self.max_diffusive_steps, Integral) and self.max_diffusive_steps >= 1):
            raise ValueError("max_diffusive_steps must be an integer >= 1")


@dataclass
class TrajectoryStep:
    index: int
    point: np.ndarray
    value: float
    aux_value: float
    inertia: tuple[int, int, int]
    predictor: np.ndarray | None = None   # deterministic part of the move
    step_size: float | None = None
    predictor_aux: float | None = None    # G at the accepted predictor, if evaluated


@dataclass
class EscapeResult:
    final: Point                  # the last iterate, with its evaluations
    steps: int
    outcome: str
    trajectory: list[TrajectoryStep] = field(default_factory=list)


def _extremal_direction(s: SpectralInfo, which: str, noise: NoiseSource) -> np.ndarray:
    """Extremal eigenvector, or a random unit vector in the extremal
    eigenspace when the eigenvalue is (numerically) repeated."""
    if which not in ("largest", "smallest"):
        raise ValueError(f"which must be 'largest' or 'smallest', got {which!r}")
    lam = s.eigenvalues
    ref = lam[0] if which == "largest" else lam[-1]
    tol = EIGENVALUE_MULTIPLICITY_TOL * max(1.0, abs(ref))
    block = int(np.count_nonzero(np.abs(lam - ref) <= tol))
    cols = s.eigenvectors[:, :block] if which == "largest" else s.eigenvectors[:, lam.size - block:]
    if block == 1:
        return cols[:, 0]
    coeffs = noise.normal(block)
    return cols @ (coeffs / np.linalg.norm(coeffs))


def colored_noise(s: SpectralInfo, which: str, noise: NoiseSource) -> np.ndarray:
    """Rank-one noise sigma W with sigma = -v v^T for the selected extremal
    eigenvector v (random in the eigenspace if the eigenvalue repeats)."""
    v = _extremal_direction(s, which, noise)
    w = noise.normal(v.size)
    return -v * float(v @ w)


def initial_kick(x0: np.ndarray, v: np.ndarray, alpha: float,
                 noise: NoiseSource) -> np.ndarray:
    """x0 + alpha v (v^T W): a random displacement confined to span{v}."""
    x0 = np.asarray(x0, dtype=float)
    v = np.asarray(v, dtype=float)
    w = noise.normal(x0.size)
    return x0 + alpha * v * float(v @ w)


def white_noise_id_step(p: Potential, x: np.ndarray, h: float, sigma: float,
                        noise: NoiseSource) -> np.ndarray:
    """One Euler-Maruyama step x - h grad g + sqrt(h) sigma W of the
    white-noise intermittent-diffusion baseline."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    return x - h * np.asarray(p.gradient(x), dtype=float) + math.sqrt(h) * sigma * noise.normal(x.size)


def _newton_predictor(at: Point):
    """From a minimum: x_hat = x - h H^dagger grad g, which must decrease G."""
    return newton_solve(at.hessian, at.grad), None, at.aux


def _descent_predictor(at: Point):
    """From a saddle: the double-descent step, which must decrease g and G,
    when the gradient has a meaningful positive-subspace component;
    otherwise a gradient step, which must decrease g."""
    try:
        return -double_descent_direction(at.grad, at.spectral), at.value, at.aux
    except (NoPositiveSubspaceError, MisalignedGradientError):
        return at.grad, at.value, None


def _predictor_attempt(p: Potential, x: np.ndarray, direction: np.ndarray,
                       g_bound: float | None, aux_bound: float | None):
    """Attempt at x - h direction for the damped line search, accepted when
    it lowers g below ``g_bound`` and G below ``aux_bound`` (a None bound is
    not evaluated).  Returns the candidate and its G, if evaluated.  A
    candidate equal to x bit for bit raises StepUnderflowError at once:
    every smaller h rounds to x as well, and x passes neither strict test."""
    def attempt(h):
        cand = Point(p, x - h * direction)
        if cand.x.tobytes() == x.tobytes():
            raise StepUnderflowError("predictor step rounds to the current point")
        if g_bound is not None and not cand.value < g_bound:
            return None
        if aux_bound is None:
            return cand.x, None
        return (cand.x, cand.aux) if cand.aux < aux_bound else None
    return attempt


def _escape(p: Potential, x0: Point | np.ndarray, cfg: DiffusionConfig,
            noise: NoiseSource, from_minimum: bool) -> EscapeResult:
    """The escape loop shared by both sides: kick along the extremal
    eigendirection (largest from a minimum, smallest from a saddle), then
    take damped predictor steps, each followed by rank-one noise along that
    direction, until the inertia changes or the diffusive budget runs out."""
    start = evaluate(p, x0)
    s = start.spectral
    if (s.n_minus == 0 and s.n_zero == 0) != from_minimum:
        raise InertiaMismatchError(
            f"escape_minimum needs a strict minimum, got inertia {s.inertia}" if from_minimum
            else f"escape_saddle cannot start from a strict minimum, inertia {s.inertia}")
    which = "largest" if from_minimum else "smallest"
    predictor = _newton_predictor if from_minimum else _descent_predictor
    x = initial_kick(start.x, _extremal_direction(s, which, noise), cfg.alpha, noise)
    trajectory: list[TrajectoryStep] = []
    extra = {}

    while True:
        at = evaluate(p, x)
        s = at.spectral
        steps = len(trajectory) + 1
        trajectory.append(TrajectoryStep(steps, at.x, at.value, at.aux, s.inertia, **extra))
        # From a minimum, stop at the first negative eigenvalue; from a
        # saddle, once none is left.
        if (s.n_minus != 0 if from_minimum else s.n_minus == 0):
            return EscapeResult(at, steps, ESCAPED, trajectory)
        if steps >= cfg.max_diffusive_steps:
            return EscapeResult(at, steps, BUDGET_EXHAUSTED, trajectory)

        if at.aux == 0.0:
            # An exact critical point has no predictor: only noise can move it.
            x = initial_kick(at.x, _extremal_direction(s, which, noise), cfg.alpha, noise)
            extra = {}
        else:
            found = _damped_step(StepController(), _predictor_attempt(p, at.x, *predictor(at)))
            if found is None:
                raise StepUnderflowError("deterministic predictor line search underflowed")
            h, (x_hat, aux_hat) = found
            x = x_hat + cfg.alpha * math.sqrt(h) * colored_noise(s, which, noise)
            extra = dict(predictor=x_hat, step_size=h, predictor_aux=aux_hat)


def escape_minimum(p: Potential, x_min: Point | np.ndarray, cfg: DiffusionConfig,
                   noise: NoiseSource) -> EscapeResult:
    """Leave the basin of a strict minimum via a kick along the dominant
    eigendirection followed by diffused damped-Newton steps.

    Each deterministic predictor x_hat = x - h H^dagger grad g must decrease
    G; rank-one noise along v1 is then added.  Stops at the first iterate
    whose Hessian has a negative eigenvalue, or when the diffusive budget
    runs out.
    """
    return _escape(p, x_min, cfg, noise, from_minimum=True)


def escape_saddle(p: Potential, x_sad: Point | np.ndarray, cfg: DiffusionConfig,
                  noise: NoiseSource) -> EscapeResult:
    """Leave a saddle (or maximum) via a kick along the weakest
    eigendirection followed by diffused descent steps.

    When the gradient has a meaningful positive-subspace component the
    predictor is the double-descent step and both g and G must decrease;
    otherwise the predictor is a gradient step and g must decrease.  Stops
    once the Hessian has no negative eigenvalues or the budget runs out.

    The acceptance tests compare g itself, as ``minimize`` does, not |g|.
    A |g| rule agrees with descent only where g > 0; where g < 0 it rejects
    every descent step and the predictor line search underflows.  The
    paper's abstract does not settle which reading was meant.
    """
    return _escape(p, x_sad, cfg, noise, from_minimum=False)
