"""Benchmark objective functions and the potential abstraction.

Every potential bundles the objective g, its gradient, its Hessian, and a
default box used for random initialization.  Gradients are analytic
everywhere and take one point; so are Hessians, except for the cluster
energies, whose Hessian is a forward difference of the analytic gradient,
with the point and its shifted copies evaluated in one stacked call.  Cluster
energies are expressed in reduced coordinates with the rigid-body degrees of
freedom pinned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

MIN_PAIR_DISTANCE = 1e-8      # below this, cluster energies error out
_EXP_ARG_LIMIT = 500.0        # exp argument bound keeping doubles finite
_FD_STEP = math.sqrt(np.finfo(float).eps)   # cluster Hessian step, times max(1, |x|_inf)


class EvaluationError(ValueError):
    """The potential cannot be evaluated at the requested point."""


@dataclass
class Potential:
    """Evaluator bundle for an objective: g, grad g, Hessian, and the
    axis-aligned search box used for random initialization."""

    dimension: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    search_region: np.ndarray    # shape (n, 2): [:, 0] lower, [:, 1] upper
    name: str = "potential"

    def __post_init__(self):
        self.search_region = np.asarray(self.search_region, dtype=float)
        if self.search_region.shape != (self.dimension, 2):
            raise ValueError("search_region must have shape (dimension, 2)")
        lower, upper = self.search_region.T
        if not (np.isfinite(self.search_region).all() and (lower < upper).all()):
            raise ValueError("search_region needs finite bounds with lower < upper in every row")


# ---------------------------------------------------------------------------
# Analytic 2-D test functions
# ---------------------------------------------------------------------------

def make_molei() -> Potential:
    """g(x, y) = (x^2 - 1)^2 + (x^2 + y - 1)^2.

    Two minima at (+-1, 0) and a saddle at (0, 1).
    """

    def value(p):
        x, y = p
        return (x * x - 1.0) ** 2 + (x * x + y - 1.0) ** 2

    def gradient(p):
        x, y = p
        return np.array([
            4.0 * x * (x * x - 1.0) + 4.0 * x * (x * x + y - 1.0),
            2.0 * (x * x + y - 1.0),
        ])

    def hessian(p):
        x, y = p
        return np.array([
            [24.0 * x * x + 4.0 * y - 8.0, 4.0 * x],
            [4.0 * x, 2.0],
        ])

    region = np.array([[-3.0, 3.0], [-3.0, 3.0]])
    return Potential(2, value, gradient, hessian, region, name="molei")


def _shubert_sum(t: float) -> tuple[float, float, float]:
    """One Shubert factor f(t) = sum_i i*cos((i+1)t + i) with f', f''."""
    f = fp = fpp = 0.0
    for i in range(1, 6):
        arg = (i + 1.0) * t + i
        f += i * math.cos(arg)
        fp -= i * (i + 1.0) * math.sin(arg)
        fpp -= i * (i + 1.0) ** 2 * math.cos(arg)
    return f, fp, fpp


def make_shubert() -> Potential:
    """Separable product of two five-term cosine sums; highly multimodal."""

    def value(p):
        x, y = p
        return _shubert_sum(x)[0] * _shubert_sum(y)[0]

    def gradient(p):
        x, y = p
        fx, fpx, _ = _shubert_sum(x)
        fy, fpy, _ = _shubert_sum(y)
        return np.array([fpx * fy, fx * fpy])

    def hessian(p):
        x, y = p
        fx, fpx, fppx = _shubert_sum(x)
        fy, fpy, fppy = _shubert_sum(y)
        return np.array([[fppx * fy, fpx * fpy], [fpx * fpy, fx * fppy]])

    region = np.array([[-10.0, 10.0], [-10.0, 10.0]])
    return Potential(2, value, gradient, hessian, region, name="shubert")


_BIGGS_T = 0.1 * np.arange(1, 11)
# Data generated by the model at (1, 10); with this choice (1, 10) is an
# exact zero-residual minimum and (16.7047, 16.7047) is a saddle.
_BIGGS_Y = np.exp(-_BIGGS_T) - 5.0 * np.exp(-10.0 * _BIGGS_T)


def make_biggs() -> Potential:
    """Two-exponential least-squares fit g = sum_i (e^{-t_i x1} - 5 e^{-t_i x2} - y_i)^2."""

    def _terms(p):
        x1, x2 = p
        if -_BIGGS_T[-1] * min(x1, x2) > _EXP_ARG_LIMIT:
            raise EvaluationError(f"biggs: exponential overflow at {p!r}")
        e1 = np.exp(-_BIGGS_T * x1)
        e2 = np.exp(-_BIGGS_T * x2)
        r = e1 - 5.0 * e2 - _BIGGS_Y
        return e1, e2, r

    def value(p):
        _, _, r = _terms(p)
        return float(r @ r)

    def gradient(p):
        e1, e2, r = _terms(p)
        d1 = -_BIGGS_T * e1
        d2 = 5.0 * _BIGGS_T * e2
        return np.array([2.0 * float(r @ d1), 2.0 * float(r @ d2)])

    def hessian(p):
        e1, e2, r = _terms(p)
        d1 = -_BIGGS_T * e1
        d2 = 5.0 * _BIGGS_T * e2
        h11 = 2.0 * float(d1 @ d1 + r @ (_BIGGS_T ** 2 * e1))
        h22 = 2.0 * float(d2 @ d2 + r @ (-5.0 * _BIGGS_T ** 2 * e2))
        h12 = 2.0 * float(d1 @ d2)
        return np.array([[h11, h12], [h12, h22]])

    region = np.array([[0.0, 25.0], [0.0, 25.0]])
    return Potential(2, value, gradient, hessian, region, name="biggs")


def make_boggs() -> Potential:
    """g = 0.5 S^T S for the system S(x, y) = (x^2 - y + 1, x - cos(pi y / 2)).

    The three real roots of S are the global minima of g, with value 0.
    The Hessian is J^T J + sum_i S_i Hess(S_i).
    """

    def residual(p):
        x, y = p
        return np.array([x * x - y + 1.0, x - math.cos(0.5 * math.pi * y)])

    def jacobian(p):
        x, y = p
        return np.array([
            [2.0 * x, -1.0],
            [1.0, 0.5 * math.pi * math.sin(0.5 * math.pi * y)],
        ])

    def value(p):
        s = residual(p)
        return 0.5 * float(s @ s)

    def gradient(p):
        return jacobian(p).T @ residual(p)

    def hessian(p):
        s = residual(p)
        j = jacobian(p)
        h = j.T @ j
        h[0, 0] += 2.0 * s[0]
        h[1, 1] += (0.5 * math.pi) ** 2 * math.cos(0.5 * math.pi * p[1]) * s[1]
        return h

    region = np.array([[-5.0, 5.0], [-5.0, 5.0]])
    return Potential(2, value, gradient, hessian, region, name="boggs")


def make_camel() -> Potential:
    """Six-hump camel: (4 - 2.1 x^2 + x^4/3) x^2 + x y + 4 (y^2 - 1) y^2."""

    def value(p):
        x, y = p
        return (4.0 - 2.1 * x * x + x ** 4 / 3.0) * x * x + x * y + 4.0 * (y * y - 1.0) * y * y

    def gradient(p):
        x, y = p
        return np.array([
            8.0 * x - 8.4 * x ** 3 + 2.0 * x ** 5 + y,
            x + 16.0 * y ** 3 - 8.0 * y,
        ])

    def hessian(p):
        x, y = p
        return np.array([
            [8.0 - 25.2 * x * x + 10.0 * x ** 4, 1.0],
            [1.0, 48.0 * y * y - 8.0],
        ])

    region = np.array([[-2.0, 2.0], [-1.0, 1.0]])
    return Potential(2, value, gradient, hessian, region, name="camel")


def make_rosenbrock(n: int) -> Potential:
    """Chained Rosenbrock sum_i 100 (x_{i+1} - x_i^2)^2 + (x_i - 1)^2 with a
    tridiagonal analytic Hessian."""
    if n < 2:
        raise ValueError("rosenbrock needs dimension >= 2")
    idx = np.arange(n)   # the Hessian's index arrays, built once

    def value(x):
        return float((100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2).sum())

    def gradient(x):
        g = np.zeros(n)
        diff = x[1:] - x[:-1] ** 2
        g[:-1] += -400.0 * x[:-1] * diff + 2.0 * (x[:-1] - 1.0)
        g[1:] += 200.0 * diff
        return g

    def hessian(x):
        h = np.zeros((n, n))
        d = np.zeros(n)
        d[:-1] += 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
        d[1:] += 200.0
        off = -400.0 * x[:-1]
        h[idx, idx] = d
        h[idx[:-1], idx[1:]] = off
        h[idx[1:], idx[:-1]] = off
        return h

    region = np.tile([-5.0, 10.0], (n, 1))
    return Potential(n, value, gradient, hessian, region, name=f"rosenbrock:{n}")


# ---------------------------------------------------------------------------
# Atomic cluster potentials in reduced coordinates
# ---------------------------------------------------------------------------

class ClusterCoordinates:
    """Reduced coordinates for d atoms in R^3 with rigid motions pinned:
    atom 1 at the origin, atom 2 on the x axis, atom 3 in the xy plane.

    The free vector is X = (x2, x3, y3, x4, y4, z4, ..., x_d, y_d, z_d),
    of dimension 3d - 6 for d >= 3 and 1 for d = 2.
    """

    def __init__(self, atom_count: int):
        if atom_count < 2:
            raise ValueError("need at least two atoms")
        self.atom_count = atom_count
        self.dimension = 1 if atom_count == 2 else 3 * atom_count - 6
        # Where each free coordinate sits in the flattened (d * 3) positions.
        self._slots = np.array([3, 6, 7] + list(range(9, 3 * atom_count)))[: self.dimension]

    def positions(self, reduced: np.ndarray) -> np.ndarray:
        """Atom positions (d, 3); a stack of coordinate vectors (..., n)
        gives a stack of position arrays (..., d, 3)."""
        reduced = np.asarray(reduced, dtype=float)
        if reduced.shape[-1:] != (self.dimension,):
            got = reduced.shape[-1] if reduced.ndim else "a scalar"
            raise ValueError(f"expected {self.dimension} coordinates, got {got}")
        batch = reduced.shape[:-1]
        flat = np.zeros(batch + (3 * self.atom_count,))
        flat[..., self._slots] = reduced
        return flat.reshape(batch + (self.atom_count, 3))

    def project_forces(self, forces: np.ndarray) -> np.ndarray:
        """Map per-atom gradients (..., d, 3) onto the free coordinates."""
        return forces.reshape(forces.shape[:-2] + (-1,))[..., self._slots]


def _cluster_region(coords: ClusterCoordinates) -> np.ndarray:
    # Box wide enough to hold the equilibrium cluster but dense enough that a
    # random draw usually has interacting atoms.
    half = max(1.5, 0.9 * coords.atom_count ** (1.0 / 3.0))
    return np.tile([-half, half], (coords.dimension, 1))


def _make_cluster_potential(name: str, coords: ClusterCoordinates,
                            pair_value: Callable[[np.ndarray], np.ndarray],
                            pair_deriv: Callable[[np.ndarray], np.ndarray]) -> Potential:
    """Pairwise energy sum over atoms with analytic gradient and a
    forward-difference Hessian (x and its n shifted copies in one stack)."""
    d, n = coords.atom_count, coords.dimension
    iu, ju = np.triu_indices(d, k=1)

    # Flat (atom, axis) slot of every term in the force scatter: -w * sep on
    # atom i for every pair, then +w * sep on atom j for every pair, repeated
    # for each point of the Hessian's stack.  bincount adds each slot's terms
    # in this order, starting from zero, so a point's gradient is
    # bit-identical whether or not it is evaluated in the stack.
    point_slots = (np.concatenate([iu, ju])[:, None] * 3 + np.arange(3)).ravel()
    stack_slots = (np.arange(n + 1)[:, None] * (3 * d) + point_slots).ravel()

    def _distances(pos):
        sep = pos.take(ju, axis=-2) - pos.take(iu, axis=-2)
        sq = sep * sep
        r = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])   # same sum order as np.linalg.norm
        if (r < MIN_PAIR_DISTANCE).any():
            raise EvaluationError(f"{name}: coincident atoms (pair distance below floor)")
        return sep, r

    def _gradients(x, slots):
        # dV/dP_k = sum_j phi'(r_kj) (P_k - P_j) / r_kj, for x (n,) with
        # point_slots or for a stack x (n + 1, n) with stack_slots.
        pos = coords.positions(x)
        sep, r = _distances(pos)
        terms = (pair_deriv(r) / r)[..., None] * sep
        terms = np.concatenate([-terms, terms], axis=-2)
        forces = np.bincount(slots, weights=terms.ravel(), minlength=pos.size)
        return coords.project_forces(forces.reshape(pos.shape))

    def value(x):
        _, r = _distances(coords.positions(x))
        return float(pair_value(r).sum())

    def gradient(x):
        return _gradients(x, point_slots)

    def hessian(x):
        # Row 0 of the stack is x, row k its copy with coordinate k - 1 shifted.
        x = np.asarray(x, dtype=float)
        step = _FD_STEP * max(1.0, float(np.max(np.abs(x))))
        stack = np.tile(x, (n + 1, 1))
        stack[np.arange(1, n + 1), np.arange(n)] += step
        g = _gradients(stack, stack_slots)
        a = ((g[1:] - g[0]) / step).T
        return 0.5 * (a + a.T)

    return Potential(n, value, gradient, hessian, _cluster_region(coords), name=name)


def make_lennard_jones(d: int) -> Potential:
    """Lennard-Jones cluster of d atoms, 4 sum (r^-12 - r^-6), eps = sigma = 1."""
    coords = ClusterCoordinates(d)

    def pair_value(r):
        inv6 = r ** -6.0
        return 4.0 * (inv6 * inv6 - inv6)

    def pair_deriv(r):
        inv7 = r ** -7.0
        return 24.0 * inv7 - 48.0 * inv7 * r ** -6.0

    return _make_cluster_potential(f"lj:{d}", coords, pair_value, pair_deriv)


def make_morse(d: int, rho: float) -> Potential:
    """Morse cluster: sum e^{rho(1-r)} (e^{rho(1-r)} - 2); rho sets the well width."""
    if not (rho > 0 and math.isfinite(rho)):   # also rejects NaN
        raise ValueError("rho must be positive and finite")
    coords = ClusterCoordinates(d)

    def exp_term(r):
        arg = rho * (1.0 - r)
        if np.any(arg > _EXP_ARG_LIMIT):
            raise EvaluationError(f"morse: exponential overflow (rho={rho})")
        return np.exp(arg)

    def pair_value(r):
        e = exp_term(r)
        return e * (e - 2.0)

    def pair_deriv(r):
        e = exp_term(r)
        return -2.0 * rho * e * (e - 1.0)

    return _make_cluster_potential(f"morse:{d}:{rho:g}", coords, pair_value, pair_deriv)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_FIXED_PROBLEMS: dict[str, Callable[[], Potential]] = {
    "molei": make_molei,
    "shubert": make_shubert,
    "biggs": make_biggs,
    "camel": make_camel,
    "boggs": make_boggs,
}


def available_problems() -> list[str]:
    return sorted(_FIXED_PROBLEMS) + ["rosenbrock:<N>", "lj:<d>", "morse:<d>:<rho>"]


def get_potential(key: str) -> Potential:
    """Resolve a registry key such as ``camel``, ``rosenbrock:50``, ``lj:13``
    or ``morse:11:3``."""
    if key in _FIXED_PROBLEMS:
        return _FIXED_PROBLEMS[key]()
    parts = key.split(":")
    try:
        if parts[0] == "rosenbrock" and len(parts) == 2:
            return make_rosenbrock(int(parts[1]))
        if parts[0] == "lj" and len(parts) == 2:
            return make_lennard_jones(int(parts[1]))
        if parts[0] == "morse" and len(parts) == 3:
            return make_morse(int(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise KeyError(f"bad parameters in problem key {key!r}: {exc}") from exc
    raise KeyError(f"unknown problem key {key!r}")
