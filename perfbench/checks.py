"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``ddcid``.  Every objective is written out again from
its closed form (cluster energies as a plain pair sum), and gradients and
Hessians are taken by central differences of those values.  A check takes a
report's table as the list of entry dicts that ``to_json`` writes, so a test
can corrupt an entry and see the check reject it.
"""

from __future__ import annotations

import math

import numpy as np

# Known global values and the tolerance within which a run's best value
# counts as a hit.  No entry may lie below value - tolerance.
#   camel:   -1.031628453 (analytic minimum, criterion-1 catalog row -1.0316)
#   shubert: product of the extremes of the 1-D factor; references.py
#            recomputes it (-186.7309088310)
#   lj:d     Wales & Doye, J. Phys. Chem. A 101, 5111 (1997)
#   morse    Doye, Wales & Berry, J. Chem. Phys. 103, 4234 (1995), the
#            values the acceptance suite uses for M11 at rho = 3 and 6
#   molei, boggs, rosenbrock: sums of squares whose zeros are known
REFERENCES: dict[str, tuple[float, float]] = {
    "camel": (-1.031628453, 1e-4),
    "shubert": (-186.7309088310, 1e-4),
    "molei": (0.0, 1e-10),
    "boggs": (0.0, 1e-10),
    "rosenbrock:50": (0.0, 1e-6),
    "lj:8": (-19.821489, 1e-3),
    "lj:13": (-44.326801, 1e-3),
    "morse:11:3": (-37.930817, 1e-3),
    "morse:11:6": (-31.521880, 1e-3),
}

# Criterion-1 catalog of the six-hump camel: (x, y, value, Hessian spectrum).
CAMEL_ROWS = [
    (0.0898, -0.7127, -1.0316, (7.6822, 16.4932)),
    (-0.0898, 0.7127, -1.0316, (7.6823, 16.4932)),
    (1.6071, 0.5687, 2.1043, (7.1215, 10.0216)),
    (-1.6071, -0.5687, 2.1043, (7.1215, 10.0216)),
    (1.7036, -0.7961, -0.2155, (18.8171, 22.6975)),
    (-1.7036, 0.7961, -0.2155, (18.8171, 22.6975)),
    (1.2302, 0.1623, 2.4963, (-8.0149, -5.9537)),
    (-1.2302, -0.1623, 2.4963, (-8.0149, -5.9537)),
    (0.0, 0.0, 0.0, (-8.0623, 8.0623)),
    (1.1092, -0.7683, 0.5437, (-7.9026, 20.3667)),
    (-1.1092, 0.7683, 0.5437, (-7.9026, 20.3667)),
    (1.2961, 0.6051, 2.2295, (-6.1772, 9.6376)),
    (-1.2961, -0.6051, 2.2295, (-6.1772, 9.6376)),
    (1.6381, 0.2287, 2.2294, (-5.5458, 12.4367)),
]
CAMEL_MATCH_RADIUS = 1e-3

# Closed-form roots of the Boggs system (x^2 - y + 1, x - cos(pi y / 2)).
BOGGS_ROOTS = [(0.0, 1.0), (-1.0, 2.0), (-math.sqrt(2.0) / 2.0, 1.5)]
BOGGS_ROOT_RADIUS = 1e-4

# An entry's recomputed value must agree to this relative tolerance.
VALUE_RTOL = 1e-9
# Central-difference gradient norm allowed at a recorded critical point,
# relative to max(1, |value|).
GRADIENT_RTOL = 1e-4
# Difference steps.  Every problem here has length scale about 1, also far
# from the origin (a dissociated cluster), so the steps are absolute.
GRADIENT_STEP = 1e-6
HESSIAN_STEP = 1e-4
# A minimum's smallest Hessian eigenvalue may not lie below
# -KIND_RTOL * max(1, largest |eigenvalue|).
KIND_RTOL = 1e-5


# ---------------------------------------------------------------------------
# Objectives, vectorized over stacks of points (..., n)
# ---------------------------------------------------------------------------

def _camel(x):
    a, b = x[..., 0], x[..., 1]
    return (4.0 - 2.1 * a ** 2 + a ** 4 / 3.0) * a ** 2 + a * b + 4.0 * (b ** 2 - 1.0) * b ** 2


def _shubert_factor(t):
    i = np.arange(1, 6, dtype=float)
    return np.sum(i * np.cos((i + 1.0) * t[..., None] + i), axis=-1)


def _shubert(x):
    return _shubert_factor(x[..., 0]) * _shubert_factor(x[..., 1])


def _molei(x):
    a, b = x[..., 0], x[..., 1]
    return (a ** 2 - 1.0) ** 2 + (a ** 2 + b - 1.0) ** 2


def _boggs(x):
    a, b = x[..., 0], x[..., 1]
    return 0.5 * ((a ** 2 - b + 1.0) ** 2 + (a - np.cos(0.5 * math.pi * b)) ** 2)


def _rosenbrock(x):
    return np.sum(100.0 * (x[..., 1:] - x[..., :-1] ** 2) ** 2 + (x[..., :-1] - 1.0) ** 2, axis=-1)


def atom_positions(x, atoms: int):
    """Positions (..., atoms, 3) from reduced coordinates: atom 1 at the
    origin, atom 2 on the x axis, atom 3 in the xy plane, the rest free."""
    x = np.asarray(x, dtype=float)
    pos = np.zeros(x.shape[:-1] + (atoms, 3))
    pos[..., 1, 0] = x[..., 0]
    if atoms > 2:
        pos[..., 2, 0] = x[..., 1]
        pos[..., 2, 1] = x[..., 2]
        pos[..., 3:, :] = x[..., 3:].reshape(x.shape[:-1] + (atoms - 3, 3))
    return pos


def pair_energy(x, atoms: int, pair) -> np.ndarray:
    """Sum of ``pair(r)`` over every pair of atoms, pair by pair."""
    pos = atom_positions(x, atoms)
    total = np.zeros(pos.shape[:-2])
    for i in range(atoms):
        for j in range(i + 1, atoms):
            total = total + pair(np.sqrt(np.sum((pos[..., j, :] - pos[..., i, :]) ** 2, axis=-1)))
    return total


def _lennard_jones_pair(r):
    return 4.0 * (r ** -12 - r ** -6)


def _morse_pair(rho):
    return lambda r: np.exp(rho * (1.0 - r)) * (np.exp(rho * (1.0 - r)) - 2.0)


def objective(problem: str):
    """The benchmark's own value function for a registry key."""
    fixed = {"camel": _camel, "shubert": _shubert, "molei": _molei, "boggs": _boggs}
    if problem in fixed:
        return fixed[problem]
    kind, *params = problem.split(":")
    if kind == "rosenbrock":
        return _rosenbrock
    if kind == "lj":
        atoms = int(params[0])
        return lambda x: pair_energy(x, atoms, _lennard_jones_pair)
    if kind == "morse":
        atoms, rho = int(params[0]), float(params[1])
        return lambda x: pair_energy(x, atoms, _morse_pair(rho))
    raise KeyError(f"no reference objective for {problem!r}")


def cd_gradient(f, x) -> np.ndarray:
    """Central-difference gradient of ``f`` at x."""
    x = np.asarray(x, dtype=float)
    h = GRADIENT_STEP
    shifts = h * np.eye(x.size)
    return (f(x + shifts) - f(x - shifts)) / (2.0 * h)


def cd_hessian(f, x) -> np.ndarray:
    """Central second differences of ``f`` at x, from values only."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = HESSIAN_STEP
    e = h * np.eye(n)
    pp = f(x + e[:, None, :] + e[None, :, :])
    pm = f(x + e[:, None, :] - e[None, :, :])
    mp = f(x - e[:, None, :] + e[None, :, :])
    mm = f(x - e[:, None, :] - e[None, :, :])
    hess = (pp - pm - mp + mm) / (4.0 * h * h)
    return 0.5 * (hess + hess.T)


# ---------------------------------------------------------------------------
# Checks: each returns a list of faults, empty when the output passes
# ---------------------------------------------------------------------------

def check_values(problem: str, entries: list[dict]) -> list[str]:
    f = objective(problem)
    faults = []
    for k, e in enumerate(entries):
        v = float(f(np.asarray(e["location"], dtype=float)))
        if not abs(e["value"] - v) <= VALUE_RTOL * max(1.0, abs(v)):
            faults.append(f"{problem} entry {k}: value {e['value']!r}, recomputed {v!r}")
    return faults


def check_global_bound(problem: str, entries: list[dict]) -> list[str]:
    ref, tol = REFERENCES[problem]
    return [f"{problem} entry {k}: value {e['value']!r} below the global value {ref}"
            for k, e in enumerate(entries) if not e["value"] >= ref - tol]


def check_critical(problem: str, entries: list[dict]) -> list[str]:
    f = objective(problem)
    faults = []
    for k, e in enumerate(entries):
        norm = float(np.linalg.norm(cd_gradient(f, e["location"])))
        if not norm <= GRADIENT_RTOL * max(1.0, abs(e["value"])):
            faults.append(f"{problem} entry {k}: central-difference gradient norm {norm:.3e}")
    return faults


def check_minima(problem: str, entries: list[dict]) -> list[str]:
    f = objective(problem)
    faults = []
    for k, e in enumerate(entries):
        if e["kind"] != "minimum":
            continue
        lam = np.linalg.eigvalsh(cd_hessian(f, e["location"]))
        if lam[0] < -KIND_RTOL * max(1.0, float(np.max(np.abs(lam)))):
            faults.append(f"{problem} entry {k}: called a minimum, smallest eigenvalue {lam[0]:.3e}")
    return faults


def _kind_from_spectrum(spectrum) -> str:
    if min(spectrum) > 0:
        return "minimum"
    return "maximum" if max(spectrum) < 0 else "saddle"


def check_camel_catalog(entries: list[dict]) -> list[str]:
    faults = []
    for k, e in enumerate(entries):
        loc = np.asarray(e["location"], dtype=float)
        for x, y, value, spectrum in CAMEL_ROWS:
            if np.linalg.norm(loc - (x, y)) >= CAMEL_MATCH_RADIUS:
                continue
            lam = np.linalg.eigvalsh(cd_hessian(_camel, loc))
            if (abs(e["value"] - value) >= 1e-4
                    or np.max(np.abs(lam - np.sort(spectrum))) >= 1e-3
                    or e["kind"] != _kind_from_spectrum(spectrum)):
                faults.append(f"camel entry {k} near row ({x}, {y}): value {e['value']!r}, "
                              f"spectrum {lam}, kind {e['kind']}")
    return faults


def check_boggs_zeros(entries: list[dict]) -> list[str]:
    faults = []
    for k, e in enumerate(entries):
        if e["value"] >= REFERENCES["boggs"][1]:
            continue
        loc = np.asarray(e["location"], dtype=float)
        if min(np.linalg.norm(loc - root) for root in BOGGS_ROOTS) >= BOGGS_ROOT_RADIUS:
            faults.append(f"boggs entry {k}: zero at {loc} is not a root of the system")
    return faults


def check_explorer_table(problem: str, entries: list[dict]) -> list[str]:
    """Every check that applies to an ``explore`` table."""
    faults = (check_values(problem, entries) + check_global_bound(problem, entries)
              + check_critical(problem, entries) + check_minima(problem, entries))
    if problem == "camel":
        faults += check_camel_catalog(entries)
    if problem == "boggs":
        faults += check_boggs_zeros(entries)
    return faults


def check_baseline_minima(problem: str, entries: list[dict]) -> list[str]:
    """Checks for the Monte-Carlo baseline's points, which are descent end
    points rather than gated critical points."""
    return check_values(problem, entries) + check_global_bound(problem, entries)
