"""Recompute the reference values the benchmark derives itself.

    python3 perfbench/references.py

prints the Shubert global value and the camel catalog, each re-derived from
closed forms written here, beside the values stored in ``checks.py``.  The
Lennard-Jones and Morse energies come from the literature (see
``checks.REFERENCES``); the sums of squares have the known value 0.
"""

from __future__ import annotations

import numpy as np

import checks

_I = np.arange(1, 6, dtype=float)


def _factor_derivatives(t):
    """First and second derivatives of one Shubert factor
    f(t) = sum_i i cos((i+1) t + i)."""
    arg = (_I + 1.0) * np.asarray(t, dtype=float)[..., None] + _I
    d1 = -np.sum(_I * (_I + 1.0) * np.sin(arg), axis=-1)
    d2 = -np.sum(_I * (_I + 1.0) ** 2 * np.cos(arg), axis=-1)
    return d1, d2


def _polish(t, steps=50):
    for _ in range(steps):
        d1, d2 = _factor_derivatives(t)
        t = t - d1 / d2
    return t


def shubert_global_value(resolution: float = 1e-3) -> float:
    """The global minimum of f(x) f(y) on [-10, 10]^2 is the product of the
    factor's extremes: scan the factor on a grid, polish both extremes with
    Newton's method on f', and multiply."""
    grid = np.arange(-10.0, 10.0 + resolution, resolution)
    f = checks._shubert_factor(grid)
    low = float(checks._shubert_factor(_polish(grid[np.argmin(f)])))
    high = float(checks._shubert_factor(_polish(grid[np.argmax(f)])))
    return low * high


def _camel_gradient(p):
    x, y = p
    return np.array([8.0 * x - 8.4 * x ** 3 + 2.0 * x ** 5 + y, x + 16.0 * y ** 3 - 8.0 * y])


def _camel_hessian(p):
    x, y = p
    return np.array([[8.0 - 25.2 * x * x + 10.0 * x ** 4, 1.0], [1.0, 48.0 * y * y - 8.0]])


def camel_catalog() -> list[tuple[float, float, float, tuple[float, float]]]:
    """Each catalog row re-derived: Newton's method on the closed-form
    camel gradient from the row's rounded location."""
    rows = []
    for x, y, _, _ in checks.CAMEL_ROWS:
        p = np.array([x, y])
        for _ in range(50):
            p = p - np.linalg.solve(_camel_hessian(p), _camel_gradient(p))
        lam = np.linalg.eigvalsh(_camel_hessian(p))
        rows.append((float(p[0]), float(p[1]), float(checks._camel(p)),
                     (float(lam[0]), float(lam[1]))))
    return rows


def main() -> None:
    print(f"shubert global value: recomputed {shubert_global_value():.10f}, "
          f"stored {checks.REFERENCES['shubert'][0]:.10f}")
    print("camel catalog (x, y, value, spectrum): recomputed | stored")
    for new, old in zip(camel_catalog(), checks.CAMEL_ROWS):
        print(f"  ({new[0]:+.4f}, {new[1]:+.4f}) {new[2]:+.4f} "
              f"({new[3][0]:.4f}, {new[3][1]:.4f}) | {old}")


if __name__ == "__main__":
    main()
