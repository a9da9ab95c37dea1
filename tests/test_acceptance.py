"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` for live lines).
Statistical criteria use the fixed seed lists below; per-problem tunables
(budgets, tolerances) are set here and noted next to each run.
"""

import itertools
import sys
import time
import zlib

import numpy as np
import pytest

from conftest import point_with, record_acceptance_line

from ddcid.diffusion import DiffusionConfig, NoiseSource, colored_noise, escape_minimum
from ddcid.explorer import (
    KIND_MINIMUM,
    KIND_SADDLE,
    ExplorationConfig,
    explore,
)
from ddcid.local_search import StepController, Tolerances, double_descent_direction
from ddcid.harness import monte_carlo_descent
from ddcid.potentials import ClusterCoordinates, get_potential
from ddcid.spectral import eigendecompose

TEN_SEEDS = list(range(10))

# Reference critical-point catalog for the camel potential:
# (x, y, value, spectrum).
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

BOGGS_ZEROS = [(0.0, 1.0), (-1.0, 2.0), (-np.sqrt(2.0) / 2.0, 1.5)]
BOGGS_SADDLES = [(-0.8898, 1.7671), (-0.3319, 1.1830),
                 (0.4555, 2.4926), (-0.3277, 4.3927)]

LJ_GATING = {2: -1.0, 3: -3.0, 4: -6.0, 5: -9.104, 6: -12.712,
             7: -16.505, 8: -19.821}
LJ_SOFT = {9: -24.113, 10: -28.422, 11: -32.766, 12: -37.968,
           13: -44.327, 14: -47.845}
MORSE_SOFT = {6.0: -31.521880, 10.0: -30.265230, 14.0: -29.596054}

# Grid-scan oracle value for the shubert global minimum (resolution 0.01
# plus Newton polish); see test_potentials.SHUBERT_GLOBAL_VALUE.
SHUBERT_GLOBAL_VALUE = -186.7309088310


def announce(criterion, name, ok, detail=""):
    line = f"[criterion {criterion}] {name}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line, file=sys.__stdout__, flush=True)
    record_acceptance_line(line)
    assert ok, line


def log_soft(line):
    print(line, file=sys.__stdout__, flush=True)
    record_acceptance_line(line)


def has_point(table, target, tol):
    return any(np.linalg.norm(e.location - np.asarray(target)) < tol
               for e in table.entries)


def random_hyperbolic(rng, n, positive_at_least_one=True):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.2, 4.0, n) * rng.choice([-1.0, 1.0], n)
    if positive_at_least_one and np.all(lam < 0):
        lam[rng.integers(n)] *= -1.0
    h = q @ np.diag(lam) @ q.T
    return 0.5 * (h + h.T), lam


@pytest.fixture(scope="module")
def molei_reports():
    p = get_potential("molei")
    return [explore(p, ExplorationConfig(max_critical_points=4, seed=s))
            for s in TEN_SEEDS]


def test_criterion_1_camel_catalog():
    p = get_potential("camel")
    successes = 0
    slowest = 0.0
    for seed in TEN_SEEDS:
        rep = explore(p, ExplorationConfig(max_critical_points=100, seed=seed))
        slowest = max(slowest, rep.total_seconds)
        run_ok = True
        for (x, y, val, spectrum) in CAMEL_ROWS:
            match = [e for e in rep.table.entries
                     if np.linalg.norm(e.location - [x, y]) < 1e-3]
            if not match:
                run_ok = False
                break
            entry = match[0]
            eig = np.sort(np.linalg.eigvalsh(p.hessian(entry.location)))
            if abs(entry.value - val) >= 1e-4 or np.max(np.abs(eig - np.sort(spectrum))) >= 1e-3:
                run_ok = False
                break
        successes += run_ok
    announce(1, "camel critical-point catalog", successes >= 7 and slowest < 10.0,
             f"all-14 rows in {successes}/10 seeds, slowest run {slowest:.2f}s")


def test_criterion_2_molei_walkthrough(molei_reports):
    successes = 0
    slowest = max(r.total_seconds for r in molei_reports)
    for rep in molei_reports:
        targets = {"min+": [1.0, 0.0], "min-": [-1.0, 0.0], "saddle": [0.0, 1.0]}
        entries = {}
        for name, t in targets.items():
            match = [e for e in rep.table.entries
                     if np.linalg.norm(e.location - t) < 1e-4]
            if match:
                entries[name] = match[0]
        if len(entries) < 3:
            continue
        if (entries["min+"].kind == KIND_MINIMUM
                and entries["min-"].kind == KIND_MINIMUM
                and entries["saddle"].kind == KIND_SADDLE):
            successes += 1
    announce(2, "molei walkthrough", successes >= 6 and slowest < 1.0,
             f"all three points in {successes}/10 seeds, slowest run {slowest:.2f}s")


def test_criterion_3_boggs_system():
    p = get_potential("boggs")
    cfg_tol = Tolerances(rtol=0.0)   # tight gradient stop for g < 1e-10 at zeros
    successes = 0
    slowest = 0.0
    for seed in TEN_SEEDS:
        rep = explore(p, ExplorationConfig(max_critical_points=20, seed=seed,
                                           tolerances=cfg_tol))
        slowest = max(slowest, rep.total_seconds)
        zeros_ok = all(
            any(np.linalg.norm(e.location - z) < 1e-3 and e.value < 1e-10
                for e in rep.table.entries)
            for z in BOGGS_ZEROS)
        saddles = sum(has_point(rep.table, s, 1e-3) for s in BOGGS_SADDLES)
        successes += zeros_ok and saddles >= 2
    announce(3, "boggs zeros and saddles", successes >= 6 and slowest < 5.0,
             f"{successes}/10 seeds, slowest run {slowest:.2f}s")


def test_criterion_4_lennard_jones_minima():
    ok = True
    details = []
    for d, target in LJ_GATING.items():
        p = get_potential(f"lj:{d}")
        start = time.perf_counter()
        best = min(explore(p, ExplorationConfig(max_critical_points=30, seed=s)
                           ).table.best_value() for s in TEN_SEEDS)
        elapsed = time.perf_counter() - start
        good = abs(best - target) < 1e-2 and elapsed < 300.0
        ok = ok and good
        details.append(f"d={d}:{best:.3f}({elapsed:.0f}s)")
    announce(4, "lennard-jones d=2..8 best-of-10", ok, " ".join(details))

    # Larger clusters: logged soft targets, not gating.
    for d, target in LJ_SOFT.items():
        p = get_potential(f"lj:{d}")
        best = min(explore(p, ExplorationConfig(max_critical_points=30, seed=s)
                           ).table.best_value() for s in TEN_SEEDS)
        hit = abs(best - target) < 1e-2
        log_soft(f"[criterion 4, soft] lj:{d} best={best:.3f} target={target} "
                 f"{'hit' if hit else 'miss'}")


def test_criterion_5_morse_11():
    p = get_potential("morse:11:3")
    start = time.perf_counter()
    best = min(explore(p, ExplorationConfig(max_critical_points=40, seed=s)
                       ).table.best_value() for s in range(20))
    elapsed = time.perf_counter() - start
    announce(5, "morse d=11 rho=3 best-of-20",
             abs(best - (-37.930817)) < 1e-4 and elapsed < 600.0,
             f"best={best:.6f} ({elapsed:.0f}s)")

    for rho, target in MORSE_SOFT.items():
        p = get_potential(f"morse:11:{rho:g}")
        best = min(explore(p, ExplorationConfig(max_critical_points=40, seed=s)
                           ).table.best_value() for s in TEN_SEEDS)
        hit = abs(best - target) < 1e-3
        log_soft(f"[criterion 5, soft] morse:11:{rho:g} best={best:.6f} "
                 f"target={target} {'hit' if hit else 'miss'}")


def test_criterion_6_rosenbrock_contrast():
    p = get_potential("rosenbrock:50")
    ones = np.ones(50)
    tol = Tolerances(rtol=0.0, max_iterations=2000)  # tight stop in the flat valley

    dd_hits = 0
    for seed in range(5):
        rep = explore(p, ExplorationConfig(max_critical_points=20, seed=seed,
                                           tolerances=tol))
        dd_hits += any(e.value < 1e-6 and np.max(np.abs(e.location - ones)) < 1e-4
                       for e in rep.table.entries)

    mc_misses = 0
    for seed in range(5):
        found = monte_carlo_descent(p, 20, Tolerances(max_iterations=500),
                                    NoiseSource(seed))
        hit = any(e.value < 1e-6 and np.max(np.abs(e.location - ones)) < 1e-4
                  for e in found)
        mc_misses += not hit
    announce(6, "rosenbrock-50 exploration vs Monte-Carlo descent",
             dd_hits >= 3 and mc_misses >= 4,
             f"explorer found global in {dd_hits}/5 seeds; "
             f"baseline missed in {mc_misses}/5")


# --- criterion 7: deterministic property suite -------------------------------------

def test_criterion_7a_double_descent_inequalities():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 21))
        h, _ = random_hyperbolic(rng, n)
        grad = rng.standard_normal(n)
        v = double_descent_direction(point_with(grad, h))
        if v is None:
            continue
        assert v @ grad < 0.0
        assert v @ h @ grad < 0.0
        checked += 1
    announce("7a", "double-descent inequalities (500 instances)", True)


def test_criterion_7b_newton_reduction():
    rng = np.random.default_rng(2025)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        h = q @ np.diag(rng.uniform(0.3, 5.0, n)) @ q.T
        h = 0.5 * (h + h.T)
        grad = rng.standard_normal(n)
        v = double_descent_direction(point_with(grad, h))
        newton = -np.linalg.solve(h, grad)
        assert np.linalg.norm(v - newton) <= 1e-8 * max(1.0, np.linalg.norm(newton))
    announce("7b", "positive-definite reduction to Newton (200 instances)", True)


def test_criterion_7c_step_controller_transcripts():
    def reference(events):
        h, out = 1.0, []
        for accepted in events:
            h = min(2.0 * h, 2.0 ** 5) if accepted else max(0.5 * h, 2.0 ** -26)
            out.append(h)
        return out

    for events in itertools.product([True, False], repeat=10):
        ctrl = StepController()
        transcript = [ctrl.accept() if e else ctrl.reject() for e in events]
        assert transcript == reference(events)
        assert all(2.0 ** -26 <= h <= 2.0 ** 5 for h in transcript)
    announce("7c", "step-controller transcripts (2^10 sequences)", True)


def test_criterion_7d_gradient_consistency():
    keys = ["molei", "shubert", "biggs", "camel", "rosenbrock:10", "lj:5",
            "morse:6:6", "boggs"]
    worst = 0.0
    for key in keys:
        p = get_potential(key)
        rng = np.random.default_rng(zlib.crc32(key.encode()))
        is_cluster = key.startswith(("lj:", "morse:"))
        count = 0
        while count < 100:
            x = rng.uniform(p.search_region[:, 0], p.search_region[:, 1])
            if is_cluster:
                d = int(key.split(":")[1])
                pos = ClusterCoordinates(d).positions(x)
                iu, ju = np.triu_indices(d, k=1)
                if np.min(np.linalg.norm(pos[ju] - pos[iu], axis=1)) <= 0.5:
                    continue
            ga = p.gradient(x)
            step = 1e-6 * max(1.0, np.max(np.abs(x)))
            gf = np.array([
                (p.value(x + step * e) - p.value(x - step * e)) / (2 * step)
                for e in np.eye(p.dimension)])
            rel = np.linalg.norm(ga - gf) / (1.0 + np.linalg.norm(ga))
            assert rel <= 1e-5, f"{key}: rel={rel:.2e}"
            worst = max(worst, rel)
            count += 1
    announce("7d", "analytic vs finite-difference gradients", True,
             f"worst relative error {worst:.2e}")


def test_criterion_7e_inertia_stability():
    rng = np.random.default_rng(2026)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        h, lam = random_hyperbolic(rng, n, positive_at_least_one=False)
        delta = np.min(np.abs(lam))
        e, _ = random_hyperbolic(rng, n, positive_at_least_one=False)
        e *= 0.9 * delta / np.linalg.norm(e, 2)
        assert eigendecompose(h + e).inertia == eigendecompose(h).inertia
    announce("7e", "inertia stability below the spectral gap (200 matrices)", True)


def test_criterion_7f_colored_noise_and_replay():
    rng = np.random.default_rng(2027)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        h, _ = random_hyperbolic(rng, n)
        s = eigendecompose(h)
        out = colored_noise(s, "largest", NoiseSource(int(rng.integers(1 << 30))))
        v = s.eigenvectors[:, 0]
        assert np.linalg.norm(out - v * (v @ out)) < 1e-12

    p = get_potential("molei")
    for seed in range(50):
        a = escape_minimum(p, np.array([1.0, 0.0]), DiffusionConfig(), NoiseSource(seed))
        b = escape_minimum(p, np.array([1.0, 0.0]), DiffusionConfig(), NoiseSource(seed))
        assert a.steps == b.steps
        assert np.array_equal(np.vstack([t.point for t in a.trajectory]),
                              np.vstack([t.point for t in b.trajectory]))
    announce("7f", "colored-noise rank-1 and bit-exact replay (50 trajectories)", True)


def test_criterion_8_statistics_bookkeeping(molei_reports):
    diffusive = float(np.mean([r.mean_diffusive_steps() for r in molei_reports]))
    iterations = float(np.mean([r.mean_search_iterations() for r in molei_reports]))
    announce(8, "statistics bookkeeping",
             1.0 <= diffusive <= 6.0 and 4.0 <= iterations <= 20.0,
             f"mean diffusive steps {diffusive:.2f} in [1,6]; "
             f"mean search iterations {iterations:.2f} in [4,20]")


def test_shubert_substitute_check():
    p = get_potential("shubert")
    successes = 0
    for seed in TEN_SEEDS:
        rep = explore(p, ExplorationConfig(max_critical_points=100, seed=seed))
        minima = rep.table.minima()
        global_hit = any(abs(e.value - SHUBERT_GLOBAL_VALUE) < 1e-3 for e in minima)
        successes += len(minima) >= 20 and global_hit
    announce("S", "shubert substitute (>=20 minima, global value found)",
             successes >= 7, f"{successes}/10 seeds")
