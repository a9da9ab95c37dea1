import numpy as np
import pytest

from ddcid.diffusion import (
    BUDGET_EXHAUSTED,
    ESCAPED,
    DiffusionConfig,
    InertiaMismatchError,
    NoiseSource,
    colored_noise,
    escape_minimum,
    escape_saddle,
    initial_kick,
    white_noise_id_step,
)
from ddcid.local_search import CONVERGED, StepUnderflowError, minimize, saddle_search
from ddcid.potentials import Potential, make_molei
from ddcid.spectral import eigendecompose


class StubNoise:
    """Deterministic stand-in yielding scripted normal draws."""

    def __init__(self, draws):
        self.draws = [np.asarray(d, dtype=float) for d in draws]

    def normal(self, n):
        draw = self.draws.pop(0)
        assert draw.size == n
        return draw


def quartic_1d():
    """g(x) = (x^2 - 1)^2; inflections at |x| = 1/sqrt(3)."""
    return Potential(
        1,
        lambda x: (x[0] ** 2 - 1.0) ** 2,
        lambda x: np.array([4.0 * x[0] * (x[0] ** 2 - 1.0)]),
        lambda x: np.array([[12.0 * x[0] ** 2 - 4.0]]),
        np.array([[-2.0, 2.0]]),
        name="quartic1d",
    )


# --- NoiseSource --------------------------------------------------------------

def test_noise_reproducible_bitwise():
    a = NoiseSource(1234)
    b = NoiseSource(1234)
    for _ in range(5):
        assert np.array_equal(a.normal(7), b.normal(7))
    assert not np.array_equal(NoiseSource(1).normal(7), NoiseSource(2).normal(7))


def test_noise_moments():
    draws = NoiseSource(7).normal(100000)
    n = draws.size
    assert abs(draws.mean()) < 3.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_noise_uniform_box():
    region = np.array([[0.0, 1.0], [-2.0, -1.0]])
    for _ in range(20):
        x = NoiseSource(5).uniform_box(region)
        assert 0.0 <= x[0] <= 1.0 and -2.0 <= x[1] <= -1.0


# --- initial_kick -------------------------------------------------------------

def test_initial_kick_projects_onto_direction():
    x0 = np.array([1.0, 2.0, 3.0])
    kick = initial_kick(x0, np.array([1.0, 0.0, 0.0]), 1.0,
                        StubNoise([[0.7, -1.3, 2.1]]))
    assert np.allclose(kick, [1.7, 2.0, 3.0])


def test_initial_kick_zero_amplitude():
    x0 = np.array([1.0, -1.0])
    kick = initial_kick(x0, np.array([0.0, 1.0]), 0.0, StubNoise([[5.0, 5.0]]))
    assert np.array_equal(kick, x0)


def test_initial_kick_orthogonal_components_unchanged():
    rng = np.random.default_rng(11)
    for seed in range(50):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        x0 = rng.standard_normal(4)
        kick = initial_kick(x0, v, 1.3, NoiseSource(seed))
        delta = kick - x0
        # remove the component along v; nothing may remain
        residual = delta - v * (v @ delta)
        assert np.linalg.norm(residual) < 1e-12


# --- colored_noise --------------------------------------------------------------

def test_colored_noise_rank_one():
    h = np.diag([3.0, 1.0, -2.0])
    s = eigendecompose(h)
    for seed in range(20):
        out = colored_noise(s, "largest", NoiseSource(seed))
        residual = out - s.eigenvectors[:, 0] * (s.eigenvectors[:, 0] @ out)
        assert np.linalg.norm(residual) < 1e-12
        out = colored_noise(s, "smallest", NoiseSource(seed))
        residual = out - s.eigenvectors[:, 2] * (s.eigenvectors[:, 2] @ out)
        assert np.linalg.norm(residual) < 1e-12


def test_colored_noise_degenerate_directions_cover_sphere():
    # Fully degenerate spectrum: direction uniform on the sphere.  With a
    # fixed seed the octant counts must pass a chi-square uniformity check.
    s = eigendecompose(np.eye(3))
    noise = NoiseSource(123)
    counts = np.zeros(8)
    trials = 10000
    for _ in range(trials):
        out = colored_noise(s, "largest", noise)
        u = out / np.linalg.norm(out)
        octant = (u[0] > 0) * 4 + (u[1] > 0) * 2 + (u[2] > 0)
        counts[octant] += 1
    expected = trials / 8.0
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert chi2 < 24.32   # 0.999 quantile, 7 degrees of freedom


def test_colored_noise_sign_symmetric():
    # sigma = -v v^T flips the sign of the projection; the projected
    # coefficient remains symmetric about zero.
    s = eigendecompose(np.diag([2.0, 1.0]))
    noise = NoiseSource(77)
    coeffs = []
    for _ in range(10000):
        out = colored_noise(s, "largest", noise)
        coeffs.append(s.eigenvectors[:, 0] @ out)
    coeffs = np.asarray(coeffs)
    assert abs(coeffs.mean()) < 3.0 / np.sqrt(coeffs.size)
    assert abs(np.mean(coeffs ** 3)) < 0.1


# --- white-noise baseline step ---------------------------------------------------

def test_white_noise_step_reduces_to_gradient_descent():
    p = make_molei()
    x = np.array([0.4, -0.3])
    out = white_noise_id_step(p, x, 0.01, 0.0, StubNoise([[9.0, 9.0]]))
    assert np.allclose(out, x - 0.01 * p.gradient(x))


def test_white_noise_step_pure_diffusion_at_critical_point():
    p = make_molei()
    x = np.array([1.0, 0.0])    # gradient vanishes here
    w = [0.5, -0.25]
    out = white_noise_id_step(p, x, 0.04, 1.0, StubNoise([w]))
    assert np.allclose(out, x + 0.2 * np.asarray(w))


def test_white_noise_step_covariance():
    p = make_molei()
    x = np.array([1.0, 0.0])
    h, sigma = 0.09, 1.7
    noise = NoiseSource(31)
    samples = np.array([white_noise_id_step(p, x, h, sigma, noise) - x
                        for _ in range(10000)])
    cov = np.cov(samples.T)
    target = h * sigma ** 2
    assert abs(cov[0, 0] - target) < 0.05 * target
    assert abs(cov[1, 1] - target) < 0.05 * target
    assert abs(cov[0, 1]) < 0.05 * target


def test_white_noise_step_requires_positive_h():
    with pytest.raises(ValueError):
        white_noise_id_step(make_molei(), np.zeros(2), 0.0, 1.0, NoiseSource(0))


# --- escape from a minimum --------------------------------------------------------

def test_escape_minimum_requires_strict_minimum():
    p = make_molei()
    with pytest.raises(InertiaMismatchError):
        escape_minimum(p, np.array([0.0, 1.0]), DiffusionConfig(), NoiseSource(0))


def test_escape_minimum_reaches_indefinite_region():
    p = make_molei()
    cfg = DiffusionConfig()
    saddle_hits = 0
    for seed in range(20):
        esc = escape_minimum(p, np.array([1.0, 0.0]), cfg, NoiseSource(seed))
        if esc.outcome == ESCAPED:
            s = eigendecompose(p.hessian(esc.point))
            assert s.n_minus >= 1
        r = saddle_search(p, esc.point)
        if r.outcome == CONVERGED and np.linalg.norm(r.final_point - [0.0, 1.0]) < 1e-6:
            saddle_hits += 1
    assert saddle_hits >= 11    # majority of the 20 seeded runs


def test_escape_minimum_budget_flag():
    p = make_molei()
    cfg = DiffusionConfig(max_diffusive_steps=1)   # kick only
    flags = set()
    for seed in range(20):
        esc = escape_minimum(p, np.array([1.0, 0.0]), cfg, NoiseSource(seed))
        flags.add(esc.outcome)
        if esc.outcome == BUDGET_EXHAUSTED:
            assert eigendecompose(p.hessian(esc.point)).n_minus == 0
        else:
            assert eigendecompose(p.hessian(esc.point)).n_minus >= 1
    assert BUDGET_EXHAUSTED in flags


def test_escape_minimum_kick_direction_is_fastest_ascent():
    # Quadratic model: the increase of g at x_min + eps*y is maximized over
    # unit y by the dominant eigenvector.
    p = make_molei()
    x_min = np.array([1.0, 0.0])
    h = p.hessian(x_min)
    s = eigendecompose(h)
    lam1, v1 = s.eigenvalues[0], s.eigenvectors[:, 0]
    assert v1 @ h @ v1 == pytest.approx(lam1, rel=1e-12)
    rng = np.random.default_rng(13)
    for _ in range(1000):
        y = rng.standard_normal(2)
        y /= np.linalg.norm(y)
        assert y @ h @ y <= lam1 + 1e-10


def test_escape_minimum_1d_quartic_exits_at_inflection():
    p = quartic_1d()
    # dense-scan oracle for the concave set {x : g''(x) < 0}
    xs = np.linspace(-2.0, 2.0, 40001)
    concave = xs[np.array([p.hessian(np.array([x]))[0, 0] < 0.0 for x in xs])]
    boundary = 1.0 / np.sqrt(3.0)
    assert np.max(np.abs(concave)) < boundary + 1e-4

    cfg = DiffusionConfig()
    for seed in range(20):
        esc = escape_minimum(p, np.array([1.0]), cfg, NoiseSource(seed))
        if esc.outcome == ESCAPED:
            assert abs(esc.point[0]) < boundary
            assert p.hessian(esc.point)[0, 0] < 0.0


def test_escape_minimum_predictor_decreases_aux():
    p = make_molei()
    for seed in range(10):
        esc = escape_minimum(p, np.array([-1.0, 0.0]), DiffusionConfig(), NoiseSource(seed))
        for prev, step in zip(esc.trajectory, esc.trajectory[1:]):
            if step.predictor_aux is not None:
                assert step.predictor_aux < prev.aux_value


def test_escape_minimum_noise_is_rank_one():
    p = make_molei()
    for seed in range(10):
        esc = escape_minimum(p, np.array([1.0, 0.0]), DiffusionConfig(), NoiseSource(seed))
        for prev, step in zip(esc.trajectory, esc.trajectory[1:]):
            if step.predictor is None:
                continue
            increment = step.point - step.predictor
            v1 = eigendecompose(p.hessian(prev.point)).eigenvectors[:, 0]
            residual = increment - v1 * (v1 @ increment)
            assert np.linalg.norm(residual) < 1e-12 * max(1.0, np.linalg.norm(increment))


def test_escape_trajectory_records_each_step_once_with_its_inertia():
    p = make_molei()
    for seed in range(10):
        for escape, x0 in ((escape_minimum, [1.0, 0.0]), (escape_saddle, [0.0, 1.0])):
            esc = escape(p, np.array(x0), DiffusionConfig(), NoiseSource(seed))
            assert esc.steps == len(esc.trajectory)
            assert [t.index for t in esc.trajectory] == list(range(1, esc.steps + 1))
            assert np.array_equal(esc.trajectory[-1].point, esc.point)
            for step in esc.trajectory:
                assert step.inertia == eigendecompose(p.hessian(step.point)).inertia
            if escape is escape_minimum:
                # The Newton predictor's line search always evaluates G.
                assert all(t.predictor_aux is not None
                           for t in esc.trajectory if t.predictor is not None)


def test_escape_saddle_gradient_step_predictor_has_no_aux():
    # g = (x^2 - y^2) / 2.  The kick from the saddle is along y, where the
    # gradient has no positive-subspace part, so every predictor is a plain
    # gradient step: its line search tests g only and evaluates no gradient.
    p = Potential(2, lambda x: 0.5 * (x[0] ** 2 - x[1] ** 2), lambda x: np.array([x[0], -x[1]]),
                  lambda x: np.diag([1.0, -1.0]), np.array([[-1.0, 1.0], [-1.0, 1.0]]),
                  name="saddle2d")
    esc = escape_saddle(p, np.zeros(2), DiffusionConfig(max_diffusive_steps=5), NoiseSource(0))
    assert esc.outcome == BUDGET_EXHAUSTED and esc.steps == 5
    for prev, step in zip(esc.trajectory, esc.trajectory[1:]):
        assert np.array_equal(step.predictor,
                              prev.point - step.step_size * p.gradient(prev.point))
        assert step.predictor_aux is None


def test_escape_trajectories_reproducible():
    p = make_molei()
    for seed in range(10):
        a = escape_minimum(p, np.array([1.0, 0.0]), DiffusionConfig(), NoiseSource(seed))
        b = escape_minimum(p, np.array([1.0, 0.0]), DiffusionConfig(), NoiseSource(seed))
        assert a.outcome == b.outcome and a.steps == b.steps
        assert np.array_equal(np.vstack([t.point for t in a.trajectory]),
                              np.vstack([t.point for t in b.trajectory]))


# --- escape from a saddle ----------------------------------------------------------

def test_escape_saddle_rejects_minimum():
    p = make_molei()
    with pytest.raises(InertiaMismatchError):
        escape_saddle(p, np.array([1.0, 0.0]), DiffusionConfig(), NoiseSource(0))


def test_escape_saddle_first_move_along_weak_direction():
    p = make_molei()
    x_sad = np.array([0.0, 1.0])
    v_n = eigendecompose(p.hessian(x_sad)).eigenvectors[:, -1]
    for seed in range(10):
        esc = escape_saddle(p, x_sad, DiffusionConfig(), NoiseSource(seed))
        delta = esc.trajectory[0].point - x_sad
        residual = delta - v_n * (v_n @ delta)
        assert np.linalg.norm(residual) < 1e-12


def test_escape_saddle_quadratic_descent_along_vn():
    p = make_molei()
    x_sad = np.array([0.0, 1.0])
    v_n = eigendecompose(p.hessian(x_sad)).eigenvectors[:, -1]
    g0 = p.value(x_sad)
    for eps in (1e-3, 1e-2, 0.1):
        assert p.value(x_sad + eps * v_n) < g0


def test_escape_saddle_reaches_positive_region_and_minima():
    p = make_molei()
    cfg = DiffusionConfig()
    min_hits = 0
    for seed in range(20):
        esc = escape_saddle(p, np.array([0.0, 1.0]), cfg, NoiseSource(seed))
        if esc.outcome == ESCAPED:
            assert eigendecompose(p.hessian(esc.point)).n_minus == 0
        r = minimize(p, esc.point)
        if r.outcome == CONVERGED and (np.linalg.norm(r.final_point - [1.0, 0.0]) < 1e-6
                            or np.linalg.norm(r.final_point - [-1.0, 0.0]) < 1e-6):
            min_hits += 1
    assert min_hits >= 11


def test_escape_from_maximum_behaves_like_saddle():
    # A maximum has n_minus = n: the kick follows the most negative
    # eigendirection and the escape ends in a positive-definite region.
    from ddcid.potentials import make_camel

    p = make_camel()
    x_max = np.array([1.23022988, 0.16233458])
    assert eigendecompose(p.hessian(x_max)).n_minus == 2
    reached = 0
    for seed in range(10):
        esc = escape_saddle(p, x_max, DiffusionConfig(), NoiseSource(seed))
        if esc.outcome == ESCAPED:
            assert eigendecompose(p.hessian(esc.point)).n_minus == 0
            reached += 1
    assert reached >= 5


def test_escape_saddle_descends_g_on_negative_values():
    # molei shifted by -5 keeps g < 0 around its (0, 1) saddle; gradient and
    # Hessian are unchanged, so the escape must behave as on molei itself.
    p = make_molei()
    shifted = Potential(2, lambda x: p.value(x) - 5.0, p.gradient, p.hessian,
                        p.search_region, name="shifted")
    x_sad = np.array([0.0, 1.0])
    assert shifted.value(x_sad) < 0.0

    def positive_definite_hits(pot):
        hits = 0
        for seed in range(20):
            esc = escape_saddle(pot, x_sad, DiffusionConfig(), NoiseSource(seed))
            for prev, step in zip(esc.trajectory, esc.trajectory[1:]):
                if step.predictor is not None:
                    assert pot.value(step.predictor) < prev.value
            if esc.outcome == ESCAPED:
                assert eigendecompose(pot.hessian(esc.point)).n_minus == 0
                hits += 1
        return hits

    reference = positive_definite_hits(p)
    assert reference >= 11
    assert positive_definite_hits(shifted) >= reference


def test_escape_saddle_from_zero_valued_camel_saddle_never_underflows():
    # camel's saddle at the origin has g = 0 with g < 0 on part of its
    # neighbourhood; descent of g must be accepted there.
    from ddcid.potentials import make_camel

    p = make_camel()
    x_sad = np.zeros(2)
    assert p.value(x_sad) == 0.0
    assert eigendecompose(p.hessian(x_sad)).n_minus == 1
    underflows = []
    for seed in range(20):
        try:
            escape_saddle(p, x_sad, DiffusionConfig(), NoiseSource(seed))
        except StepUnderflowError:
            underflows.append(seed)
    assert underflows == []
