import zlib

import numpy as np
import pytest

from ddcid.potentials import (
    ClusterCoordinates,
    EvaluationError,
    fd_hessian,
    get_potential,
    make_biggs,
    make_boggs,
    make_camel,
    make_lennard_jones,
    make_molei,
    make_morse,
    make_rosenbrock,
    make_shubert,
)

# Grid scan at resolution 0.01 over [-10,10]^2 plus a Newton polish of the
# best cell put the global Shubert minimum at (-7.708314, -0.800321).
SHUBERT_GLOBAL_VALUE = -186.7309088310

# Polished fully-relaxed cluster configurations (reduced coordinates).
LJ13_X = np.array([-1.081838289919e+00,  4.838127855229e-01, -9.676255833499e-01, -4.838127832502e-01,
  2.990127454189e-01,  9.202666206212e-01,  4.838128006739e-01, -2.990127526072e-01,
  9.202666080727e-01, -4.838127969480e-01, -7.828255379421e-01, -5.687560464009e-01,
  4.838127752884e-01, -2.990127494751e-01, -9.202666219888e-01,  4.838128019641e-01,
  7.828255343889e-01,  5.687560401990e-01, -4.838127906275e-01, -7.828255408917e-01,
  5.687560456426e-01,  4.838127843166e-01,  7.828255396112e-01, -5.687560529548e-01,
  1.081838286517e+00, -6.501509403869e-09, -1.766869932260e-08, -4.838128013878e-01,
  2.990127552124e-01, -9.202666099103e-01, -4.838127895947e-01,  9.676255837415e-01,
  9.900774343524e-09])
MORSE11_RHO3_X = np.array([-9.375222040376e-01,  9.375222101517e-01, -3.213205078657e-08, -3.921098415002e-01,
  6.573817238136e-01,  4.310433123305e-01, -3.921098646032e-01,  4.310433382862e-01,
 -6.573817253764e-01, -3.921098584533e-01, -4.310434071759e-01,  6.573816529961e-01,
  3.921098347940e-01, -7.696327722148e-01,  1.600452798119e-01,  3.921098862990e-01,
 -1.600453631003e-01, -7.696327510674e-01,  3.921098961042e-01,  7.696327065975e-01,
 -1.600454365616e-01, -3.921098757338e-01, -6.573816470648e-01, -4.310434412178e-01,
  3.921098530040e-01,  1.600453481419e-01,  7.696327285891e-01])
MORSE11_RHO14_X = np.array([ 1.813168898364e+00,  1.424517524893e+00, -9.422008901758e-01,  9.065844493595e-01,
 -1.842712502436e-01,  3.584065424245e-01,  3.886513697160e-01, -9.422008915998e-01,
  7.553256287784e-09,  9.065844530214e-01, -1.857670653696e-01,  1.348845940980e+00,
  9.065844497149e-01, -1.061832432098e+00,  8.480318260357e-01,  1.469835809474e+00,
  4.722415974981e-01,  8.355298951401e-01,  1.721447175096e+00, -4.959567026831e-01,
  8.551180537904e-01,  3.433330969389e-01,  4.722415984185e-01,  8.355298998514e-01,
  9.172172931944e-02, -4.959567005504e-01,  8.551180575912e-01])

REGISTRY_KEYS = ["molei", "shubert", "biggs", "camel", "rosenbrock:6", "lj:4",
                 "morse:5:6", "boggs"]


def central_fd_gradient(value, x, h):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (value(xp) - value(xm)) / (2.0 * h)
    return g


def sample_point(p, rng):
    """Random point in the search region; cluster draws keep atoms apart so
    finite-difference cross-checks stay well conditioned."""
    is_cluster = p.name.startswith(("lj:", "morse:"))
    for _ in range(500):
        x = rng.uniform(p.search_region[:, 0], p.search_region[:, 1])
        if not is_cluster:
            return x
        d = int(p.name.split(":")[1])
        pos = ClusterCoordinates(d).positions(x)
        iu, ju = np.triu_indices(d, k=1)
        if np.min(np.linalg.norm(pos[ju] - pos[iu], axis=1)) > 0.5:
            return x
    raise RuntimeError("sampling failed")


# --- molei ------------------------------------------------------------------

def test_molei_critical_values():
    p = make_molei()
    assert p.value(np.array([1.0, 0.0])) == 0.0
    assert p.value(np.array([-1.0, 0.0])) == 0.0
    assert np.allclose(p.gradient(np.array([0.0, 1.0])), 0.0)
    assert p.value(np.array([0.0, 0.0])) == 2.0


# --- shubert ----------------------------------------------------------------

def test_shubert_global_minimum_value():
    p = make_shubert()
    x = np.array([-7.708313735, -0.800321100])
    assert abs(p.value(x) - SHUBERT_GLOBAL_VALUE) < 1e-3
    assert abs(SHUBERT_GLOBAL_VALUE - (-186.7309)) < 1e-3


def test_shubert_symmetry():
    p = make_shubert()
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(-10, 10, 2)
        assert p.value(np.array([x, y])) == pytest.approx(p.value(np.array([y, x])))


def test_shubert_gradient_matches_central_differences():
    p = make_shubert()
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-10, 10, 2)
        ga = p.gradient(x)
        gf = central_fd_gradient(p.value, x, 1e-6)
        assert np.linalg.norm(ga - gf) <= 1e-6 * max(1.0, np.linalg.norm(ga))


# --- biggs ------------------------------------------------------------------

def test_biggs_minimum_and_saddle():
    p = make_biggs()
    assert np.linalg.norm(p.gradient(np.array([1.0, 10.0]))) < 1e-8
    assert np.linalg.norm(p.gradient(np.array([16.7047, 16.7047]))) < 1e-3


def test_biggs_hessian_symmetric():
    p = make_biggs()
    rng = np.random.default_rng(2)
    for _ in range(20):
        h = p.hessian(rng.uniform(0, 25, 2))
        assert np.array_equal(h, h.T)


def test_biggs_overflow_is_reported():
    p = make_biggs()
    with pytest.raises(EvaluationError):
        p.value(np.array([-2000.0, 5.0]))


# --- camel ------------------------------------------------------------------

def test_camel_global_minimum_and_spectrum():
    p = make_camel()
    assert p.value(np.array([0.0898, -0.7127])) == pytest.approx(-1.0316, abs=1e-4)
    eig = np.linalg.eigvalsh(p.hessian(np.zeros(2)))
    assert np.max(np.abs(np.sort(eig) - [-8.0623, 8.0623])) < 1e-3


def test_camel_central_symmetry():
    p = make_camel()
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        assert p.value(x) == pytest.approx(p.value(-x))


# --- rosenbrock -------------------------------------------------------------

def test_rosenbrock_minimum():
    p = make_rosenbrock(50)
    ones = np.ones(50)
    assert p.value(ones) == 0.0
    assert np.allclose(p.gradient(ones), 0.0)


def test_rosenbrock_hessian_tridiagonal():
    p = make_rosenbrock(8)
    rng = np.random.default_rng(4)
    for _ in range(10):
        h = p.hessian(rng.uniform(-5, 10, 8))
        for i in range(8):
            for j in range(8):
                if abs(i - j) > 1:
                    assert h[i, j] == 0.0


def test_rosenbrock_requires_dimension():
    with pytest.raises(ValueError):
        make_rosenbrock(1)


# --- clusters ---------------------------------------------------------------

def test_lj_pair_minimum():
    p = make_lennard_jones(2)
    r = 2.0 ** (1.0 / 6.0)
    assert p.dimension == 1
    assert p.value(np.array([r])) == pytest.approx(-1.0, abs=1e-12)
    assert abs(p.gradient(np.array([r]))[0]) < 1e-12


def test_lj13_global_minimum_value():
    p = make_lennard_jones(13)
    assert p.value(LJ13_X) == pytest.approx(-44.327, abs=1e-2)
    assert np.linalg.norm(p.gradient(LJ13_X)) < 1e-5


def test_lj_permutation_invariance():
    p = make_lennard_jones(6)
    rng = np.random.default_rng(5)
    x = sample_point(p, rng)
    swapped = x.copy()
    swapped[3:6], swapped[6:9] = x[6:9].copy(), x[3:6].copy()   # atoms 4 and 5
    assert p.value(swapped) == pytest.approx(p.value(x), rel=1e-12)


def test_lj_coincident_atoms_error():
    p = make_lennard_jones(3)
    with pytest.raises(EvaluationError):
        p.value(np.array([1e-12, 0.0, 0.0]))


def test_morse_pair_minimum():
    for rho in (3.0, 6.0, 14.0):
        p = make_morse(2, rho)
        assert p.value(np.array([1.0])) == pytest.approx(-1.0, abs=1e-12)


def test_morse11_table_values():
    assert make_morse(11, 3.0).value(MORSE11_RHO3_X) == pytest.approx(-37.930817, abs=1e-4)
    assert make_morse(11, 14.0).value(MORSE11_RHO14_X) == pytest.approx(-29.596054, abs=1e-4)


def test_morse_requires_positive_rho():
    with pytest.raises(ValueError):
        make_morse(5, -1.0)


def test_cluster_coordinates_layout():
    assert ClusterCoordinates(2).dimension == 1
    assert ClusterCoordinates(3).dimension == 3
    assert ClusterCoordinates(13).dimension == 33
    coords = ClusterCoordinates(5)
    x = np.arange(1.0, coords.dimension + 1.0)
    pos = coords.positions(x)
    assert np.allclose(pos[0], 0.0)
    assert pos[1, 1] == 0.0 and pos[1, 2] == 0.0
    assert pos[2, 2] == 0.0
    again = coords.positions(x)
    assert np.array_equal(pos, again)


# --- boggs ------------------------------------------------------------------

def test_boggs_roots():
    # g = 0.5 |S|^2, so |S| = sqrt(2 g) is the residual norm at each root.
    p = make_boggs()
    for root in ([0.0, 1.0], [-1.0, 2.0], [-np.sqrt(2.0) / 2.0, 1.5]):
        assert np.sqrt(2.0 * p.value(np.array(root))) < 1e-12


def test_sum_of_squares_zeros_are_global_minima():
    # The roots of S are the zeros of g = 0.5 S^T S, hence its global minima.
    p = make_boggs()
    for root in ([0.0, 1.0], [-1.0, 2.0], [-np.sqrt(2.0) / 2.0, 1.5]):
        x = np.array(root)
        assert p.value(x) < 1e-24
        assert np.linalg.norm(p.gradient(x)) < 1e-12
    rng = np.random.default_rng(7)
    for _ in range(20):
        assert p.value(rng.uniform(-5, 5, 2)) >= 0.0


# --- finite-difference Hessian ----------------------------------------------

def test_fd_hessian_quadratic_exact():
    a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, -1.0], [0.0, -1.0, 2.0]])
    h = fd_hessian(lambda x: x @ a, np.array([0.3, -0.2, 0.9]))
    assert np.max(np.abs(h - a)) < 1e-6


def test_fd_hessian_symmetrized_exactly():
    p = make_lennard_jones(4)
    rng = np.random.default_rng(8)
    h = fd_hessian(p.gradient, sample_point(p, rng))
    assert np.array_equal(h, h.T)


def test_fd_hessian_lj3_at_minimum():
    # Equilateral triangle at the pair equilibrium distance.
    r = 2.0 ** (1.0 / 6.0)
    x = np.array([r, 0.5 * r, 0.5 * np.sqrt(3.0) * r])
    p = make_lennard_jones(3)
    assert np.linalg.norm(p.gradient(x)) < 1e-10
    h = fd_hessian(p.gradient, x)
    assert np.min(np.linalg.eigvalsh(h)) >= -1e-4
    # central-difference oracle agreement
    n = x.size
    central = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1e-6
        central[:, j] = (p.gradient(x + e) - p.gradient(x - e)) / 2e-6
    central = 0.5 * (central + central.T)
    assert np.max(np.abs(h - central)) < 1e-3 * max(1.0, np.max(np.abs(central)))


@pytest.mark.parametrize("key", ["lj:2", "lj:3", "lj:8", "morse:11:3"])
def test_cluster_batched_evaluation_matches_pointwise(key):
    # The cluster Hessian differences one stacked gradient call; each row of
    # the stack must be that point's own gradient, bit for bit.
    p = get_potential(key)
    coords = ClusterCoordinates(int(key.split(":")[1]))
    rng = np.random.default_rng(zlib.crc32(key.encode()))
    for _ in range(5):
        stack = np.vstack([sample_point(p, rng), sample_point(p, rng)])
        assert np.array_equal(p.gradient(stack), np.stack([p.gradient(row) for row in stack]))
        assert np.array_equal(coords.positions(stack),
                              np.stack([coords.positions(row) for row in stack]))


# --- auxiliary potential ----------------------------------------------------

def auxiliary_value(p, x):
    """G(x) = 0.5 * ||grad g(x)||^2, the potential the searches also descend."""
    g = p.gradient(x)
    return 0.5 * float(g @ g)


@pytest.mark.parametrize("key", ["molei", "shubert", "camel", "rosenbrock:6"])
def test_auxiliary_potential_identity(key):
    # grad G = H grad g: the identity double descent and the saddle search rely on.
    p = get_potential(key)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.uniform(p.search_region[:, 0], p.search_region[:, 1])
        assert auxiliary_value(p, x) >= 0.0
        expected = p.hessian(x) @ p.gradient(x)
        fd = central_fd_gradient(lambda y: auxiliary_value(p, y), x,
                                 1e-6 * max(1.0, np.max(np.abs(x))))
        assert np.linalg.norm(expected - fd) <= 1e-4 * (1.0 + np.linalg.norm(expected))


def test_auxiliary_zero_exactly_at_critical_points():
    p = make_molei()
    assert auxiliary_value(p, np.array([1.0, 0.0])) == 0.0
    assert auxiliary_value(p, np.array([0.0, 1.0])) == 0.0
    assert auxiliary_value(p, np.array([0.5, 0.5])) > 0.0


# --- registry and gradient consistency ---------------------------------------

def test_registry_keys_resolve():
    for key in REGISTRY_KEYS:
        p = get_potential(key)
        assert p.dimension >= 1
        assert p.search_region.shape == (p.dimension, 2)


def test_registry_unknown_keys():
    for bad in ("nope", "rosenbrock", "lj:x", "morse:5"):
        with pytest.raises(KeyError):
            get_potential(bad)


@pytest.mark.parametrize("key", REGISTRY_KEYS)
def test_analytic_gradient_matches_central_differences(key):
    p = get_potential(key)
    rng = np.random.default_rng(zlib.crc32(key.encode()))
    for _ in range(100):
        x = sample_point(p, rng)
        ga = p.gradient(x)
        gf = central_fd_gradient(p.value, x, 1e-6 * max(1.0, np.max(np.abs(x))))
        rel = np.linalg.norm(ga - gf) / (1.0 + np.linalg.norm(ga))
        assert rel <= 1e-5


@pytest.mark.parametrize("key", REGISTRY_KEYS)
def test_hessian_symmetric_in_region(key):
    p = get_potential(key)
    rng = np.random.default_rng(100 + zlib.crc32(key.encode()) % 1000)
    for _ in range(5):
        h = p.hessian(sample_point(p, rng))
        assert np.max(np.abs(h - h.T)) <= 1e-8 * max(1.0, np.max(np.abs(h)))


@pytest.mark.parametrize("key", REGISTRY_KEYS)
def test_hessian_matches_central_differences_of_gradient(key):
    p = get_potential(key)
    rng = np.random.default_rng(200 + zlib.crc32(key.encode()) % 1000)
    for _ in range(20):
        x = sample_point(p, rng)
        h = p.hessian(x)
        step = 1e-6 * max(1.0, np.max(np.abs(x)))
        central = np.zeros_like(h)
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = step
            central[:, j] = (p.gradient(x + e) - p.gradient(x - e)) / (2.0 * step)
        assert np.max(np.abs(h - central)) <= 1e-5 * max(1.0, np.max(np.abs(h)))
