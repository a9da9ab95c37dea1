import numpy as np
import pytest

from ddcid.potentials import EvaluationError, make_camel
from ddcid.spectral import (
    NoPositiveSubspaceError,
    NotSymmetricError,
    ZeroGradientError,
    alignment_ratio,
    eigendecompose,
    newton_solve,
    positive_part_pseudoinverse,
)


def random_symmetric(rng, n, eigenvalues=None):
    """Random symmetric matrix with optionally prescribed spectrum."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if eigenvalues is None:
        eigenvalues = rng.standard_normal(n) * 3.0
    return q @ np.diag(eigenvalues) @ q.T, np.asarray(eigenvalues, dtype=float)


# --- eigendecompose ---------------------------------------------------------

def test_diagonal_example():
    s = eigendecompose(np.diag([2.0, -1.0]))
    assert np.allclose(s.eigenvalues, [2.0, -1.0])
    assert s.inertia == (1, 0, 1)


def test_extremal_diagonal():
    s = eigendecompose(np.diag([3.0, 1.0, -2.0]))
    assert s.eigenvalues[0] == pytest.approx(3.0)
    assert s.eigenvalues[-1] == pytest.approx(-2.0)
    v1, vn = s.eigenvectors[:, 0], s.eigenvectors[:, -1]
    assert np.allclose(np.abs(v1), [1, 0, 0])
    assert np.allclose(np.abs(vn), [0, 0, 1])
    assert v1[np.nonzero(v1)[0][0]] > 0 and vn[np.nonzero(vn)[0][0]] > 0


def test_identity_inertia():
    s = eigendecompose(np.eye(5))
    assert s.inertia == (5, 0, 0)


def test_camel_hessian_at_origin():
    s = eigendecompose(make_camel().hessian(np.zeros(2)))
    assert np.max(np.abs(s.eigenvalues - [8.0623, -8.0623])) < 1e-3
    assert s.inertia == (1, 0, 1)


def test_eigenvalues_descending_and_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        h, _ = random_symmetric(rng, n)
        s = eigendecompose(h)
        assert np.all(np.diff(s.eigenvalues) <= 1e-14)
        v = s.eigenvectors
        scale = 1.0 + np.linalg.norm(h)
        assert np.linalg.norm(v @ np.diag(s.eigenvalues) @ v.T - h) <= 1e-10 * scale
        assert np.linalg.norm(v.T @ v - np.eye(n)) < 1e-12
        for i in range(n):
            resid = h @ v[:, i] - s.eigenvalues[i] * v[:, i]
            assert np.linalg.norm(resid) <= 1e-12 * max(1.0, np.linalg.norm(h))


def test_eigenvector_sign_convention():
    rng = np.random.default_rng(3)
    h, _ = random_symmetric(rng, 6)
    s = eigendecompose(h)
    for j in range(6):
        col = s.eigenvectors[:, j]
        first = col[np.nonzero(col)[0][0]]
        assert first > 0
    assert eigendecompose(np.zeros((0, 0))).inertia == (0, 0, 0)


def test_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite(bad):
    # NaN would otherwise pass the symmetry check and get an inertia.
    with pytest.raises(EvaluationError):
        eigendecompose(np.array([[1.0, bad], [bad, -1.0]]))
    with pytest.raises(EvaluationError):
        eigendecompose(np.diag([bad, 1.0]))


def test_zero_tolerance_classification():
    # Eigenvalues within n eps max(1, max|lam|) (here 3 eps) count as zero.
    s = eigendecompose(np.diag([1.0, 1e-17, -1.0]))
    assert s.inertia == (1, 1, 1)
    s = eigendecompose(np.diag([1.0, 1e-12, -1.0]))
    assert s.inertia == (2, 0, 1)


def test_inertia_stable_under_small_perturbations():
    # Perturbations below the smallest |eigenvalue| cannot change the inertia.
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        lam = rng.uniform(0.5, 4.0, n) * rng.choice([-1.0, 1.0], n)
        h, _ = random_symmetric(rng, n, lam)
        delta = np.min(np.abs(lam))
        e, _ = random_symmetric(rng, n)
        e *= 0.9 * delta / np.linalg.norm(e, 2)
        assert eigendecompose(h + e).inertia == eigendecompose(h).inertia


# --- positive_part_pseudoinverse -------------------------------------------

def test_ppi_positive_definite_is_inverse():
    rng = np.random.default_rng(5)
    h, _ = random_symmetric(rng, 5, rng.uniform(0.5, 3.0, 5))
    m = positive_part_pseudoinverse(eigendecompose(h))
    assert np.allclose(m, np.linalg.inv(h), atol=1e-10)


def test_ppi_diagonal_example():
    m = positive_part_pseudoinverse(eigendecompose(np.diag([2.0, -1.0])))
    assert np.allclose(m, np.diag([0.5, 0.0]), atol=1e-14)


def test_ppi_moore_penrose_identities():
    rng = np.random.default_rng(17)
    lam = np.concatenate([rng.uniform(0.5, 3.0, 4), -rng.uniform(0.5, 3.0, 2)])
    h, _ = random_symmetric(rng, 6, lam)
    s = eigendecompose(h)
    h_plus = s.positive_vectors @ np.diag(s.positive_eigenvalues) @ s.positive_vectors.T
    m = positive_part_pseudoinverse(s)
    assert np.linalg.norm(m @ h_plus @ m - m) < 1e-10
    assert np.linalg.norm(h_plus @ m @ h_plus - h_plus) < 1e-9
    assert np.linalg.norm((h_plus @ m).T - h_plus @ m) < 1e-9
    assert np.linalg.norm((m @ h_plus).T - m @ h_plus) < 1e-9


def test_ppi_requires_positive_subspace():
    with pytest.raises(NoPositiveSubspaceError):
        positive_part_pseudoinverse(eigendecompose(-np.eye(3)))


# --- newton_solve -----------------------------------------------------------

def test_newton_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert np.allclose(newton_solve(np.eye(3), b), b)


def test_newton_solve_minimum_norm_diagonal():
    v = newton_solve(np.diag([2.0, 0.0]), np.array([4.0, 0.0]))
    assert np.allclose(v, [2.0, 0.0], atol=1e-12)


def test_newton_solve_well_conditioned_residual():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h, _ = random_symmetric(rng, 8, rng.uniform(0.5, 5.0, 8) * rng.choice([-1, 1], 8))
        rhs = rng.standard_normal(8)
        v = newton_solve(h, rhs)
        assert np.linalg.norm(h @ v - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_newton_solve_singular_consistent_minimum_norm():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        rank = int(rng.integers(1, n))
        lam = np.concatenate([rng.uniform(0.5, 3.0, rank) * rng.choice([-1, 1], rank),
                              np.zeros(n - rank)])
        h, _ = random_symmetric(rng, n, lam)
        rhs = h @ rng.standard_normal(n)          # consistent by construction
        v = newton_solve(h, rhs)
        expected = np.linalg.pinv(h) @ rhs
        assert np.linalg.norm(v - expected) < 1e-8 * max(1.0, np.linalg.norm(expected))
        # any other solution (min-norm plus a null vector) is longer
        w, vecs = np.linalg.eigh(h)
        null = vecs[:, np.abs(w) < 1e-10]
        for _ in range(5):
            other = v + null @ rng.standard_normal(null.shape[1])
            assert np.linalg.norm(other) >= np.linalg.norm(v) - 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_newton_solve_rejects_non_finite(bad):
    with pytest.raises(EvaluationError):
        newton_solve(np.array([[1.0, bad], [bad, -1.0]]), np.ones(2))
    with pytest.raises(EvaluationError):
        newton_solve(np.eye(2), np.array([1.0, bad]))


def test_newton_solve_zero_matrix():
    assert np.allclose(newton_solve(np.zeros((3, 3)), np.ones(3)), np.zeros(3))


# --- alignment_ratio --------------------------------------------------------

def test_alignment_positive_definite_is_one():
    rng = np.random.default_rng(31)
    h, _ = random_symmetric(rng, 4, rng.uniform(0.5, 2.0, 4))
    s = eigendecompose(h)
    grad = rng.standard_normal(4)
    assert alignment_ratio(s, grad) == pytest.approx(1.0)


def test_alignment_orthogonal_gradient_is_zero():
    s = eigendecompose(np.diag([2.0, -1.0]))
    grad = s.eigenvectors[:, 1] * 0.7     # entirely in the negative subspace
    assert alignment_ratio(s, grad) == pytest.approx(0.0, abs=1e-15)


def test_alignment_mixed_projection():
    s = eigendecompose(np.diag([2.0, -1.0]))
    grad = s.eigenvectors[:, 0] + s.eigenvectors[:, 1]
    assert alignment_ratio(s, grad) == pytest.approx(1.0 / np.sqrt(2.0))


def test_alignment_zero_gradient_rejected():
    s = eigendecompose(np.eye(2))
    with pytest.raises(ZeroGradientError):
        alignment_ratio(s, np.zeros(2))
