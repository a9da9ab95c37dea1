import numpy as np
import pytest
import scipy.linalg

from ddcid import spectral
from ddcid.potentials import EvaluationError, make_camel
from ddcid.spectral import (
    NotSymmetricError,
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
    v_plus = s.eigenvectors[:, : s.n_plus]
    h_plus = v_plus @ np.diag(s.eigenvalues[: s.n_plus]) @ v_plus.T
    m = positive_part_pseudoinverse(s)
    assert np.linalg.norm(m @ h_plus @ m - m) < 1e-10
    assert np.linalg.norm(h_plus @ m @ h_plus - h_plus) < 1e-9
    assert np.linalg.norm((h_plus @ m).T - h_plus @ m) < 1e-9
    assert np.linalg.norm((m @ h_plus).T - m @ h_plus) < 1e-9


def test_ppi_without_positive_subspace_is_zero():
    m = positive_part_pseudoinverse(eigendecompose(-np.eye(3)))
    assert np.array_equal(m, np.zeros((3, 3)))


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


def test_newton_solve_raises_on_lapack_info(monkeypatch):
    real = spectral.dgeqp3

    def failing_dgeqp3(*args, **kwargs):
        *out, info = real(*args, **kwargs)
        return (*out, -4)

    monkeypatch.setattr(spectral, "dgeqp3", failing_dgeqp3)
    with pytest.raises(np.linalg.LinAlgError):
        newton_solve(np.eye(2), np.ones(2))
    monkeypatch.setattr(spectral, "dgeqp3", real)
    monkeypatch.setattr(spectral, "dtrtrs", lambda a, b, **kwargs: (np.zeros_like(b), 1))
    with pytest.raises(np.linalg.LinAlgError):
        newton_solve(np.eye(2), np.ones(2))


# --- bit identity with the scipy.linalg formulation --------------------------

def reference_newton_solve(H, rhs):
    """newton_solve through scipy.linalg.qr, solve_triangular and lstsq."""
    n = H.shape[0]
    q, r, perm = scipy.linalg.qr(H, pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return np.zeros(n)
    rank = int(np.count_nonzero(diag > n * np.finfo(float).eps * diag[0]))
    c = q.T @ rhs
    if rank == n:
        z = scipy.linalg.solve_triangular(r, c)
    else:
        z, *_ = scipy.linalg.lstsq(r[:rank, :], c[:rank])
    out = np.empty(n)
    out[perm] = z
    return out


def reference_eigendecompose(H):
    """eigendecompose's results, computed step by step without its shortcuts."""
    w, v = np.linalg.eigh(0.5 * (H + H.T))
    eigenvalues = w[::-1].copy()
    vectors = v[:, ::-1].copy()
    leading = vectors[(vectors != 0).argmax(axis=0), range(vectors.shape[1])]
    vectors = np.where(leading < 0, -vectors, vectors)
    n = eigenvalues.size
    zero_tol = n * np.finfo(float).eps * max(1.0, float(np.max(np.abs(eigenvalues))))
    n_plus = int(np.count_nonzero(eigenvalues > zero_tol))
    n_minus = int(np.count_nonzero(eigenvalues < -zero_tol))
    return eigenvalues, vectors, (n_plus, n - n_plus - n_minus, n_minus)


def oracle_matrices(rng, n):
    """Full-rank, rank-deficient and zero symmetric matrices of size n, plus
    a general (nonsymmetric) one for the solver."""
    full, _ = random_symmetric(rng, n)
    yield full
    # Exactly rank-deficient: a random block padded with zero rows and
    # columns, then permuted; and one with a repeated row and column.
    k = n // 2
    padded = np.zeros((n, n))
    padded[:k, :k] = random_symmetric(rng, k)[0]
    perm = rng.permutation(n)
    yield padded[np.ix_(perm, perm)]
    if n > 1:
        repeated = full.copy()
        repeated[-1], repeated[:, -1] = repeated[0], repeated[:, 0]
        repeated[-1, -1] = repeated[0, 0]
        yield repeated
    yield np.zeros((n, n))
    yield rng.standard_normal((n, n))


@pytest.mark.parametrize("n", [1, 2, 3, 18, 33, 50])
def test_newton_solve_matches_scipy_reference_bitwise(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(10):
        for h in oracle_matrices(rng, n):
            for rhs in (rng.standard_normal(n), h @ rng.standard_normal(n)):
                assert np.array_equal(newton_solve(h, rhs), reference_newton_solve(h, rhs))


@pytest.mark.parametrize("n", [1, 2, 3, 18, 33, 50])
def test_eigendecompose_matches_reference_bitwise(n):
    rng = np.random.default_rng(2000 + n)
    for _ in range(10):
        for h in list(oracle_matrices(rng, n))[:-1]:
            s = eigendecompose(h)
            eigenvalues, vectors, inertia = reference_eigendecompose(h)
            assert np.array_equal(s.eigenvalues, eigenvalues)
            assert np.array_equal(s.eigenvectors, vectors)
            assert s.inertia == inertia


def test_eigendecompose_sign_rule_skips_zero_leading_components():
    # Two eigenvectors, (0, 1, +-1)/sqrt(2), start with a zero component.
    h = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    s = eigendecompose(h)
    eigenvalues, vectors, inertia = reference_eigendecompose(h)
    assert np.array_equal(s.eigenvectors, vectors) and s.inertia == inertia
    assert np.any(s.eigenvectors[0] == 0.0)
    for col in s.eigenvectors.T:
        assert col[np.nonzero(col)[0][0]] > 0
