"""Hessian spectral machinery: ordered eigendecompositions, inertia,
positive-part pseudoinverses and pivoted-QR Newton solves."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .potentials import EvaluationError


class NotSymmetricError(ValueError):
    """Input matrix is not symmetric within tolerance."""


class NoPositiveSubspaceError(ValueError):
    """The matrix has no positive eigenvalues; callers should fall back to
    gradient descent."""


class ZeroGradientError(ValueError):
    """Gradient is zero: the point is already critical."""


@dataclass
class SpectralInfo:
    """Eigendecomposition of a symmetric matrix with descending eigenvalues
    and its inertia (n_plus, n_zero, n_minus)."""

    eigenvalues: np.ndarray          # descending: lam[0] >= ... >= lam[n-1]
    eigenvectors: np.ndarray         # orthonormal columns aligned with eigenvalues
    inertia: tuple[int, int, int]

    @property
    def dimension(self) -> int:
        return self.eigenvalues.size

    @property
    def n_plus(self) -> int:
        return self.inertia[0]

    @property
    def n_zero(self) -> int:
        return self.inertia[1]

    @property
    def n_minus(self) -> int:
        return self.inertia[2]

    @property
    def is_positive_definite(self) -> bool:
        return self.n_plus == self.dimension

    @property
    def positive_vectors(self) -> np.ndarray:
        """Columns spanning the positive eigenspace (may be empty)."""
        return self.eigenvectors[:, : self.n_plus]

    @property
    def positive_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[: self.n_plus]


def _require_symmetric(H: np.ndarray) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {H.shape}")
    # NaN would pass the comparisons below and yield a meaningless inertia.
    # EvaluationError is handled as a failed evaluation of the potential.
    scale = float(np.max(np.abs(H))) if H.size else 0.0
    if not math.isfinite(scale):
        raise EvaluationError("matrix has non-finite entries")
    asym = np.max(np.abs(H - H.T)) if H.size else 0.0
    tol = np.sqrt(np.finfo(float).eps) * max(1.0, scale)
    if asym > tol:
        raise NotSymmetricError(f"matrix asymmetry {asym:.3e} exceeds tolerance {tol:.3e}")
    return 0.5 * (H + H.T)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Deterministic sign: first nonzero component of each eigenvector positive.
    if vectors.size == 0:
        return vectors
    leading = vectors[(vectors != 0).argmax(axis=0), range(vectors.shape[1])]
    return np.where(leading < 0, -vectors, vectors)


def eigendecompose(H: np.ndarray) -> SpectralInfo:
    """Symmetric eigendecomposition with eigenvalues sorted descending.

    Eigenvalues with |lam| <= n eps max(1, max|lam|) count as zero in the
    inertia.  Rejects matrices that are not symmetric within tolerance, and
    raises EvaluationError on NaN or infinite entries.
    """
    sym = _require_symmetric(H)
    w, v = np.linalg.eigh(sym)
    eigenvalues = w[::-1].copy()
    eigenvectors = _fix_signs(v[:, ::-1].copy())
    n = eigenvalues.size
    scale = float(np.max(np.abs(eigenvalues))) if n else 0.0
    zero_tol = n * np.finfo(float).eps * max(1.0, scale)
    n_plus = int(np.count_nonzero(eigenvalues > zero_tol))
    n_minus = int(np.count_nonzero(eigenvalues < -zero_tol))
    return SpectralInfo(eigenvalues, eigenvectors, (n_plus, n - n_plus - n_minus, n_minus))


def positive_part_pseudoinverse(s: SpectralInfo) -> np.ndarray:
    """Pseudoinverse of the positive part: V_plus diag(1/lam_plus) V_plus^T.

    This is the Moore-Penrose inverse of the closest positive semidefinite
    matrix; raises NoPositiveSubspaceError when there are no positive
    eigenvalues.
    """
    if s.n_plus == 0:
        raise NoPositiveSubspaceError("matrix has no positive eigenvalues")
    v_plus = s.positive_vectors
    return (v_plus / s.positive_eigenvalues) @ v_plus.T


def newton_solve(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H v = rhs via QR with column pivoting.

    A rank-deficient H (trailing ~zero diagonal of R) yields the minimum-norm
    solution of the consistent part of the system.  Non-finite input raises
    EvaluationError.
    """
    H = np.asarray(H, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not (np.isfinite(H).all() and np.isfinite(rhs).all()):
        raise EvaluationError("matrix or right-hand side has non-finite entries")
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
        # Minimum-norm solution of the consistent rows R[:rank] z = c[:rank].
        z, *_ = scipy.linalg.lstsq(r[:rank, :], c[:rank])
    out = np.empty(n)
    out[perm] = z
    return out


def alignment_ratio(s: SpectralInfo, grad: np.ndarray) -> float:
    """Fraction of the gradient lying in the positive eigenspace:
    ||V_plus^T grad|| / ||grad||, in [0, 1]."""
    grad = np.asarray(grad, dtype=float)
    norm = np.linalg.norm(grad)
    if norm == 0.0:
        raise ZeroGradientError("gradient is zero; the point is already critical")
    if s.n_plus == 0:
        return 0.0
    return float(np.linalg.norm(s.positive_vectors.T @ grad) / norm)
