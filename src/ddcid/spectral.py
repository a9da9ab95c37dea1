"""Hessian spectral machinery: ordered eigendecompositions, inertia and the
kind it gives, positive-part pseudoinverses and pivoted-QR Newton solves."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqp3, dorgqr, dtrtrs

from .potentials import EvaluationError

KIND_MINIMUM = "minimum"
KIND_SADDLE = "saddle"
KIND_MAXIMUM = "maximum"
KIND_DEGENERATE = "degenerate"

_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)


class NotSymmetricError(ValueError):
    """Input matrix is not symmetric within tolerance."""


@dataclass
class SpectralInfo:
    """Eigendecomposition of a symmetric matrix with descending eigenvalues
    and its inertia: the numbers of positive, zero and negative eigenvalues."""

    eigenvalues: np.ndarray          # descending: lam[0] >= ... >= lam[n-1]
    eigenvectors: np.ndarray         # orthonormal columns aligned with eigenvalues
    inertia: tuple[int, int, int]

    @property
    def n_plus(self) -> int:
        return self.inertia[0]

    @property
    def n_minus(self) -> int:
        return self.inertia[2]


def kind_from_inertia(inertia: tuple[int, int, int]) -> str:
    """The one rule that names a critical point's kind from its inertia."""
    n_plus, n_zero, n_minus = inertia
    if n_zero > 0:
        return KIND_DEGENERATE
    if n_minus == 0:
        return KIND_MINIMUM
    return KIND_SADDLE if n_plus > 0 else KIND_MAXIMUM


def _require_symmetric(H: np.ndarray) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {H.shape}")
    # NaN would pass the comparisons below and yield a meaningless inertia.
    # EvaluationError is handled as a failed evaluation of the potential.
    scale = float(np.abs(H).max()) if H.size else 0.0
    if not math.isfinite(scale):
        raise EvaluationError("matrix has non-finite entries")
    asym = np.abs(H - H.T).max() if H.size else 0.0
    tol = _SQRT_EPS * max(1.0, scale)
    if asym > tol:
        raise NotSymmetricError(f"matrix asymmetry {asym:.3e} exceeds tolerance {tol:.3e}")
    return 0.5 * (H + H.T)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Deterministic sign, set in place: first nonzero component of each column positive.
    if vectors.size:
        leading = vectors[(vectors != 0).argmax(axis=0), np.arange(vectors.shape[1])]
        vectors *= np.copysign(1.0, leading)
    return vectors


def eigendecompose(H: np.ndarray) -> SpectralInfo:
    """Symmetric eigendecomposition with eigenvalues sorted descending.

    Eigenvalues with |lam| <= n eps max(1, max|lam|) count as zero in the
    inertia.  Rejects matrices that are not symmetric within tolerance, and
    raises EvaluationError on NaN or infinite entries.
    """
    w, v = np.linalg.eigh(_require_symmetric(H))
    eigenvalues = w[::-1].copy()
    eigenvectors = _fix_signs(v[:, ::-1].copy())
    n = eigenvalues.size
    # max |lam| is at one end of the sorted eigenvalues.
    scale = max(float(eigenvalues[0]), -float(eigenvalues[-1])) if n else 0.0
    zero_tol = n * _EPS * max(1.0, scale)
    # w ascends: n_minus eigenvalues lie below -zero_tol and n_plus above zero_tol.
    n_minus = int(w.searchsorted(-zero_tol))
    n_plus = n - int(w.searchsorted(zero_tol, side="right"))
    return SpectralInfo(eigenvalues, eigenvectors, (n_plus, n - n_plus - n_minus, n_minus))


def positive_part_pseudoinverse(s: SpectralInfo) -> np.ndarray:
    """Pseudoinverse of the positive part: V_plus diag(1/lam_plus) V_plus^T.

    This is the Moore-Penrose inverse of the closest positive semidefinite
    matrix, and the zero matrix when there are no positive eigenvalues.
    """
    v_plus = s.eigenvectors[:, : s.n_plus]
    return (v_plus / s.eigenvalues[: s.n_plus]) @ v_plus.T


@cache
def _workspaces(n: int) -> tuple[int, int]:
    """The optimal workspace sizes of dgeqp3 and dorgqr at order n, as
    scipy.linalg.qr queries them; they depend on n alone."""
    a, tau = np.zeros((n, n)), np.zeros(n)
    return int(dgeqp3(a, lwork=-1)[-2][0]), int(dorgqr(a, tau, lwork=-1)[-2][0])


def _check(routine, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} returned info {info}")


def newton_solve(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H v = rhs via QR with column pivoting (LAPACK dgeqp3).

    A rank-deficient H (trailing ~zero diagonal of R) yields the minimum-norm
    solution of the consistent part of the system.  Non-finite input raises
    EvaluationError.
    """
    H = np.asarray(H, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not (np.isfinite(H).all() and np.isfinite(rhs).all()):
        raise EvaluationError("matrix or right-hand side has non-finite entries")
    n = H.shape[0]
    if n == 0:
        return np.zeros(0)
    # The LAPACK calls of scipy.linalg.qr(H, pivoting=True) and solve_triangular.
    # R is the upper triangle of qr; dorgqr works on a copy and leaves it.
    lwork_qr, lwork_q = _workspaces(n)
    qr, jpvt, tau, _, info = dgeqp3(H, lwork=lwork_qr)
    _check(dgeqp3, info)
    q, _, info = dorgqr(qr, tau, lwork=lwork_q)
    _check(dorgqr, info)
    diag = np.abs(qr.diagonal())
    if diag[0] == 0.0:
        return np.zeros(n)
    rank = int(np.count_nonzero(diag > n * _EPS * diag[0]))
    c = q.T @ rhs
    if rank == n:
        # As solve_triangular does: L^T z = c for L = qr.T, read as lower-triangular.
        z, info = dtrtrs(qr.T, c, lower=1, trans=1)
        _check(dtrtrs, info)
    else:
        # Minimum-norm solution of the consistent rows R[:rank] z = c[:rank].
        z, *_ = scipy.linalg.lstsq(np.triu(qr[:rank, :]), c[:rank])
    out = np.empty(n)
    out[jpvt - 1] = z
    return out

