"""Dense kernels for small vectors and matrices (n <= body.MAX_DIMENSION = 256).

determinant        -- LAPACK LU with partial pivoting of one square matrix
exterior_magnitude -- wedge-product magnitude from the 2x2 minors
orthonormalize     -- modified Gram-Schmidt (two passes)
sym_eigen          -- LAPACK symmetric eigensolver, eigenvalues ascending

determinant and sym_eigen are thin checked wrappers over numpy.linalg; a
LAPACK failure surfaces as a typed NumericalError.  All tolerances are
scale-relative (multiplied by the largest absolute entry) so badly scaled
inputs behave the same as unit-scale ones.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonFiniteValueError,
    NotSymmetricError,
    RankDeficientError,
)

__all__ = ["determinant", "exterior_magnitude", "orthonormalize", "sym_eigen"]


def determinant(a) -> float:
    """Determinant of one square matrix by LAPACK's LU with partial pivoting (``numpy.linalg.det``)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return float(np.linalg.det(a))


def exterior_magnitude(u, v) -> float:
    """Magnitude of the wedge product u ^ v: sqrt of the sum of squared 2x2 minors.

    Equals the area of the parallelogram spanned by u and v; cross-checked in
    tests against the Lagrange identity |u|^2 |v|^2 - <u,v>^2.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise DimensionMismatchError(f"expected two vectors of equal length, got {u.shape} and {v.shape}")
    n = u.shape[0]
    if n < 2:
        raise DimensionMismatchError("wedge magnitude needs dimension >= 2")
    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            minor = u[i] * v[j] - u[j] * v[i]
            total += minor * minor
    return math.sqrt(total)


def orthonormalize(vs) -> list[np.ndarray]:
    """Modified Gram-Schmidt with a re-orthogonalization pass.

    Raises RankDeficientError naming the 1-based index of the first input
    vector that collapses into the span of its predecessors (residual norm
    <= 1e-10 relative to the vector's own norm).
    """
    out: list[np.ndarray] = []
    size = None
    for idx, v in enumerate(vs, start=1):
        w = np.array(v, dtype=float)
        if w.ndim != 1:
            raise DimensionMismatchError("expected vectors")
        if size is None:
            size = w.shape[0]
        elif w.shape[0] != size:
            raise DimensionMismatchError("vectors of mixed lengths")
        scale = float(np.linalg.norm(w))
        for _ in range(2):  # twice is enough
            for q in out:
                w = w - float(np.dot(q, w)) * q
        residual = float(np.linalg.norm(w))
        if residual <= 1e-10 * (scale if scale > 0.0 else 1.0):
            raise RankDeficientError(idx)
        out.append(w / residual)
    return out


def sym_eigen(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Returns (eigenvalues ascending, matrix whose COLUMNS are the matching
    eigenvectors).  Eigenvectors are unique only up to sign (and rotation
    within a repeated eigenvalue's eigenspace).

    Raises:
        NonFiniteValueError: a has an inf or nan entry (LAPACK would return
            nan eigenvalues without complaint).
        NotSymmetricError: a and its transpose differ by more than
            1e-12 * maxAbs(a).
        NoConvergenceError: LAPACK reports that the eigensolver did not
            converge.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteValueError("matrix has non-finite entries", location="matrix")
    scale = float(np.max(np.abs(a), initial=0.0))
    if float(np.max(np.abs(a - a.T), initial=0.0)) > 1e-12 * scale:
        raise NotSymmetricError("matrix is not symmetric within 1e-12 relative tolerance")
    try:
        vals, vecs = np.linalg.eigh(0.5 * (a + a.T))  # fold roundoff asymmetry
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigensolver failed: {exc}") from None
    return vals, vecs
