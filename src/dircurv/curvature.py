"""Directional curvature of an implicit convex body at a boundary point.

For a tangent direction u at a validated boundary point xi, the gauge-relative
curvature is

    gamma_hat(u) = <H u, u> / (2 <xi, grad f> |u|^2)

with H the Hessian of f at xi, and the boundary (normal-relative) curvature is

    kappa_hat(u) = <H u, u> / (2 |grad f| |u|^2) = gamma_hat(u) / |dual|.

Both are invariant under scaling of u and under scaling of f by a positive
constant; kappa_hat is additionally invariant under translations that keep the
origin interior, while gamma_hat is not (its normalization <xi, grad f> moves
with the origin).  The curvature radius is 1 / (2 kappa_hat), the radius of
the osculating circle of the planar section spanned by u and the normal.

``extrema`` diagonalizes the Hessian restricted to an orthonormal tangent
frame, yielding the smallest and largest kappa_hat over all tangent
directions together with directions attaining them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .body import BoundaryPoint, ImplicitBody, TangentFrame, check_direction, tangent_frame
from .errors import DimensionMismatchError, NegativeCurvatureError, NotInteriorError
from .linalg import sym_eigen

__all__ = [
    "DirectionalCurvature", "CurvatureExtrema",
    "gamma_directional", "kappa_directional", "curvature_radius",
    "extrema", "translate_body",
]

# kappa_hat below this is reported as genuinely negative (a convexity failure
# at the point) rather than a roundoff-flavored zero.
_NEGATIVE_TOL = 1e-10


@dataclass(frozen=True)
class DirectionalCurvature:
    """Curvature of one tangent direction.

    Attributes:
        direction: the tangent direction u as given.
        gamma_hat: gauge-relative curvature.
        kappa_hat: boundary curvature (gamma_hat / |dual|).
        radius_hat: 1 / (2 kappa_hat); +inf when kappa_hat == 0, and the
            signed (negative) value when kappa_hat < 0.
        convexity_warning: True when kappa_hat is negative beyond roundoff,
            which contradicts convexity of the body near the point.
    """

    direction: np.ndarray
    gamma_hat: float
    kappa_hat: float
    radius_hat: float
    convexity_warning: bool


@dataclass(frozen=True)
class CurvatureExtrema:
    """Extremal boundary curvatures over all tangent directions at a point."""

    kappa_min: float
    kappa_max: float
    dir_min: np.ndarray
    dir_max: np.ndarray


def _quadratic_form(p: BoundaryPoint, u: np.ndarray) -> float:
    return float(np.dot(u, p.hess @ u))


def gamma_directional(p: BoundaryPoint, u) -> float:
    """Gauge-relative curvature gamma_hat(u) = <H u, u> / (2 <xi, grad> |u|^2)."""
    v = check_direction(p, u)
    return _quadratic_form(p, v) / (2.0 * p.pairing * float(np.dot(v, v)))


def kappa_directional(p: BoundaryPoint, u) -> DirectionalCurvature:
    """Boundary curvature of the planar section through u, with its radius."""
    v = check_direction(p, u)
    quad = _quadratic_form(p, v)
    usq = float(np.dot(v, v))
    gamma = quad / (2.0 * p.pairing * usq)
    gnorm = float(np.linalg.norm(p.grad))
    kappa = quad / (2.0 * gnorm * usq)
    if kappa == 0.0:
        radius = math.inf
    else:
        radius = 1.0 / (2.0 * kappa)
    return DirectionalCurvature(
        direction=np.asarray(u, dtype=float),
        gamma_hat=gamma,
        kappa_hat=kappa,
        radius_hat=radius,
        convexity_warning=kappa < -_NEGATIVE_TOL,
    )


def curvature_radius(p: BoundaryPoint, u) -> float:
    """Radius 1 / (2 kappa_hat(u)) of the osculating circle; +inf for flat directions.

    Raises:
        NegativeCurvatureError: kappa_hat < 0 beyond roundoff, so no
            osculating circle on the interior side exists.
    """
    dc = kappa_directional(p, u)
    if dc.convexity_warning:
        raise NegativeCurvatureError(
            f"kappa_hat = {dc.kappa_hat!r} is negative; the section bends away "
            f"from the interior"
        )
    if dc.kappa_hat <= 0.0:
        return math.inf
    return dc.radius_hat


def extrema(p: BoundaryPoint, frame: TangentFrame | None = None) -> CurvatureExtrema:
    """Extremal kappa_hat over the tangent hyperplane, with attaining directions.

    The Hessian is restricted to the orthonormal tangent frame q_1..q_{n-1}
    as M[a, b] = <H q_a, q_b>; its extreme eigenvalues divided by 2 |grad|
    are the extreme curvatures, and the eigenvectors pull back to unit
    tangent directions.
    """
    if frame is None:
        frame = tangent_frame(p)
    q = np.array(frame.ortho)
    mat = q @ p.hess @ q.T
    vals, vecs = sym_eigen(0.5 * (mat + mat.T))  # matmul rounding is not symmetric
    gnorm = float(np.linalg.norm(p.grad))
    scale = 1.0 / (2.0 * gnorm)

    def pull_back(col: int) -> np.ndarray:
        d = vecs[:, col] @ q
        return d / float(np.linalg.norm(d))

    return CurvatureExtrema(
        kappa_min=vals[0] * scale,
        kappa_max=vals[-1] * scale,
        dir_min=pull_back(0),
        dir_max=pull_back(-1),
    )


def translate_body(body: ImplicitBody, y) -> ImplicitBody:
    """Re-center the body at the interior point y: new field g(x) = f(x + y).

    The translated body describes the same solid in coordinates where y is
    the new origin; kappa_hat is unchanged by this, gamma_hat is not.

    Raises:
        NotInteriorError: f(y) >= 0, so y is not an interior point.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != body.n:
        raise DimensionMismatchError(f"center must have length {body.n}, got shape {y.shape}")
    fy = body.value(y)
    if not fy < 0.0:
        raise NotInteriorError(f"new center is not interior: f(y) = {fy!r} is not < 0")
    replacements = {}
    for k in range(1, body.n + 1):
        if y[k - 1] != 0.0:
            replacements[k] = expr.Add(expr.Variable(k), expr.Number(y[k - 1]))
    g = expr.substitute(body.f, replacements) if replacements else body.f
    return ImplicitBody(
        n=body.n, f=g, delta=body.delta,
        tol_boundary=body.tol_boundary, tol_pivot=body.tol_pivot,
    )
