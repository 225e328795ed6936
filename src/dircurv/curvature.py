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

``extrema`` diagonalizes the Hessian restricted to the orthonormalized
tangent frame, yielding the smallest and largest kappa_hat over all tangent
directions together with directions attaining them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import expr
from .body import (
    BoundaryPoint, ImplicitBody, _vector, check_direction, require_finite, tangent_frame,
)
from .errors import NegativeCurvatureError, NotInteriorError
from .linalg import orthonormalize, sym_eigen

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
            signed (negative) value when kappa_hat < 0.  It is +inf or -inf
            too when |kappa_hat| is below about 2.8e-309, where the radius
            exceeds the float range.
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


@np.errstate(all="ignore")  # overflow is reported by the finiteness checks
def _quadratic_form(p: BoundaryPoint, u: np.ndarray) -> float:
    return float(np.dot(u, p.hess @ u))


def gamma_directional(p: BoundaryPoint, u) -> float:
    """Gauge-relative curvature gamma_hat(u) = <H u, u> / (2 <xi, grad> |u|^2).

    Raises:
        NonFiniteValueError: gamma_hat overflows.
    """
    v = check_direction(p, u)
    gamma = _quadratic_form(p, v) / (2.0 * p.pairing * float(np.dot(v, v)))
    require_finite("gamma_hat", gamma)
    return gamma


def kappa_directional(p: BoundaryPoint, u) -> DirectionalCurvature:
    """Boundary curvature of the planar section through u, with its radius.

    Raises:
        NonFiniteValueError: gamma_hat or kappa_hat overflows.
    """
    v = check_direction(p, u)
    quad = _quadratic_form(p, v)
    usq = float(np.dot(v, v))
    gamma = quad / (2.0 * p.pairing * usq)
    kappa = quad / (2.0 * p.gnorm * usq)
    require_finite("gamma_hat", gamma)
    require_finite("kappa_hat", kappa)
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


@np.errstate(all="ignore")  # overflow is reported by the finiteness checks
def extrema(p: BoundaryPoint) -> CurvatureExtrema:
    """Extremal kappa_hat over the tangent hyperplane, with attaining directions.

    The tangent frame u^j is orthonormalized (``linalg.orthonormalize``) to
    q_1..q_{n-1}, and the Hessian is restricted to it as
    M[a, b] = <H q_a, q_b>; its extreme eigenvalues divided by 2 |grad| are
    the extreme curvatures, and the eigenvectors pull back to unit tangent
    directions.

    Raises:
        NonFiniteValueError: M or an extreme curvature overflows.
    """
    q = np.array(orthonormalize(tangent_frame(p).basis))
    mat = q @ p.hess @ q.T
    vals, vecs = sym_eigen(0.5 * (mat + mat.T))  # matmul rounding is not symmetric
    scale = 1.0 / (2.0 * p.gnorm)

    def pull_back(col: int) -> np.ndarray:
        d = vecs[:, col] @ q
        return d / float(np.linalg.norm(d))

    kappa_min, kappa_max = vals[0] * scale, vals[-1] * scale
    require_finite("kappa_min", kappa_min)
    require_finite("kappa_max", kappa_max)
    return CurvatureExtrema(
        kappa_min=kappa_min,
        kappa_max=kappa_max,
        dir_min=pull_back(0),
        dir_max=pull_back(-1),
    )


def translate_body(body: ImplicitBody, y) -> ImplicitBody:
    """Re-center the body at the interior point y: new field g(x) = f(x + y).

    The translated body describes the same solid in coordinates where y is
    the new origin; kappa_hat is unchanged by this, gamma_hat is not.

    Raises:
        DimensionMismatchError: y is not a vector of length n.
        InputError: y is not a vector of real numbers, or has a non-finite coordinate.
        NotInteriorError: f(y) >= 0, so y is not an interior point.
    """
    y = _vector(y, body.n, "center")
    fy = body.value(y)
    if not fy < 0.0:
        raise NotInteriorError(f"new center is not interior: f(y) = {fy!r} is not < 0")
    replacements = {}
    for k in range(1, body.n + 1):
        if y[k - 1] != 0.0:
            replacements[k] = expr.Add(expr.Variable(k), expr.Number(y[k - 1]))
    g = expr.substitute(body.f, replacements) if replacements else body.f
    return replace(body, f=g)
