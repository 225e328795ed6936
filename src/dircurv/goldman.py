"""Curvature of a normal section computed as an intersection curve.

The planar section at a boundary point xi in direction u^j is cut out of the
level set {f = 0} by n-2 hyperplanes through xi whose gradients are

    e_k + a_{ki} e_i + a_{kj} e_j,    k outside {i, j},

with coefficients a_{kl} = -f_l f_k / (f_i^2 + f_j^2) chosen so that each
hyperplane contains both the gradient direction and u^j.  Stacking the
gradient of f on top of these constant rows gives an (n-1) x n matrix; the
tangent of the intersection curve is the generalized cross product of its
rows,

    Tan_m = (-1)^(1+m) det(matrix with column m removed).

Expanded along the f row, every component is a linear combination of the
partials of f with constant weights: Tan = W . grad f for a constant
antisymmetric matrix W.  The weights are the signed minors of the plane rows
R, but they are not formed one by one: with (a, b) an orthonormal basis of
ker R, taken from one complete QR of R^T, and M = [R; a^T; b^T], Jacobi's
complementary-minor identity gives W = det(M) (a b^T - b a^T), in O(n^2)
memory.  Hence d Tan / dx = H . W^T exactly, with H the Hessian of f.  The
curve curvature is then

    k_G = |(Tan . grad Tan) ^ Tan| / |Tan|^3,

a first-derivative formula in Tan, hence a second-derivative formula in f.
Componentwise the two-form magnitude is taken of the acceleration vector
Tan . grad Tan against Tan itself.  For n = 2 there are no cutting planes and
Tan = (-f_2, f_1) directly.

For the same direction this curve curvature equals twice the boundary
curvature kappa_hat(u^j); eliminating the determinants by hand collapses it
to the closed form

    k_G = |f_ii f_j^2 - 2 f_i f_j f_ij + f_jj f_i^2| / (|grad f| (f_i^2 + f_j^2)),

implemented separately so the two routes can be compared numerically.

Both curvatures are homogeneous of degree zero in (grad f, H), so they do not
depend on the scale of f.  They, and the test for a vanishing tangent, work
on grad f and H multiplied by the power of two nearest 1/|grad f|: an exact
scaling (barring underflow) that leaves every result bit as it was while
|Tan|^3 and the closed form's products stay finite for fields of any scale.

Tangent orientation is pinned only up to sign: the generalized cross product
and the closed-form magnitude agree in length, but their sign conventions
differ for some (i, j) orderings, so all comparisons here are magnitude
comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import BoundaryPoint, require_finite
from .errors import DegenerateTangentError, InvalidIndexError
from .linalg import determinant, exterior_magnitude

__all__ = [
    "PlaneSystem", "plane_system",
    "goldman_tangent", "goldman_curvature_general", "goldman_curvature_closed",
]


@dataclass(frozen=True)
class PlaneSystem:
    """The n-2 cutting hyperplanes selecting the section plane span{grad, u^j}.

    Attributes:
        pivot: the pivot index i.
        j: the free tangent index, j != i.
        rows: (n-2, n) array of the planes' gradients e_k + a_{ki} e_i + a_{kj} e_j,
            one per k outside {i, j} ascending; the planes are rows @ (eta - xi) = 0.
    """

    pivot: int
    j: int
    rows: np.ndarray


def plane_system(p: BoundaryPoint, j: int) -> PlaneSystem:
    """Build the cutting planes at p for tangent index j.

    For n = 2 the system is empty (the section plane is the whole plane).

    Raises:
        InvalidIndexError: j is out of 1..n or equals the pivot.
    """
    n = p.body.n
    i = p.pivot
    if not 1 <= j <= n:
        raise InvalidIndexError(f"tangent index j = {j} is out of range 1..{n}")
    if j == i:
        raise InvalidIndexError(f"tangent index j = {j} coincides with the pivot")
    fi = p.grad[i - 1]
    fj = p.grad[j - 1]
    denom = fi * fi + fj * fj
    ks = [k for k in range(n) if k != i - 1 and k != j - 1]  # 0-based
    fk = p.grad[ks]
    rows = np.zeros((n - 2, n))
    rows[range(n - 2), ks] = 1.0
    rows[:, i - 1] = -fi * fk / denom
    rows[:, j - 1] = -fj * fk / denom
    return PlaneSystem(pivot=i, j=j, rows=rows)


def _tangent_weights(system: PlaneSystem) -> np.ndarray:
    """Constant matrix W with Tan = W . grad f, so that d Tan / dx = H . W^T.

    Tan . v = det([v; grad f; R]) for the plane rows R.  Reduced by the rows
    of R, v and grad f keep only their components along (a, b), the last two
    columns of a complete QR of R^T (an orthonormal basis of ker R), so
    W = det(M) (a b^T - b a^T) with M = [R; a^T; b^T].  A rotation or
    reflection of (a, b) scales both factors by the same +-1, so W does not
    depend on the basis QR returns.  For n = 2, Tan = (-f_2, f_1), the
    opposite orientation of det([v; grad f]).
    """
    rows = system.rows
    if rows.shape[1] == 2:
        return np.array([[0.0, -1.0], [1.0, 0.0]])
    q, _ = np.linalg.qr(rows.T, mode="complete")
    a, b = q[:, -2], q[:, -1]
    return determinant(np.vstack([rows, a, b])) * (np.outer(a, b) - np.outer(b, a))


def _unit_scale(gnorm: float) -> float:
    """The power of two nearest 1/gnorm, within the normal float range."""
    return math.ldexp(1.0, -min(max(round(math.log2(gnorm)), -1023), 1022))


def _tangent(p: BoundaryPoint, w: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Tan = W . (s p.grad), |Tan| and s = ``_unit_scale(|grad f|)``, so that |grad (s f)| is near 1."""
    s = _unit_scale(p.gnorm)
    tan = w @ (s * p.grad)
    tnorm = float(np.linalg.norm(tan))
    if not np.isfinite(tnorm) or tnorm <= 1e-12 * (1.0 + (s * p.gnorm) ** 2):
        raise DegenerateTangentError(
            "intersection-curve tangent vanishes; the cutting planes do not "
            "select a curve through the point"
        )
    return tan, tnorm, s


@np.errstate(all="ignore")  # overflow is reported by the finiteness checks
def goldman_tangent(p: BoundaryPoint, system: PlaneSystem) -> np.ndarray:
    """Numeric tangent of the intersection curve at p (orientation up to sign).

    Raises:
        DegenerateTangentError: the tangent vector vanishes.
        NonFiniteValueError: the tangent overflows.
    """
    tan, _, s = _tangent(p, _tangent_weights(system))
    tan = tan / s
    require_finite("tangent", tan)
    return tan


@np.errstate(all="ignore")
def goldman_curvature_general(p: BoundaryPoint, system: PlaneSystem) -> float:
    """Curve curvature via the generalized cross product and its derivatives.

    The tangent's Jacobian d Tan_c / d x_r is (H . W^T)[r, c] with H the
    Hessian at p, exactly; the acceleration is Tan . grad Tan and the result
    |accel ^ Tan| / |Tan|^3.

    Raises:
        DegenerateTangentError: the tangent vector vanishes.
        NonFiniteValueError: the curvature overflows.
    """
    w = _tangent_weights(system)
    tan, tnorm, s = _tangent(p, w)
    accel = tan @ ((s * p.hess) @ w.T)
    k = exterior_magnitude(accel, tan) / tnorm**3
    require_finite("k_general", k)
    return k


@np.errstate(all="ignore")
def goldman_curvature_closed(p: BoundaryPoint, system: PlaneSystem) -> float:
    """Curve curvature by the closed two-index formula (determinants eliminated).

    Raises:
        NonFiniteValueError: the curvature overflows.
    """
    i, j = system.pivot, system.j
    s = _unit_scale(p.gnorm)
    fi = s * p.grad[i - 1]
    fj = s * p.grad[j - 1]
    fii = s * p.hess[i - 1, i - 1]
    fjj = s * p.hess[j - 1, j - 1]
    fij = s * p.hess[i - 1, j - 1]
    k = abs(fii * fj * fj - 2.0 * fi * fj * fij + fjj * fi * fi) / (
        s * p.gnorm * (fi * fi + fj * fj)
    )
    require_finite("k_closed", k)
    return k
