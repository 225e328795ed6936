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
partials of f with constant weights, the signed minors of the plane rows:
Tan = W . grad f for a constant antisymmetric matrix W, hence
d Tan / dx = H . W^T exactly, with H the Hessian of f.  The curve
curvature is then

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

Tangent orientation is pinned only up to sign: the cofactor expansion and the
closed-form magnitude agree in length, but their sign conventions differ for
some (i, j) orderings, so all comparisons here are magnitude comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body import BoundaryPoint
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
        ks: the remaining indices, ascending.
        coeffs: plane coefficients keyed (k, l) for k in ks, l in (i, j).
    """

    pivot: int
    j: int
    ks: tuple[int, ...]
    coeffs: dict[tuple[int, int], float]

    def gradient_rows(self, n: int) -> list[np.ndarray]:
        """Constant gradients of the cutting planes, one per k."""
        rows = []
        for k in self.ks:
            row = np.zeros(n)
            row[k - 1] = 1.0
            row[self.pivot - 1] = self.coeffs[(k, self.pivot)]
            row[self.j - 1] = self.coeffs[(k, self.j)]
            rows.append(row)
        return rows

    def residual(self, xi: np.ndarray, eta: np.ndarray, k: int) -> float:
        """Value of the k-th plane at eta (zero when eta lies on the plane)."""
        i, j = self.pivot, self.j
        return float(
            (eta[k - 1] - xi[k - 1])
            + self.coeffs[(k, i)] * (eta[i - 1] - xi[i - 1])
            + self.coeffs[(k, j)] * (eta[j - 1] - xi[j - 1])
        )


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
    coeffs = {}
    ks = tuple(k for k in range(1, n + 1) if k != i and k != j)
    for k in ks:
        fk = p.grad[k - 1]
        coeffs[(k, i)] = -fi * fk / denom
        coeffs[(k, j)] = -fj * fk / denom
    return PlaneSystem(pivot=i, j=j, ks=ks, coeffs=coeffs)


def _tangent_weights(system: PlaneSystem, n: int) -> np.ndarray:
    """Constant matrix W with Tan = W . grad f, so that d Tan / dx = H . W^T.

    Expanding the generalized cross product along the f row gives, for
    m < c (1-based), W[m, c] = (-1)^(m+c+1) det(plane rows without columns
    m and c).  W is antisymmetric (Tan . grad f = 0 for every gradient), so
    only these n(n-1)/2 minors are computed, in one stacked determinant.
    For n = 2, Tan = (-f_2, f_1).
    """
    if n == 2:
        return np.array([[0.0, -1.0], [1.0, 0.0]])
    rows = np.array(system.gradient_rows(n))
    upper = np.triu_indices(n, 1)
    kept = [[col for col in range(n) if col != m and col != c] for m, c in zip(*upper)]
    minors = rows[:, kept].transpose(1, 0, 2)  # (pairs, n-2, n-2)
    signs = np.where((upper[0] + upper[1]) % 2 == 0, -1.0, 1.0)
    w = np.zeros((n, n))
    w[upper] = signs * determinant(minors)
    return w - w.T


def _tangent(p: BoundaryPoint, w: np.ndarray) -> np.ndarray:
    # grad f evaluated afresh from the body, not read from p.grad
    tan = w @ p.body.gradient(p.point)
    gnorm = float(np.linalg.norm(p.grad))
    tnorm = float(np.linalg.norm(tan))
    if not np.isfinite(tnorm) or tnorm <= 1e-12 * (1.0 + gnorm * gnorm):
        raise DegenerateTangentError(
            "intersection-curve tangent vanishes; the cutting planes do not "
            "select a curve through the point"
        )
    return tan


def goldman_tangent(p: BoundaryPoint, system: PlaneSystem) -> np.ndarray:
    """Numeric tangent of the intersection curve at p (orientation up to sign).

    Raises:
        DegenerateTangentError: the tangent vector vanishes.
    """
    return _tangent(p, _tangent_weights(system, p.body.n))


def goldman_curvature_general(p: BoundaryPoint, system: PlaneSystem) -> float:
    """Curve curvature via the generalized cross product and its derivatives.

    The tangent's Jacobian d Tan_c / d x_r is (H . W^T)[r, c] with H the
    Hessian at p, exactly; the acceleration is Tan . grad Tan and the result
    |accel ^ Tan| / |Tan|^3.
    """
    w = _tangent_weights(system, p.body.n)
    tan = _tangent(p, w)
    accel = tan @ (p.hess @ w.T)
    tnorm = float(np.linalg.norm(tan))
    return exterior_magnitude(accel, tan) / tnorm**3


def goldman_curvature_closed(p: BoundaryPoint, system: PlaneSystem) -> float:
    """Curve curvature by the closed two-index formula (determinants eliminated)."""
    i, j = system.pivot, system.j
    fi = p.grad[i - 1]
    fj = p.grad[j - 1]
    fii = p.hess[i - 1, i - 1]
    fjj = p.hess[j - 1, j - 1]
    fij = p.hess[i - 1, j - 1]
    gnorm = float(np.linalg.norm(p.grad))
    return abs(fii * fj * fj - 2.0 * fi * fj * fij + fjj * fi * fi) / (
        gnorm * (fi * fi + fj * fj)
    )
