"""Implicitly defined convex bodies and boundary-point validation.

A body is the solid F contained in {x : f(x) <= 0} for a C^2 scalar field f
given as an expression tree, with the origin interior (f(0) < 0 is checked at
construction).  Near a boundary point the zero set of f is the boundary of F
within the locality radius ``delta``; delta is carried here but consumed by
the sampling oracles.

``validate_point`` enforces the standing hypotheses at a point xi:

* xi lies on the zero set within a tolerance band scaled by the gradient;
* the gradient does not vanish (there is a supporting direction);
* <xi, grad f(xi)> > 0, which orients the gradient outward relative to the
  interior origin and makes the dual vector well defined;
* f, the gradient, its norm, the pairing, the dual vector and the Hessian
  are finite there -- a point whose field overflows is a numerical failure,
  not a boundary point.

The pivot index is the first coordinate whose partial derivative is
nonvanishing (numerically: above tol_pivot relative to the sup-norm of the
gradient).  When several partials tie near the maximum the first index wins;
this can relabel the tangent basis vectors u^j but never changes the tangent
hyperplane itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from . import expr
from .errors import (
    DimensionMismatchError,
    InputError,
    InvalidBodyError,
    NonFiniteValueError,
    NonSmoothPointError,
    NotOnBoundaryError,
    NotTangentError,
    OrientationViolationError,
    RayEscapesError,
    ZeroDirectionError,
)
from .linalg import orthonormalize

__all__ = [
    "MAX_DIMENSION", "ImplicitBody", "BoundaryPoint", "TangentFrame",
    "validate_point", "tangent_frame", "in_tangent_hyperplane", "check_direction",
    "require_finite",
    "minkowski_gauge",
    "body_from_dict",
]

# Largest accepted dimension n.  A diagonal quadric validates in about 0.2 s
# at n = 128, and the Hessian grows as n^2, so a larger n is a mistake, not a
# body; it is refused before anything of size n is allocated.
MAX_DIMENSION = 256


@dataclass(frozen=True)
class ImplicitBody:
    """The solid F in R^n described by the field f, with 0 interior.

    Attributes:
        n: ambient dimension, 2 <= n <= MAX_DIMENSION.
        f: expression tree of the defining field.
        delta: locality radius within which {f = 0} is the boundary of F.
        tol_boundary: half-width of the boundary membership band.
        tol_pivot: relative threshold for "nonvanishing" partial derivatives.
    """

    n: int
    f: expr.Expression
    delta: float
    tol_boundary: float = 1e-9
    tol_pivot: float = 1e-9

    def __post_init__(self):
        if self.n < 2:
            raise InvalidBodyError(f"dimension must be >= 2, got {self.n}")
        if self.n > MAX_DIMENSION:
            raise InvalidBodyError(f"dimension must be <= {MAX_DIMENSION}, got {self.n}")
        if not (self.delta > 0.0 and np.isfinite(self.delta)):
            raise InvalidBodyError(f"locality radius must be positive, got {self.delta}")
        origin_value = expr.evaluate(self.f, np.zeros(self.n))
        if not origin_value < 0.0:
            raise InvalidBodyError(
                f"the origin must be interior: f(0) = {origin_value!r} is not < 0"
            )

    @cached_property
    def _partials(self) -> tuple[expr.Expression, ...]:
        return tuple(expr.differentiate(self.f, k) for k in range(1, self.n + 1))

    @cached_property
    def _second_partials(self) -> dict[tuple[int, int], expr.Expression]:
        table = {}
        for k in range(1, self.n + 1):
            for l in range(k, self.n + 1):
                table[(k, l)] = expr.differentiate(self._partials[k - 1], l)
        return table

    def partial(self, k: int) -> expr.Expression:
        """The symbolic partial derivative of f with respect to x_k (1-based)."""
        return self._partials[k - 1]

    def second_partial(self, k: int, l: int) -> expr.Expression:
        """The symbolic second partial of f; stored once per unordered pair."""
        return self._second_partials[(k, l) if k <= l else (l, k)]

    def value(self, x) -> float:
        return expr.evaluate(self.f, x)

    def gradient(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float).tolist()  # trees walk Python floats, as in evaluate
        return np.array([p._eval(xs) for p in self._partials], dtype=float)

    def hessian(self, x) -> np.ndarray:
        """Numeric Hessian; the upper triangle is evaluated and mirrored."""
        xs = np.asarray(x, dtype=float).tolist()
        h = np.empty((self.n, self.n))
        for k in range(1, self.n + 1):
            for l in range(k, self.n + 1):
                v = self._second_partials[(k, l)]._eval(xs)
                h[k - 1, l - 1] = v
                h[l - 1, k - 1] = v
        return h


@dataclass(frozen=True)
class BoundaryPoint:
    """A validated boundary point with its cached local data.

    Attributes:
        body: the owning body.
        point: the boundary point itself.
        grad: gradient of f there.
        hess: Hessian of f there (symmetric by construction).
        pivot: 1-based index of the first nonvanishing partial.
        dual: the dual vector grad / <point, grad>, so <point, dual> = 1.
        pairing: <point, grad>, positive by hypothesis.
    """

    body: ImplicitBody
    point: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    pivot: int
    dual: np.ndarray
    pairing: float


@dataclass(frozen=True)
class TangentFrame:
    """Basis of the tangent hyperplane at a boundary point.

    ``basis[t]`` is the vector u^j for the t-th index j != pivot (ascending):
    1 in coordinate j, -f_j/f_i in the pivot coordinate i, 0 elsewhere.
    ``ortho`` is the orthonormalized copy, and ``indices`` records j per slot.
    """

    indices: tuple[int, ...]
    basis: tuple[np.ndarray, ...]
    ortho: tuple[np.ndarray, ...]


def require_finite(what: str, value) -> None:
    """Raise ``NonFiniteValueError`` naming ``what`` unless the float or every array entry is finite."""
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise NonFiniteValueError(
            f"{what} is not finite at the point: {np.asarray(value).tolist()!r}", location=what
        )


@np.errstate(over="ignore")  # overflow is reported by the finiteness checks, not warned
def validate_point(body: ImplicitBody, x) -> BoundaryPoint:
    """Check the standing hypotheses at x and cache the local derivatives.

    Args:
        body: the implicit body.
        x: candidate boundary point, length body.n.

    Returns:
        A BoundaryPoint with gradient, Hessian, pivot index, dual vector and
        the pairing <x, grad f(x)>.

    Raises:
        NonFiniteValueError: f, the gradient, its norm, the pairing, the
            dual vector or the Hessian is inf or nan at x.
        NotOnBoundaryError: |f(x)| exceeds tol_boundary * (1 + |grad|).
        NonSmoothPointError: the gradient vanishes (no supporting direction).
        OrientationViolationError: <x, grad f(x)> <= 0.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != body.n:
        raise DimensionMismatchError(f"point must have length {body.n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("point has non-finite coordinates")
    grad = body.gradient(x)
    fval = body.value(x)
    require_finite("f", fval)
    require_finite("gradient", grad)
    gnorm = float(np.linalg.norm(grad))
    require_finite("gradient norm", gnorm)  # an inf norm would void the band test
    if abs(fval) > body.tol_boundary * (1.0 + gnorm):
        raise NotOnBoundaryError(
            f"f(x) = {fval!r} is outside the boundary band {body.tol_boundary} * (1 + |grad|)"
        )
    if gnorm <= body.tol_pivot:
        raise NonSmoothPointError(f"gradient norm {gnorm!r} vanishes at the point")
    pairing = float(np.dot(x, grad))
    require_finite("pairing", pairing)
    if pairing <= 0.0:
        raise OrientationViolationError(
            f"<x, grad f(x)> = {pairing!r} must be positive (is the origin interior here?)"
        )
    gmax = float(np.max(np.abs(grad)))
    pivot = 0
    for i in range(body.n):
        if abs(grad[i]) > body.tol_pivot * gmax:
            pivot = i + 1
            break
    dual = grad / pairing
    require_finite("dual", dual)  # a subnormal pairing overflows it
    hess = body.hessian(x)
    require_finite("hessian", hess)
    return BoundaryPoint(
        body=body, point=x.copy(), grad=grad, hess=hess,
        pivot=pivot, dual=dual, pairing=pairing,
    )


def tangent_frame(p: BoundaryPoint) -> TangentFrame:
    """Build the n-1 tangent basis vectors u^j and their orthonormal copy."""
    n = p.body.n
    i = p.pivot
    fi = p.grad[i - 1]
    indices = []
    basis = []
    for j in range(1, n + 1):
        if j == i:
            continue
        u = np.zeros(n)
        u[j - 1] = 1.0
        u[i - 1] = -p.grad[j - 1] / fi
        indices.append(j)
        basis.append(u)
    ortho = orthonormalize(basis)
    return TangentFrame(indices=tuple(indices), basis=tuple(basis), ortho=tuple(ortho))


def _sup_scaled(u: np.ndarray) -> np.ndarray:
    # u over its largest |entry|: norms and quadratic forms of it cannot overflow
    top = float(np.max(np.abs(u), initial=0.0))
    return u / top if top > 0.0 else u


def in_tangent_hyperplane(p: BoundaryPoint, u) -> bool:
    """True iff u is a finite nonzero vector orthogonal to the gradient at p (1e-9 relative).

    The test is scale-free: u is divided by its largest |entry| first.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.shape[0] != p.body.n:
        raise DimensionMismatchError(f"direction must have length {p.body.n}, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        return False
    u = _sup_scaled(u)
    unorm = float(np.linalg.norm(u))
    if unorm == 0.0:
        return False
    gnorm = float(np.linalg.norm(p.grad))
    return abs(float(np.dot(u, p.grad))) <= 1e-9 * unorm * gnorm


def check_direction(p: BoundaryPoint, u) -> np.ndarray:
    """Check that u is a tangent direction at p; return u over its largest |entry|.

    Every formula of a direction is invariant under scaling u, and the
    rescaled copy keeps |u|^2 and <H u, u> finite for any finite u.

    Raises:
        InputError: u has a non-finite coordinate.
        ZeroDirectionError: u is the zero vector.
        NotTangentError: u is not orthogonal to the gradient (1e-9 relative).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.shape[0] != p.body.n:
        raise DimensionMismatchError(f"direction must have length {p.body.n}, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise InputError("direction has non-finite coordinates")
    v = _sup_scaled(u)
    if not np.any(v):
        raise ZeroDirectionError("the zero vector is not a direction")
    if not in_tangent_hyperplane(p, v):
        raise NotTangentError(
            f"direction is not tangent: |<u, grad>| = {abs(float(np.dot(v, p.grad)))!r} "
            f"exceeds 1e-9 * |u| * |grad| (u scaled to max |u_k| = 1)"
        )
    return v


def minkowski_gauge(body: ImplicitBody, x) -> float:
    """Gauge (Minkowski functional) of x: the lambda > 0 with x/lambda on the boundary.

    The ray {x/lambda} is evaluated on the decade grid lambda = 1e9 .. 1e-9 in
    one array pass and scanned from large lambda (deep interior, f < 0)
    downward until f changes sign, then the crossing is bisected to
    floating-point exhaustion, which lands well inside
    |f| <= 1e-12 * (1 + |grad f|).

    The bisection walks the ray point as Python floats, ``c / lam`` per
    coordinate: the same IEEE divisions as the array, with overflow to inf
    silent.

    Raises:
        InputError: x has a non-finite coordinate.
        RayEscapesError: no sign change inside the bracket (the ray never
            leaves the f <= 0 region, e.g. an unbounded body).
        NonFiniteValueError: the crossing x/lambda has a non-finite
            coordinate, or f is not finite there.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != body.n:
        raise DimensionMismatchError(f"point must have length {body.n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("point has non-finite coordinates")
    if not np.any(x):
        raise ZeroDirectionError("the gauge of the zero vector is not defined by a ray crossing")
    xs = x.tolist()

    def g(lam: float) -> float:
        return body.value([c / lam for c in xs])

    def crossing(lam: float) -> float:
        boundary = [c / lam for c in xs]
        if not (all(map(math.isfinite, boundary)) and math.isfinite(body.value(boundary))):
            raise NonFiniteValueError(
                f"the ray crosses f = 0 at lambda = {lam!r}, where x/lambda or f is not finite",
                location="boundary_point",
            )
        return lam

    grid = [10.0 ** e for e in range(9, -10, -1)]  # 1e9 down to 1e-9
    with np.errstate(over="ignore"):
        values = body.value(x[:, None] / np.array(grid)).tolist()  # one array pass
    lo = hi = None
    for i, (lam, val) in enumerate(zip(grid, values)):
        if val == 0.0:
            return crossing(lam)
        if i and (val > 0.0) != (values[i - 1] > 0.0):
            lo, hi = lam, grid[i - 1]  # g(lo), g(hi) have opposite signs
            lo_val = val
            break
    if lo is None:
        raise RayEscapesError(
            "no boundary crossing in the gauge bracket [1e-9, 1e9] along the ray"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        val = g(mid)
        if val == 0.0:
            return crossing(mid)
        if (val > 0.0) == (lo_val > 0.0):
            lo = mid
            lo_val = val
        else:
            hi = mid
    return crossing(0.5 * (lo + hi))


_TOLERANCE_KEYS = {"boundary", "pivot"}


def body_from_dict(obj: Mapping) -> ImplicitBody:
    """Build a body from its JSON object form.

    Schema: {"n": int >= 2, "f": string in the expression grammar,
    "delta": number > 0, "tolerances": {"boundary"?: number, "pivot"?: number}}.
    Unknown keys anywhere are rejected.
    """
    if not isinstance(obj, Mapping):
        raise InvalidBodyError("body JSON must be an object")
    unknown = set(obj) - {"n", "f", "delta", "tolerances"}
    if unknown:
        raise InvalidBodyError(f"unknown body keys: {sorted(unknown)}")
    missing = {"n", "f", "delta"} - set(obj)
    if missing:
        raise InvalidBodyError(f"missing body keys: {sorted(missing)}")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidBodyError(f"'n' must be an integer, got {n!r}")
    text = obj["f"]
    if not isinstance(text, str):
        raise InvalidBodyError("'f' must be a string in the expression grammar")
    delta = obj["delta"]
    if isinstance(delta, bool) or not isinstance(delta, (int, float)):
        raise InvalidBodyError(f"'delta' must be a number, got {delta!r}")
    tols = {}
    if "tolerances" in obj:
        block = obj["tolerances"]
        if not isinstance(block, Mapping):
            raise InvalidBodyError("'tolerances' must be an object")
        unknown = set(block) - _TOLERANCE_KEYS
        if unknown:
            raise InvalidBodyError(f"unknown tolerance keys: {sorted(unknown)}")
        for key, value in block.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
                raise InvalidBodyError(f"tolerance {key!r} must be a positive number, got {value!r}")
            tols["tol_" + key] = float(value)
    f = expr.parse(text, n)
    return ImplicitBody(n=n, f=f, delta=float(delta), **tols)
