"""Brute-force geometric oracles: modulus sampling and containment radii.

These routines never look at the Hessian.  They probe the boundary directly
by root-finding the field along circles inside the section plane
span{u, grad f} centered at the boundary point, and reduce curvature to its
definitional ingredients:

* ``modulus_bruteforce``: the minimal dual-pairing drop <xi - eta, dual> over
  boundary points eta at chord distance exactly r from xi inside the section
  plane -- the (sampled, two-dimensional) modulus of strict convexity at xi.
* ``gamma_estimate``: the limit of drop(r) / r^2 along a dyadic radius
  schedule, which converges to gamma_hat(u) without ever differentiating f
  twice.
* ``radius_containment``: the smallest radius R such that the dual-weighted
  osculating ball bound d(eta)^2 / (2 drop(eta)) <= R holds for every sampled
  nearby section point eta; flat sections (vanishing drop) report +inf.

Root-finding treats grid points with |f| below a gradient-scaled floor as
boundary points outright -- necessary on flat pieces, where the field is
identically zero along an arc and never changes sign.  Each public call
batches all of its circles (one for ``modulus_bruteforce``, the seven dyadic
radii of ``gamma_estimate``, the sixteen of ``radius_containment``): one
array pass evaluates the field at every scan angle of every circle, then all
sign-change brackets are bisected in lockstep, one array evaluation per
step.  Each bracket stops exactly where a one-at-a-time bisection would, so
roots, witnesses and quotients are bit-identical to scanning circle by
circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import BoundaryPoint, check_direction
from .errors import InputError, NoBoundaryIntersectionError

__all__ = [
    "ModulusSample", "GammaEstimate",
    "modulus_bruteforce", "gamma_estimate", "radius_containment",
]


@dataclass(frozen=True)
class ModulusSample:
    """Sampled modulus at one chord radius.

    Attributes:
        r: the chord radius probed.
        value: minimal dual drop <xi - eta, dual> over the intersection points.
        witnesses: the intersection points attaining the minimum (within
            max(1e-12, 1e-6 |value|)).
    """

    r: float
    value: float
    witnesses: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class GammaEstimate:
    """Derivative-free estimate of gamma_hat along a dyadic radius schedule.

    ``quotients[k]`` is drop(r_k) / r_k^2 for r_k = r_0 / 2^k; ``estimate``
    is the final (smallest-radius) quotient.
    """

    estimate: float
    quotients: tuple[float, ...]


def _section_basis(p: BoundaryPoint, u) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (e_t, e_n) of the section plane span{u, grad}."""
    v = check_direction(p, u)
    e_t = v / float(np.linalg.norm(v))
    w = p.grad - float(np.dot(p.grad, e_t)) * e_t
    e_n = w / float(np.linalg.norm(w))
    return e_t, e_n


def _circle_roots(
    p: BoundaryPoint, e_t: np.ndarray, e_n: np.ndarray, radii, m: int
) -> list[list[np.ndarray]]:
    """Boundary points on each radius-r circle around p inside the section plane.

    One array pass evaluates the field at m equispaced angles on every
    circle.  A grid value within the floor is a root outright (flat arcs).
    Every sign change between non-root neighbours, on every circle, is then
    bisected in the angle in lockstep: each step evaluates all live brackets
    in one batch, and a bracket retires when its midpoint no longer splits it,
    when the midpoint value is within the floor, or after 200 steps.  Angles
    go through ``math.cos``/``math.sin`` and the batched field evaluation is
    bit-identical to the scalar one, so the roots equal those of scanning and
    bisecting one circle and one bracket at a time.  Returns one list per
    radius: grid roots by angle, then bisected roots by bracket angle.
    """
    body = p.body
    xi, et, en = p.point[:, None], e_t[:, None], e_n[:, None]
    ftol = 1e-12 * (1.0 + float(np.linalg.norm(p.grad)))
    radii = np.asarray(radii, dtype=float)

    def at(r, cos, sin) -> np.ndarray:
        # one point per column, in the order of xi + r cos(t) e_t + r sin(t) e_n
        return xi + (r * cos) * et + (r * sin) * en

    k = len(radii)
    thetas = np.array([2.0 * math.pi * s / m for s in range(m)])
    cos, sin = _cos_sin(thetas)
    scan = body.value(at(np.repeat(radii, m), np.tile(cos, k), np.tile(sin, k)))
    scan = scan.reshape(k, m)
    is_root = np.abs(scan) <= ftol
    nxt = np.roll(np.arange(m), -1)
    crossing = ~is_root & ~is_root[:, nxt] & ((scan > 0.0) != (scan[:, nxt] > 0.0))

    circle, s = np.nonzero(crossing)
    lo = thetas[s]
    hi = lo + 2.0 * math.pi / m
    v_lo = scan[circle, s]
    live = np.arange(len(s))
    for _ in range(200):
        mid = 0.5 * (lo[live] + hi[live])
        split = (mid != lo[live]) & (mid != hi[live])
        live, mid = live[split], mid[split]
        if not len(live):
            break
        v_mid = body.value(at(radii[circle[live]], *_cos_sin(mid)))
        hit = np.abs(v_mid) <= ftol
        same = ~hit & ((v_mid > 0.0) == (v_lo[live] > 0.0))
        other = ~hit & ~same
        # a hit collapses its bracket, which retires it on the next step
        lo[live[hit]] = hi[live[hit]] = mid[hit]
        lo[live[same]] = mid[same]
        v_lo[live[same]] = v_mid[same]
        hi[live[other]] = mid[other]

    roots: list[list[float]] = [[] for _ in range(k)]
    for c, g in zip(*np.nonzero(is_root)):
        roots[c].append(thetas[g])
    for c, a, b in zip(circle, lo, hi):
        roots[c].append(0.5 * (a + b))
    return [list(at(r, *_cos_sin(ths)).T) for r, ths in zip(radii, roots)]


def _cos_sin(thetas) -> tuple[np.ndarray, np.ndarray]:
    """libm cosines and sines of the angles, as the scalar ``math`` calls give them."""
    return (np.array([math.cos(th) for th in thetas]),
            np.array([math.sin(th) for th in thetas]))


def _sample(p: BoundaryPoint, u, radii, m: int) -> list[ModulusSample]:
    """Sampled modulus at each chord radius, from one batched circle scan."""
    if m < 64:
        raise InputError(f"need at least 64 scan angles, got {m}")
    e_t, e_n = _section_basis(p, u)
    samples = []
    for r, etas in zip(radii, _circle_roots(p, e_t, e_n, radii, m)):
        if not etas:
            raise NoBoundaryIntersectionError(
                f"the radius-{r} section circle does not meet the boundary"
            )
        drops = [float(np.dot(p.point - eta, p.dual)) for eta in etas]
        value = min(drops)
        band = max(1e-12, 1e-6 * abs(value))
        witnesses = tuple(
            eta for eta, d in zip(etas, drops) if d - value <= band
        )
        samples.append(ModulusSample(r=r, value=value, witnesses=witnesses))
    return samples


def modulus_bruteforce(p: BoundaryPoint, u, r: float, m: int = 512) -> ModulusSample:
    """Sample the two-dimensional modulus of strict convexity at chord radius r.

    Args:
        p: validated boundary point.
        u: tangent direction selecting the section plane.
        r: chord radius, 0 < r < body.delta.
        m: number of scan angles, at least 64.

    Raises:
        NoBoundaryIntersectionError: the circle misses the boundary entirely.
    """
    if not 0.0 < r < p.body.delta:
        raise InputError(
            f"chord radius must satisfy 0 < r < delta = {p.body.delta}, got {r!r}"
        )
    return _sample(p, u, [r], m)[0]


def gamma_estimate(p: BoundaryPoint, u, m: int = 512) -> GammaEstimate:
    """Estimate gamma_hat(u) as the small-radius limit of drop(r) / r^2.

    Radii follow the dyadic schedule r_k = r_0 / 2^k for k = 0..6 with
    r_0 = min(delta / 4, 0.1); the estimate is the last quotient.  All seven
    circles are scanned in one batch.
    """
    r0 = min(p.body.delta / 4.0, 0.1)
    radii = [r0 * 0.5**k for k in range(7)]
    quotients = [s.value / (s.r * s.r) for s in _sample(p, u, radii, m)]
    return GammaEstimate(estimate=quotients[-1], quotients=tuple(quotients))


def radius_containment(p: BoundaryPoint, u, eps: float, m: int = 512) -> float:
    """Smallest dual-weighted ball radius containing the sampled section locally.

    For every boundary point eta found on section circles of radii
    eps * l / 16 (l = 1..16), the containment bound is
    |eta - xi|^2 / (2 <xi - eta, dual>); the result is the maximum over all
    sampled points, or +inf as soon as a sampled point is flat (drop below
    1e-10 |eta - xi|^2).  Converges to radius_hat / |dual| as eps shrinks.
    """
    if not 0.0 < eps < p.body.delta / 2.0:
        raise InputError(
            f"sampling radius must satisfy 0 < eps < delta/2 = {p.body.delta / 2.0}, "
            f"got {eps!r}"
        )
    e_t, e_n = _section_basis(p, u)
    levels = 16
    radii = [eps * l / levels for l in range(1, levels + 1)]
    worst = 0.0
    for rho, etas in zip(radii, _circle_roots(p, e_t, e_n, radii, m)):
        if not etas:
            raise NoBoundaryIntersectionError(
                f"the radius-{rho} section circle does not meet the boundary"
            )
        for eta in etas:
            dsq = float(np.dot(eta - p.point, eta - p.point))
            drop = float(np.dot(p.point - eta, p.dual))
            if drop <= 1e-10 * dsq:
                return math.inf
            worst = max(worst, dsq / (2.0 * drop))
    return worst
