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

Every circle is scanned at the same 512 angles 2 pi s / 512.  Root-finding
treats scan points with |f| below a gradient-scaled floor as boundary points
outright -- necessary on flat pieces, where the field is identically zero
along an arc and never changes sign.  Each public call batches all of its
circles (one for ``modulus_bruteforce``, the seven dyadic radii of
``gamma_estimate``, the sixteen of ``radius_containment``): one array pass
evaluates the field at every scan angle of every circle, then all
sign-change brackets take Illinois regula falsi steps (Dowell & Jarratt,
BIT 11 (1971) 168-174) in lockstep, one array evaluation per step -- about
four steps per call.  Each bracket stops exactly where a one-at-a-time
Illinois run would, so roots, witnesses and quotients are bit-identical to
scanning circle by circle.  A root is a point on the circle with |f| within
the floor, or, for a bracket that runs out of steps first, an endpoint in
the boundary band of ``validate_point``; a sign change that closes on
neither (a pole of a rational field) raises ``DiscontinuousFieldError``.
Radii too small to resolve a drop against the root tolerance and the
rounding of xi raise ``UnresolvedRadiusError`` before any division by r^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import BoundaryPoint, check_direction
from .errors import (
    DiscontinuousFieldError,
    InputError,
    NoBoundaryIntersectionError,
    UnresolvedRadiusError,
)

__all__ = [
    "ModulusSample", "GammaEstimate",
    "modulus_bruteforce", "gamma_estimate", "radius_containment",
]

_STEPS = 200  # Illinois steps before a bracket retires unresolved


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
    p: BoundaryPoint, e_t: np.ndarray, e_n: np.ndarray, radii
) -> list[list[np.ndarray]]:
    """Boundary points on each radius-r circle around p inside the section plane.

    One array pass evaluates the field at the 512 scan angles on every
    circle.  A grid value within ``ftol`` = 1e-12 (1 + |grad f(xi)|) is a root
    outright (flat arcs).  Every sign change between non-root neighbours, on
    every circle, is then a bracket [a, b] in the angle, started from the two
    scan values, and all brackets take Illinois regula falsi steps in
    lockstep, one array evaluation per step:

        c = b - f_b (b - a) / (f_b - f_a), or the midpoint when c is not
        strictly inside the bracket (NaN included);
        if f_c and f_b differ in sign, (a, f_a) = (b, f_b), else f_a /= 2;
        then (b, f_b) = (c, f_c).

    A bracket retires when |f_c| <= ftol (its root is c), when its midpoint
    no longer splits it, or after 200 steps.  A retired bracket is evaluated
    again at its last iterate b, so the lockstep evaluates no point that one
    bracket at a time would not.  Angles go through ``math.cos``/``math.sin``
    and the batched field evaluation is bit-identical to the scalar one, so
    the roots equal those of one circle and one bracket at a time.

    A bracket that retires without reaching ``ftol`` returns its endpoint of
    smaller |f| only if that lies in the band of ``validate_point``,
    ``tol_boundary * (1 + |grad f(xi)|)``; otherwise the sign change is not a
    boundary crossing (a pole, say) and the call raises.

    Returns one list per radius: grid roots by angle, then bracket roots by
    bracket angle.

    Raises:
        DiscontinuousFieldError: a sign change closes on a point outside the
            boundary band.
    """
    body = p.body
    xi, et, en = p.point[:, None], e_t[:, None], e_n[:, None]
    ftol = _ftol(p)
    radii = np.asarray(radii, dtype=float)

    def at(r, cos, sin) -> np.ndarray:
        # one point per column, in the order of xi + r cos(t) e_t + r sin(t) e_n
        return xi + (r * cos) * et + (r * sin) * en

    thetas, cos, sin = _SCAN_GRID
    m, k = len(thetas), len(radii)
    scan = body.value(at(np.repeat(radii, m), np.tile(cos, k), np.tile(sin, k))).reshape(k, m)
    is_root = np.abs(scan) <= ftol
    nxt = np.roll(np.arange(m), -1)
    crossing = ~is_root & ~is_root[:, nxt] & ((scan > 0.0) != (scan[:, nxt] > 0.0))

    circle, s = np.nonzero(crossing)
    r = radii[circle]
    a, b = thetas[s], thetas[s] + 2.0 * math.pi / m
    fa, fb = scan[circle, s], scan[circle, nxt[s]]
    wa = fa  # f_a as the Illinois halvings weight it
    hit = done = np.zeros(len(s), dtype=bool)
    with np.errstate(all="ignore"):  # values near a pole overflow; c falls back to the midpoint
        for _ in range(_STEPS):
            mid = 0.5 * (a + b)
            done = done | (mid == a) | (mid == b)
            if done.all():
                break
            c = b - fb * (b - a) / (fb - wa)
            inside = (c > np.minimum(a, b)) & (c < np.maximum(a, b))
            c = np.where(done, b, np.where(inside, c, mid))
            fc = body.value(at(r, *_cos_sin(c.tolist())))
            live = ~done
            flip = live & ((fc > 0.0) != (fb > 0.0))
            a, fa = np.where(flip, b, a), np.where(flip, fb, fa)
            wa = np.where(flip, fb, np.where(live, 0.5 * wa, wa))
            b, fb = np.where(live, c, b), np.where(live, fc, fb)
            hit = hit | (live & (np.abs(fc) <= ftol))
            done = done | hit

    use_a = ~hit & (np.abs(fa) < np.abs(fb))
    root, f_root = np.where(use_a, a, b), np.where(use_a, fa, fb)
    band = body.tol_boundary * (1.0 + float(np.linalg.norm(p.grad)))
    off = ~hit & ~(np.abs(f_root) <= band)
    if off.any():
        j = int(np.argmax(off))
        eta = at(r[j], *_cos_sin([float(root[j])]))[:, 0]
        raise DiscontinuousFieldError(
            f"a sign change of f on the radius-{float(r[j])} section circle closes "
            f"on |f| = {abs(float(f_root[j]))!r}, outside the boundary band {band!r}: "
            f"f is not continuous there",
            location=eta.tolist(),
        )

    # every root point in one pass: grid roots, then bracket roots, grouped by circle
    grid_circle, grid_s = np.nonzero(is_root)
    owner = np.concatenate([grid_circle, circle])
    order = np.argsort(owner, kind="stable")
    owner = owner[order]
    angles = np.concatenate([thetas[grid_s], root])[order]
    points = at(radii[owner], *_cos_sin(angles.tolist())).T
    bounds = np.cumsum(np.bincount(owner, minlength=k))[:-1]
    return [list(block) for block in np.split(points, bounds)]


def _cos_sin(thetas: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """libm cosines and sines of the angles, as the scalar ``math`` calls give them."""
    return (np.fromiter(map(math.cos, thetas), float, len(thetas)),
            np.fromiter(map(math.sin, thetas), float, len(thetas)))


_THETAS = [2.0 * math.pi * s / 512 for s in range(512)]
# The scan angles and their libm cosines and sines, as rows; read-only.
_SCAN_GRID = np.array([_THETAS, *_cos_sin(_THETAS)])
_SCAN_GRID.flags.writeable = False


def _check_resolved(p: BoundaryPoint, r: float) -> None:
    """Raise unless the chord radius r resolves a drop <xi - eta, dual> at p.

    Two errors blur a measured drop.  A root eta is accepted with
    |f(eta)| <= ftol, which leaves it up to about ftol / |grad| off the
    boundary along the normal, so its drop is uncertain by ftol / pairing.
    And eta is stored to within eps/2 per coordinate (eps = 2^-52), which
    adds up to eps * sum_k |xi_k dual_k| (at least eps, as <xi, dual> = 1).
    A sphere through xi centred at the origin drops by (r / |xi|)^2 / 2 at
    chord radius r.  A radius at which that drop does not exceed the sum of
    the two errors (or at which r^2 underflows) cannot resolve curvature on
    the scale of the body: a quotient drop / r^2 there is noise.
    """
    xs, ds = p.point.tolist(), p.dual.tolist()
    floor = _ftol(p) / p.pairing + math.ulp(1.0) * sum(abs(x * d) for x, d in zip(xs, ds))
    q = r / math.hypot(*xs)
    if not (r * r > 0.0 and 0.5 * q * q > floor):
        raise UnresolvedRadiusError(
            f"radius {r!r} is too small to resolve a drop at the point: a sphere through it "
            f"drops by (r/|xi|)^2/2 = {0.5 * q * q!r}, not above the error floor {floor!r}"
        )


def _ftol(p: BoundaryPoint) -> float:
    """|f| at or below which a point on a section circle is a root."""
    return 1e-12 * (1.0 + float(np.linalg.norm(p.grad)))


def _circles(p: BoundaryPoint, u, radii):
    """Yield (r, etas, drops) per radius: the boundary points on the section
    circle of radius r, from one batched scan, and their drops <xi - eta, dual>.

    Raises:
        NoBoundaryIntersectionError: on reaching a circle that misses the boundary.
    """
    e_t, e_n = _section_basis(p, u)
    for r, etas in zip(radii, _circle_roots(p, e_t, e_n, radii)):
        if not etas:
            raise NoBoundaryIntersectionError(
                f"the radius-{r} section circle does not meet the boundary"
            )
        yield r, etas, [float(np.dot(p.point - eta, p.dual)) for eta in etas]


def _sample(p: BoundaryPoint, u, radii) -> list[ModulusSample]:
    """Sampled modulus at each chord radius."""
    samples = []
    for r, etas, drops in _circles(p, u, radii):
        value = min(drops)
        band = max(1e-12, 1e-6 * abs(value))
        witnesses = tuple(
            eta for eta, d in zip(etas, drops) if d - value <= band
        )
        samples.append(ModulusSample(r=r, value=value, witnesses=witnesses))
    return samples


def modulus_bruteforce(p: BoundaryPoint, u, r: float) -> ModulusSample:
    """Sample the two-dimensional modulus of strict convexity at chord radius r.

    Args:
        p: validated boundary point.
        u: tangent direction selecting the section plane.
        r: chord radius, 0 < r < body.delta.

    Raises:
        NoBoundaryIntersectionError: the circle misses the boundary entirely.
        DiscontinuousFieldError: a sign change is not a boundary crossing.
    """
    if not 0.0 < r < p.body.delta:
        raise InputError(
            f"chord radius must satisfy 0 < r < delta = {p.body.delta}, got {r!r}"
        )
    return _sample(p, u, [r])[0]


def gamma_estimate(p: BoundaryPoint, u) -> GammaEstimate:
    """Estimate gamma_hat(u) as the small-radius limit of drop(r) / r^2.

    Radii follow the dyadic schedule r_k = r_0 / 2^k for k = 0..6 with
    r_0 = min(delta / 4, 0.1); the estimate is the last quotient.  All seven
    circles are scanned in one batch.

    Raises:
        UnresolvedRadiusError: r_6 is too small to resolve a drop at the
            point (see ``_check_resolved``), e.g. for delta = 1e-20 at |xi| = 1.
        NoBoundaryIntersectionError: a circle misses the boundary.
        DiscontinuousFieldError: a sign change is not a boundary crossing.
    """
    r0 = min(p.body.delta / 4.0, 0.1)
    radii = [r0 * 0.5**k for k in range(7)]
    _check_resolved(p, radii[-1])
    quotients = [s.value / (s.r * s.r) for s in _sample(p, u, radii)]
    return GammaEstimate(estimate=quotients[-1], quotients=tuple(quotients))


def radius_containment(p: BoundaryPoint, u, eps: float) -> float:
    """Smallest dual-weighted ball radius containing the sampled section locally.

    For every boundary point eta found on section circles of radii
    eps * l / 16 (l = 1..16), the containment bound is
    |eta - xi|^2 / (2 <xi - eta, dual>); the result is the maximum over all
    sampled points, or +inf as soon as a sampled point is flat (drop below
    1e-10 |eta - xi|^2).  Converges to radius_hat / |dual| as eps shrinks.

    Raises:
        UnresolvedRadiusError: eps / 16 is too small to resolve a drop at the
            point (see ``_check_resolved``).
        NoBoundaryIntersectionError: a circle misses the boundary.
        DiscontinuousFieldError: a sign change is not a boundary crossing.
    """
    if not 0.0 < eps < p.body.delta / 2.0:
        raise InputError(
            f"sampling radius must satisfy 0 < eps < delta/2 = {p.body.delta / 2.0}, "
            f"got {eps!r}"
        )
    levels = 16
    radii = [eps * l / levels for l in range(1, levels + 1)]
    _check_resolved(p, radii[0])
    worst = 0.0
    # _circles yields circle by circle, so a flat point returns before a later empty circle raises
    for _, etas, drops in _circles(p, u, radii):
        for eta, drop in zip(etas, drops):
            dsq = float(np.dot(eta - p.point, eta - p.point))
            if drop <= 1e-10 * dsq:
                return math.inf
            worst = max(worst, dsq / (2.0 * drop))
    return worst
