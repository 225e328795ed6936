"""Boundary-sampling oracles: modulus, quadratic quotients, containment radii."""

import math

import numpy as np
import pytest

from conftest import (
    make_body,
    quadric_body,
    quadric_boundary_point,
    rel_close,
    sphere_body,
    tangent_direction,
)

from dircurv import (
    gamma_directional,
    gamma_estimate,
    kappa_directional,
    modulus_bruteforce,
    radius_containment,
    validate_point,
)
from dircurv.errors import (
    DiscontinuousFieldError,
    InputError,
    NoBoundaryIntersectionError,
    NotTangentError,
    UnresolvedRadiusError,
)
from dircurv.oracle import _SCAN_GRID, _circle_roots, _section_basis


# ---------------------------------------------------------------- modulus


def test_disk_modulus_is_half_chord_squared(disk_point):
    # unit circle: drop = 1 - cos(phi) with chord r^2 = 2 - 2 cos(phi)
    sample = modulus_bruteforce(disk_point, [0.0, 1.0], 0.1)
    assert sample.r == 0.1
    assert abs(sample.value - 0.005) <= 1e-9


def test_sphere_modulus(sphere3_point):
    # radius-R sphere: drop = r^2 / (2 R^2) at chord radius r
    sample = modulus_bruteforce(sphere3_point, [1.0, 0.0, 0.0], 0.1)
    assert abs(sample.value - 0.1**2 / 8.0) <= 1e-9


def test_modulus_witnesses_lie_on_circle_and_boundary(disk_point):
    sample = modulus_bruteforce(disk_point, [0.0, 1.0], 0.2)
    assert len(sample.witnesses) == 2   # symmetric pair
    for eta in sample.witnesses:
        assert abs(np.linalg.norm(eta - disk_point.point) - 0.2) <= 1e-9
        assert abs(disk_point.body.value(eta)) <= 1e-9
        drop = float((disk_point.point - eta) @ disk_point.dual)
        assert abs(drop - sample.value) <= max(1e-12, 1e-6 * abs(sample.value))


def test_cylinder_axis_modulus_vanishes(cylinder_point):
    sample = modulus_bruteforce(cylinder_point, [0.0, 1.0, 0.0], 0.1)
    assert abs(sample.value) <= 1e-12


def test_halfplane_modulus_vanishes():
    b = make_body({"n": 2, "f": "x2 - 1", "delta": 0.5})
    p = validate_point(b, [0.0, 1.0])
    sample = modulus_bruteforce(p, [1.0, 0.0], 0.25)
    assert abs(sample.value) <= 1e-12


def test_modulus_is_nonnegative_on_convex_bodies(disk_point, sphere3_point):
    for p, u in ((disk_point, [0.0, 1.0]), (sphere3_point, [0.0, 1.0, 0.0])):
        for r in (0.05, 0.1, 0.3):
            assert modulus_bruteforce(p, u, r).value >= -1e-12


def test_modulus_rejects_bad_radius(disk_point):
    with pytest.raises(InputError):
        modulus_bruteforce(disk_point, [0.0, 1.0], 0.0)
    with pytest.raises(InputError):
        modulus_bruteforce(disk_point, [0.0, 1.0], 0.5)   # r == delta
    with pytest.raises(InputError):
        modulus_bruteforce(disk_point, [0.0, 1.0], -0.1)


def test_modulus_rejects_non_tangent(disk_point):
    with pytest.raises(NotTangentError):
        modulus_bruteforce(disk_point, [1.0, 0.0], 0.1)


def test_huge_direction_spans_the_same_section(disk_point):
    # |u| overflows for u = (0, 1e300); the section plane must not collapse
    want = gamma_estimate(disk_point, [0.0, 1.0])
    assert gamma_estimate(disk_point, [0.0, 1e300]) == want
    assert modulus_bruteforce(disk_point, [0.0, 1e300], 0.1).value == pytest.approx(0.005, rel=1e-6)


def test_modulus_no_intersection_raises():
    # a circle of radius 3 around (1, 0) stays strictly outside the unit disk
    b = make_body({"n": 2, "f": "x1^2 + x2^2 - 1", "delta": 4.0})
    p = validate_point(b, [1.0, 0.0])
    with pytest.raises(NoBoundaryIntersectionError):
        modulus_bruteforce(p, [0.0, 1.0], 3.0)


# ---------------------------------------------------------------- gamma


def test_gamma_estimate_disk(disk_point):
    est = gamma_estimate(disk_point, [0.0, 1.0])
    assert len(est.quotients) == 7
    assert est.estimate == est.quotients[-1]
    assert abs(est.estimate - 0.5) <= 1e-4
    assert abs(est.estimate - gamma_directional(disk_point, [0.0, 1.0])) <= 1e-4


def test_gamma_estimate_quartic(quartic_point):
    u = [-2.0, 1.0]
    est = gamma_estimate(quartic_point, u)
    truth = gamma_directional(quartic_point, u)
    assert abs(est.estimate - truth) <= max(1e-4, 0.02 * abs(truth))


def test_gamma_estimate_flat_apex():
    b = make_body({"n": 2, "f": "x2 - 1 + x1^4", "delta": 0.5})
    p = validate_point(b, [0.0, 1.0])
    est = gamma_estimate(p, [1.0, 0.0])
    assert gamma_directional(p, [1.0, 0.0]) == 0.0
    assert 0.0 <= est.estimate <= 1e-4


def test_gamma_estimate_quotients_settle(disk_point, sphere3_point):
    # the last two dyadic quotients agree once the quadratic term dominates
    for p, u in ((disk_point, [0.0, 1.0]), (sphere3_point, [1.0, 0.0, 0.0])):
        est = gamma_estimate(p, u)
        q5, q6 = est.quotients[-2], est.quotients[-1]
        assert abs(q6 - q5) <= 0.05 * max(abs(q5), abs(q6)) + 1e-12


def test_gamma_estimate_random_quadric():
    rng = np.random.default_rng(18)
    body, a = quadric_body(rng, 3)
    p = validate_point(body, quadric_boundary_point(rng, a))
    u = tangent_direction(rng, p)
    truth = gamma_directional(p, u)
    est = gamma_estimate(p, u)
    assert abs(est.estimate - truth) <= max(1e-4, 0.02 * abs(truth))


# ---------------------------------------------------------------- containment


def test_disk_containment_radius(disk_point):
    # osculating disk of the unit circle is the disk itself
    r = radius_containment(disk_point, [0.0, 1.0], 0.2)
    assert rel_close(r, 1.0, 0.005)


def test_sphere_containment_radius(sphere3_point):
    # dual-weighted radius: radius_hat / |dual| = 2 / 0.5
    r = radius_containment(sphere3_point, [1.0, 0.0, 0.0], 0.2)
    assert rel_close(r, 4.0, 0.005)
    dc = kappa_directional(sphere3_point, [1.0, 0.0, 0.0])
    dual_norm = float(np.linalg.norm(sphere3_point.dual))
    assert rel_close(r, dc.radius_hat / dual_norm, 0.005)


def test_cylinder_axis_containment_is_infinite(cylinder_point):
    assert radius_containment(cylinder_point, [0.0, 1.0, 0.0], 0.2) == math.inf


def test_halfplane_containment_is_infinite():
    b = make_body({"n": 2, "f": "x2 - 1", "delta": 0.5})
    p = validate_point(b, [0.0, 1.0])
    assert radius_containment(p, [1.0, 0.0], 0.2) == math.inf


def test_containment_rejects_bad_eps(disk_point):
    with pytest.raises(InputError):
        radius_containment(disk_point, [0.0, 1.0], 0.0)
    with pytest.raises(InputError):
        radius_containment(disk_point, [0.0, 1.0], 0.25)   # eps == delta / 2


def test_containment_raises_on_first_empty_circle():
    # unit disk around (1, 0): circles wider than 2 miss it; eps * 12/16 is the first
    b = make_body({"n": 2, "f": "x1^2 + x2^2 - 1", "delta": 6.0})
    p = validate_point(b, [1.0, 0.0])
    with pytest.raises(NoBoundaryIntersectionError) as exc:
        radius_containment(p, [0.0, 1.0], 2.9)
    assert f"radius-{2.9 * 12 / 16}" in exc.value.message


# ---------------------------------------------------------------- batching


def _one_circle_roots(p, e_t, e_n, r, m):
    """The scalar one-circle scan and one-bracket-at-a-time Illinois regula falsi."""
    body = p.body
    xi = p.point
    gnorm = float(np.linalg.norm(p.grad))
    ftol = 1e-12 * (1.0 + gnorm)
    band = body.tol_boundary * (1.0 + gnorm)

    def at(theta):
        return xi + r * math.cos(theta) * e_t + r * math.sin(theta) * e_n

    thetas = [2.0 * math.pi * s / m for s in range(m)]
    values = [body.value(at(th)) for th in thetas]
    roots = []
    is_root = [abs(v) <= ftol for v in values]
    for s in range(m):
        if is_root[s]:
            roots.append(thetas[s])
    for s in range(m):
        s_next = (s + 1) % m
        if is_root[s] or is_root[s_next]:
            continue
        va, vb = values[s], values[s_next]
        if (va > 0.0) == (vb > 0.0):
            continue
        a, b = thetas[s], thetas[s] + 2.0 * math.pi / m
        fa, fb, wa = va, vb, va
        hit = False
        for _ in range(200):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            c = b - fb * (b - a) / (fb - wa)
            if not min(a, b) < c < max(a, b):
                c = mid
            fc = body.value(at(c))
            if (fc > 0.0) != (fb > 0.0):
                a, fa, wa = b, fb, fb
            else:
                wa = 0.5 * wa
            b, fb = c, fc
            if abs(fc) <= ftol:
                hit = True
                break
        if hit or not abs(fa) < abs(fb):
            root, f_root = b, fb
        else:
            root, f_root = a, fa
        if not hit and not abs(f_root) <= band:
            raise DiscontinuousFieldError("sign change off the boundary band")
        roots.append(root)
    return [at(th) for th in roots]


def _one_circle_bisection(p, e_t, e_n, r, m):
    """The retired root finder: one-circle scan and one-bracket-at-a-time bisection."""
    body = p.body
    xi = p.point
    ftol = 1e-12 * (1.0 + float(np.linalg.norm(p.grad)))

    def at(theta):
        return xi + r * math.cos(theta) * e_t + r * math.sin(theta) * e_n

    thetas = [2.0 * math.pi * s / m for s in range(m)]
    values = [body.value(at(th)) for th in thetas]
    roots = []
    is_root = [abs(v) <= ftol for v in values]
    for s in range(m):
        if is_root[s]:
            roots.append(thetas[s])
    for s in range(m):
        s_next = (s + 1) % m
        if is_root[s] or is_root[s_next]:
            continue
        va, vb = values[s], values[s_next]
        if (va > 0.0) == (vb > 0.0):
            continue
        lo, hi = thetas[s], thetas[s] + 2.0 * math.pi / m
        v_lo = va
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            v_mid = body.value(at(mid))
            if abs(v_mid) <= ftol:
                lo = hi = mid
                break
            if (v_mid > 0.0) == (v_lo > 0.0):
                lo, v_lo = mid, v_mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return [at(th) for th in roots]


def _section_cases(disk_point, sphere3_point, cylinder_point, quartic_point):
    halfplane = validate_point(make_body({"n": 2, "f": "x2 - 1", "delta": 0.5}), [0.0, 1.0])
    cases = [
        (disk_point, [0.0, 1.0]),
        (sphere3_point, [1.0, 0.0, 0.0]),
        (cylinder_point, [0.0, 1.0, 0.0]),    # flat arcs: grid points within ftol
        (cylinder_point, [1.2, 0.5, -0.9]),
        (halfplane, [1.0, 0.0]),
        (quartic_point, [-2.0, 1.0]),
    ]
    for seed, n in ((3, 2), (4, 3), (5, 3)):
        rng = np.random.default_rng(seed)
        body, a = quadric_body(rng, n)
        p = validate_point(body, quadric_boundary_point(rng, a))
        cases.append((p, tangent_direction(rng, p)))
    return cases


def test_batched_circle_roots_equal_one_circle_scan_bit_for_bit(
        disk_point, sphere3_point, cylinder_point, quartic_point):
    radii = [0.01, 0.0625, 0.1, 0.23, 0.35]
    for p, u in _section_cases(disk_point, sphere3_point, cylinder_point, quartic_point):
        e_t, e_n = _section_basis(p, u)
        batched = _circle_roots(p, e_t, e_n, radii)
        assert len(batched) == len(radii)
        for r, got in zip(radii, batched):
            want = _one_circle_roots(p, e_t, e_n, r, 512)
            assert [eta.tobytes() for eta in got] == [eta.tobytes() for eta in want]


def test_batched_bisection_across_a_pole_matches_one_circle_scan():
    # the sign change across the pole of 0.01/(x1 - 0.0513) never meets the
    # floor: its bracket closes on |f| ~ 1e14, which is no boundary point
    b = make_body({"n": 2, "f": "x2 - 1 + 0.01/(x1 - 0.0513)", "delta": 0.5})
    p = validate_point(b, [0.5, 1.0 - 0.01 / (0.5 - 0.0513)])
    e_t, e_n = _section_basis(p, [1.0, 0.01 / (0.5 - 0.0513) ** 2])
    got = _circle_roots(p, e_t, e_n, [0.3])[0]
    want = _one_circle_roots(p, e_t, e_n, 0.3, 512)
    assert [eta.tobytes() for eta in got] == [eta.tobytes() for eta in want]
    with pytest.raises(DiscontinuousFieldError) as exc:
        _circle_roots(p, e_t, e_n, [0.3, 0.46])
    assert "radius-0.46" in exc.value.message
    with pytest.raises(DiscontinuousFieldError):
        _one_circle_roots(p, e_t, e_n, 0.46, 512)
    with pytest.raises(DiscontinuousFieldError):
        modulus_bruteforce(p, [1.0, 0.01 / (0.5 - 0.0513) ** 2], 0.46)


def test_bracket_without_a_hit_returns_its_endpoint_in_the_band():
    # x2 + 1e8 rounds to steps of 1.5e-8, so f jumps from -1.4e-8 to +1e-9 across
    # x2 = 1 and never meets the floor 2e-12; the +1e-9 side lies in the band 2e-9
    b = make_body({"n": 2, "f": "x2 + 100000000 - 100000001 + 1e-9", "delta": 0.5})
    p = validate_point(b, [0.0, 1.0])
    e_t, e_n = _section_basis(p, [1.0, 0.0])
    radii = [0.1, 0.3]
    for r, got in zip(radii, _circle_roots(p, e_t, e_n, radii)):
        want = _one_circle_roots(p, e_t, e_n, r, 512)
        assert [eta.tobytes() for eta in got] == [eta.tobytes() for eta in want]
        assert [b.value(eta) for eta in got] == [1e-9, 1e-9]


def test_roots_lie_on_their_circle_within_the_floor(
        disk_point, sphere3_point, cylinder_point, quartic_point):
    radii = [0.01, 0.0625, 0.1, 0.23, 0.35]
    for p, u in _section_cases(disk_point, sphere3_point, cylinder_point, quartic_point):
        ftol = 1e-12 * (1.0 + float(np.linalg.norm(p.grad)))
        e_t, e_n = _section_basis(p, u)
        for r, etas in zip(radii, _circle_roots(p, e_t, e_n, radii)):
            assert etas
            for eta in etas:
                assert abs(p.body.value(eta)) <= ftol
                assert abs(float(np.linalg.norm(eta - p.point)) - r) <= 1e-12 * r


def test_illinois_roots_match_retired_bisection(
        disk_point, sphere3_point, cylinder_point, quartic_point):
    radii = [0.01, 0.0625, 0.1, 0.23, 0.35]
    worst = 0.0
    for p, u in _section_cases(disk_point, sphere3_point, cylinder_point, quartic_point):
        e_t, e_n = _section_basis(p, u)
        for r, got in zip(radii, _circle_roots(p, e_t, e_n, radii)):
            want = _one_circle_bisection(p, e_t, e_n, r, 512)
            assert len(got) == len(want)
            for eta, ref in zip(got, want):
                worst = max(worst, float(np.linalg.norm(eta - ref)))
    assert worst <= 1e-11


def test_scan_grid_is_read_only():
    for column in _SCAN_GRID:
        assert column.shape == (512,)
        with pytest.raises(ValueError):
            column[0] = 1.0


@pytest.mark.parametrize("delta", [1e-300, 1e-20, 1e-6])
def test_gamma_estimate_rejects_unresolvable_radius(delta):
    # at |xi| = 1 the drops of radii below ~2e-6 sink under the root tolerance
    b = make_body({"n": 2, "f": "x1^2 + x2^2 - 1", "delta": delta})
    p = validate_point(b, [1.0, 0.0])
    with pytest.raises(UnresolvedRadiusError):
        gamma_estimate(p, [0.0, 1.0])
    with pytest.raises(UnresolvedRadiusError):
        radius_containment(p, [0.0, 1.0], delta / 4.0)


def test_gamma_estimate_quotients_equal_single_radius_samples(disk_point, quartic_point):
    for p, u in ((disk_point, [0.0, 1.0]), (quartic_point, [-2.0, 1.0])):
        est = gamma_estimate(p, u)
        r0 = min(p.body.delta / 4.0, 0.1)
        for k, q in enumerate(est.quotients):
            rk = r0 * 0.5**k
            assert q == modulus_bruteforce(p, u, rk).value / (rk * rk)
