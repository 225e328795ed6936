"""Directional curvature formulas, extrema, translation and invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import (
    make_body,
    quadric_body,
    quadric_boundary_point,
    rel_close,
    sphere_body,
    tangent_direction,
)

from dircurv import (
    curvature_radius,
    extrema,
    gamma_directional,
    kappa_directional,
    tangent_frame,
    translate_body,
    validate_point,
)
from dircurv.errors import (
    DimensionMismatchError,
    InputError,
    NegativeCurvatureError,
    NonFiniteValueError,
    NotInteriorError,
    NotTangentError,
    ZeroDirectionError,
)


# ---------------------------------------------------------------- examples


def test_disk_curvature(disk_point):
    dc = kappa_directional(disk_point, [0.0, 1.0])
    assert dc.kappa_hat == 0.5
    assert dc.gamma_hat == 0.5
    assert dc.radius_hat == 1.0
    assert not dc.convexity_warning


def test_sphere_curvature(sphere3_point):
    dc = kappa_directional(sphere3_point, [1.0, 0.0, 0.0])
    assert dc.kappa_hat == 0.25          # 1 / (2R) with R = 2
    assert dc.radius_hat == 2.0
    assert gamma_directional(sphere3_point, [1.0, 0.0, 0.0]) == 0.125  # 1 / (2R^2)


def test_quartic_curvature_frozen_value(quartic_point):
    # grad (0.5, 1), H = diag(3, 0), u = (-2, 1):
    # kappa = 12 / (2 * sqrt(1.25) * 5) = 1.5 / 1.25^1.5
    dc = kappa_directional(quartic_point, [-2.0, 1.0])
    assert rel_close(dc.kappa_hat, 1.5 / 1.25**1.5, 1e-15)
    assert rel_close(dc.gamma_hat, 12.0 / (2.0 * 1.1875 * 5.0), 1e-15)


def test_quartic_apex_is_flat():
    b = make_body({"n": 2, "f": "x2 - 1 + x1^4", "delta": 0.5})
    p = validate_point(b, [0.0, 1.0])
    for u in ([1.0, 0.0], [-1.0, 0.0]):
        dc = kappa_directional(p, u)
        assert dc.kappa_hat == 0.0
        assert dc.gamma_hat == 0.0
        assert math.isinf(dc.radius_hat) and dc.radius_hat > 0
        assert curvature_radius(p, u) == math.inf


def test_cylinder_directional_curvatures(cylinder_point):
    p = cylinder_point
    axis = [0.0, 1.0, 0.0]
    assert kappa_directional(p, axis).kappa_hat == 0.0
    assert math.isinf(kappa_directional(p, axis).radius_hat)
    circ = [-2.4, 0.0, 1.8]
    dc = kappa_directional(p, circ)
    assert rel_close(dc.kappa_hat, 1.0 / 3.0, 1e-14)   # 1 / (2a), a = 1.5
    assert rel_close(dc.radius_hat, 1.5, 1e-14)


def test_curvature_radius_disk(disk_point):
    assert curvature_radius(disk_point, [0.0, 1.0]) == 1.0


# ---------------------------------------------------------------- rejections


def test_zero_direction_rejected(disk_point):
    with pytest.raises(ZeroDirectionError):
        kappa_directional(disk_point, [0.0, 0.0])
    with pytest.raises(ZeroDirectionError):
        gamma_directional(disk_point, [0.0, 0.0])


def test_non_tangent_direction_rejected(disk_point):
    with pytest.raises(NotTangentError):
        kappa_directional(disk_point, [1.0, 1.0])
    with pytest.raises(NotTangentError):
        kappa_directional(disk_point, [1e300, 1e300])


def test_non_finite_direction_rejected(disk_point):
    for u in ([math.inf, 0.0], [0.0, math.inf], [0.0, math.nan]):
        with pytest.raises(InputError) as exc:
            kappa_directional(disk_point, u)
        assert exc.value.code == "input_error"


def test_huge_and_tiny_directions_match_their_unit_scaling(disk_point):
    want = kappa_directional(disk_point, [0.0, 1.0])
    for u in ([0.0, 1e300], [0.0, -1e-300], [0.0, 5e-324]):
        dc = kappa_directional(disk_point, u)
        assert dc.direction.tolist() == u
        assert (dc.gamma_hat, dc.kappa_hat, dc.radius_hat) == (
            want.gamma_hat, want.kappa_hat, want.radius_hat)
        assert gamma_directional(disk_point, u) == want.gamma_hat


def test_power_of_two_scaling_is_bit_exact():
    rng = np.random.default_rng(21)
    body, a = quadric_body(rng, 5)
    p = validate_point(body, quadric_boundary_point(rng, a))
    u = tangent_direction(rng, p)
    want = kappa_directional(p, u)
    for s in (2.0**900, 2.0**-900):
        got = kappa_directional(p, s * u)
        assert (got.gamma_hat, got.kappa_hat) == (want.gamma_hat, want.kappa_hat)


def test_dimension_mismatch_rejected(disk_point):
    with pytest.raises(DimensionMismatchError):
        kappa_directional(disk_point, [0.0, 1.0, 0.0])


def test_negative_curvature_detected():
    # hyperbola x1^2 - x2^2 = 1: the standing hypotheses hold at
    # (sqrt(2), 1) but the section bends away from the interior
    b = make_body({"n": 2, "f": "x1^2 - x2^2 - 1", "delta": 0.25})
    p = validate_point(b, [math.sqrt(2.0), 1.0])
    u = [1.0, math.sqrt(2.0)]
    dc = kappa_directional(p, u)
    assert dc.kappa_hat < 0
    assert dc.convexity_warning
    assert dc.radius_hat < 0
    with pytest.raises(NegativeCurvatureError):
        curvature_radius(p, u)


# ---------------------------------------------------------------- extrema


def test_extrema_ellipsoid(ellipsoid_body):
    p = validate_point(ellipsoid_body, [2.0, 0.0, 0.0])
    ex = extrema(p)
    assert rel_close(ex.kappa_min, 1.0, 1e-12)
    assert rel_close(ex.kappa_max, 4.0, 1e-12)
    assert abs(abs(ex.dir_min[1]) - 1.0) <= 1e-12   # x2 section is flattest
    assert abs(abs(ex.dir_max[2]) - 1.0) <= 1e-12   # x3 section is sharpest


def test_extrema_sphere_is_umbilic(sphere3_point):
    ex = extrema(sphere3_point)
    assert rel_close(ex.kappa_min, 0.25, 1e-13)
    assert rel_close(ex.kappa_max, 0.25, 1e-13)


def test_extrema_cylinder(cylinder_point):
    ex = extrema(cylinder_point)
    assert abs(ex.kappa_min) <= 1e-14
    assert rel_close(ex.kappa_max, 1.0 / 3.0, 1e-12)
    # flat direction is the axis, sharp direction the circumference
    assert abs(abs(ex.dir_min[1]) - 1.0) <= 1e-10
    assert abs(ex.dir_max[1]) <= 1e-10


def test_extrema_directions_attain_extremes(cylinder_point):
    ex = extrema(cylinder_point)
    assert rel_close(kappa_directional(cylinder_point, ex.dir_min).kappa_hat,
                     ex.kappa_min, 1e-10, floor=1e-13)
    assert rel_close(kappa_directional(cylinder_point, ex.dir_max).kappa_hat,
                     ex.kappa_max, 1e-10, floor=1e-13)


# ---------------------------------------------------------------- translation


def test_translate_disk_preserves_kappa(disk_body):
    moved = translate_body(disk_body, [0.5, 0.0])
    p0 = validate_point(disk_body, [1.0, 0.0])
    p1 = validate_point(moved, [0.5, 0.0])
    k0 = kappa_directional(p0, [0.0, 1.0])
    k1 = kappa_directional(p1, [0.0, 1.0])
    assert rel_close(k1.kappa_hat, k0.kappa_hat, 1e-12)
    # gamma is origin-relative and must move
    assert abs(k1.gamma_hat - k0.gamma_hat) > 0.1


def test_translate_rejects_non_interior(disk_body):
    with pytest.raises(NotInteriorError):
        translate_body(disk_body, [2.0, 0.0])
    with pytest.raises(NotInteriorError):
        translate_body(disk_body, [1.0, 0.0])   # boundary is not interior


def test_translate_rejects_bad_dimension(disk_body):
    with pytest.raises(DimensionMismatchError):
        translate_body(disk_body, [0.1, 0.0, 0.0])


def test_translated_field_matches_shifted_evaluation(quartic_body):
    y = np.array([0.25, -0.5])
    moved = translate_body(quartic_body, y)
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, size=2)
        assert moved.value(x) == pytest.approx(quartic_body.value(x + y), rel=1e-14, abs=1e-14)


# ---------------------------------------------------------------- invariances


def test_direction_scaling_power_of_two_is_bitwise(disk_point, cylinder_point):
    for p, u in ((disk_point, np.array([0.0, 1.0])),
                 (cylinder_point, np.array([-2.4, 0.0, 1.8]))):
        base = kappa_directional(p, u)
        for lam in (-4.0, 0.5, 8.0):
            scaled = kappa_directional(p, lam * u)
            assert scaled.kappa_hat == base.kappa_hat
            assert scaled.gamma_hat == base.gamma_hat


def test_direction_scaling_general(quartic_point):
    u = np.array([-2.0, 1.0])
    base = kappa_directional(quartic_point, u)
    for lam in (-3.0, 0.1, 7.0):
        scaled = kappa_directional(quartic_point, lam * u)
        assert rel_close(scaled.kappa_hat, base.kappa_hat, 1e-14)
        assert rel_close(scaled.gamma_hat, base.gamma_hat, 1e-14)


def test_field_scaling_invariance():
    # 3.7 * f describes the same body; both curvatures are ratios of
    # f-derivatives and cancel the factor
    plain = make_body({"n": 2, "f": "x2 - 1 + x1^4", "delta": 0.5})
    scaled = make_body({"n": 2, "f": "3.7*(x2 - 1 + x1^4)", "delta": 0.5})
    p0 = validate_point(plain, [0.5, 0.9375])
    p1 = validate_point(scaled, [0.5, 0.9375])
    u = [-2.0, 1.0]
    assert rel_close(kappa_directional(p1, u).kappa_hat,
                     kappa_directional(p0, u).kappa_hat, 1e-12)
    assert rel_close(gamma_directional(p1, u), gamma_directional(p0, u), 1e-12)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_random_quadric_kappa_within_extrema(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    body, a = quadric_body(rng, n)
    p = validate_point(body, quadric_boundary_point(rng, a))
    ex = extrema(p)
    u = tangent_direction(rng, p)
    k = kappa_directional(p, u).kappa_hat
    band = 1e-12 * (1.0 + abs(ex.kappa_max))
    assert ex.kappa_min - band <= k <= ex.kappa_max + band


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_random_quadric_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    body, a = quadric_body(rng, n)
    xi = quadric_boundary_point(rng, a)
    p = validate_point(body, xi)
    u = tangent_direction(rng, p)
    k0 = kappa_directional(p, u).kappa_hat
    y = 0.3 * quadric_boundary_point(rng, a)   # interior: gauge 0.3
    moved = translate_body(body, y)
    k1 = kappa_directional(validate_point(moved, xi - y), u).kappa_hat
    assert rel_close(k1, k0, 1e-10)


@pytest.mark.parametrize("route", [
    lambda p: gamma_directional(p, [1.0, 0.0]),
    lambda p: kappa_directional(p, [1.0, 0.0]),
    extrema,
])
def test_overflowing_curvature_is_non_finite_value(route):
    # kappa_hat = 2e300 / (2 * 2e-9) and gamma_hat are beyond the float range
    p = validate_point(make_body({"n": 2, "f": "1e300*x1^2 + 2e-9*x2 - 2e-9", "delta": 0.5}),
                       [0.0, 1.0])
    with pytest.raises(NonFiniteValueError):
        route(p)
