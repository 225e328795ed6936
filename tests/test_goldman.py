"""Intersection-curve pipeline against the directional formulas."""

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
)

from dircurv import (
    BoundaryPoint,
    expr,
    goldman_curvature_closed,
    goldman_curvature_general,
    goldman_tangent,
    kappa_directional,
    plane_system,
    validate_point,
)
from dircurv.errors import DegenerateTangentError, InvalidIndexError, NonFiniteValueError
from dircurv.goldman import _tangent_weights
from dircurv.linalg import determinant


def frame_vector(p, j):
    u = np.zeros(p.body.n)
    u[j - 1] = 1.0
    u[p.pivot - 1] = -p.grad[j - 1] / p.grad[p.pivot - 1]
    return u


def nonpivot_indices(p):
    return [j for j in range(1, p.body.n + 1) if j != p.pivot]


# ---------------------------------------------------------------- planes


def test_plane_system_empty_in_the_plane(quartic_point):
    j = 2 if quartic_point.pivot == 1 else 1
    system = plane_system(quartic_point, j)
    assert system.ks == ()
    assert system.coeffs == {}
    assert system.gradient_rows(2) == []


def test_plane_system_coefficients(sphere3_point):
    # pivot 3 at the north pole; with j = 1 the only cut is k = 2
    system = plane_system(sphere3_point, 1)
    assert system.pivot == 3 and system.j == 1
    assert system.ks == (2,)
    assert system.coeffs[(2, 3)] == 0.0
    assert system.coeffs[(2, 1)] == 0.0


def test_plane_system_rejects_bad_index(sphere3_point):
    with pytest.raises(InvalidIndexError):
        plane_system(sphere3_point, 0)
    with pytest.raises(InvalidIndexError):
        plane_system(sphere3_point, 4)
    with pytest.raises(InvalidIndexError):
        plane_system(sphere3_point, sphere3_point.pivot)


def test_planes_contain_gradient_and_frame_direction():
    # every cutting plane must contain the section plane span{grad, u^j}
    rng = np.random.default_rng(15)
    for _ in range(10):
        body, a = quadric_body(rng, 4)
        p = validate_point(body, quadric_boundary_point(rng, a))
        for j in nonpivot_indices(p):
            system = plane_system(p, j)
            u = frame_vector(p, j)
            for k in system.ks:
                for direction in (p.grad, u):
                    eta = p.point + 0.37 * direction
                    scale = 1.0 + float(np.linalg.norm(direction))
                    assert abs(system.residual(p.point, eta, k)) <= 1e-12 * scale


def test_plane_residual_vanishes_at_the_point(cylinder_point):
    system = plane_system(cylinder_point, 3)
    for k in system.ks:
        assert system.residual(cylinder_point.point, cylinder_point.point, k) == 0.0


# ---------------------------------------------------------------- tangent


def test_tangent_in_the_plane_is_rotated_gradient(quartic_point):
    j = 2 if quartic_point.pivot == 1 else 1
    tan = goldman_tangent(quartic_point, plane_system(quartic_point, j))
    np.testing.assert_allclose(tan, [-1.0, 0.5])   # (-f_2, f_1) at grad (0.5, 1)


def test_tangent_at_sphere_pole_is_axis_aligned(sphere3_point):
    tan = goldman_tangent(sphere3_point, plane_system(sphere3_point, 1))
    np.testing.assert_allclose(tan, [-4.0, 0.0, 0.0])


def test_tangent_is_parallel_to_frame_vector():
    rng = np.random.default_rng(16)
    for n in (3, 4, 5):
        body, a = quadric_body(rng, n)
        p = validate_point(body, quadric_boundary_point(rng, a))
        for j in nonpivot_indices(p):
            tan = goldman_tangent(p, plane_system(p, j))
            u = frame_vector(p, j)
            cos = abs(float(tan @ u)) / (np.linalg.norm(tan) * np.linalg.norm(u))
            assert abs(cos - 1.0) <= 1e-10


def test_tangent_magnitude_closed_form():
    # |Tan| = |grad|^2 |f_i| / (f_i^2 + f_j^2) * |u^j|
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        body, a = quadric_body(rng, n)
        p = validate_point(body, quadric_boundary_point(rng, a))
        i = p.pivot
        for j in nonpivot_indices(p):
            tan = goldman_tangent(p, plane_system(p, j))
            fi, fj = p.grad[i - 1], p.grad[j - 1]
            gsq = float(p.grad @ p.grad)
            want = gsq * abs(fi) / (fi * fi + fj * fj) * np.linalg.norm(frame_vector(p, j))
            assert rel_close(float(np.linalg.norm(tan)), want, 1e-10)


def test_degenerate_tangent_raises():
    # the field's own partials all vanish at (1, 0, 0); a hand-assembled
    # point sneaks past validation but the tangent components evaluate to 0
    body = make_body({"n": 3, "f": "-(x1 - 1)^2 - x2^2", "delta": 0.5})
    fake = BoundaryPoint(
        body=body,
        point=np.array([1.0, 0.0, 0.0]),
        grad=np.array([1.0, 0.0, 0.0]),
        hess=np.zeros((3, 3)),
        pivot=1,
        dual=np.array([1.0, 0.0, 0.0]),
        pairing=1.0,
    )
    with pytest.raises(DegenerateTangentError):
        goldman_tangent(fake, plane_system(fake, 2))


# ---------------------------------------------------------------- curvature


def test_general_equals_closed_on_fixtures(sphere3_point, cylinder_point, quartic_point):
    for p in (sphere3_point, cylinder_point, quartic_point):
        for j in nonpivot_indices(p):
            system = plane_system(p, j)
            kg = goldman_curvature_general(p, system)
            kc = goldman_curvature_closed(p, system)
            assert rel_close(kg, kc, 1e-10)


def test_closed_form_is_twice_kappa(sphere3_point, cylinder_point, quartic_point, ellipsoid_body):
    points = [sphere3_point, cylinder_point, quartic_point,
              validate_point(ellipsoid_body, [2.0, 0.0, 0.0])]
    for p in points:
        for j in nonpivot_indices(p):
            kc = goldman_curvature_closed(p, plane_system(p, j))
            kap = kappa_directional(p, frame_vector(p, j)).kappa_hat
            assert rel_close(kc, 2.0 * kap, 1e-10)


def test_sphere_curvature_is_inverse_radius(sphere3_point):
    # the great-circle section of a radius-2 sphere has curvature 1/2
    system = plane_system(sphere3_point, 1)
    assert goldman_curvature_general(sphere3_point, system) == pytest.approx(0.5, rel=1e-12)
    assert goldman_curvature_closed(sphere3_point, system) == pytest.approx(0.5, rel=1e-12)


def test_cylinder_sections(cylinder_point):
    # j = 3 is the circumferential index (pivot 1): curvature 1/a
    kc_circ = goldman_curvature_closed(cylinder_point, plane_system(cylinder_point, 3))
    assert rel_close(kc_circ, 1.0 / 1.5, 1e-12)
    # j = 2 is the axis: a straight line of zero curvature
    kc_axis = goldman_curvature_closed(cylinder_point, plane_system(cylinder_point, 2))
    assert abs(kc_axis) <= 1e-14
    assert goldman_curvature_general(cylinder_point, plane_system(cylinder_point, 2)) <= 1e-14


def test_planar_reduction_matches_disk(disk_point):
    system = plane_system(disk_point, 2)
    kg = goldman_curvature_general(disk_point, system)
    kc = goldman_curvature_closed(disk_point, system)
    assert rel_close(kg, 1.0, 1e-12)   # unit circle curvature
    assert rel_close(kc, 1.0, 1e-12)
    assert rel_close(kg, kc, 1e-12)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_random_quadric_pipeline_consistency(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    body, a = quadric_body(rng, n)
    p = validate_point(body, quadric_boundary_point(rng, a))
    j = nonpivot_indices(p)[int(rng.integers(0, n - 1))]
    system = plane_system(p, j)
    kg = goldman_curvature_general(p, system)
    kc = goldman_curvature_closed(p, system)
    kap = kappa_directional(p, frame_vector(p, j)).kappa_hat
    assert rel_close(kc, 2.0 * kap, 1e-10)
    assert rel_close(kg, kc, 1e-8)


# ---------------------------------------------------------------- weights


def _symbolic_tangent(p, system):
    """The retired construction: tangent components as expression trees, one
    signed minor of the plane rows per partial of f."""
    n = p.body.n
    body = p.body
    if n == 2:
        return [expr.Neg(body.partial(2)), body.partial(1)]
    rows = system.gradient_rows(n)
    comps = []
    for m in range(1, n + 1):
        columns = [c for c in range(1, n + 1) if c != m]
        terms = []
        for t, c in enumerate(columns):
            minor_cols = [col for col in columns if col != c]
            minor = np.array([[row[col - 1] for col in minor_cols] for row in rows])
            w = float(determinant(minor))
            if (1 + m + t) % 2 == 1:  # (-1)^(1+m) * (-1)^t
                w = -w
            if w != 0.0:
                terms.append(expr.Mul(expr.Number(w), body.partial(c)))
        total = terms[0] if terms else expr.Number(0.0)
        for term in terms[1:]:
            total = expr.Add(total, term)
        comps.append(total)
    return comps


def test_tangent_weights_are_antisymmetric():
    rng = np.random.default_rng(18)
    for n in (2, 3, 4, 6, 9):
        body, a = quadric_body(rng, n)
        p = validate_point(body, quadric_boundary_point(rng, a))
        for j in nonpivot_indices(p):
            w = _tangent_weights(plane_system(p, j), n)
            assert np.array_equal(w, -w.T)


def test_hessian_jacobian_equals_retired_symbolic_jacobian(
        sphere3_point, cylinder_point, quartic_point):
    for p in (sphere3_point, cylinder_point, quartic_point):
        n = p.body.n
        for j in nonpivot_indices(p):
            system = plane_system(p, j)
            comps = _symbolic_tangent(p, system)
            symbolic = np.array([[expr.evaluate(expr.differentiate(comps[c], r), p.point)
                                  for c in range(n)] for r in range(1, n + 1)])
            w = _tangent_weights(system, n)
            scale = max(1.0, float(np.max(np.abs(symbolic))))
            np.testing.assert_allclose(p.hess @ w.T, symbolic, rtol=0.0, atol=1e-15 * scale)
            tan = [expr.evaluate(c, p.point) for c in comps]
            np.testing.assert_allclose(goldman_tangent(p, system), tan, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("n", [12, 16])
def test_general_equals_closed_at_high_dimension(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(2):
        body, a = quadric_body(rng, n)
        p = validate_point(body, quadric_boundary_point(rng, a))
        for j in nonpivot_indices(p):
            system = plane_system(p, j)
            ratio = goldman_curvature_general(p, system) / goldman_curvature_closed(p, system)
            assert abs(ratio - 1.0) <= 1e-15


@pytest.mark.parametrize("c", ["1e12", "1e150"])
@pytest.mark.parametrize("n", [2, 3])
def test_routes_do_not_depend_on_field_scale(n, c):
    # |Tan| grows like c, its degeneracy floor like c^2, and the closed form's
    # products like c^3: unscaled, c = 1e12 raised degenerate_tangent and
    # c = 1e150 made the closed form nan
    squares = " + ".join(f"x{k}^2" for k in range(1, n + 1))
    p = validate_point(make_body({"n": n, "f": f"{c}*({squares} - 1)", "delta": 0.5}),
                       [1.0] + [0.0] * (n - 1))
    for j in nonpivot_indices(p):
        system = plane_system(p, j)
        kappa = kappa_directional(p, frame_vector(p, j)).kappa_hat
        assert goldman_curvature_general(p, system) == pytest.approx(2.0 * kappa, rel=1e-15)
        assert goldman_curvature_closed(p, system) == pytest.approx(2.0 * kappa, rel=1e-15)
        tan = goldman_tangent(p, system)
        assert float(np.linalg.norm(tan)) == pytest.approx(2.0 * float(c), rel=1e-15)


def test_power_of_two_field_scale_moves_no_bit():
    text = "x1^2 + 2*x2^2 + 3*x3^2 + x1*x2 - 1"
    x = [0.5, 0.25, 0.0]
    x[2] = math.sqrt((1.0 - 0.25 - 2 * 0.0625 - 0.125) / 3.0)
    base = validate_point(make_body({"n": 3, "f": text, "delta": 0.5}), x)
    for scale in ("0.0009765625", "1024"):   # 2^-10, 2^10
        p = validate_point(make_body({"n": 3, "f": f"{scale}*({text})", "delta": 0.5}), x)
        for j in nonpivot_indices(p):
            system, want = plane_system(p, j), plane_system(base, j)
            assert goldman_curvature_general(p, system) == goldman_curvature_general(base, want)
            assert goldman_curvature_closed(p, system) == goldman_curvature_closed(base, want)


def test_overflowing_curvature_is_non_finite_value():
    # kappa_hat = 2e300 / (2 * 2e-9) is beyond the float range
    p = validate_point(make_body({"n": 2, "f": "1e300*x1^2 + 2e-9*x2 - 2e-9", "delta": 0.5}),
                       [0.0, 1.0])
    system = plane_system(p, 1)
    for route in (goldman_curvature_general, goldman_curvature_closed):
        with pytest.raises(NonFiniteValueError):
            route(p, system)
