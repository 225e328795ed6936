"""Body construction, boundary validation, tangent frames and the gauge."""

import math
import warnings

import numpy as np
import pytest

from conftest import make_body, rel_close, sphere_body

from dircurv import (
    ImplicitBody,
    body_from_dict,
    expr,
    extrema,
    gamma_directional,
    goldman_curvature_closed,
    goldman_curvature_general,
    goldman_tangent,
    in_tangent_hyperplane,
    kappa_directional,
    minkowski_gauge,
    plane_system,
    tangent_frame,
    translate_body,
    validate_point,
)
from dircurv.body import MAX_DIMENSION, check_direction
from dircurv.errors import (
    DimensionMismatchError,
    InputError,
    InvalidBodyError,
    NonFiniteValueError,
    NonSmoothPointError,
    NotOnBoundaryError,
    OrientationViolationError,
    RayEscapesError,
    ZeroDirectionError,
)
from dircurv.linalg import orthonormalize


# ---------------------------------------------------------------- construction


def test_body_from_dict_defaults():
    b = make_body({"n": 2, "f": "x1^2 + x2^2 - 1", "delta": 0.5})
    assert b.n == 2 and b.delta == 0.5
    assert b.tol_boundary == 1e-9 and b.tol_pivot == 1e-9


def test_body_from_dict_custom_tolerances():
    b = make_body({"n": 2, "f": "x1^2 + x2^2 - 1", "delta": 0.5,
                   "tolerances": {"boundary": 1e-7, "pivot": 1e-8}})
    assert b.tol_boundary == 1e-7 and b.tol_pivot == 1e-8


@pytest.mark.parametrize("bad", [
    {"n": 2, "f": "x1 - 1", "delta": 0.5, "extra": 1},
    {"n": 2, "f": "x1 - 1"},
    {"n": 2.5, "f": "x1 - 1", "delta": 0.5},
    {"n": True, "f": "x1 - 1", "delta": 0.5},
    {"n": 2, "f": 17, "delta": 0.5},
    {"n": 2, "f": "x1 - 1", "delta": 0.0},
    {"n": 2, "f": "x1 - 1", "delta": "big"},
    {"n": 2, "f": "x1 - 1", "delta": 0.5, "tolerances": {"fuzz": 1e-9}},
    {"n": 2, "f": "x1 - 1", "delta": 0.5, "tolerances": {"boundary": 0.0}},
    {"n": 2, "f": "x1 - 1", "delta": 0.5, "tolerances": {"boundary": True}},
    {"n": 2, "f": "x1 - 1", "delta": 0.5, "tolerances": {"boundary": math.inf}},
    {"n": 1, "f": "x1 - 1", "delta": 0.5},
    "not a mapping",
    {"n": 2, "f": "x1 - 1", "delta": 10**399},   # 400 digits, beyond the float range
    {"n": 2, "f": "x1 - 1", "delta": 0.5, "tolerances": {"boundary": 10**399}},
])
def test_body_from_dict_rejects_malformed(bad):
    with pytest.raises(InvalidBodyError):
        body_from_dict(bad)


def test_body_requires_interior_origin():
    # f(0) = 1 > 0: the origin is outside
    with pytest.raises(InvalidBodyError):
        make_body({"n": 2, "f": "1 - x1", "delta": 0.5})
    # f(0) = 0: on the boundary is not interior either
    with pytest.raises(InvalidBodyError):
        make_body({"n": 2, "f": "x1", "delta": 0.5})


def test_body_field_evaluation(disk_body):
    assert disk_body.value([0.0, 0.0]) == -1.0
    assert np.allclose(disk_body.gradient([1.0, 0.0]), [2.0, 0.0])
    assert np.allclose(disk_body.hessian([0.3, -0.4]), 2.0 * np.eye(2))


def test_second_partial_symmetric_storage(quartic_body):
    a = quartic_body.second_partial(1, 2)
    b = quartic_body.second_partial(2, 1)
    assert a is b


# ---------------------------------------------------------------- validation


def test_validate_disk_point(disk_point):
    p = disk_point
    assert p.pivot == 1
    assert p.pairing == 2.0
    assert np.allclose(p.dual, [1.0, 0.0])
    assert np.allclose(p.hess, 2.0 * np.eye(2))


def test_validate_quartic_point(quartic_point):
    p = quartic_point
    assert np.allclose(p.grad, [0.5, 1.0])
    assert p.pairing == 1.1875
    assert p.pivot == 1
    assert np.allclose(p.dual, [0.5 / 1.1875, 1.0 / 1.1875])


def test_dual_pairing_normalization(disk_point, quartic_point, cylinder_point):
    for p in (disk_point, quartic_point, cylinder_point):
        assert abs(float(p.point @ p.dual) - 1.0) <= 1e-15


def test_validate_rejects_off_boundary(disk_body):
    with pytest.raises(NotOnBoundaryError):
        validate_point(disk_body, [0.5, 0.0])
    with pytest.raises(NotOnBoundaryError):
        validate_point(disk_body, [2.0, 0.0])


def test_validate_rejects_wrong_dimension(disk_body):
    with pytest.raises(DimensionMismatchError):
        validate_point(disk_body, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("v", [
    "ab", [[1, 2], [3]], [0, {}], [10**400, 0], np.array([1 + 0j, 0j]),
], ids=["text", "ragged", "object", "huge-int", "complex"])
def test_vector_callers_reject_non_real_vectors(disk_body, disk_point, v):
    # a bare float cast would drop the imaginary part of the complex array
    calls = [
        lambda: validate_point(disk_body, v),
        lambda: minkowski_gauge(disk_body, v),
        lambda: check_direction(disk_point, v),
        lambda: kappa_directional(disk_point, v),
        lambda: translate_body(disk_body, v),
    ]
    for call in calls:
        with pytest.raises(InputError) as exc:
            call()
        assert exc.value.code == "input_error"
        assert exc.value.message.endswith("is not a vector of real numbers")


@pytest.mark.parametrize("f,x,what", [
    ("x1^2 + x2^2 - 1", [1e200, 0.0], "f"),        # f overflows to inf
    ("x1^2 + x2^2 - 1", [0.0, -1e300], "f"),
    ("1e150*(x1 - 1e160) + x2", [1e160, 0.0], "pairing"),  # f, grad finite
    # |grad| overflows although its entries do not; f = 0.5 would pass the band
    ("1e160*x1 - 1e160 + x2", [1.0, 0.5], "gradient norm"),
])
def test_validate_rejects_overflowing_point(f, x, what):
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValueError) as exc:
        validate_point(make_body({"n": 2, "f": f, "delta": 0.5}), x)
    assert exc.value.code == "non_finite_value"
    assert exc.value.location == what
    assert exc.value.exit_code == 3


def test_validate_rejects_overflowing_dual_without_warning():
    # pairing = 5e-324 passes the positivity check, but grad / pairing is inf
    b = make_body({"n": 2, "f": "x2 - 5e-324", "delta": 0.5})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValueError) as exc:
            validate_point(b, [0.0, 5e-324])
        assert exc.value.location == "dual"
        with pytest.raises(NonFiniteValueError):
            validate_point(make_body({"n": 2, "f": "1e160*x1 - 1e160 + x2", "delta": 0.5}),
                           [1.0, 0.5])


def test_validate_rejects_vanishing_gradient():
    # boundary point (1, 0) of {-(x1-1)^2 <= 0} has zero gradient
    b = make_body({"n": 2, "f": "-(x1 - 1)^2", "delta": 0.5})
    with pytest.raises(NonSmoothPointError):
        validate_point(b, [1.0, 0.0])


def test_validate_rejects_inward_gradient():
    # {f <= 0} is the outside of a circle around (5, 0); at (6, 0) the
    # gradient points back toward the origin and <x, grad> < 0
    b = make_body({"n": 2, "f": "1 - (x1 - 5)^2 - x2^2", "delta": 0.5})
    with pytest.raises(OrientationViolationError):
        validate_point(b, [6.0, 0.0])


def test_pivot_skips_near_vanishing_partials():
    b = make_body({"n": 2, "f": "1e-10*x1 + x2 - 1", "delta": 0.5})
    p = validate_point(b, [0.0, 1.0])
    assert p.pivot == 2


def test_pivot_is_first_qualifying_index(cylinder_point):
    # gradient (1.8, 0, 2.4): index 1 qualifies first even though 3 is larger
    assert cylinder_point.pivot == 1


def test_validated_point_carries_value_and_gradient_norm(cylinder_point):
    p = cylinder_point
    assert p.value == p.body.value(p.point)
    assert p.gnorm == float(np.linalg.norm(p.grad))


def test_routes_read_the_validated_point_without_evaluating_the_field(
        cylinder_point, monkeypatch):
    # every route works from the data validate_point cached; none evaluates f,
    # its gradient or its Hessian at the point a second time
    p = cylinder_point
    u = tangent_frame(p).basis[1]

    def refuse(*args, **kwargs):
        raise AssertionError("the field was evaluated again")

    for name in ("value", "gradient", "hessian"):
        monkeypatch.setattr(ImplicitBody, name, refuse)
    check_direction(p, u)
    kappa_directional(p, u)
    gamma_directional(p, u)
    extrema(p)
    for j in (2, 3):
        system = plane_system(p, j)
        goldman_tangent(p, system)
        goldman_curvature_general(p, system)
        goldman_curvature_closed(p, system)


# ---------------------------------------------------------------- frames


def test_tangent_frame_shape_and_indices(sphere3_point):
    fr = tangent_frame(sphere3_point)
    assert fr.indices == (1, 2)
    assert len(fr.basis) == 2 and len(orthonormalize(fr.basis)) == 2
    np.testing.assert_allclose(fr.basis[0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(fr.basis[1], [0.0, 1.0, 0.0])


def test_tangent_frame_vectors_are_tangent(cylinder_point):
    fr = tangent_frame(cylinder_point)
    assert fr.indices == (2, 3)
    for u in fr.basis:
        assert in_tangent_hyperplane(cylinder_point, u)
    q = orthonormalize(fr.basis)
    g = np.array([[qi @ qj for qj in q] for qi in q])
    assert np.max(np.abs(g - np.eye(2))) <= 1e-14


def test_tangent_frame_unit_in_own_coordinate(quartic_point):
    fr = tangent_frame(quartic_point)
    (j,) = fr.indices
    u = fr.basis[0]
    assert u[j - 1] == 1.0
    # remaining mass sits in the pivot coordinate
    assert u[quartic_point.pivot - 1] == -quartic_point.grad[j - 1] / quartic_point.grad[quartic_point.pivot - 1]


def test_in_tangent_hyperplane_checks(disk_point):
    assert in_tangent_hyperplane(disk_point, [0.0, 1.0])
    assert in_tangent_hyperplane(disk_point, [0.0, -3.5])
    assert not in_tangent_hyperplane(disk_point, disk_point.grad)
    assert not in_tangent_hyperplane(disk_point, [0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        in_tangent_hyperplane(disk_point, [1.0])


def test_in_tangent_hyperplane_is_scale_free(disk_point):
    assert in_tangent_hyperplane(disk_point, [0.0, 1e300])
    assert in_tangent_hyperplane(disk_point, [1e-310, 1e300])
    assert not in_tangent_hyperplane(disk_point, [1e300, 1e300])
    assert not in_tangent_hyperplane(disk_point, [0.0, math.inf])
    assert not in_tangent_hyperplane(disk_point, [0.0, math.nan])


# ---------------------------------------------------------------- gauge


def test_gauge_sphere_examples():
    b = sphere_body(2.0, 3)
    assert minkowski_gauge(b, [4.0, 0.0, 0.0]) == pytest.approx(2.0, rel=1e-12)
    assert minkowski_gauge(b, [1.0, 0.0, 0.0]) == pytest.approx(0.5, rel=1e-12)


def test_gauge_disk_is_norm(disk_body):
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = rng.standard_normal(2) * rng.uniform(0.1, 5.0)
        assert rel_close(minkowski_gauge(disk_body, x), float(np.linalg.norm(x)), 1e-12)


def test_gauge_lands_on_boundary(quartic_body):
    x = np.array([0.0, 2.0])
    lam = minkowski_gauge(quartic_body, x)
    assert lam == pytest.approx(2.0, rel=1e-12)
    boundary = x / lam
    g = quartic_body.gradient(boundary)
    assert abs(quartic_body.value(boundary)) <= 1e-12 * (1.0 + np.linalg.norm(g))


def test_gauge_of_zero_vector_rejected(disk_body):
    with pytest.raises(ZeroDirectionError):
        minkowski_gauge(disk_body, [0.0, 0.0])


def test_gauge_ray_never_crossing_raises():
    # half-space below the line x2 = 1: rays inside it never reach the boundary
    b = make_body({"n": 2, "f": "x2 - 1", "delta": 0.5})
    with pytest.raises(RayEscapesError):
        minkowski_gauge(b, [1.0, 0.0])
    with pytest.raises(RayEscapesError):
        minkowski_gauge(b, [0.0, -1.0])


def test_gauge_positive_homogeneity(disk_body):
    x = np.array([0.3, 0.7])
    assert rel_close(minkowski_gauge(disk_body, 3.0 * x),
                     3.0 * minkowski_gauge(disk_body, x), 1e-12)


def _array_gauge(body, x):
    """The retired gauge: the same scan and bisection, its ray points as ``x / lam`` arrays."""
    x = np.asarray(x, dtype=float)

    def g(lam):
        with np.errstate(over="ignore"):
            return body.value(x / lam)

    grid = [10.0 ** e for e in range(9, -10, -1)]
    with np.errstate(over="ignore"):
        values = body.value(x[:, None] / np.array(grid)).tolist()
    for i, (lam, val) in enumerate(zip(grid, values)):
        if val == 0.0:
            return lam
        if i and (val > 0.0) != (values[i - 1] > 0.0):
            lo, hi, lo_val = lam, grid[i - 1], val
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        val = g(mid)
        if val == 0.0:
            return mid
        if (val > 0.0) == (lo_val > 0.0):
            lo, lo_val = mid, val
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_gauge_equals_array_ray_bit_for_bit(disk_body, quartic_body, ellipsoid_body,
                                             cylinder_body):
    rng = np.random.default_rng(29)
    for body in (disk_body, quartic_body, ellipsoid_body, sphere_body(2.0, 3)):
        for _ in range(10):
            x = rng.standard_normal(body.n) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert minkowski_gauge(body, x) == _array_gauge(body, x)
    x = np.array([1.0, 0.5, 0.0])
    assert minkowski_gauge(cylinder_body, x) == _array_gauge(cylinder_body, x)


@pytest.mark.parametrize("body,x", [
    ("disk_body", [0.3, 0.7]),
    ("disk_body", [1.0, 0.0]),          # f = 0 at lambda = 1, a point of the scan
    ("quartic_body", [0.0, 2.0]),       # f = 0 at a bisection midpoint
    ("quartic_body", [-0.7, 0.4]),
    ("ellipsoid_body", [0.5, -1.5, 0.25]),
])
def test_gauge_evaluates_no_ray_point_twice(request, monkeypatch, body, x):
    body = request.getfixturevalue(body)
    seen = []
    value = ImplicitBody.value

    def recording(self, pts):
        a = np.asarray(pts, dtype=float)
        seen.extend(map(tuple, a.T.tolist()) if a.ndim == 2 else [tuple(a.tolist())])
        return value(self, pts)

    monkeypatch.setattr(ImplicitBody, "value", recording)
    minkowski_gauge(body, x)
    assert len(seen) >= 19  # the decade scan
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("x", [[math.inf, 0.0], [math.nan, 0.0], [1.0, -math.inf]])
def test_gauge_rejects_non_finite_point(disk_body, x):
    with pytest.raises(InputError):
        minkowski_gauge(disk_body, x)


# a crossing at x/lambda = (9e7, inf), and one where f(x/lambda) is inf - inf
GAUGE_INF_POINT = ({"n": 2, "f": "-((x1^2 + x2) + -(x2^6 + x2)) + (1e-150*--x1^4 + 1e150*x1) - 0.5",
                    "delta": 4.0}, [0.5, 1e300])
GAUGE_NAN_FIELD = ({"n": 2, "f": "x1*(1*x1 + 1e300*-x2) + (1e300*(1e300*x1 + 0*x1^2) + x1) - 0.5",
                    "delta": 0.1}, [7229.656609424676, 24865.53970653071])


@pytest.mark.parametrize("body,x", [GAUGE_INF_POINT, GAUGE_NAN_FIELD])
def test_gauge_rejects_non_finite_crossing(body, x):
    with pytest.raises(NonFiniteValueError) as exc:
        minkowski_gauge(make_body(body), x)
    assert exc.value.location == "boundary_point"


# ---------------------------------------------------------------- direct API


def test_implicit_body_accepts_prebuilt_tree():
    f = expr.Sub(expr.Add(expr.Pow(expr.Variable(1), 2), expr.Pow(expr.Variable(2), 2)),
                 expr.Number(1.0))
    b = ImplicitBody(n=2, f=f, delta=0.25)
    assert b.value([1.0, 0.0]) == 0.0


def test_implicit_body_rejects_bad_dimension():
    for n in (1, -10**5000):   # str() of a 5,001-digit integer raises ValueError
        with pytest.raises(InvalidBodyError):
            ImplicitBody(n=n, f=expr.Sub(expr.Variable(1), expr.Number(1.0)), delta=0.5)
        with pytest.raises(InputError):   # the parser refuses x1 first when n < 1
            body_from_dict({"n": n, "f": "x1 - 1", "delta": 0.5})


def test_dimension_above_the_limit_is_refused_before_allocation():
    f = expr.Sub(expr.Variable(1), expr.Number(1.0))
    assert ImplicitBody(n=MAX_DIMENSION, f=f, delta=0.5).n == MAX_DIMENSION
    for n in (MAX_DIMENSION + 1, 10**15, 10**5000):   # np.zeros(10**15) would not fit in memory
        with pytest.raises(InvalidBodyError) as exc:
            ImplicitBody(n=n, f=f, delta=0.5)
        assert exc.value.message == "dimension must be <= 256, got " + (
            "257" if n == MAX_DIMENSION + 1 else "a number of magnitude 1e9 or more")
        with pytest.raises(InvalidBodyError):
            body_from_dict({"n": n, "f": "x1 - 1", "delta": 0.5})


def test_implicit_body_rejects_nonpositive_delta():
    f = expr.Sub(expr.Pow(expr.Variable(1), 2), expr.Number(1.0))
    with pytest.raises(InvalidBodyError):
        ImplicitBody(n=2, f=f, delta=-1.0)
    with pytest.raises(InvalidBodyError):
        ImplicitBody(n=2, f=f, delta=math.inf)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
@pytest.mark.parametrize("tol", ["tol_boundary", "tol_pivot"])
def test_implicit_body_rejects_non_finite_or_nonpositive_tolerance(tol, value):
    # an inf or nan boundary band let validate_point accept any point
    f = expr.Sub(expr.Add(expr.Pow(expr.Variable(1), 2), expr.Pow(expr.Variable(2), 2)),
                 expr.Number(1.0))
    with pytest.raises(InvalidBodyError) as exc:
        ImplicitBody(n=2, f=f, delta=0.5, **{tol: value})
    assert "finite and positive" in exc.value.message


@pytest.mark.parametrize("value", [10**400, 1 + 1j, "0.5", None, True],
                         ids=["401-digit", "complex", "text", "none", "bool"])
@pytest.mark.parametrize("name", ["delta", "tol_boundary", "tol_pivot"])
def test_implicit_body_reads_its_numbers_as_body_from_dict_does(name, value):
    # direct construction raised a bare TypeError on each (delta = True was accepted)
    f = expr.Sub(expr.Variable(1), expr.Number(1.0))
    with pytest.raises(InvalidBodyError) as direct:
        ImplicitBody(n=2, f=f, **dict({"delta": 0.5}, **{name: value}))
    what = "'delta'" if name == "delta" else f"tolerance {name[4:]!r}"
    assert direct.value.message == (
        f"{what} must be a number in the float range" if value == 10**400
        else f"{what} must be a number, got {value!r}")
    obj = {"n": 2, "f": "x1 - 1", "delta": value} if name == "delta" else \
        {"n": 2, "f": "x1 - 1", "delta": 0.5, "tolerances": {name[4:]: value}}
    with pytest.raises(InvalidBodyError) as parsed:
        body_from_dict(obj)
    assert parsed.value.message == direct.value.message


def test_implicit_body_casts_numpy_scalars_to_float():
    body = ImplicitBody(n=2, f=expr.Sub(expr.Variable(1), expr.Number(1.0)),
                        delta=np.float32(0.5), tol_boundary=np.int64(1), tol_pivot=np.float64(1e-9))
    assert (body.delta, body.tol_boundary, body.tol_pivot) == (0.5, 1.0, 1e-9)
    assert all(type(v) is float for v in (body.delta, body.tol_boundary, body.tol_pivot))


@pytest.mark.parametrize("value", [1.0, 2.0])
def test_pivot_tolerance_of_one_or_more_is_invalid_body(value):
    # no partial passes |g_i| > tol_pivot * max|g|, so no pivot would exist
    f = expr.Sub(expr.Add(expr.Pow(expr.Variable(1), 2), expr.Pow(expr.Variable(2), 2)),
                 expr.Number(1.0))
    with pytest.raises(InvalidBodyError) as exc:
        ImplicitBody(n=2, f=f, delta=0.5, tol_pivot=value)
    assert "must be below 1" in exc.value.message
    with pytest.raises(InvalidBodyError):
        body_from_dict({"n": 2, "f": "10*x1^2 + 10*x2^2 - 10", "delta": 0.5,
                        "tolerances": {"pivot": value}})
