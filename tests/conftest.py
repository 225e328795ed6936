import math

import numpy as np
import pytest

from dircurv import ImplicitBody, body_from_dict, expr, in_tangent_hyperplane, validate_point


def make_body(d):
    return body_from_dict(d)


@pytest.fixture
def disk_body():
    return make_body({"n": 2, "f": "x1^2 + x2^2 - 1", "delta": 0.5})


@pytest.fixture
def disk_point(disk_body):
    return validate_point(disk_body, [1.0, 0.0])


@pytest.fixture
def quartic_body():
    return make_body({"n": 2, "f": "x2 - 1 + x1^4", "delta": 0.5})


@pytest.fixture
def quartic_point(quartic_body):
    # exact dyadic boundary point: 0.9375 = 1 - 0.5^4
    return validate_point(quartic_body, [0.5, 0.9375])


def sphere_body(radius, n, delta=0.5):
    terms = " + ".join(f"x{k}^2" for k in range(1, n + 1))
    return make_body({"n": n, "f": f"{terms} - {radius * radius!r}", "delta": delta})


@pytest.fixture
def sphere3():
    return sphere_body(2.0, 3)


@pytest.fixture
def sphere3_point(sphere3):
    return validate_point(sphere3, [0.0, 0.0, 2.0])


def halved_sphere(n, delta=0.5):
    """The unit sphere in R^n as a body dict, its sum of squares written as two
    parenthesised halves so that each left-deep chain stays under expr.MAX_DEPTH."""
    half = n // 2
    terms = [" + ".join(f"x{k}^2" for k in ks) for ks in (range(1, half + 1), range(half + 1, n + 1))]
    return {"n": n, "f": f"({terms[0]}) + ({terms[1]}) - 1", "delta": delta}


@pytest.fixture
def cylinder_body():
    # infinite circular cylinder of radius 1.5 around the x2 axis
    return make_body({"n": 3, "f": "x1^2 + x3^2 - 2.25", "delta": 0.5})


@pytest.fixture
def cylinder_point(cylinder_body):
    return validate_point(cylinder_body, [0.9, 0.3, 1.2])


@pytest.fixture
def ellipsoid_body():
    return make_body({"n": 3, "f": "x1^2/4 + x2^2 + x3^2/0.25 - 1", "delta": 0.3})


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def quadric_body(rng, n, delta=0.4):
    """Random positive-definite quadric x^T A x - 1 built as an expression tree."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(0.5, 2.0, size=n)
    a = (q * d) @ q.T
    a = 0.5 * (a + a.T)
    tree = None
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            c = float(a[i - 1, i - 1]) if i == j else 2.0 * float(a[i - 1, j - 1])
            term = expr.Mul(expr.Number(c), expr.Mul(expr.Variable(i), expr.Variable(j)))
            tree = term if tree is None else expr.Add(tree, term)
    f = expr.Sub(tree, expr.Number(1.0))
    return ImplicitBody(n=n, f=f, delta=delta), a


def quadric_boundary_point(rng, a):
    """Exact-scale boundary sample of {x^T A x = 1}."""
    n = a.shape[0]
    v = rng.standard_normal(n)
    return v / math.sqrt(float(v @ a @ v))


def tangent_direction(rng, p):
    """Random direction projected into the tangent hyperplane at p."""
    g = p.grad
    gg = float(g @ g)
    for _ in range(50):
        w = rng.standard_normal(p.body.n)
        w = w - (float(w @ g) / gg) * g
        w = w - (float(w @ g) / gg) * g  # second pass tightens orthogonality
        if float(np.linalg.norm(w)) > 1e-6 and in_tangent_hyperplane(p, w):
            return w
    raise AssertionError("could not sample a tangent direction")


def rel_close(a, b, rel, floor=1e-12):
    """|a - b| within rel of the larger magnitude, with an absolute floor."""
    return abs(a - b) <= max(floor, rel * max(abs(a), abs(b)))
