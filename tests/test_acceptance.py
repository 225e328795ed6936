"""End-to-end certification suite.

One test per headline guarantee; each prints a single pass/fail line
(visible with ``pytest -s``) and fails with the collected mismatches.

1. spheres: kappa_hat = 1/(2R) in every tangent direction, many radii and
   dimensions;
2. planar quartic profile: closed-form curvature on dyadic boundary points,
   exactly flat at the apexes;
3. cylinder: axis / circumferential / mixed direction values, flat top face;
4. intersection-curve (Goldman) routes agree with each other and with
   2 kappa_hat, including hundreds of random positive-definite quadrics;
5. the derivative-free boundary-sampling oracle reproduces gamma_hat;
6. the sampled osculating-ball radius matches (1/(2 kappa_hat)) / |dual| and
   diverges on flat directions;
7. direction-scaling, field-scaling and translation invariances, frame
   consistency, and extremal bounds over randomized trials;
8. symbolic gradient/Hessian agree with central finite differences.
"""

import math
import time

import numpy as np

from conftest import (
    make_body,
    quadric_body,
    quadric_boundary_point,
    rel_close,
    sphere_body,
    tangent_direction,
)
from dircurv import (
    ImplicitBody,
    expr,
    extrema,
    gamma_directional,
    gamma_estimate,
    goldman_curvature_closed,
    goldman_curvature_general,
    kappa_directional,
    plane_system,
    radius_containment,
    tangent_frame,
    translate_body,
    validate_point,
)

DISK = {"n": 2, "f": "x1^2 + x2^2 - 1", "delta": 0.5}
QUARTIC = {"n": 2, "f": "x2 - 1 + x1^4", "delta": 0.5}
CYLINDER = {"n": 3, "f": "x1^2 + x3^2 - 2.25", "delta": 0.5}
ELLIPSOID = {"n": 3, "f": "x1^2/4 + x2^2 + x3^2/0.25 - 1", "delta": 0.3}


def _finish(num, slug, failures, elapsed, budget=None):
    if budget is not None and not elapsed < budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded the {budget:.0f}s budget")
    verdict = "PASS" if not failures else "FAIL"
    print(f"acceptance {num} {slug}: {verdict} ({elapsed:.2f}s)")
    detail = "\n".join(failures[:20])
    if len(failures) > 20:
        detail += f"\n... and {len(failures) - 20} more"
    assert not failures, detail


def _frame_vector(p, j):
    fr = tangent_frame(p)
    return fr.basis[fr.indices.index(j)]


def _unit(rng, n):
    while True:
        v = rng.standard_normal(n)
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return v / norm


def test_acceptance_01_sphere_curvature():
    rng = np.random.default_rng(9101)
    combos = [
        (radius, n, sphere_body(radius, n))
        for radius in (0.5, 1.0, 2.0, 5.0)
        for n in (2, 3, 4, 6)
    ]
    failures = []
    t0 = time.perf_counter()
    for radius, n, body in combos:
        want = 1.0 / (2.0 * radius)
        for _ in range(20):
            p = validate_point(body, radius * _unit(rng, n))
            directions = list(tangent_frame(p).basis)
            directions.append(tangent_direction(rng, p))
            for u in directions:
                got = kappa_directional(p, u).kappa_hat
                if not rel_close(got, want, 1e-12):
                    failures.append(
                        f"R={radius} n={n}: kappa_hat {got!r}, want {want!r}"
                    )
    _finish(1, "sphere-curvature", failures, time.perf_counter() - t0, budget=1.0)


def test_acceptance_02_quartic_profile():
    upper = make_body(QUARTIC)
    # the mirror sheet carries the lower apex (0, -1) of the symmetric body
    lower = make_body({"n": 2, "f": "-x2 - 1 + x1^4", "delta": 0.5})
    failures = []
    t0 = time.perf_counter()
    for t in (0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75):
        p = validate_point(upper, [t, 1.0 - t**4])
        u = np.array([1.0, -4.0 * t**3])
        want = 6.0 * t * t / (16.0 * t**6 + 1.0) ** 1.5
        got = kappa_directional(p, u).kappa_hat
        if not rel_close(got, want, 1e-12):
            failures.append(f"t={t}: kappa_hat {got!r}, want {want!r}")
    for body, apex in ((upper, [0.0, 1.0]), (lower, [0.0, -1.0])):
        p = validate_point(body, apex)
        for u in ([1.0, 0.0], [-1.0, 0.0]):
            got = kappa_directional(p, np.array(u)).kappa_hat
            if got != 0.0:
                failures.append(f"apex {apex}, u={u}: kappa_hat {got!r} is not 0.0")
    _finish(2, "quartic-profile", failures, time.perf_counter() - t0, budget=1.0)


def test_acceptance_03_cylinder_directions():
    body = make_body(CYLINDER)
    top = make_body({"n": 3, "f": "x2 - 2", "delta": 0.5})
    rng = np.random.default_rng(9103)
    failures = []
    t0 = time.perf_counter()

    p = validate_point(body, [0.9, 0.3, 1.2])
    a, x1 = 1.5, 0.9
    axis = np.array([0.0, 1.0, 0.0])
    got = kappa_directional(p, axis).kappa_hat
    if not rel_close(got, 0.0, 1e-12):
        failures.append(f"axis: kappa_hat {got!r}, want 0")
    got = kappa_directional(p, np.array([-1.2, 0.0, 0.9])).kappa_hat
    if not rel_close(got, 1.0 / (2.0 * a), 1e-12):
        failures.append(f"circumferential: kappa_hat {got!r}, want {1.0 / (2.0 * a)!r}")
    u3 = np.array([-1.2 / 0.9, 0.0, 1.0])  # in-frame lateral direction at the point
    for alpha, beta in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
        u = alpha * axis + beta * u3
        want = beta**2 * a / (2.0 * (a * a * beta * beta + x1 * x1 * alpha * alpha))
        got = kappa_directional(p, u).kappa_hat
        if not rel_close(got, want, 1e-12):
            failures.append(f"mixed ({alpha},{beta}): kappa_hat {got!r}, want {want!r}")

    for point in ([0.3, 2.0, -0.7], [0.0, 2.0, 0.0], [-1.1, 2.0, 0.45]):
        q = validate_point(top, point)
        directions = list(tangent_frame(q).basis)
        directions += [tangent_direction(rng, q) for _ in range(3)]
        for u in directions:
            got = kappa_directional(q, u).kappa_hat
            if got != 0.0:
                failures.append(f"top face {point}: kappa_hat {got!r} is not 0.0")
    _finish(3, "cylinder-directions", failures, time.perf_counter() - t0, budget=1.0)


def test_acceptance_04_goldman_identity():
    rng = np.random.default_rng(9104)
    failures = []
    t0 = time.perf_counter()

    points = [
        validate_point(make_body(DISK), [1.0, 0.0]),
        validate_point(make_body(QUARTIC), [0.5, 0.9375]),
        validate_point(make_body(CYLINDER), [0.9, 0.3, 1.2]),
        validate_point(make_body({"n": 3, "f": "x2 - 2", "delta": 0.5}), [0.3, 2.0, -0.7]),
        validate_point(make_body(ELLIPSOID), [2.0, 0.0, 0.0]),
    ]
    for radius in (0.5, 1.0, 2.0, 5.0):
        for n in (2, 3, 4, 6):
            body = sphere_body(radius, n)
            points.append(validate_point(body, radius * _unit(rng, n)))

    def check(label, p, j):
        system = plane_system(p, j)
        closed = goldman_curvature_closed(p, system)
        general = goldman_curvature_general(p, system)
        khat = kappa_directional(p, _frame_vector(p, j)).kappa_hat
        if not rel_close(closed, 2.0 * khat, 1e-10):
            failures.append(f"{label} j={j}: closed {closed!r} vs 2*kappa {2.0 * khat!r}")
        if not rel_close(general, closed, 1e-8):
            failures.append(f"{label} j={j}: general {general!r} vs closed {closed!r}")

    for p in points:
        for j in range(1, p.body.n + 1):
            if j != p.pivot:
                check(f"fixture n={p.body.n}", p, j)

    for n in (2, 3, 4, 5):
        for _ in range(50):
            body, a = quadric_body(rng, n)
            p = validate_point(body, quadric_boundary_point(rng, a))
            js = [j for j in range(1, n + 1) if j != p.pivot]
            check(f"quadric n={n}", p, js[int(rng.integers(len(js)))])

    _finish(4, "goldman-identity", failures, time.perf_counter() - t0, budget=10.0)


def test_acceptance_05_oracle_gamma():
    rng = np.random.default_rng(9105)
    failures = []
    t0 = time.perf_counter()

    disk_p = validate_point(make_body(DISK), [1.0, 0.0])
    sphere_p = validate_point(sphere_body(2.0, 3), [0.0, 0.0, 2.0])
    quartic_p = validate_point(make_body(QUARTIC), [0.5, 0.9375])
    qbody, qa = quadric_body(rng, 3)
    quadric_p = validate_point(qbody, quadric_boundary_point(rng, qa))

    cases = [
        ("disk", disk_p, [np.array(u) for u in ([0.0, 1.0], [0.0, -1.0], [0.0, 3.0])]),
        ("sphere", sphere_p, [tangent_direction(rng, sphere_p) for _ in range(3)]),
        ("quartic", quartic_p,
         [np.array(u) for u in ([1.0, -0.5], [-1.0, 0.5], [2.0, -1.0])]),
        ("quadric", quadric_p, [tangent_direction(rng, quadric_p) for _ in range(3)]),
    ]
    for label, p, directions in cases:
        for u in directions:
            want = gamma_directional(p, u)
            got = gamma_estimate(p, u).estimate
            if abs(got - want) > max(1e-4, 0.02 * abs(want)):
                failures.append(
                    f"{label} u={u.tolist()}: estimate {got!r}, gamma_hat {want!r}"
                )
    _finish(5, "oracle-gamma", failures, time.perf_counter() - t0, budget=30.0)


def test_acceptance_06_radius_containment():
    failures = []
    t0 = time.perf_counter()

    for label, body_dict, point, u in (
        ("disk", DISK, [1.0, 0.0], [0.0, 1.0]),
        ("sphere", None, [0.0, 0.0, 2.0], [1.0, 0.0, 0.0]),
    ):
        body = sphere_body(2.0, 3) if body_dict is None else make_body(body_dict)
        p = validate_point(body, point)
        u = np.array(u)
        want = kappa_directional(p, u).radius_hat / float(np.linalg.norm(p.dual))
        got = radius_containment(p, u, 0.2)
        if not rel_close(got, want, 5e-3):
            failures.append(f"{label}: containment radius {got!r}, want {want!r}")

    p = validate_point(make_body(CYLINDER), [0.9, 0.3, 1.2])
    got = radius_containment(p, np.array([0.0, 1.0, 0.0]), 0.2)
    if got != math.inf:
        failures.append(f"cylinder axis: containment radius {got!r}, want inf")
    _finish(6, "radius-containment", failures, time.perf_counter() - t0, budget=10.0)


def test_acceptance_07_invariance_suite():
    rng = np.random.default_rng(9107)

    def on_disk(rng):
        th = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([math.cos(th), math.sin(th)])

    def on_quartic(rng):
        t = rng.uniform(-0.8, 0.8)
        return np.array([t, 1.0 - t**4])

    def on_sphere(rng):
        return 2.0 * _unit(rng, 3)

    def on_cylinder(rng):
        th = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([1.5 * math.cos(th), rng.uniform(-1.5, 1.5), 1.5 * math.sin(th)])

    ell_q = np.diag([0.25, 1.0, 4.0])

    def on_ellipsoid(rng):
        v = rng.standard_normal(3)
        return v / math.sqrt(float(v @ ell_q @ v))

    cases = [
        (make_body(DISK), on_disk),
        (make_body(QUARTIC), on_quartic),
        (sphere_body(2.0, 3), on_sphere),
        (make_body(CYLINDER), on_cylinder),
        (make_body(ELLIPSOID), on_ellipsoid),
    ]
    for n in (2, 3, 4, 5):
        body, a = quadric_body(rng, n)
        cases.append((body, lambda rng, a=a: quadric_boundary_point(rng, a)))

    failures = []
    t0 = time.perf_counter()
    for trial in range(100):
        body, sample = cases[trial % len(cases)]
        p = validate_point(body, sample(rng))
        u = tangent_direction(rng, p)
        base = kappa_directional(p, u)

        for lam in (-3.0, 0.1, 7.0):
            got = kappa_directional(p, lam * u).kappa_hat
            if not rel_close(got, base.kappa_hat, 1e-14, floor=1e-18):
                failures.append(
                    f"trial {trial} lam={lam}: kappa {got!r} vs {base.kappa_hat!r}"
                )
        for lam in (-4.0, 0.5, 8.0):
            dc = kappa_directional(p, lam * u)
            if dc.kappa_hat != base.kappa_hat or dc.gamma_hat != base.gamma_hat:
                failures.append(f"trial {trial} lam={lam}: power-of-two scaling moved bits")

        c = float(rng.uniform(0.1, 10.0))
        scaled = ImplicitBody(
            n=body.n, f=expr.Mul(expr.Number(c), body.f), delta=body.delta)
        got = kappa_directional(validate_point(scaled, p.point), u).kappa_hat
        if not rel_close(got, base.kappa_hat, 1e-12):
            failures.append(f"trial {trial} c={c}: field scaling kappa {got!r}")

        y = float(rng.uniform(-0.3, 0.3)) * p.point
        shifted = translate_body(body, y)
        got = kappa_directional(validate_point(shifted, p.point - y), u).kappa_hat
        if not rel_close(got, base.kappa_hat, 1e-10):
            failures.append(f"trial {trial}: translation kappa {got!r} vs {base.kappa_hat!r}")

        frame = tangent_frame(p)
        slot = int(rng.integers(len(frame.indices)))
        w = frame.basis[slot]
        lo, hi = sorted((p.pivot - 1, frame.indices[slot] - 1))
        h = p.hess
        v_lo = h[lo, lo] * w[lo] + h[lo, hi] * w[hi]
        v_hi = h[hi, lo] * w[lo] + h[hi, hi] * w[hi]
        num = w[lo] * v_lo + w[hi] * v_hi
        den = 2.0 * p.pairing * (w[lo] * w[lo] + w[hi] * w[hi])
        got = gamma_directional(p, w)
        if not rel_close(num / den, got, 1e-14, floor=1e-18):
            failures.append(f"trial {trial}: frame gamma {got!r} vs componentwise {num / den!r}")

        ext = extrema(p)
        if not ext.kappa_min - 1e-10 <= base.kappa_hat <= ext.kappa_max + 1e-10:
            failures.append(
                f"trial {trial}: kappa {base.kappa_hat!r} outside "
                f"[{ext.kappa_min!r}, {ext.kappa_max!r}]"
            )
    _finish(7, "invariance-suite", failures, time.perf_counter() - t0, budget=5.0)


def test_acceptance_08_calculus_kernel():
    rng = np.random.default_rng(9108)
    bodies = [
        ("disk", make_body(DISK)),
        ("quartic", make_body(QUARTIC)),
        ("sphere", sphere_body(2.0, 3)),
        ("cylinder", make_body(CYLINDER)),
        ("ellipsoid", make_body(ELLIPSOID)),
    ]
    failures = []
    t0 = time.perf_counter()
    hg, hh = 1e-5, 1e-4
    for label, body in bodies:
        for x in rng.uniform(-1.2, 1.2, size=(100, body.n)):
            grad = body.gradient(x)
            for k in range(body.n):
                e = np.zeros(body.n)
                e[k] = hg
                fd = (body.value(x + e) - body.value(x - e)) / (2.0 * hg)
                if abs(fd - grad[k]) > 1e-6 * (1.0 + abs(grad[k])):
                    failures.append(f"{label} d{k + 1}: fd {fd!r} vs {grad[k]!r}")
            hess = body.hessian(x)
            if float(np.max(np.abs(hess - hess.T))) > 1e-12:
                failures.append(f"{label}: Hessian asymmetry at {x.tolist()}")
            f0 = body.value(x)
            for k in range(body.n):
                for l in range(k, body.n):
                    ek = np.zeros(body.n)
                    ek[k] = hh
                    if k == l:
                        fd = (body.value(x + ek) - 2.0 * f0 + body.value(x - ek)) / hh**2
                    else:
                        el = np.zeros(body.n)
                        el[l] = hh
                        fd = (
                            body.value(x + ek + el) - body.value(x + ek - el)
                            - body.value(x - ek + el) + body.value(x - ek - el)
                        ) / (4.0 * hh * hh)
                    if abs(fd - hess[k, l]) > 1e-6 * (1.0 + abs(hess[k, l])):
                        failures.append(
                            f"{label} d{k + 1}d{l + 1}: fd {fd!r} vs {hess[k, l]!r}"
                        )
    _finish(8, "calculus-kernel", failures, time.perf_counter() - t0)
