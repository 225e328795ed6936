"""Seeded inputs and their numpy-only references for the three workloads.

Every body is a random positive-definite quadric f(x) = x^T A x - 1 written
out as expression text whose coefficients are the exact floats of A, so the
references below can be computed from A alone:

    grad f = 2 A x,  H = 2 A,  <x, grad f> = 2 on the boundary,
    gauge(y) = sqrt(y^T A y).

Nothing here imports dircurv: the worker receives only the ``queries`` (and
``setup``) part of a workload, the checks in ``reference.py`` receive only the
``refs`` part.

Query mixes are stratified: the pool is built from blocks of queries
with a fixed class composition, shuffled inside each block, so every prefix of
the stream has the same mix up to one block.  That keeps p50 and p90 inside
one cost class each, whatever the seed.  The worker cycles through the pool
a whole number of passes (``passes``).
"""

from __future__ import annotations

import json
import math

import numpy as np

WHY = {
    "routes-highdim": (
        "cold queries at n in {3,5,8}: parse, symbolic differentiation and the "
        "Goldman general route sit on the critical path; no oracle runs"
    ),
    "oracle-lowdim": (
        "warm queries on a few n<=3 bodies built at set-up: tens of thousands of "
        "point evaluations of a small tree per query, differentiation bypassed"
    ),
    "cli-mix": (
        "sequential `python -m dircurv` calls over all five subcommands, 1 in 6 "
        "invalid: interpreter start, import and the JSON error path"
    ),
}

NAMES = tuple(WHY)

DELTA = 0.4
ORACLE_EPS = 0.05
# Queries per block, by n.  p50 falls in the n = 5 class (35%-85%) and p90 in
# the n = 8 class (85%-100%) of routes-highdim; both in the n = 3 class
# (30%-100%) of oracle-lowdim.
ROUTES_MIX = {3: 7, 5: 10, 8: 3}
ORACLE_MIX = {2: 3, 3: 7}
ORACLE_BODIES = {2: 3, 3: 6}         # bodies built at set-up, by n
CLI_BODIES = {2: 3, 3: 3}            # body files, by n (plus one cylinder)
POOL_BLOCKS = {"routes-highdim": 6, "oracle-lowdim": 11}  # 120 and 110 queries
CLI_CYCLES = 9                       # 108 distinct calls
# Nominal seconds of one pass over the pool on a 2-CPU host.  A run makes
# round(seconds / PASS_SECONDS) passes (at least one), so the work measured
# is fixed by --seconds alone and is the same for every commit.
PASS_SECONDS = {"routes-highdim": 10.0, "oracle-lowdim": 10.0, "cli-mix": 25.0}
# A traced run replays the first queries of the stream: whole blocks / cycles.
TRACE_QUERIES = {"routes-highdim": 40, "oracle-lowdim": 40, "cli-mix": 36}

# Error requests for cli-mix, with the code and exit status the CLI documents.
CLI_ERRORS = (
    ("off_boundary", "not_on_boundary", 2),
    ("j_is_pivot", "invalid_index", 2),
    ("ray_escapes", "ray_escapes", 3),
    ("not_tangent", "not_tangent", 2),
)
# One cycle of cli-mix; "error" slots take the next entry of CLI_ERRORS.
CLI_CYCLE = (
    "report", "extrema", "verify", "goldman", "gauge", "error",
    "report", "verify", "extrema", "goldman", "verify", "error",
)
CYLINDER = {"n": 3, "f": "x1^2 + x3^2 - 2.25", "delta": DELTA}


def random_quadric(rng, n: int) -> np.ndarray:
    """Symmetric positive-definite A with eigenvalues in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(0.5, 2.0, size=n)
    a = (q * d) @ q.T
    return 0.5 * (a + a.T)


def quadric_text(a: np.ndarray) -> str:
    """x^T A x - 1 in the expression grammar, every coefficient exact."""
    n = a.shape[0]
    text = ""
    for i in range(n):
        for j in range(i, n):
            c = float(a[i, i]) if i == j else 2.0 * float(a[i, j])
            term = f"{abs(c)!r}*(x{i + 1}*x{j + 1})"
            if not text:
                text = term if c >= 0.0 else f"-{term}"
            else:
                text += f" + {term}" if c >= 0.0 else f" - {term}"
    return text + " - 1"


def quadric_body(a: np.ndarray) -> dict:
    return {"n": int(a.shape[0]), "f": quadric_text(a), "delta": DELTA}


def boundary_point(rng, a: np.ndarray) -> np.ndarray:
    v = rng.standard_normal(a.shape[0])
    return v / math.sqrt(float(v @ a @ v))


def tangent_direction(rng, g: np.ndarray) -> np.ndarray:
    w = rng.standard_normal(g.shape[0])
    for _ in range(2):
        w = w - (float(w @ g) / float(g @ g)) * g
    return w / float(np.linalg.norm(w))


def gauge_point(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-1.0, 1.0)


# --- references -------------------------------------------------------------

def pivot_of(g: np.ndarray, tol: float = 1e-9) -> int:
    """First 1-based index whose partial is nonnegligible (the documented rule)."""
    gmax = float(np.max(np.abs(g)))
    for i, gi in enumerate(g):
        if abs(gi) > tol * gmax:
            return i + 1
    return 0


def point_reference(a: np.ndarray, x: np.ndarray) -> dict:
    """Pivot, frame curvatures, extrema and closed Goldman values at x."""
    n = a.shape[0]
    g = 2.0 * a @ x
    h = 2.0 * a
    gnorm = float(np.linalg.norm(g))
    pairing = float(x @ g)
    piv = pivot_of(g)
    frame, kappa, gamma = [], [], []
    for j in range(1, n + 1):
        if j == piv:
            continue
        u = np.zeros(n)
        u[j - 1] = 1.0
        u[piv - 1] = -g[j - 1] / g[piv - 1]
        quad = float(u @ h @ u)
        usq = float(u @ u)
        frame.append(j)
        kappa.append(quad / (2.0 * gnorm * usq))
        gamma.append(quad / (2.0 * pairing * usq))
    # orthonormal basis of the tangent hyperplane: trailing columns of a
    # complete QR of the gradient
    q, _ = np.linalg.qr(g.reshape(n, 1), mode="complete")
    t = q[:, 1:]
    ev = np.linalg.eigvalsh(t.T @ h @ t) / (2.0 * gnorm)
    return {
        "pivot": piv, "frame": frame, "kappa": kappa, "gamma": gamma,
        "closed": [2.0 * k for k in kappa],
        "kmin": float(ev[0]), "kmax": float(ev[-1]),
    }


def gamma_reference(a: np.ndarray, x: np.ndarray, u: np.ndarray) -> float:
    g = 2.0 * a @ x
    return float(u @ (2.0 * a) @ u) / (2.0 * float(x @ g) * float(u @ u))


def gauge_reference(a: np.ndarray, y: np.ndarray) -> float:
    return math.sqrt(float(y @ a @ y))


# --- workloads --------------------------------------------------------------

def _stratified(rng, mix: dict, blocks: int) -> list:
    """Class labels in shuffled blocks with the composition ``mix``."""
    labels = []
    for _ in range(blocks):
        block = [k for k, count in mix.items() for _ in range(count)]
        rng.shuffle(block)
        labels.extend(block)
    return labels


def _vec(v) -> list:
    return [float(c) for c in v]


def routes_highdim(rng) -> dict:
    queries, refs = [], []
    for n in _stratified(rng, ROUTES_MIX, POOL_BLOCKS["routes-highdim"]):
        a = random_quadric(rng, n)
        x = boundary_point(rng, a)
        ref = point_reference(a, x)
        jslot = int(rng.integers(n - 1))
        ref["jslot"] = jslot
        queries.append({"n": n, "body": json.dumps(quadric_body(a)), "point": _vec(x),
                        "jslot": jslot})
        refs.append(ref)
    return {"setup": {}, "queries": queries, "refs": refs}


def _quadrics(rng, counts: dict) -> dict:
    return {n: [random_quadric(rng, n) for _ in range(c)] for n, c in counts.items()}


def oracle_lowdim(rng) -> dict:
    # Oracle cost varies from body to body; several bodies per class, used in
    # turn, keep each class's cost mix alike from seed to seed.
    mats = _quadrics(rng, ORACLE_BODIES)
    order = [(n, k) for n in mats for k in range(len(mats[n]))]
    bodies = [quadric_body(mats[n][k]) for n, k in order]
    warm = [_vec(boundary_point(rng, mats[n][k])) for n, k in order]
    queries, refs = [], []
    used = {n: 0 for n in mats}
    for n in _stratified(rng, ORACLE_MIX, POOL_BLOCKS["oracle-lowdim"]):
        k = used[n] % len(mats[n])
        used[n] += 1
        a = mats[n][k]
        x = boundary_point(rng, a)
        u = tangent_direction(rng, 2.0 * a @ x)
        y = gauge_point(rng, n)
        gamma = gamma_reference(a, x, u)
        queries.append({"n": n, "body": order.index((n, k)), "point": _vec(x),
                        "dir": _vec(u), "gauge_x": _vec(y)})
        refs.append({"pivot": pivot_of(2.0 * a @ x), "gamma": gamma,
                     "radius": 1.0 / (2.0 * gamma), "gauge": gauge_reference(a, y),
                     "eps": ORACLE_EPS})
    return {"setup": {"bodies": bodies, "warm_points": warm, "eps": ORACLE_EPS},
            "queries": queries, "refs": refs}


def _arg_vec(v) -> str:
    return ",".join(repr(float(c)) for c in v)


def cli_mix(rng) -> dict:
    """Requests over seven body files; ``files`` maps file name to body JSON."""
    mats = _quadrics(rng, CLI_BODIES)
    files = {"cylinder.json": CYLINDER}
    for n, group in mats.items():
        for k, a in enumerate(group):
            files[f"q{n}_{k}.json"] = quadric_body(a)
    queries, refs = [], []
    errors = 0
    used: dict = {}
    for slot in CLI_CYCLE * CLI_CYCLES:
        # verify runs on n = 3 only, so its cost forms one class above the rest
        n = 3 if slot == "verify" else int(rng.choice([2, 3]))
        turn = (slot == "verify", n)
        used[turn] = used.get(turn, -1) + 1
        k = used[turn] % len(mats[n])
        a = mats[n][k]
        name = f"q{n}_{k}.json"
        x = boundary_point(rng, a)
        pref = point_reference(a, x)
        ref = {"kind": slot}
        if slot == "error":
            kind, code, status = CLI_ERRORS[errors % len(CLI_ERRORS)]
            errors += 1
            ref.update(kind="error", code=code, exit=status)
            if kind == "off_boundary":
                args = ["report", "--body", name, f"--point={_arg_vec(1.01 * x)}"]
            elif kind == "j_is_pivot":
                args = ["goldman", "--body", name, f"--point={_arg_vec(x)}",
                        "--j", str(pref["pivot"])]
            elif kind == "ray_escapes":
                y = np.array([0.0, 1.0, 0.0]) * 10.0 ** rng.uniform(-1.0, 1.0)
                args = ["gauge", "--body", "cylinder.json", f"--point={_arg_vec(y)}"]
                n = CYLINDER["n"]
            else:
                args = ["report", "--body", name, f"--point={_arg_vec(x)}",
                        f"--dir={_arg_vec(2.0 * a @ x)}"]
        elif slot == "gauge":
            y = gauge_point(rng, n)
            args = ["gauge", "--body", name, f"--point={_arg_vec(y)}"]
            ref["gauge"] = gauge_reference(a, y)
        else:
            args = [slot, "--body", name, f"--point={_arg_vec(x)}"]
            ref.update(pref)
            if slot == "goldman":
                slot_j = int(rng.integers(n - 1))
                args += ["--j", str(pref["frame"][slot_j])]
                ref["j"] = pref["frame"][slot_j]
        queries.append({"n": n, "argv": args})
        refs.append(ref)
    return {"setup": {"files": files}, "queries": queries, "refs": refs}


GENERATORS = {
    "routes-highdim": routes_highdim,
    "oracle-lowdim": oracle_lowdim,
    "cli-mix": cli_mix,
}


def passes(name: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[name]))


def generate(name: str, seed: int) -> dict:
    """Inputs and references of workload ``name``; equal seeds give equal inputs."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return GENERATORS[name](rng)
