"""Reproduce the per-layer baseline table of the ROADMAP at n = 3, 5, 8.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload routes-highdim --seed 1 --seconds 20 --trace 1
    python3 perfbench/reconcile.py

Untraced micro-timings (median of repeated calls on quadrics built like the
workloads' bodies, drawn with SEED) cover every row of the table.  When the
traced routes-highdim run above has left ``out/spans-routes-highdim.npz``, the
inclusive span durations per n of ``ImplicitBody.hessian`` (first call, so
with differentiation) and ``goldman_curvature_general`` are printed beside
them.  Prints one JSON object with the machine and all figures, in ms.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from time import perf_counter_ns

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1

ROADMAP_MS = {
    "warm_hessian": {3: 0.19, 5: 0.84, 8: 5.6},
    "build_first_hessian": {3: 0.84, 5: 7.2, 8: 39.0},
    "goldman_general": {3: 2.2, 5: 30.0, 8: 472.0},
    "gamma_estimate": {3: 26.0, 5: 41.0, 8: 87.0},
    "kappa_directional": {3: 0.011, 5: 0.011, 8: 0.011},
    "goldman_closed": {3: 0.003, 5: 0.003, 8: 0.003},
}


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        fn()
        times.append((perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def micro(dc, rng, n: int) -> dict:
    a = workloads.random_quadric(rng, n)
    spec = workloads.quadric_body(a)
    x = workloads.boundary_point(rng, a)
    u = workloads.tangent_direction(rng, 2.0 * a @ x)
    body = dc.body_from_dict(spec)
    p = dc.validate_point(body, x)
    frame = dc.tangent_frame(p)
    system = dc.plane_system(p, frame.indices[0])
    slow = {3: 20, 5: 10, 8: 3}[n]

    def build_first_hessian():
        dc.body_from_dict(spec).hessian(x)

    return {
        "warm_hessian": _median_ms(lambda: body.hessian(x), 200),
        "build_first_hessian": _median_ms(build_first_hessian, slow),
        "goldman_general": _median_ms(lambda: dc.goldman_curvature_general(p, system), slow),
        "gamma_estimate": _median_ms(lambda: dc.gamma_estimate(p, u), 5),
        "kappa_directional": _median_ms(lambda: dc.kappa_directional(p, frame.basis[0]), 2000),
        "goldman_closed": _median_ms(lambda: dc.goldman_curvature_closed(p, system), 2000),
    }


def traced_inclusive(path: str) -> dict:
    """Mean inclusive duration per call, by n, of two spans of a traced run.

    In routes-highdim each query calls ``hessian`` once, from
    ``validate_point`` on a fresh body, so its span includes differentiation.
    """
    spans = run.load_spans(path)
    names = list(spans["names"])
    dur = (spans["end"] - spans["start"]) / 1e6
    span_n = spans["q_n"][spans["query"]]
    out = {}
    for label, span in (("first_hessian", "body.ImplicitBody.hessian"),
                        ("goldman_general", "goldman.goldman_curvature_general")):
        mask = spans["name"] == names.index(span)
        out[label] = {f"n{n}": float(dur[mask & (span_n == n)].mean())
                      for n in run.PER_N if (mask & (span_n == n)).any()}
    return out


def main() -> int:
    import dircurv as dc

    rng = np.random.default_rng(SEED)
    measured = {n: micro(dc, rng, n) for n in run.PER_N}
    rows = {}
    for row, baseline in ROADMAP_MS.items():
        rows[row] = {f"n{n}": {"roadmap": baseline[n], "untraced": measured[n][row],
                               "ratio": measured[n][row] / baseline[n]} for n in run.PER_N}
    doc = {"machine": run.machine(), "ms": rows}
    spans_path = os.path.join(HERE, "out", "spans-routes-highdim.npz")
    if os.path.exists(spans_path):
        doc["traced_inclusive_ms"] = traced_inclusive(spans_path)
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
