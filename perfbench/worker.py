"""Runs one workload in a fresh process and writes its raw results as JSON.

Usage: python3 worker.py INPUTS RESULT [--setup-only]

INPUTS is written by run.py and holds only generated inputs (no references).
The worker imports dircurv from the checkout's ``src``, pays the workload's
set-up (import, plus the reusable bodies of oracle-lowdim), then runs the
query stream in a closed loop: one client, each query starting when the
previous one has finished.  All calls go through ``dircurv`` attributes
looked up at call time, so the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter_ns

CAP_SECONDS = 150.0   # a run stops here even if its passes are not done
STARTUP_REPEATS = 5   # interpreter starts timed for cli.startup_ms and cli.import_ms


def _float_list(v) -> list:
    return [float(c) for c in v]


# --- set-up -----------------------------------------------------------------

def _setup(dc, name: str, setup: dict) -> dict:
    """The work a caller pays once before the first query."""
    import numpy as np

    state = {}
    if name == "oracle-lowdim":
        bodies = [dc.body_from_dict(b) for b in setup["bodies"]]
        for body, x in zip(bodies, setup["warm_points"]):
            dc.validate_point(body, np.array(x))  # fills the cached derivative trees
        state.update(bodies=bodies, eps=setup["eps"])
    return state


def _as_arrays(queries: list) -> None:
    import numpy as np

    for q in queries:
        for key in ("point", "dir", "gauge_x"):
            if key in q:
                q[key] = np.array(q[key])


# --- queries ----------------------------------------------------------------

def _routes(dc, state, q):
    body = dc.body_from_dict(json.loads(q["body"]))
    p = dc.validate_point(body, q["point"])
    frame = dc.tangent_frame(p)
    kappas = [dc.kappa_directional(p, u) for u in frame.basis]
    ext = dc.extrema(p)
    closed = [dc.goldman_curvature_closed(p, dc.plane_system(p, j)) for j in frame.indices]
    j = frame.indices[q["jslot"]]
    general = dc.goldman_curvature_general(p, dc.plane_system(p, j))
    return p, frame, kappas, ext, closed, j, general


def _routes_plain(raw) -> dict:
    p, frame, kappas, ext, closed, j, general = raw
    return {
        "pivot": int(p.pivot), "frame": list(frame.indices),
        "kappa": [float(k.kappa_hat) for k in kappas],
        "gamma": [float(k.gamma_hat) for k in kappas],
        "kmin": float(ext.kappa_min), "kmax": float(ext.kappa_max),
        "closed": _float_list(closed), "general_j": int(j), "general": float(general),
    }


def _oracle(dc, state, q):
    body = state["bodies"][q["body"]]
    p = dc.validate_point(body, q["point"])
    est = dc.gamma_estimate(p, q["dir"])
    radius = dc.radius_containment(p, q["dir"], state["eps"])
    gauge = dc.minkowski_gauge(body, q["gauge_x"])
    return p, est, radius, gauge


def _oracle_plain(raw) -> dict:
    p, est, radius, gauge = raw
    return {
        "pivot": int(p.pivot), "gamma_estimate": float(est.estimate),
        "quotients": _float_list(est.quotients), "radius": float(radius),
        "gauge": float(gauge),
    }


def _cli_subprocess(dc, state, q):
    proc = subprocess.run(
        [sys.executable, "-m", "dircurv", *q["argv"]],
        capture_output=True, text=True, timeout=60, env=state["env"],
    )
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def _cli_inprocess(dc, state, q):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = dc.cli.run(list(q["argv"]))
    return {"exit": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


QUERIES = {
    "routes-highdim": (_routes, _routes_plain),
    "oracle-lowdim": (_oracle, _oracle_plain),
    "cli-mix": (_cli_subprocess, dict),
}


def _one(dc, fn, plain, state, q):
    """Run one query; returns (latency ns, plain output)."""
    t0 = perf_counter_ns()
    try:
        raw = fn(dc, state, q)
    except dc.DircurvError as exc:
        t1 = perf_counter_ns()
        return t1 - t0, {"error": exc.code}
    except Exception as exc:  # a crash is a failed query, not a failed run
        t1 = perf_counter_ns()
        return t1 - t0, {"exception": f"{type(exc).__name__}: {exc}"}
    t1 = perf_counter_ns()
    return t1 - t0, plain(raw)


def _timed_loop(dc, fn, plain, state, queries, count):
    """Run ``count`` queries of the stream (the pool, cycled) back to back."""
    latencies, outputs = [], []
    start = perf_counter_ns()
    while len(latencies) < count:
        lat, out = _one(dc, fn, plain, state, queries[len(latencies) % len(queries)])
        latencies.append(lat)
        outputs.append(out)
        if perf_counter_ns() - start >= CAP_SECONDS * 1e9:
            break
    return latencies, outputs, perf_counter_ns() - start


# --- traced run -------------------------------------------------------------

def _subprocess_ms(argv, env) -> float:
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = perf_counter_ns()
        subprocess.run(argv, env=env, check=True, timeout=60)
        times.append((perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def _traced(dc, name, fn, plain, state, queries, trace_queries, spans_path):
    import tracer

    # the same first trace_queries queries, untraced and then traced
    lat_u, out_u, _ = _timed_loop(dc, fn, plain, state, queries, trace_queries)
    k = len(lat_u)
    tr = tracer.Tracer()
    tr.install()
    out_t, q_start, q_end, traced_ns = [], [], [], 0
    try:
        for i in range(k):
            tr.query = i
            q_start.append(tr.now())
            paused = tr.paused_ns
            lat, out = _one(dc, fn, plain, state, queries[i])
            # on the trace clock, so the nodes_out count is not charged
            traced_ns += lat - (tr.paused_ns - paused)
            q_end.append(tr.now())
            out_t.append(out)
    finally:
        tr.uninstall()
    import numpy as np

    qn = np.array([queries[i]["n"] for i in range(k)])
    tracer.save(spans_path, tr.arrays(),
                {"start": np.array(q_start), "end": np.array(q_end), "n": qn})
    trace = {
        "queries": k, "untraced_ns": sum(lat_u), "traced_ns": traced_ns,
        "errors": tr.errors, "nodes_out": tr.nodes_out,
    }
    if name == "cli-mix":
        by_kind: dict[str, list] = {}
        for q, lat, out in zip(queries, lat_u, out_u):
            kind = "error" if out.get("exit") != 0 else q["argv"][0]
            by_kind.setdefault(kind, []).append(lat / 1e6)
        trace["run_ms"] = {kind: statistics.fmean(v) for kind, v in by_kind.items()}
        bare = _subprocess_ms([sys.executable, "-c", "pass"], state["env"])
        with_import = _subprocess_ms([sys.executable, "-c", "import dircurv.cli"], state["env"])
        trace["startup_ms"] = bare
        trace["import_ms"] = with_import - bare
    return out_u + out_t, trace


# --- main -------------------------------------------------------------------

def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    inputs_path, result_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv[2:]
    with open(inputs_path, encoding="utf-8") as fh:
        inp = json.load(fh)
    name, queries = inp["workload"], inp["queries"]
    src = os.path.join(inp["root"], "src")
    sys.path.insert(0, src)

    t0 = perf_counter_ns()
    import dircurv as dc

    state = _setup(dc, name, inp["setup"])
    setup_s = (perf_counter_ns() - t0) / 1e9
    if not os.path.realpath(dc.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"dircurv was imported from {dc.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if not setup_only:
        _as_arrays(queries)
        fn, plain = QUERIES[name]
        if name == "cli-mix":
            os.chdir(inp["workdir"])
            state["env"] = dict(os.environ, PYTHONPATH=src)
        if inp["trace"]:
            if name == "cli-mix":
                import dircurv.cli  # noqa: F401  (reached as dc.cli at call time)

                fn = _cli_inprocess
            outputs, trace = _traced(dc, name, fn, plain, state, queries,
                                     inp["trace_queries"], inp["spans_path"])
            k = trace["queries"]
            result.update(outputs=outputs, items=list(range(k)) * 2, trace=trace)
        else:
            latencies, outputs, elapsed = _timed_loop(
                dc, fn, plain, state, queries, inp["passes"] * len(queries))
            who = resource.RUSAGE_CHILDREN if name == "cli-mix" else resource.RUSAGE_SELF
            result.update(latencies_ns=latencies, outputs=outputs,
                          items=[i % len(queries) for i in range(len(outputs))],
                          elapsed_ns=elapsed, peak_rss_kb=resource.getrusage(who).ru_maxrss)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
