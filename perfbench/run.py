"""dircurv benchmark: one seeded workload, checked against numpy references.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload routes-highdim --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.WHY``): ``routes-highdim``, ``oracle-lowdim`` and
``cli-mix``.  Each run generates its inputs and references from the seed,
times the set-up in fresh processes, runs the closed-loop query stream in a
worker process (``worker.py``) and checks every output.  The last line of
standard output is one JSON object: with ``--trace 0`` it carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
replay (``tracer.py``).  The line before it carries run details: failed
fraction, sample count, determinism digest and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8
WORKER_TIMEOUT = 160   # the worker caps its own loop at 150 s

END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

_SPAN_METRICS = (
    ("expr.parse", ("calls", "self_ms")),
    ("expr.differentiate", ("calls", "self_ms", "nodes_out")),
    ("expr.evaluate", ("calls", "self_ms")),
    ("body.body_from_dict", ("self_ms",)),
    ("body.validate_point", ("calls", "self_ms", "errors")),
    ("body.ImplicitBody.gradient", ("self_ms",)),
    ("body.ImplicitBody.hessian", ("self_ms",)),
    ("body.tangent_frame", ("self_ms",)),
    ("body.minkowski_gauge", ("calls", "self_ms")),
    ("linalg.determinant", ("calls", "self_ms")),
    ("linalg.sym_eigen", ("calls", "self_ms")),
    ("linalg.orthonormalize", ("self_ms",)),
    ("linalg.exterior_magnitude", ("self_ms",)),
    ("curvature.kappa_directional", ("self_ms",)),
    ("curvature.gamma_directional", ("self_ms",)),
    ("curvature.extrema", ("self_ms",)),
    ("goldman.plane_system", ("self_ms",)),
    ("goldman.goldman_tangent", ("self_ms",)),
    ("goldman.goldman_curvature_closed", ("self_ms",)),
    ("goldman.goldman_curvature_general", ("calls", "self_ms")),
    ("oracle.modulus_bruteforce", ("calls", "self_ms")),
    ("oracle.gamma_estimate", ("self_ms",)),
    ("oracle.radius_containment", ("self_ms",)),
)
_PER_N_SPANS = ("expr.differentiate", "body.ImplicitBody.hessian",
                "goldman.goldman_curvature_general")
PER_N = (3, 5, 8)
CLI_KINDS = ("report", "extrema", "goldman", "verify", "gauge", "error")
_UNITS = {"calls": "calls/query", "self_ms": "ms/query", "nodes_out": "nodes/query",
          "errors": "errors/query"}

PER_LAYER = (
    tuple((f"{span}.{m}", _UNITS[m]) for span, ms in _SPAN_METRICS for m in ms)
    + (("cli.startup_ms", "ms"), ("cli.import_ms", "ms"))
    + tuple((f"cli.run.{kind}.ms", "ms") for kind in CLI_KINDS)
    + tuple((f"{span}.self_ms.n{n}", "ms/query") for span in _PER_N_SPANS for n in PER_N)
    + (("bench.trace_overhead_frac", "frac"),)
)


def repo_root() -> str:
    return os.path.dirname(HERE)


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def _run_worker(inputs_path: str, result_path: str, *extra) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), inputs_path, result_path, *extra],
        timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(name: str, refs: list, items: list, outputs: list) -> dict:
    """Check every output; digest the first output of each pool item.

    A later output of an item that differs from its first output breaks the
    promise of bit-for-bit repeatable results and is counted separately.
    """
    check = reference.CHECKS[name]
    first: dict[int, str] = {}
    failed, mismatches, messages = 0, 0, []
    for item, out in zip(items, outputs):
        try:
            fails = check(refs[item], out)
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            fails = [f"malformed output ({type(exc).__name__}: {exc})"]
        if fails:
            failed += 1
            if len(messages) < 5:
                messages.append(f"query {item}: {'; '.join(fails)}")
        canon = json.dumps(out if name != "cli-mix" else [out["exit"], out["stdout"]],
                           sort_keys=True)
        if item not in first:
            first[item] = canon
        elif canon != first[item]:
            mismatches += 1
    digest = hashlib.sha256("\n".join(first[k] for k in sorted(first)).encode()).hexdigest()
    return {"attempted": len(outputs), "failed": failed,
            "failed_frac": failed / len(outputs), "repeat_mismatches": mismatches,
            "covered": len(first), "digest": digest, "messages": messages}


def end_to_end(result: dict, setup_samples: list) -> dict:
    lat_ms = np.array(result["latencies_ns"], dtype=float) / 1e6
    return {
        "setup_s": statistics.median(setup_samples),
        "query_p50_ms": float(np.percentile(lat_ms, 50)),
        "query_p90_ms": float(np.percentile(lat_ms, 90)),
        "queries_per_s": len(lat_ms) / (result["elapsed_ns"] / 1e9),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def per_layer(spans: dict, trace: dict) -> dict:
    """Per-query means of the traced spans, by layer, plus the cli timings."""
    k = trace["queries"]
    names = list(spans["names"])
    dur = spans["end"] - spans["start"]
    own = tracer.self_times(spans["parent"], dur)
    span_n = spans["q_n"][spans["query"]]
    out = {}
    for span, metrics in _SPAN_METRICS:
        mask = spans["name"] == names.index(span)
        values = {
            "calls": int(mask.sum()) / k,
            "self_ms": float(own[mask].sum()) / 1e6 / k,
            "nodes_out": trace["nodes_out"] / k,
            "errors": trace["errors"].get(span, 0) / k,
        }
        for m in metrics:
            out[f"{span}.{m}"] = values[m]
    out["cli.startup_ms"] = trace.get("startup_ms", 0.0)
    out["cli.import_ms"] = trace.get("import_ms", 0.0)
    for kind in CLI_KINDS:
        out[f"cli.run.{kind}.ms"] = trace.get("run_ms", {}).get(kind, 0.0)
    for span in _PER_N_SPANS:
        mask = spans["name"] == names.index(span)
        for n in PER_N:
            count = int((spans["q_n"] == n).sum())
            total = float(own[mask & (span_n == n)].sum()) / 1e6
            out[f"{span}.self_ms.n{n}"] = total / count if count else 0.0
    out["bench.trace_overhead_frac"] = (
        (trace["traced_ns"] - trace["untraced_ns"]) / trace["untraced_ns"])
    return out


def load_spans(path: str) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    root = repo_root()
    if not os.path.isfile(os.path.join(root, "src", "dircurv", "__init__.py")):
        raise FileNotFoundError(f"no dircurv sources under {os.path.join(root, 'src')}")
    gen = workloads.generate(name, seed)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    try:
        for fname, body in gen["setup"].get("files", {}).items():
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                json.dump(body, fh)
        spans_path = os.path.join(out_dir, f"spans-{name}.npz")
        inputs = {"workload": name, "root": root, "workdir": workdir,
                  "passes": workloads.passes(name, seconds),
                  "trace": int(trace), "trace_queries": workloads.TRACE_QUERIES[name],
                  "spans_path": spans_path,
                  "setup": gen["setup"], "queries": gen["queries"]}
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        probe_path = os.path.join(workdir, "probe.json")
        probes = SETUP_PROBES if not trace else 0

        def probe():
            return _run_worker(inputs_path, probe_path, "--setup-only")["setup_s"]

        # set-up is sampled before and after the queries, half each side
        setup_samples = [probe() for _ in range(probes // 2)]
        result = _run_worker(inputs_path, os.path.join(workdir, "result.json"))
        setup_samples += [probe() for _ in range(probes - probes // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checked = check_outputs(name, gen["refs"], result["items"], result["outputs"])
    info = {k: v for k, v in checked.items() if k != "messages"}
    info.update(workload=name, seed=seed, pool=len(gen["queries"]), machine=machine())
    if trace:
        metrics = per_layer(load_spans(spans_path), result["trace"])
        info["traced_queries"] = result["trace"]["queries"]
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(result, setup_samples + [result["setup_s"]])
        metrics["ok_frac"] = 1.0 - info["failed_frac"]
        info["samples"] = len(result["latencies_ns"])
        units = dict(END_TO_END)
    return {
        "info": info, "messages": checked["messages"],
        "line": {
            "correct": checked["failed"] == 0 and checked["repeat_mismatches"] == 0,
            "attempted": checked["attempted"], "failed": checked["failed"],
            "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for message in res["messages"]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps(res["info"]))
    print(json.dumps(res["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
