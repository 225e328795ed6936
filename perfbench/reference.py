"""Checks of program outputs against the numpy references of ``workloads``.

Each ``check_*`` function takes one query's reference and the program's
output and returns a list of failure messages; an empty list means the query
passed.  Tolerances are the repository's acceptance tolerances:

* kappa_hat / gamma_hat per frame direction: relative 1e-10
* extrema against eigvalsh of A on the tangent space: relative 1e-10
* closed Goldman route against 2 kappa_hat: relative 1e-10
* general Goldman route against the closed route: relative 1e-8
* gamma_estimate: within max(1e-4, 0.02 |gamma_hat|)
* Minkowski gauge against sqrt(y^T A y): relative 1e-12

``radius_containment`` converges only to first order in eps, so its bound is
linear in eps: relative error at most RADIUS_SLOPE * eps.  The slope was set
with ``python3 perfbench/radius_slope.py`` on quadrics drawn like the
oracle-lowdim queries (n in {2, 3}): over 1,300 samples at eps = 0.05 and
1,300 at eps = 0.1 the largest relative error was 0.82 * eps (99th
percentile 0.58 * eps); the bound is about twice the largest.
"""

from __future__ import annotations

import json
import math

RADIUS_SLOPE = 1.6


def rel_close(a, b, rel, floor=1e-12) -> bool:
    """|a - b| within rel of the larger magnitude, with an absolute floor."""
    return abs(a - b) <= max(floor, rel * max(abs(a), abs(b)))


def _close(fails, what, got, want, rel):
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        fails.append(f"{what}: got {got!r}, want {want!r}")
    elif not rel_close(got, want, rel):
        fails.append(f"{what}: got {got!r}, want {want!r} (rel {rel:g})")


def _gamma_estimate_ok(fails, what, got, want):
    if not isinstance(got, (int, float)) or not abs(got - want) <= max(1e-4, 0.02 * abs(want)):
        fails.append(f"{what}: estimate {got!r}, gamma_hat {want!r}")


def _crashed(out) -> list:
    if "exception" in out:
        return [f"raised {out['exception']}"]
    if "error" in out:
        return [f"unexpected error {out['error']!r}"]
    return []


def _frame_values(fails, ref, frame, kappa, gamma):
    if list(frame) != ref["frame"]:
        fails.append(f"frame indices {frame!r}, want {ref['frame']!r}")
        return
    for t, j in enumerate(frame):
        _close(fails, f"kappa_hat u^{j}", kappa[t], ref["kappa"][t], 1e-10)
        _close(fails, f"gamma_hat u^{j}", gamma[t], ref["gamma"][t], 1e-10)


def check_routes(ref: dict, out: dict) -> list:
    fails = _crashed(out)
    if fails:
        return fails
    if out["pivot"] != ref["pivot"]:
        return [f"pivot {out['pivot']}, want {ref['pivot']}"]
    _frame_values(fails, ref, out["frame"], out["kappa"], out["gamma"])
    _close(fails, "extrema kappa_min", out["kmin"], ref["kmin"], 1e-10)
    _close(fails, "extrema kappa_max", out["kmax"], ref["kmax"], 1e-10)
    for t, closed in enumerate(out["closed"]):
        _close(fails, f"goldman closed slot {t}", closed, ref["closed"][t], 1e-10)
    slot = ref["jslot"]
    if out["general_j"] != ref["frame"][slot]:
        fails.append(f"general route ran j = {out['general_j']}, want {ref['frame'][slot]}")
    else:
        _close(fails, "goldman general", out["general"], out["closed"][slot], 1e-8)
    return fails


def check_oracle(ref: dict, out: dict) -> list:
    fails = _crashed(out)
    if fails:
        return fails
    if out["pivot"] != ref["pivot"]:
        fails.append(f"pivot {out['pivot']}, want {ref['pivot']}")
    _gamma_estimate_ok(fails, "gamma_estimate", out["gamma_estimate"], ref["gamma"])
    _close(fails, "radius_containment", out["radius"], ref["radius"],
           RADIUS_SLOPE * ref["eps"])
    _close(fails, "minkowski_gauge", out["gauge"], ref["gauge"], 1e-12)
    return fails


def _parse_cli(out: dict):
    """(document, failures) from one CLI call's exit status and text."""
    if "Traceback" in out.get("stderr", ""):
        return None, ["traceback on stderr"]
    lines = out["stdout"].splitlines()
    if len(lines) != 1:
        return None, [f"expected one JSON line, got {len(lines)} lines"]
    try:
        return json.loads(lines[0]), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_cli(ref: dict, out: dict) -> list:
    doc, fails = _parse_cli(out)
    if fails:
        return fails
    kind = ref["kind"]
    if kind == "error":
        if out["exit"] != ref["exit"]:
            fails.append(f"exit status {out['exit']}, want {ref['exit']}")
        code = doc.get("error", {}).get("code") if isinstance(doc, dict) else None
        if code != ref["code"]:
            fails.append(f"error code {code!r}, want {ref['code']!r}")
        return fails
    if out["exit"] != 0:
        return [f"exit status {out['exit']}, want 0: {out['stdout'].strip()[:200]}"]
    if doc.get("command") != kind:
        return [f"command {doc.get('command')!r}, want {kind!r}"]
    if kind == "gauge":
        _close(fails, "gauge", doc["gauge"], ref["gauge"], 1e-12)
        return fails
    if kind != "verify" and doc["pivot"] != ref["pivot"]:
        return [f"pivot {doc['pivot']}, want {ref['pivot']}"]
    if kind == "report":
        entries = doc["directions"]
        _frame_values(fails, ref, [e["frame_index"] for e in entries],
                      [e["kappa_hat"] for e in entries], [e["gamma_hat"] for e in entries])
    elif kind == "extrema":
        _close(fails, "kappa_min", doc["kappa_min"], ref["kmin"], 1e-10)
        _close(fails, "kappa_max", doc["kappa_max"], ref["kmax"], 1e-10)
    elif kind == "goldman":
        t = ref["frame"].index(ref["j"])
        _close(fails, "kappa_hat", doc["kappa_hat"], ref["kappa"][t], 1e-10)
        _close(fails, "k_closed", doc["k_closed"], ref["closed"][t], 1e-10)
        _close(fails, "k_general", doc["k_general"], doc["k_closed"], 1e-8)
    elif kind == "verify":
        checks = doc["checks"]
        frame = [c["frame_index"] for c in checks]
        if frame != ref["frame"]:
            return [f"frame indices {frame!r}, want {ref['frame']!r}"]
        for t, c in enumerate(checks):
            _close(fails, f"gamma_hat u^{frame[t]}", c["gamma_hat"], ref["gamma"][t], 1e-10)
            _gamma_estimate_ok(fails, f"gamma_estimate u^{frame[t]}",
                               c["gamma_estimate"], ref["gamma"][t])
    return fails


CHECKS = {
    "routes-highdim": check_routes,
    "oracle-lowdim": check_oracle,
    "cli-mix": check_cli,
}
