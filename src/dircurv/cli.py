"""Command-line interface.

One body JSON file in, one machine-readable JSON line out.  Subcommands:

* ``report``   -- curvatures (gamma_hat, kappa_hat, radius) per direction.
* ``extrema``  -- extremal kappa_hat over all tangent directions.
* ``goldman``  -- intersection-curve pipeline for one tangent index j,
                  general and closed form side by side.
* ``verify``   -- derivative-free gamma estimates against gamma_hat.
* ``gauge``    -- Minkowski gauge of an arbitrary point.

Directions are given as comma-separated coordinates (use ``--dir=-2,1`` when
the first coordinate is negative); when no ``--dir`` is supplied, report and
verify walk the tangent-frame directions u^j.  Output is a single compact
JSON line; ``--pretty`` appends an aligned key/value table for human eyes.
Infinities are serialized as the strings "inf" / "-inf" so the line stays
standard JSON.  Errors print {"error": {code, message, location}} and exit
with 2 (input) or 3 (numerical); success exits 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from .body import ImplicitBody, _gauge, body_from_dict, tangent_frame, validate_point
from .curvature import extrema, gamma_directional, kappa_directional
from .errors import DircurvError, InputError
from .goldman import (
    goldman_curvature_closed,
    goldman_curvature_general,
    goldman_tangent,
    plane_system,
)
from .oracle import gamma_estimate

__all__ = ["run", "main"]

_LOCALIZATION_WARNING = (
    "boundary sampling is restricted to section-plane circles of radius "
    "below delta around the point; any boundary sheet re-entering that "
    "neighbourhood is sampled as well and can lower the reported values"
)


def _load_body(path: str) -> tuple[ImplicitBody, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read body file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a huge integer, deep nesting
        raise InputError(f"body file is not valid JSON: {exc}") from exc
    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return body_from_dict(raw), digest


def _parse_vector(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise InputError(f"cannot parse {what} {text!r}: {exc}") from exc


def _to_jsonable(obj):
    """The envelope with arrays as lists and non-finite floats as "inf", "-inf" or "nan"."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def _flatten(obj, prefix: str, rows: list):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        for idx, v in enumerate(obj):
            _flatten(v, f"{prefix}[{idx}]", rows)
    elif isinstance(obj, list):
        rows.append((prefix, ", ".join(json.dumps(v) for v in obj)))
    else:
        rows.append((prefix, json.dumps(obj)))


def _emit(envelope: dict, pretty: bool):
    payload = _to_jsonable(envelope)
    print(json.dumps(payload, separators=(",", ":"), allow_nan=False))
    if pretty:
        rows: list = []
        _flatten(payload, "", rows)
        width = max(len(key) for key, _ in rows)
        for key, value in rows:
            print(f"{key.ljust(width)}  {value}")


def _directions(args, p):
    """Requested directions, or the tangent frame when none were given."""
    if args.dir:
        return [(_parse_vector(d, "direction"), "user", None) for d in args.dir]
    frame = tangent_frame(p)
    return [
        (u, "frame", j) for j, u in zip(frame.indices, frame.basis)
    ]


def _cmd_report(args, body: ImplicitBody, x: np.ndarray) -> dict:
    p = validate_point(body, x)
    entries = []
    for u, source, j in _directions(args, p):
        dc = kappa_directional(p, u)
        entries.append({
            "direction": dc.direction,
            "source": source,
            "frame_index": j,
            "gamma_hat": dc.gamma_hat,
            "kappa_hat": dc.kappa_hat,
            "radius_hat": dc.radius_hat,
            "convexity_warning": dc.convexity_warning,
        })
    return {
        "f_value": p.value,
        "gradient": p.grad,
        "pairing": p.pairing,
        "dual": p.dual,
        "pivot": p.pivot,
        "directions": entries,
    }


def _cmd_extrema(args, body: ImplicitBody, x: np.ndarray) -> dict:
    p = validate_point(body, x)
    ex = extrema(p)
    return {
        "pivot": p.pivot,
        "kappa_min": ex.kappa_min,
        "kappa_max": ex.kappa_max,
        "dir_min": ex.dir_min,
        "dir_max": ex.dir_max,
    }


def _cmd_goldman(args, body: ImplicitBody, x: np.ndarray) -> dict:
    p = validate_point(body, x)
    system = plane_system(p, args.j)
    tan = goldman_tangent(p, system)
    k_general = goldman_curvature_general(p, system)
    k_closed = goldman_curvature_closed(p, system)
    frame = tangent_frame(p)
    dc = kappa_directional(p, frame.basis[frame.indices.index(args.j)])
    ratio = k_general / k_closed if k_closed != 0.0 else None
    return {
        "pivot": p.pivot,
        "j": args.j,
        "tangent": tan,
        "k_general": k_general,
        "k_closed": k_closed,
        "ratio_general_to_closed": ratio,
        "kappa_hat": dc.kappa_hat,
    }


def _cmd_verify(args, body: ImplicitBody, x: np.ndarray) -> dict:
    p = validate_point(body, x)
    checks = []
    for u, source, j in _directions(args, p):
        gamma = gamma_directional(p, u)
        est = gamma_estimate(p, u)
        abs_error = abs(est.estimate - gamma)
        scale = max(abs(gamma), abs(est.estimate))
        checks.append({
            "direction": np.asarray(u, dtype=float),
            "source": source,
            "frame_index": j,
            "gamma_hat": gamma,
            "gamma_estimate": est.estimate,
            "abs_error": abs_error,
            "rel_error": abs_error / scale if scale > 0.0 else 0.0,
            "quotients": list(est.quotients),
        })
    warnings = [{"code": "oracle_localization", "message": _LOCALIZATION_WARNING}]
    return {"checks": checks, "warnings": warnings}


def _cmd_gauge(args, body: ImplicitBody, x: np.ndarray) -> dict:
    lam, value = _gauge(body, x)
    return {"gauge": lam, "boundary_point": x / lam, "f_at_boundary": value}


_HANDLERS = {
    "report": _cmd_report,
    "extrema": _cmd_extrema,
    "goldman": _cmd_goldman,
    "verify": _cmd_verify,
    "gauge": _cmd_gauge,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dircurv",
        description="directional curvature of implicitly defined convex bodies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_dirs: bool):
        sp.add_argument("--body", required=True, help="path to the body JSON file")
        sp.add_argument("--point", required=True,
                        help="comma-separated coordinates, e.g. 0,0,2")
        if with_dirs:
            sp.add_argument("--dir", action="append", default=[],
                            help="tangent direction (repeatable); u^j frame when absent")
        sp.add_argument("--pretty", action="store_true",
                        help="append an aligned key/value table after the JSON line")

    common(sub.add_parser("report", help="directional curvatures at a boundary point"), True)
    common(sub.add_parser("extrema", help="extremal curvatures at a boundary point"), False)
    gp = sub.add_parser("goldman", help="intersection-curve curvature for one tangent index")
    common(gp, False)
    gp.add_argument("--j", type=int, required=True,
                    help="tangent index j (1-based, distinct from the pivot)")
    common(sub.add_parser("verify", help="cross-check gamma_hat against boundary sampling"), True)
    common(sub.add_parser("gauge", help="Minkowski gauge of a point"), False)
    return parser


def run(argv=None) -> int:
    """Entry point returning the exit code (0 ok, 2 input error, 3 numerical)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        body, digest = _load_body(args.body)
        x = _parse_vector(args.point, "point")
        envelope = {"command": args.command, "body_sha256": digest, "n": body.n, "point": x}
        envelope.update(_HANDLERS[args.command](args, body, x))
    except DircurvError as exc:
        print(json.dumps({"error": exc.as_json_dict()}, separators=(",", ":")))
        return exc.exit_code
    _emit(envelope, args.pretty)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
