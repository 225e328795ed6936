"""The CLI error contract as a property: any request prints one JSON line.

Each call of ``run`` prints exactly one line on stdout and nothing on stderr
(the pytest configuration turns a numpy RuntimeWarning into a failure).
It either exits 0 with finite numbers only, except a ``radius_hat`` of
"inf" or "-inf" where kappa_hat is 0 or so small that 1/(2 kappa_hat)
exceeds the float range, or prints an ``error`` envelope and exits 2
(input) or 3 (numerical).
"""

import contextlib
import io
import json
import math

import hypothesis.strategies as st
from hypothesis import example, given, settings

from dircurv import body_from_dict, minkowski_gauge
from dircurv.cli import run
from dircurv.errors import DircurvError

LITERALS = ["0", "1", "2", "0.5", "1e-8", "1e8", "1e-150", "1e150", "1e300"]
SPECIAL = [0.0, 1.0, -1.0, 0.5, 2.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, -1e300]


def fields(n_vars: int):
    """Field text from the expression grammar over x1..x{n_vars}."""
    atoms = st.one_of(st.sampled_from(LITERALS),
                      st.integers(1, n_vars).map(lambda k: f"x{k}"))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner)
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner)
            .map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
            st.tuples(inner, st.integers(0, 6)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda t: f"-{t}"),
        )

    term = st.recursive(atoms, extend, max_leaves=8)
    squares = " + ".join(f"x{k}^2" for k in range(1, n_vars + 1))
    # the bare term, or the term added to a ball so that more bodies have 0 interior
    # and a boundary that the gauge finds
    shapes = st.sampled_from(["{t}", squares + " + {t}", squares + " + x1*({t})",
                              squares + " + 1e-8*x1^2*({t})"])
    suffix = st.sampled_from([" - 1", " - 0.5", " - 1e8", ""])
    return st.tuples(shapes, term, suffix).map(lambda t: t[0].format(t=t[1]) + t[2])


def mostly(good: list, bad: list):
    """A draw from good, or about one time in eight from bad."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(bad if i == 3 else good))


coordinates = st.one_of(st.sampled_from(SPECIAL), st.floats(-3.0, 3.0), st.floats())
# ray directions for points put on the boundary
finite_coordinates = st.one_of(st.floats(-3.0, 3.0),
                               st.sampled_from([x for x in SPECIAL if math.isfinite(x)]))


def vectors(length: int, elements=coordinates):
    return st.lists(elements, min_size=length, max_size=length)


@st.composite
def requests(draw):
    """(subcommand, body JSON object, point, put the point on the boundary, extra argv)."""
    n = draw(mostly([2, 3], [1, 0, -1, 257, 10**15, 2.5, True, "2"]))
    n_vars = n if n in (2, 3) and not isinstance(n, bool) else 2
    body = {
        "n": n,
        "f": draw(fields(n_vars)),
        "delta": draw(mostly([0.5, 4.0, 0.1, 1e-300, 1e-20, 1e300],
                             [0.0, -1.0, math.inf, math.nan])),
    }
    command = draw(st.sampled_from(["report", "extrema", "goldman", "verify", "gauge"]))
    length = draw(mostly([n_vars], [1, 4]))
    on_boundary = draw(st.sampled_from([True, False]))
    point = draw(vectors(length, finite_coordinates if on_boundary else coordinates))
    extra = []
    if command == "goldman":
        extra.append(f"--j={draw(st.integers(-1, 4))}")
    if command in ("report", "verify"):
        for u in draw(st.lists(vectors(n_vars), max_size=2)):
            extra.append("--dir=" + ",".join(map(repr, u)))
    return command, body, point, on_boundary, extra


def _scaled_sphere(n: int, c: str) -> dict:
    squares = " + ".join(f"x{k}^2" for k in range(1, n + 1))
    return {"n": n, "f": f"{c}*({squares} - 1)", "delta": 0.5}


def _boundary(body_obj: dict, y: list[float]) -> list[float]:
    """y moved onto the boundary along its ray, or y itself when that fails."""
    try:
        lam = minkowski_gauge(body_from_dict(body_obj), y)
    except DircurvError:
        return y
    return [c / lam for c in y]


def _non_finite(doc, key=None) -> list:
    """Paths of "nan"/"inf"/"-inf" strings in the envelope."""
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in _non_finite(v, k)]
    if isinstance(doc, list):
        return [p for v in doc for p in _non_finite(v, key)]
    return [key] if doc in ("nan", "inf", "-inf") else []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(request=requests())
@example(request=("gauge", {"n": 2, "delta": 4.0, "f": "-((x1^2 + x2) + -(x2^6 + x2)) + "
                            "(1e-150*--x1^4 + 1e150*x1) - 0.5"}, [0.5, 1e300], False, []))
@example(request=("gauge", {"n": 2, "delta": 0.1, "f": "x1*(1*x1 + 1e300*-x2) + "
                            "(1e300*(1e300*x1 + 0*x1^2) + x1) - 0.5"},
                  [7229.656609424676, 24865.53970653071], False, []))
@example(request=("report", {"n": 10**15, "f": "x1 - 1", "delta": 0.5}, [1.0], False, []))
@example(request=("goldman", _scaled_sphere(2, "5e11"), [1.0, 0.0], False, ["--j=2"]))
@example(request=("goldman", _scaled_sphere(3, "1e150"), [0.0, 0.0, 1.0], False, ["--j=1"]))
def test_every_request_prints_one_json_line(tmp_path_factory, request):
    command, body_obj, point, on_boundary, extra = request
    path = tmp_path_factory.getbasetemp() / "property-body.json"
    path.write_text(json.dumps(body_obj))
    if on_boundary:
        point = _boundary(body_obj, point)
    argv = [command, "--body", str(path), "--point=" + ",".join(map(repr, point)), *extra]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert err.getvalue() == ""
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    if "error" in doc:
        assert code in (2, 3), doc
        assert set(doc["error"]) == {"code", "message", "location"}
        return
    assert code == 0
    for key in _non_finite(doc):
        assert key == "radius_hat", doc
    for entry in doc.get("directions", []):
        if entry["radius_hat"] in ("inf", "-inf"):   # 1/(2 kappa_hat) beyond the float range
            assert entry["kappa_hat"] == 0.0 or abs(entry["kappa_hat"]) < 2.8e-309, entry
