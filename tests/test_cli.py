"""Command-line interface: envelopes, determinism, error objects, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import dircurv
from dircurv.cli import run

SPHERE = {"n": 3, "f": "x1^2 + x2^2 + x3^2 - 4", "delta": 0.5}
DISK = {"n": 2, "f": "x1^2 + x2^2 - 1", "delta": 0.5}
CYLINDER = {"n": 3, "f": "x1^2 + x3^2 - 2.25", "delta": 0.5}
QUARTIC = {"n": 2, "f": "x2 - 1 + x1^4", "delta": 0.5}


@pytest.fixture
def body_file(tmp_path):
    def write(obj, name="body.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def first_json(out):
    return json.loads(out.splitlines()[0])


# ---------------------------------------------------------------- report


def test_report_sphere(body_file, capsys):
    code, out = invoke(capsys, ["report", "--body", body_file(SPHERE), "--point", "0,0,2"])
    assert code == 0
    doc = first_json(out)
    assert doc["command"] == "report"
    assert doc["pivot"] == 3
    assert doc["pairing"] == 8.0
    assert len(doc["directions"]) == 2   # tangent frame u^1, u^2
    for entry in doc["directions"]:
        assert entry["source"] == "frame"
        assert entry["kappa_hat"] == 0.25
        assert entry["radius_hat"] == 2.0
        assert entry["convexity_warning"] is False


def test_report_body_digest_matches_file(body_file, capsys):
    path = body_file(SPHERE)
    _, out = invoke(capsys, ["report", "--body", path, "--point", "0,0,2"])
    want = hashlib.sha256(
        json.dumps(SPHERE, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    assert first_json(out)["body_sha256"] == want


def test_report_user_direction_with_leading_minus(body_file, capsys):
    code, out = invoke(capsys, ["report", "--body", body_file(QUARTIC),
                                "--point", "0.5,0.9375", "--dir=-2,1"])
    assert code == 0
    entry = first_json(out)["directions"][0]
    assert entry["source"] == "user"
    assert entry["direction"] == [-2.0, 1.0]
    assert abs(entry["kappa_hat"] - 1.5 / 1.25**1.5) <= 1e-15


def test_report_infinite_radius_serialized_as_string(body_file, capsys):
    _, out = invoke(capsys, ["report", "--body", body_file(CYLINDER),
                             "--point", "0.9,0.3,1.2", "--dir", "0,1,0"])
    line = out.splitlines()[0]
    assert '"radius_hat":"inf"' in line
    assert first_json(out)["directions"][0]["radius_hat"] == "inf"


def test_report_is_byte_deterministic(body_file, capsys):
    argv = ["report", "--body", body_file(SPHERE), "--point", "0,0,2"]
    _, first = invoke(capsys, argv)
    _, second = invoke(capsys, argv)
    assert first == second


def test_pretty_appends_aligned_table(body_file, capsys):
    code, out = invoke(capsys, ["report", "--body", body_file(SPHERE),
                                "--point", "0,0,2", "--pretty"])
    assert code == 0
    lines = out.splitlines()
    json.loads(lines[0])      # machine line intact
    assert len(lines) > 1
    assert any("kappa_hat" in line for line in lines[1:])


# ---------------------------------------------------------------- extrema


def test_extrema_ellipsoid(body_file, capsys):
    body = {"n": 3, "f": "x1^2/4 + x2^2 + x3^2/0.25 - 1", "delta": 0.3}
    code, out = invoke(capsys, ["extrema", "--body", body_file(body), "--point", "2,0,0"])
    assert code == 0
    doc = first_json(out)
    assert abs(doc["kappa_min"] - 1.0) <= 1e-12
    assert abs(doc["kappa_max"] - 4.0) <= 1e-12


# ---------------------------------------------------------------- goldman


def test_goldman_routes_agree(body_file, capsys):
    code, out = invoke(capsys, ["goldman", "--body", body_file(SPHERE),
                                "--point", "0,0,2", "--j", "1"])
    assert code == 0
    doc = first_json(out)
    assert doc["j"] == 1 and doc["pivot"] == 3
    assert abs(doc["ratio_general_to_closed"] - 1.0) <= 1e-10
    assert abs(doc["k_closed"] - 2.0 * doc["kappa_hat"]) <= 1e-12
    assert doc["tangent"] == [-4.0, 0.0, 0.0]


def test_goldman_flat_section_ratio_is_null(body_file, capsys):
    # the axis section of a cylinder has zero curvature on both routes
    code, out = invoke(capsys, ["goldman", "--body", body_file(CYLINDER),
                                "--point", "0.9,0.3,1.2", "--j", "2"])
    assert code == 0
    doc = first_json(out)
    assert doc["k_closed"] == 0.0
    assert doc["ratio_general_to_closed"] is None


def test_goldman_pivot_index_rejected(body_file, capsys):
    code, out = invoke(capsys, ["goldman", "--body", body_file(SPHERE),
                                "--point", "0,0,2", "--j", "3"])
    assert code == 2
    assert first_json(out)["error"]["code"] == "invalid_index"


# ---------------------------------------------------------------- verify


def test_verify_disk(body_file, capsys):
    code, out = invoke(capsys, ["verify", "--body", body_file(DISK), "--point", "1,0"])
    assert code == 0
    doc = first_json(out)
    (check,) = doc["checks"]
    assert check["rel_error"] <= 0.02
    assert len(check["quotients"]) == 7
    warnings = [w for w in doc["warnings"] if w["code"] == "oracle_localization"]
    assert len(warnings) == 1


def test_verify_multiple_directions_single_warning(body_file, capsys):
    code, out = invoke(capsys, ["verify", "--body", body_file(SPHERE), "--point", "0,0,2",
                                "--dir", "1,0,0", "--dir", "0,1,0"])
    assert code == 0
    doc = first_json(out)
    assert len(doc["checks"]) == 2
    assert len([w for w in doc["warnings"] if w["code"] == "oracle_localization"]) == 1


# ---------------------------------------------------------------- gauge


def test_gauge_reports_boundary_point(body_file, capsys):
    code, out = invoke(capsys, ["gauge", "--body", body_file(SPHERE), "--point", "4,0,0"])
    assert code == 0
    doc = first_json(out)
    assert doc["gauge"] == 2.0
    assert doc["boundary_point"] == [2.0, 0.0, 0.0]


def test_gauge_escaping_ray_is_numerical_error(body_file, capsys):
    body = {"n": 2, "f": "x2 - 1", "delta": 0.5}
    code, out = invoke(capsys, ["gauge", "--body", body_file(body), "--point", "1,0"])
    assert code == 3
    assert first_json(out)["error"]["code"] == "ray_escapes"


# ---------------------------------------------------------------- errors


def test_off_boundary_point_is_input_error(body_file, capsys):
    code, out = invoke(capsys, ["report", "--body", body_file(SPHERE), "--point", "0,0,1"])
    assert code == 2
    err = first_json(out)["error"]
    assert err["code"] == "not_on_boundary"
    assert set(err) == {"code", "message", "location"}


def test_overflowing_point_is_numerical_error(body_file, capsys):
    code, out = invoke(capsys, ["report", "--body", body_file(DISK), "--point", "1e200,0"])
    assert code == 3
    err = first_json(out)["error"]
    assert err["code"] == "non_finite_value"
    assert err["location"] == "f"


# the gradient norm overflows although its entries do not
STEEP = {"n": 2, "f": "1e160*x1 - 1e160 + x2", "delta": 0.5}
# the unit sphere's field times 1e150: Goldman's unscaled products overflow
HUGE_SPHERE = {"n": 3, "f": "1e150*(x1^2 + x2^2 + x3^2 - 1)", "delta": 0.5}
# kappa_hat = 2e300 / (2 * 2e-9) at (0, 1) is beyond the float range
SHARP = {"n": 2, "f": "1e300*x1^2 + 2e-9*x2 - 2e-9", "delta": 0.5}


@pytest.mark.parametrize("body,argv", [
    (DISK, ["report", "--point", "1e200,0"]),
    (DISK, ["report", "--point", "1,0", "--dir", "1e300,1e300"]),
    (DISK, ["report", "--point", "1,0", "--dir", "0,1e300"]),
    (DISK, ["gauge", "--point", "1e308,1e308"]),
    (STEEP, ["report", "--point", "1,0.5"]),
    (HUGE_SPHERE, ["goldman", "--point", "0,0,1", "--j", "1"]),
])
def test_overflow_prints_nothing_on_stderr(body_file, body, argv):
    # a fresh interpreter, so that warnings reach stderr as they would for a user
    src = os.path.dirname(os.path.dirname(os.path.abspath(dircurv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [argv[0], "--body", body_file(body), *argv[1:]]
    proc = subprocess.run([sys.executable, "-m", "dircurv", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 1


def test_huge_non_tangent_direction_is_rejected(body_file, capsys):
    code, out = invoke(capsys, ["report", "--body", body_file(DISK), "--point", "1,0",
                                "--dir", "1e300,1e300"])
    assert code == 2
    assert first_json(out)["error"]["code"] == "not_tangent"


def test_huge_tangent_direction_reports_unit_values(body_file, capsys):
    path = body_file(DISK)
    _, huge = invoke(capsys, ["report", "--body", path, "--point", "1,0", "--dir", "0,1e300"])
    _, unit = invoke(capsys, ["report", "--body", path, "--point", "1,0", "--dir", "0,1"])
    huge, unit = first_json(huge)["directions"][0], first_json(unit)["directions"][0]
    assert huge.pop("direction") == [0.0, 1e300]
    assert unit.pop("direction") == [0.0, 1.0]
    assert huge == unit


def test_non_finite_direction_is_input_error(body_file, capsys):
    code, out = invoke(capsys, ["report", "--body", body_file(DISK), "--point", "1,0",
                                "--dir", "inf,0"])
    assert code == 2
    assert first_json(out)["error"]["code"] == "input_error"


def test_overflowing_literal_is_syntax_error(body_file, capsys):
    body = {"n": 2, "f": "x1^2 + x2^2 - 1e400", "delta": 0.5}
    code, out = invoke(capsys, ["report", "--body", body_file(body), "--point", "1,0"])
    assert code == 2
    err = first_json(out)["error"]
    assert err["code"] == "syntax_error"
    assert err["location"] == 15


def test_syntax_error_carries_position(body_file, capsys):
    body = {"n": 2, "f": "x1^", "delta": 0.5}
    code, out = invoke(capsys, ["report", "--body", body_file(body), "--point", "1,0"])
    assert code == 2
    err = first_json(out)["error"]
    assert err["code"] == "syntax_error"
    assert err["location"] == 4


def test_malformed_body_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = invoke(capsys, ["report", "--body", str(path), "--point", "1,0"])
    assert code == 2
    assert first_json(out)["error"]["code"] == "input_error"


def test_unparseable_point_is_input_error(body_file, capsys):
    code, out = invoke(capsys, ["report", "--body", body_file(DISK), "--point", "1,zebra"])
    assert code == 2
    assert first_json(out)["error"]["code"] == "input_error"


def test_missing_required_argument_exits_2(body_file, capsys):
    assert run(["report", "--body", body_file(DISK)]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run(["polish"]) == 2


DEEP_SUM = {"n": 2, "f": " + ".join(["x1^2"] * 3000) + " + x2^2 - 1", "delta": 0.5}
DEEP_PARENS = {"n": 2, "f": "(" * 3000 + "x1^2 + x2^2 - 1" + ")" * 3000, "delta": 0.5}


@pytest.mark.parametrize("delta", [1e-300, 1e-20])
def test_tiny_delta_verify_prints_one_json_error(body_file, delta):
    # a fresh interpreter, so that a traceback or warning would reach stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(dircurv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["verify", "--body", body_file(dict(DISK, delta=delta)), "--point", "1,0"]
    proc = subprocess.run([sys.executable, "-m", "dircurv", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stderr == ""
    assert proc.returncode == 3
    assert len(proc.stdout.splitlines()) == 1
    assert json.loads(proc.stdout)["error"]["code"] == "unresolved_radius"


@pytest.mark.parametrize("body,argv,error", [
    (DISK, ["gauge", "--point", "inf,0"], "input_error"),
    (DISK, ["gauge", "--point", "nan,0"], "input_error"),
    (DEEP_SUM, ["report", "--point", "1,0"], "expression_too_deep"),
    (DEEP_PARENS, ["report", "--point", "1,0"], "expression_too_deep"),
])
def test_bad_gauge_point_and_deep_field_are_input_errors(body_file, capsys, body, argv, error):
    code = run([argv[0], "--body", body_file(body), *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == ""
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"]["code"] == error


def test_goldman_does_not_depend_on_field_scale(body_file, capsys):
    code, out = invoke(capsys, ["goldman", "--body", body_file(HUGE_SPHERE),
                                "--point", "0,0,1", "--j", "1"])
    assert code == 0
    doc = first_json(out)
    assert (doc["k_general"], doc["k_closed"], doc["kappa_hat"]) == (1.0, 1.0, 0.5)
    assert doc["tangent"] == [-2e150, 0.0, 0.0]


@pytest.mark.parametrize("command", [["report"], ["extrema"], ["goldman", "--j", "1"]])
def test_overflowing_curvature_is_numerical_error(body_file, capsys, command):
    code = run([command[0], "--body", body_file(SHARP), "--point", "0,1", *command[1:]])
    out, err = capsys.readouterr()
    assert code == 3
    assert err == ""
    assert json.loads(out)["error"]["code"] == "non_finite_value"


@pytest.mark.parametrize("body,point", [
    ({"n": 2, "f": "-((x1^2 + x2) + -(x2^6 + x2)) + (1e-150*--x1^4 + 1e150*x1) - 0.5",
      "delta": 4.0}, "0.5,1e+300"),
    ({"n": 2, "f": "x1*(1*x1 + 1e300*-x2) + (1e300*(1e300*x1 + 0*x1^2) + x1) - 0.5",
      "delta": 0.1}, "7229.656609424676,24865.53970653071"),
])
def test_gauge_non_finite_crossing_is_numerical_error(body_file, capsys, body, point):
    # these printed "inf" or "nan" in boundary_point / f_at_boundary with exit 0
    code = run(["gauge", "--body", body_file(body), f"--point={point}"])
    out, err = capsys.readouterr()
    assert code == 3
    assert err == ""
    assert json.loads(out)["error"]["code"] == "non_finite_value"


def test_huge_dimension_is_invalid_body(body_file, capsys):
    body = {"n": 1000000000000000, "f": "x1 - 1", "delta": 0.5}
    code = run(["report", "--body", body_file(body), "--point", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == ""
    assert json.loads(out)["error"]["code"] == "invalid_body"
