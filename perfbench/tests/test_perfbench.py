"""Tests of the benchmark itself: inputs, checks, tracer and its declaration.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import time

import numpy as np
import pytest

import dircurv
import run
import tracer
import worker
import workloads
from conftest import ROOT


def _small_routes(seed=3, count=3):
    """The first ``count`` n = 3 queries of routes-highdim, with references."""
    gen = workloads.generate("routes-highdim", seed)
    picks = [i for i, q in enumerate(gen["queries"]) if q["n"] == 3][:count]
    queries = copy.deepcopy([gen["queries"][i] for i in picks])
    worker._as_arrays(queries)
    return queries, [gen["refs"][i] for i in picks]


def _run_routes(queries):
    return [worker._one(dircurv, worker._routes, worker._routes_plain, {}, q)[1]
            for q in queries]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_changes_inputs_and_fixed_seed_reproduces_them(name):
    a = workloads.generate(name, 11)
    b = workloads.generate(name, 11)
    c = workloads.generate(name, 12)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert json.dumps(a["queries"]) != json.dumps(c["queries"])


def test_routes_mix_is_stratified_per_block():
    queries = workloads.generate("routes-highdim", 5)["queries"]
    block = sum(workloads.ROUTES_MIX.values())
    for start in range(0, len(queries), block):
        ns = [q["n"] for q in queries[start:start + block]]
        assert {n: ns.count(n) for n in set(ns)} == workloads.ROUTES_MIX


def test_program_outputs_pass_and_a_wrong_value_is_counted():
    queries, refs = _small_routes()
    outputs = _run_routes(queries)
    items = list(range(len(outputs)))
    good = run.check_outputs("routes-highdim", refs, items, outputs)
    assert good["failed"] == 0 and good["failed_frac"] == 0.0

    bad = copy.deepcopy(outputs)
    bad[1]["kappa"][0] *= 1.0 + 1e-8
    checked = run.check_outputs("routes-highdim", refs, items, bad)
    assert checked["failed"] == 1
    assert checked["failed_frac"] == pytest.approx(1 / 3)


def test_wrong_exit_status_or_error_code_is_counted():
    gen = workloads.generate("cli-mix", 4)
    picks = [i for i, ref in enumerate(gen["refs"]) if ref["kind"] == "error"]
    ref = gen["refs"][picks[0]]
    line = json.dumps({"error": {"code": ref["code"], "message": "m", "location": None}})
    right = {"exit": ref["exit"], "stdout": line + "\n", "stderr": ""}
    wrong_exit = dict(right, exit=1)
    wrong_code = dict(right, stdout=line.replace(ref["code"], "input_error") + "\n")
    crashed = dict(right, stderr="Traceback (most recent call last):\n")
    outs = [right, wrong_exit, wrong_code, crashed]
    checked = run.check_outputs("cli-mix", gen["refs"], [picks[0]] * 4, outs)
    assert checked["failed"] == 3
    assert checked["failed_frac"] == 0.75


def test_digest_is_repeatable_and_repeats_are_compared():
    queries, refs = _small_routes()
    first = run.check_outputs("routes-highdim", refs, [0, 1, 2], _run_routes(queries))
    again = run.check_outputs("routes-highdim", refs, [0, 1, 2], _run_routes(queries))
    assert first["digest"] == again["digest"]
    outputs = _run_routes(queries)
    changed = copy.deepcopy(outputs[0])
    changed["general"] = float(np.nextafter(changed["general"], np.inf))
    checked = run.check_outputs("routes-highdim", refs, [0, 1, 2, 0], outputs + [changed])
    assert checked["repeat_mismatches"] == 1


def _traced_spans(queries):
    tr = tracer.Tracer()
    tr.install()
    q_start, q_end = [], []
    try:
        for i, q in enumerate(queries):
            tr.query = i
            q_start.append(tr.now())
            worker._routes(dircurv, {}, q)
            q_end.append(tr.now())
    finally:
        tr.uninstall()
    return tr, tr.arrays(), np.array(q_start), np.array(q_end)


def test_self_times_and_untraced_remainder_sum_to_durations():
    queries, _ = _small_routes(count=2)
    tr, spans, q_start, q_end = _traced_spans(queries)
    assert tr.nodes_out > 0
    dur = spans["end"] - spans["start"]
    own = tracer.self_times(spans["parent"], dur)
    parent = spans["parent"]
    assert len(dur) > 50 and (own >= 0).all()

    # each span: its self time plus its direct children's durations
    children = np.zeros_like(dur)
    np.add.at(children, parent[parent >= 0], dur[parent >= 0])
    assert (own + children == dur).all()

    # each span: self times summed over its whole subtree
    subtree = own.copy()
    for idx in range(len(dur) - 1, -1, -1):  # children are recorded after parents
        if parent[idx] >= 0:
            subtree[parent[idx]] += subtree[idx]
    assert (subtree == dur).all()

    # each query: self times of its spans plus the untraced remainder
    for i in range(len(queries)):
        mine = spans["query"] == i
        top = mine & (parent < 0)
        remainder = (q_end[i] - q_start[i]) - dur[top].sum()
        assert remainder >= 0
        assert own[mine].sum() + remainder == q_end[i] - q_start[i]
        inside = (spans["start"][mine] >= q_start[i]) & (spans["end"][mine] <= q_end[i])
        assert inside.all()


def test_trace_overhead_leaves_out_the_node_count(monkeypatch, tmp_path):
    pause_s, count = 0.02, tracer.tree_size

    def slow_tree_size(node, memo=None):
        if memo is None:  # the tracer's call, not the recursion
            time.sleep(pause_s)
        return count(node, memo)

    monkeypatch.setattr(tracer, "tree_size", slow_tree_size)
    queries, _ = _small_routes(count=2)
    spans_path = str(tmp_path / "spans.npz")
    _, trace = worker._traced(dircurv, "routes-highdim", worker._routes,
                              worker._routes_plain, {}, queries, 2, spans_path)
    spans = run.load_spans(spans_path)
    calls = int((spans["name"] == list(spans["names"]).index("expr.differentiate")).sum())
    assert calls * pause_s > 0.2
    assert trace["traced_ns"] < calls * pause_s * 1e9 / 2


def test_install_patches_every_binding_and_uninstall_restores():
    spaces = tracer._namespaces()
    before = {(id(s), k): v for s in spaces for k, v in vars(s).items() if callable(v)}
    tr = tracer.Tracer()
    tr.install()
    try:
        originals = {id(w.__wrapped__) for s in spaces for w in vars(s).values()
                     if callable(w) and w.__qualname__.endswith("._wrap.<locals>.traced")}
        assert len(originals) == len(tracer.TARGETS) - 2  # the two methods live on the class
        for space in spaces:
            for key, value in vars(space).items():
                assert id(value) not in originals, f"{space.__name__}.{key} left unpatched"
        assert dircurv.cli.validate_point is dircurv.validate_point
        assert dircurv.curvature.sym_eigen is dircurv.linalg.sym_eigen
        assert hasattr(dircurv.ImplicitBody.hessian, "__wrapped__")
    finally:
        tr.uninstall()
    after = {(id(s), k): v for s in spaces for k, v in vars(s).items() if callable(v)}
    assert after == before
    assert not hasattr(dircurv.ImplicitBody.hessian, "__wrapped__")


def test_benchmark_json_declares_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert bench["paths"] == ["perfbench"]


def test_missing_sources_fail_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "repo_root", lambda: os.path.join(ROOT, "no-such-checkout"))
    assert run.main(["--workload", "cli-mix", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
