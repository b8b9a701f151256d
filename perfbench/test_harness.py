"""Self-tests of the benchmark harness: the gate, the span arithmetic, the counts.

    python3 -m pytest -q perfbench/test_harness.py
"""

import copy
import dataclasses
import json
import os
import types

import pytest

import run

run.import_conicot()

import layers  # noqa: E402  (needs conicot on the path)
import workloads  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402


def test_workload_and_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS) == sorted(run.THREADS)
    per_round = layers.round_metrics({}, [])
    extra = {"trace.overhead_frac", "failed_frac"} | set(workloads.result_metrics([]))
    assert {m["name"] for m in bench["per_layer"]} == set(per_round) | extra
    assert set(layers.COUNTS) <= set(per_round)
    for name in names:
        assert len(run.load_references(name)) == workloads.WORKLOADS[name].bank


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_accepts_reference_and_flags_perturbed_distance(name):
    wl = workloads.WORKLOADS[name]
    ref = run.load_references(name)[0]["record"]
    assert wl.check(copy.deepcopy(ref), ref) == []
    bad = copy.deepcopy(ref)
    op = wl.operations[0]
    if name == "sweep-small":
        bad[op]["cgw"][3] += 2 * workloads.EXACT_TOL
    elif name == "align-hyper":
        bad[op]["distance"] += 2.1 * bad[op]["quantization_uncertainty"]
    else:
        bad[op]["distance"] += 2 * workloads.EXACT_TOL
    failures = wl.check(bad, ref)
    assert failures and all(f.startswith(op) for f in failures)


def test_gate_flags_acceptance_thresholds():
    sweep = workloads.WORKLOADS["sweep-small"]
    ref = run.load_references("sweep-small")[0]["record"]
    bad = copy.deepcopy(ref)
    bad["delta_sweep.exp"]["rel_gap"] = 0.06
    bad["delta_sweep.exp"]["final_gap_is_min"] = False
    assert len(sweep.check(bad, None)) == 2
    align = workloads.WORKLOADS["align-hyper"]
    rec = {"bca_solve": {"distance": 0.1, "quantization_uncertainty": 0.05,
                         "foscttm": 0.2}}
    assert align.check(rec, None) == ["bca_solve.foscttm: 0.2 exceeds 0.15"]
    # an instance recorded above the threshold may not get worse than its record
    assert align.check(rec, copy.deepcopy(rec)) == []
    worse = copy.deepcopy(rec)
    worse["bca_solve"]["foscttm"] = 0.25
    assert align.check(worse, rec) == ["bca_solve.foscttm: 0.25 exceeds 0.2"]


def test_self_time_subtracts_children_on_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("a"):          # 0 .. 10
        with tracer.span("b"):      # 1 .. 4
            with tracer.span("d"):  # 2 .. 3
                pass
        with tracer.span("b"):      # 5 .. 7
            pass
    s = tracer.summary()
    assert s["a"] == {"calls": 1, "s": 10.0, "self_s": 5.0}
    assert s["b"] == {"calls": 2, "s": 5.0, "self_s": 4.0}
    assert s["d"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1), ("c", 1.0, 5.0, 0), ("c", 3.0, 6.0, 0)]
    assert summarize(spans)["p"]["self_s"] == pytest.approx(5.0)


def test_wrap_records_spans_and_restore_puts_originals_back():
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = Tracer()
    assert tracer.wrap(mod, "inner", "inner", observe=lambda a, k, r: r)
    assert tracer.wrap(mod, "outer", "outer")
    assert not tracer.wrap(mod, "gone", "gone")
    assert mod.outer(1) == 4
    labels = [(label, parent) for label, _, _, parent in tracer.spans]
    assert labels == [("outer", -1), ("inner", 0)]
    assert tracer.observations == [("inner", 2)]
    assert tracer.missing == ["fake.gone"]
    tracer.restore()
    assert mod.inner is original


def test_dense_contract_cost():
    t = types.SimpleNamespace(dims=(2, 3, 4, 5), mode=types.SimpleNamespace(value="dense"))
    assert layers.contract_cost(t, "sample") == (2 * 120, 8 * (120 + 8 + 15))


def test_traced_counts_repeat_exactly_on_fixed_iteration_workload():
    wl = workloads.WORKLOADS["pointcloud-dense"]
    refs = run.load_references(wl.name)
    tracer = Tracer()
    rounds = [run.run_round(wl, [0], refs, tracer, traced_first=first)
              for first in (True, False)]
    assert all(r["failed"] == 0 and r["attempted"] == 2 for r in rounds)
    a, b = (r["layers"] for r in rounds)
    assert {k: a[k] for k in layers.COUNTS} == {k: b[k] for k in layers.COUNTS}
    assert a["tensor.bytes"] == 8 * 60 ** 4
    assert a["solver.contractions_per_op"] == 3 + 2 * workloads.DENSE_ITERS
    assert a["tensor.contract.flops"] == 2 * 60 ** 4 * a["solver.contractions_per_op"]
    assert a["cone.pd_check.skipped"] == 1


def test_raising_operation_fails_its_instance():
    def boom():
        raise RuntimeError("boom")
    wl = dataclasses.replace(
        workloads.WORKLOADS["pointcloud-dense"],
        steps=lambda inputs: [("cgw_solve", boom)])
    out = run.run_operations(wl, [5], [None], run.load_references(wl.name))
    assert out["failed"] == out["attempted"] == 1 and out["op_s"] == {}
    assert out["failures"] == ["instance 5: cgw_solve: not checked, RuntimeError raised: boom"]


def test_wall_time_sums_each_operations_fastest_round():
    rounds = [{"op_s": {"0:a": 3.0, "0:b": 1.0}}, {"op_s": {"0:a": 2.0, "0:b": 4.0}},
              {"op_s": {"0:b": 0.5}}]
    assert run.fastest_total(rounds) == 2.5


def test_seed_selects_instances_of_the_bank():
    sweep = workloads.WORKLOADS["sweep-small"]
    assert sweep.instances(0) == [0, 1] and sweep.instances(33) == [2, 3]
    assert workloads.WORKLOADS["knn-graph"].instances(70) == [6]
