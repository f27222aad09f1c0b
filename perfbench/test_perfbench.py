"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time
import types

import numpy as np
import pytest

import checks
import probe
import run
import tracer as tr
import worker

worker.import_potlab()

import potlab  # noqa: E402  (from this checkout's src/, set up above)
from potlab import experiments, leja, orthopoly  # noqa: E402
from potlab.measures import DiscreteMeasure  # noqa: E402
from potlab.potentials import target_uniform  # noqa: E402
from potlab.precision import PrecisionContext  # noqa: E402


def _span(t, name, parent, start, end):
    t.name_id.append(t._id(name))
    t.parent.append(parent)
    t.start.append(start)
    t.end.append(end)
    return len(t.start) - 1


def test_self_time_of_nested_and_sibling_spans():
    t = tr.Tracer()
    a = _span(t, "a", -1, 0.0, 10.0)
    b = _span(t, "b", a, 1.0, 4.0)
    _span(t, "d", b, 2.0, 3.0)
    _span(t, "c", a, 5.0, 7.0)
    _span(t, "b", -1, 11.0, 12.5)          # a second root, same name as b
    spans = t.by_name()
    assert spans["a"] == (1, 10.0, 5.0)
    assert spans["b"] == (2, 4.5, 3.5)
    assert spans["c"] == (1, 2.0, 2.0)
    assert spans["d"] == (1, 1.0, 1.0)
    assert t.covered() == 11.5
    assert sum(v[2] for v in spans.values()) == pytest.approx(t.covered())
    assert t.count_within("d", "a") == 1
    assert t.count_within("b", "a") == 1          # the second b is a root
    assert t.count_within("c", "b") == 0


def test_wrapped_calls_record_parents_and_add_up():
    t = tr.Tracer()

    def leaf(x):
        return x + 1

    wleaf = t.wrap("leaf", leaf)

    def inner(x):
        return wleaf(x) + wleaf(x)

    winner = t.wrap("inner", inner)
    wouter = t.wrap("outer", lambda x: winner(x) * wleaf(x))
    assert wouter(1) == 8
    names = [t.names[i] for i in t.name_id]
    assert names == ["outer", "inner", "leaf", "leaf", "leaf"]
    assert list(t.parent) == [-1, 0, 1, 1, 0]
    _, _, dur, own = t.span_arrays()
    assert own.sum() == pytest.approx(dur[0])
    assert (own >= 0).all()


def test_wrapper_closes_span_when_call_raises():
    t = tr.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.wrap("boom", boom)()
    assert t._stack == [-1]
    assert t.end[0] >= t.start[0]


def _rc(points, bits=128):
    ctx = PrecisionContext(bits)
    m = DiscreteMeasure(tuple((x, 1) for x in points), ctx=ctx)
    return orthopoly.stieltjes_recurrence(m, len(points))


def test_repeat_frac_on_a_synthetic_call_sequence():
    rc = _rc([-0.9, -0.2, 0.3, 0.8])
    #  same first two coefficients as rc: (rc, 2) and (longer, 2) coincide
    longer = orthopoly.RecurrenceCoeffs(a=rc.a + (rc.a[0],),
                                        b=rc.b + (rc.b[1],), ctx=rc.ctx)
    other = _rc([-0.5, 0.1, 0.6])
    t = tr.Tracer()
    with tr.instrumented(t):
        for r, n in [(rc, 2), (rc, 2), (rc, 3), (longer, 2), (other, 2),
                     (rc, 3)]:
            orthopoly.orthopoly_zeros(r, n)
    m = tr.layer_metrics(t, wall=1.0, out_bytes=0)
    assert m["orthopoly.orthopoly_zeros.calls"] == 6
    assert m["orthopoly.orthopoly_zeros.roots"] == 2 + 2 + 3 + 2 + 2 + 3
    assert m["orthopoly.orthopoly_zeros.repeat_frac"] == pytest.approx(3 / 6)


def _potlab_references():
    """Every function reachable from potlab's module dicts and their dicts."""
    refs = {}
    for name, mod in sys.modules.items():
        if name == "potlab" or name.startswith("potlab."):
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType):
                    refs[(name, attr)] = obj
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for k, v in obj.items():
                        if isinstance(v, types.FunctionType):
                            refs[(name, attr, k)] = v
    return refs


def test_instrumented_wraps_every_reference_and_restores_them():
    before = _potlab_references()
    t = tr.Tracer()
    with pytest.raises(RuntimeError):
        with tr.instrumented(t):
            assert orthopoly.orthopoly_zeros is not before[
                ("potlab.orthopoly", "orthopoly_zeros")]
            #  re-export, `from x import f` binding and dispatch dict
            assert potlab.orthopoly_zeros is orthopoly.orthopoly_zeros
            assert leja.phi_np is sys.modules["potlab.potentials"].phi_np
            assert leja.phi_np.__wrapped__ is before[
                ("potlab.potentials", "phi_np")]
            assert experiments.RUNNERS["prop1"] is experiments.run_prop1
            assert experiments.run_prop1.__wrapped__ is before[
                ("potlab.experiments", "run_prop1")]
            #  private helpers are left alone
            assert orthopoly._sturm_count is before[
                ("potlab.orthopoly", "_sturm_count")]
            raise RuntimeError("leave the block by an exception")
    after = _potlab_references()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_target_potential_spans():
    t = tr.Tracer()
    with tr.instrumented(t):
        target = sys.modules["potlab.potentials"].target_uniform(
            PrecisionContext(64))
        target.potential(2.0)
        target.potential(0.5)
    assert t.by_name()["potentials.target_potential"][0] == 2
    #  the target built outside the block is not traced
    target_uniform(PrecisionContext(64)).potential(2.0)
    assert t.by_name()["potentials.target_potential"][0] == 2


def test_benchmark_json_matches_harness():
    bench = run._load(os.path.join(run.ROOT, "BENCHMARK.json"))
    spec = run._load(os.path.join(run.HERE, "workloads.json"))
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    layer_names = [m["name"] for m in bench["per_layer"]]
    mapped = [m for g in spec["layer_map"] for m in g["metrics"]]
    assert sorted(mapped) == sorted(layer_names)
    produced = set(tr.layer_metrics(tr.Tracer(), 1.0, 0)) | {
        "process.cpu_s", "process.wait_s", "trace.overhead_frac"}
    assert produced == set(layer_names)
    ref = run._load(os.path.join(run.HERE, "reference.json"))
    for name, w in spec["workloads"].items():
        assert sorted(s["command"] for s in w["steps"]) == sorted(
            ref["workloads"][name])


def _tiny_plan(tmp_path, trace):
    spec = {"workloads": {"leja-uniform": {"steps": [
        {"command": "leja", "config": {"experiment": "leja_only",
                                       "target": "uniform", "leja_n": 40,
                                       "bits": 128, "grid_size": 512}}]}}}
    steps = run.write_configs("leja-uniform", 7, spec, str(tmp_path))
    *_, rcs, errors = worker.run_pass(potlab.cli, steps)
    assert rcs == [0] and not errors
    ref = {"leja": checks.reference_fields(
        "leja", json.loads(worker.summary_bytes(steps[0])))}
    plan = {"workload": "leja-uniform", "steps": steps, "seconds": 1,
            "trace": trace, "reference": {"rtol": 1e-6, "steps": ref},
            "probe": {"parts": ["mpf", "numpy_vector", "numpy_scalar"],
                      "bits": 128, "ref_s": 1e-3},
            "spans_path": str(tmp_path / "spans.npz")}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


def _run_worker(plan_path):
    """worker.py in its own process: it pins itself to one CPU."""
    result_path = plan_path.parent / "result.json"
    subprocess.run([sys.executable, os.path.join(run.HERE, "worker.py"),
                    "run", str(plan_path), str(result_path)],
                   check=True, timeout=120)
    return json.loads(result_path.read_text())


def test_smoke_traced_run_on_a_tiny_config(tmp_path):
    result = _run_worker(_tiny_plan(tmp_path, 1))
    kinds = [p["kind"] for p in result["passes"]]
    assert kinds[0] == "warmup" and "timed" in kinds and "traced" in kinds
    assert all(not p["errors"] for p in result["passes"])
    assert len(result["layers"]) == kinds.count("traced")
    m = run.per_layer(result)
    assert m["leja.generate.points"] == 40
    assert m["potentials.target_potential.calls"] == 3
    assert 0 <= m["trace.uncovered_s"] < 0.1 * m["trace.wall_s"]
    for lm in result["layers"]:
        layers = sum(lm[f"{layer}.self_s"] for layer in tr.LAYERS)
        assert layers + lm["trace.uncovered_s"] == pytest.approx(
            lm["trace.wall_s"])
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["start"]) == sum(lm["trace.spans"]
                                      for lm in result["layers"])
    assert (spans["end"] >= spans["start"]).all()
    assert result["env"]["mpmath_backend"] in ("python", "gmpy", "sage")


def test_smoke_timed_run_probes_the_timed_passes(tmp_path):
    result = _run_worker(_tiny_plan(tmp_path, 0))
    passes = result["passes"]
    assert [p["kind"] for p in passes][:2] == ["warmup", "timed"]
    assert passes[0]["probe_s"] == []
    for p in passes[1:]:
        assert not p["errors"] and p["probe_s"]
        assert 0 < p["own_cpu_s"] <= p["cpu_s"]
    m = run.end_to_end(result, [0.3, 0.2, 0.4], ref_s=1e-3)
    assert m["setup_s"] == 0.3 and m["pass_ref_s"] > 0
    assert m["accuracy_err"] == passes[0]["accuracy_err"] > 0


def test_pass_time_scales_with_the_probe():
    #  half the time at the reference speed, half at a third of it
    p = {"own_cpu_s": 3.0, "probe_s": [0.001, 0.003]}
    assert run.at_ref_speed(p, ref_s=0.001) == pytest.approx(2.0)
    assert run.at_ref_speed(p, ref_s=0.003) == pytest.approx(6.0)


def test_speed_probe_samples_only_while_on():
    calls = []
    probe_ = probe.SpeedProbe(lambda: calls.append(1))
    with probe_:
        while len(calls) < 3:
            time.sleep(0.005)
    n = len(probe_.samples)
    assert n >= 3 and all(d >= 0 for d in probe_.samples)
    time.sleep(0.05)
    assert len(probe_.samples) == n


def test_a_changed_summary_fails_the_pass(tmp_path):
    plan_path = _tiny_plan(tmp_path, 0)
    plan = json.loads(plan_path.read_text())
    plan["reference"]["steps"]["leja"]["ks"] *= 1.01
    plan_path.write_text(json.dumps(plan))
    result = _run_worker(plan_path)
    assert all(any("ks" in e for e in p["errors"]) for p in result["passes"])


def test_step_errors_catch_exit_code_pass_flag_and_determinism():
    step = {"command": "leja"}
    s = {"pass": True, "residuals": {"2.0": 0.1}, "ks": 0.01,
         "separation": 0.1}
    ref = {"rtol": 1e-6, "steps": {"leja": checks.reference_fields("leja", s)}}
    b = json.dumps(s).encode()
    assert checks.step_errors(step, 0, b, b, ref) == []
    assert checks.step_errors(step, 1, b, b, ref) == ["leja: exit code 1"]
    assert checks.step_errors(step, 0, b, b + b" ", ref) == [
        "leja: summary.json differs from the first pass"]
    bad = dict(s, residuals={"2.0": 0.6})
    bad["pass"] = False
    errs = checks.step_errors(step, 0, json.dumps(bad).encode(), None,
                              {"rtol": 1e-6, "steps": {"leja": checks.
                               reference_fields("leja", bad)}})
    assert errs == ["leja: pass is not true",
                    "leja: Leja residual at 2.0 is 0.6"]


def test_run_refuses_a_directory_without_potlab(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prop1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_of_benchmark_json(trace):
    bench = run._load(os.path.join(run.ROOT, "BENCHMARK.json"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "capacity-circle",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 + trace
    section = bench["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
