"""The benchmark's worker process: one workload, run in-process.

    python3 perfbench/worker.py run PLAN.json RESULT.json
    python3 perfbench/worker.py setup STEP_CONFIG.json

`run` executes passes of the workload through `potlab.cli.main` until
the plan's seconds are used up, checks every pass, and writes the
result JSON.  Timed passes run under the speed probe (probe.py) when
tracing is off.  The first pass warms the process (imports, mpmath's
constant and quadrature-node caches) and is checked but not timed.
With tracing on, untraced and traced passes alternate; the traced ones
give the per-layer metrics and their spans are written to the plan's
spans file when the run ends.

`setup` is what run.py times as set-up: import potlab (numpy and
mpmath with it), load and validate a config and create its output
directory, under the set-up speed probe.
"""

import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter, process_time, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_potlab():
    """potlab.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import potlab.cli
    if not os.path.abspath(potlab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"potlab imported from {potlab.cli.__file__}, "
                         f"not from {SRC}")
    return potlab.cli


def setup(config_path):
    """Do the set-up under the set-up speed probe; print its CPU seconds
    and the probe samples as JSON."""
    from probe import SpeedProbe, kernel
    with open(os.path.join(HERE, "workloads.json")) as f:
        p = json.load(f)["setup_probe"]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe(kernel(p["parts"], p["bits"]))
    with probe:
        own0 = thread_time()
        import_potlab()
        from potlab.experiments import ExperimentConfig
        with open(config_path) as f:
            cfg = ExperimentConfig.from_json(json.load(f))
        os.makedirs(cfg.out_dir, exist_ok=True)
        own = thread_time() - own0
    print(json.dumps({"own_cpu_s": own, "probe_s": probe.samples}))


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_pass(cli_module, steps):
    """Run every step once.

    Returns wall seconds, process and calling-thread CPU seconds, the
    steps' return codes and error messages.
    """
    for st in steps:
        shutil.rmtree(st["out_dir"], ignore_errors=True)
    rcs, errors = [], []
    t0, c0, own0 = perf_counter(), process_time(), thread_time()
    for st in steps:
        try:
            #  looked up per call so that a traced pass enters the wrapper
            rc = cli_module.main([st["command"], "--config", st["config"]])
        except (Exception, SystemExit):
            rc = None
            errors.append(f"{st['command']} raised:\n{traceback.format_exc()}")
        rcs.append(rc)
        if rc != 0:
            break
    return (perf_counter() - t0, process_time() - c0, thread_time() - own0,
            rcs, errors)


def summary_bytes(step):
    try:
        with open(os.path.join(step["out_dir"], "summary.json"), "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


def run(plan_path, result_path):
    with open(plan_path) as f:
        plan = json.load(f)
    import checks
    from probe import SpeedProbe, kernel
    from tracer import Tracer, instrumented, layer_metrics
    cli = import_potlab()
    #  one CPU for the passes and the probe thread (see probe.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe(kernel(plan["probe"]["parts"], plan["probe"]["bits"]))
    import mpmath
    import numpy

    steps, trace = plan["steps"], plan["trace"]
    first = {}
    passes, layers, tracers = [], [], []

    def one_pass(kind):
        tracer = Tracer() if kind == "traced" else None
        probe.samples = []
        if tracer is not None:
            with instrumented(tracer):
                wall, cpu, own, rcs, errors = run_pass(cli, steps)
        elif kind == "timed" and not trace:
            with probe:
                wall, cpu, own, rcs, errors = run_pass(cli, steps)
        else:
            wall, cpu, own, rcs, errors = run_pass(cli, steps)
        summaries = {}
        for st, rc in zip(steps, rcs):
            b = summary_bytes(st)
            errors += checks.step_errors(st, rc, b, first.get(st["command"]),
                                         plan["reference"])
            if b is not None:
                first.setdefault(st["command"], b)
                summaries[st["command"]] = json.loads(b)
        acc = None
        if not errors:
            acc = checks.accuracy(plan["workload"], summaries)
        out_bytes = sum(_tree_bytes(st["out_dir"]) for st in steps)
        passes.append({"kind": kind, "wall_s": wall, "cpu_s": cpu,
                       "own_cpu_s": own, "probe_s": probe.samples,
                       "accuracy_err": acc, "out_bytes": out_bytes,
                       "errors": errors})
        if tracer is not None:
            layers.append(layer_metrics(tracer, wall, out_bytes))
            tracers.append(tracer)

    one_pass("warmup")
    deadline = perf_counter() + plan["seconds"]
    kinds = ("timed", "traced") if trace else ("timed",)
    while True:
        kind = kinds[sum(p["kind"] != "warmup" for p in passes) % len(kinds)]
        done = [p["wall_s"] for p in passes if p["kind"] == kind]
        #  stop when the next pass of this kind would overrun, once every
        #  kind has at least one pass
        if all(any(p["kind"] == k for p in passes) for k in kinds) and \
                perf_counter() + statistics.median(done) > deadline:
            break
        one_pass(kind)

    if tracers:
        _write_spans(plan["spans_path"], tracers)
    result = {
        "passes": passes,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "env": {"python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "mpmath": mpmath.__version__,
                "mpmath_backend": mpmath.libmp.BACKEND},
    }
    with open(result_path, "w") as f:
        json.dump(result, f, indent=1)


def _write_spans(path, tracers):
    """All spans of the traced passes, one row each, in a .npz archive."""
    import numpy as np
    names = sorted({n for t in tracers for n in t.names})
    index = {n: i for i, n in enumerate(names)}
    cols = {k: [] for k in ("pass_no", "name_id", "parent", "start", "end")}
    for no, t in enumerate(tracers):
        remap = np.asarray([index[n] for n in t.names], dtype=np.int32)
        ids = np.frombuffer(t.name_id, dtype=np.int32)
        cols["pass_no"].append(np.full(len(ids), no, dtype=np.int32))
        cols["name_id"].append(remap[ids] if len(ids) else ids)
        cols["parent"].append(np.frombuffer(t.parent, dtype=np.int32))
        cols["start"].append(np.frombuffer(t.start, dtype=float))
        cols["end"].append(np.frombuffer(t.end, dtype=float))
    np.savez_compressed(path, names=np.asarray(names),
                        **{k: np.concatenate(v) for k, v in cols.items()})


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 2:
        setup(argv[1])
    elif argv[:1] == ["run"] and len(argv) == 3:
        run(argv[1], argv[2])
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
