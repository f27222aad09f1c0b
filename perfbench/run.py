"""potlab benchmark: one workload, its correctness checks and its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a potlab checkout; potlab is imported from its
src/.  The seed goes only into the generated runner configs' `seed`
field.  Set-up is timed in fresh processes (median of several); the
passes run in one worker process (worker.py), single-threaded, until
S seconds are used.  Every pass is checked (checks.py) and a failed
pass counts in `failed`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
pass_ref_s, the median time of a timed pass at the reference machine
speed (probe.py; the wall times as measured are printed as well),
setup_s, the median set-up time of a fresh process at the reference
speed (its wall times are printed as well), peak_rss_mb of the worker,
and accuracy_err (checks.accuracy).  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics (tracer.py).
Human-readable lines, the environment and the full result file path
come first; the last line of stdout is the JSON result.  Work files go
to .perfbench/ in the checkout.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170
#  single-threaded numerics in every process the benchmark starts
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
           MKL_NUM_THREADS="1")


def _load(path):
    with open(path) as f:
        return json.load(f)


def _args(workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def write_configs(workload, seed, spec, work):
    """Runner configs of the workload's steps, with the seed, in `work`."""
    steps = []
    for st in spec["workloads"][workload]["steps"]:
        cfg = dict(st["config"], seed=seed,
                   out_dir=os.path.join(work, "out", st["command"]))
        path = os.path.join(work, st["command"] + ".json")
        with open(path, "w") as f:
            json.dump(cfg, f, indent=1)
        steps.append({"command": st["command"], "config": path,
                      "out_dir": cfg["out_dir"]})
    return steps


def _setup_times(config_path, ref_s):
    """Set-up of fresh processes: (wall seconds as measured, seconds at
    the reference speed).  The first child, untimed, fills the bytecode
    and file caches that a user's repeated runs also hit.

    Each child is reaped by a blocking wait: waiting with a timeout polls
    at intervals of up to 50 ms, which would round every sample up.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "setup",
           config_path]
    walls, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=ENV, stdout=subprocess.PIPE,
                                text=True)
        killer = threading.Timer(60, proc.kill)
        killer.start()
        try:
            out, _ = proc.communicate()
        finally:
            killer.cancel()
        if proc.returncode != 0:
            raise SystemExit(f"set-up process exited with {proc.returncode}")
        if i:
            walls.append(perf_counter() - t0)
            scaled.append(at_ref_speed(json.loads(out), ref_s))
    return walls, scaled


def _run_worker(plan_path, result_path, log_path, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "run", plan_path,
           result_path]
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, env=ENV, stdout=log, stderr=log,
                              timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        raise SystemExit(f"worker exited with {proc.returncode}:\n{tail}")
    return _load(result_path)


def _tail_percentile(values):
    """Highest whole percentile with >= 10 samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[max(math.ceil(p * n / 100) - 1, 0)]


def _environment(args, load_start, worker_env):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    return dict(worker_env, nproc=os.cpu_count(), cpu_model=cpu,
                loadavg_start=load_start, loadavg_end=os.getloadavg(),
                seed=args.seed, git_commit=commit)


def _median(values):
    return statistics.median(values) if values else float("nan")


def at_ref_speed(p, ref_s):
    """Seconds of work at the reference speed (probe.py): its thread CPU
    seconds times the machine's mean speed while it ran, relative to the
    reference.  Probe samples are evenly spread in time, so the mean is
    taken over speeds (ref_s / sample), not over kernel times."""
    return p["own_cpu_s"] * statistics.fmean(ref_s / d for d in p["probe_s"])


def end_to_end(result, setup, ref_s):
    timed = [p for p in result["passes"]
             if p["kind"] == "timed" and p["probe_s"]]
    acc = [p["accuracy_err"] for p in result["passes"]
           if p["accuracy_err"] is not None]
    return {"pass_ref_s": _median([at_ref_speed(p, ref_s) for p in timed]),
            "setup_s": _median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "accuracy_err": _median(acc)}


def per_layer(result):
    timed = [p for p in result["passes"] if p["kind"] == "timed"]
    traced = [p for p in result["passes"] if p["kind"] == "traced"]
    layers = result["layers"]
    m = {k: _median([lm[k] for lm in layers]) for k in layers[0]} \
        if layers else {}
    m["process.cpu_s"] = _median([p["cpu_s"] for p in timed])
    m["process.wait_s"] = _median([p["wall_s"] - p["cpu_s"] for p in timed])
    m["trace.overhead_frac"] = (_median([p["wall_s"] for p in traced])
                                / _median([p["wall_s"] for p in timed]) - 1)
    return m


def _report(args, units, metrics, result, setup_walls, env, result_file):
    passes = result["passes"]
    failed = [p for p in passes if p["errors"]]
    timed = [p["wall_s"] for p in passes if p["kind"] == "timed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes (1 warm-up, {len(timed)} timed, "
          f"{len(passes) - 1 - len(timed)} traced), {len(failed)} failed, "
          f"fail_frac={len(failed) / len(passes):.4g}")
    for p in failed:
        print("  FAILED pass:", "; ".join(p["errors"]))
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    if not args.trace:
        tail = _tail_percentile(timed)
        print(f"  wall_s (as measured) median {_median(timed):.6g} s over "
              f"n={len(timed)} timed passes; " + (
                  f"p{tail[0]} = {tail[1]:.6g} s" if tail else
                  "no percentile has 10 samples above it at this run length"))
        print(f"  setup wall time (as measured) median "
              f"{_median(setup_walls):.6g} s over n={len(setup_walls)}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  full result: {os.path.relpath(result_file, ROOT)}")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "potlab", "cli.py")):
        sys.exit(f"no potlab sources at {os.path.join(ROOT, 'src')}: "
                 f"run from the root of a potlab checkout")
    started = perf_counter()
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    spec = _load(os.path.join(HERE, "workloads.json"))
    args = _args(list(spec["workloads"]))
    reference = _load(os.path.join(HERE, "reference.json"))
    load_start = os.getloadavg()

    work = os.path.join(WORK, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = {"workload": args.workload,
            "steps": write_configs(args.workload, args.seed, spec, work),
            "seconds": args.seconds, "trace": args.trace,
            "reference": {"rtol": reference["rtol"],
                          "steps": reference["workloads"][args.workload]},
            "probe": spec["workloads"][args.workload]["probe"],
            "spans_path": os.path.join(work, "spans.npz")}
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as f:
        json.dump(plan, f, indent=1)
    setup_walls, setup = _setup_times(plan["steps"][0]["config"],
                                      spec["setup_probe"]["ref_s"])
    result = _run_worker(plan_path, os.path.join(work, "worker.json"),
                         os.path.join(work, "worker.log"),
                         started + TIME_LIMIT_S)

    section = "per_layer" if args.trace else "end_to_end"
    computed = per_layer(result) if args.trace else end_to_end(
        result, setup, plan["probe"]["ref_s"])
    units = {m["name"]: m["unit"] for m in bench[section]}
    metrics = {name: computed[name] for name in units}
    env = _environment(args, load_start, result["env"])
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    result_file = os.path.join(
        WORK, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_file, "w") as f:
        json.dump({"env": env, "metrics": metrics, "setup_s": setup,
                   "setup_wall_s": setup_walls,
                   "passes": result["passes"], "layers": result["layers"]},
                  f, indent=1)
    _report(args, units, metrics, result, setup_walls, env, result_file)

    failed = sum(1 for p in result["passes"] if p["errors"])
    if any(isinstance(v, float) and not math.isfinite(v)
           for v in metrics.values()):
        sys.exit("no passing pass to take a metric from")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["passes"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))


if __name__ == "__main__":
    main()
