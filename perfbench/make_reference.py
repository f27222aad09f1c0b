"""Regenerate reference.json from one pass of every workload at seed 0.

    python3 perfbench/make_reference.py

Only the summary fields that do not depend on the seed are stored (see
checks.reference_fields).  Run it on a commit whose outputs are known to
be right; a change that moves these numbers on purpose regenerates the
file and says why.
"""

import json
import os
import shutil

import checks
import run
import worker

RTOL = 1e-6


def main():
    spec = run._load(os.path.join(run.HERE, "workloads.json"))
    cli = worker.import_potlab()
    work = os.path.join(run.WORK, "reference")
    out = {"rtol": RTOL, "seed": 0, "workloads": {}}
    for name in spec["workloads"]:
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        steps = run.write_configs(name, 0, spec, work)
        *_, rcs, errors = worker.run_pass(cli, steps)
        if errors or rcs != [0] * len(steps):
            raise SystemExit(f"{name}: {rcs} {errors}")
        out["workloads"][name] = {
            st["command"]: checks.reference_fields(
                st["command"], json.loads(worker.summary_bytes(st)))
            for st in steps}
    with open(os.path.join(run.HERE, "reference.json"), "w") as f:
        f.write(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
