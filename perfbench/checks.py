"""Correctness checks on one pass of a workload, and its accuracy figure.

A pass is correct when every runner step exits 0 with "pass": true,
the workload's invariants hold, the seed-independent summary fields
match reference.json to its relative tolerance, and each summary.json
is byte-identical to the one the first pass of the run wrote (README's
determinism promise: same config, same bytes).
"""

import json
import math


def reference_fields(command, s):
    """Flat {field path: number} of the seed-independent summary fields."""
    out = {}
    if command == "prop1":
        for e in s["per_n"]:
            out[f"per_n.{e['n']}.max_zero_deviation"] = e["max_zero_deviation"]
            out[f"per_n.{e['n']}.ks"] = e["ks"]
        for m, v in s["ks_leja"].items():
            out[f"ks_leja.{m}"] = v
    elif command in ("stahl-segment", "stahl-circle"):
        keys = ["ks", "bound_analytic", "cap_estimate", "badset_grid_count"]
        if command == "stahl-segment":
            #  the circle's samples are drawn from the seeded generator
            keys += ["certified_samples", "sample_count"]
        for e in s["per_n"]:
            for k in keys:
                out[f"per_n.{e['n']}.{k}"] = e[k]
    elif command == "capacity":
        for c in s["checks"]:
            out[f"checks.{c['name']}.estimate"] = c["estimate"]
        out["lune.estimate"] = s["lune"]["estimate"]
    elif command == "leja":
        for z, r in s["residuals"].items():
            out[f"residuals.{z}"] = r
        out["ks"] = s["ks"]
        out["separation"] = s["separation"]
    else:
        raise ValueError(f"no reference fields for runner {command!r}")
    return out


def invariant_errors(command, s):
    """Workload invariants beyond the runner's own pass flag."""
    errs = []
    if command == "prop1":
        bad = [e["n"] for e in s["per_n"] if not e["stability_pass"]]
        if bad:
            errs.append(f"stability_pass false at n={bad}")
    elif command == "stahl-segment":
        for e in s["per_n"]:
            if e["certified_samples"] != e["sample_count"]:
                errs.append(f"n={e['n']}: {e['certified_samples']} of "
                            f"{e['sample_count']} samples certified")
        ks = [e["ks"] for e in s["per_n"]]
        if not all(b < a for a, b in zip(ks, ks[1:])):
            errs.append(f"ks not decreasing: {ks}")
    elif command == "capacity":
        for c in s["checks"]:
            rel = abs(c["estimate"] - c["analytic"]) / c["analytic"]
            if not rel < 0.05:
                errs.append(f"capacity check {c['name']} off by {rel:.3g}")
    elif command == "leja":
        for z, r in s["residuals"].items():
            if not abs(r) < 0.5:
                errs.append(f"Leja residual at {z} is {r}")
    return errs


def reference_errors(command, s, ref, rtol):
    got = reference_fields(command, s)
    errs = []
    if set(got) != set(ref):
        errs.append(f"summary fields {sorted(set(got) ^ set(ref))} differ "
                    f"from reference")
    for key in sorted(set(got) & set(ref)):
        if not abs(got[key] - ref[key]) <= rtol * abs(ref[key]):
            errs.append(f"{key} = {got[key]!r}, reference {ref[key]!r} "
                        f"(rtol {rtol:g})")
    return errs


def step_errors(step, rc, summary_bytes, first_bytes, reference):
    """Every failed check of one runner step, as messages."""
    command = step["command"]
    if rc != 0:
        return [f"{command}: exit code {rc}"]
    if summary_bytes is None:
        return [f"{command}: no summary.json written"]
    s = json.loads(summary_bytes)
    errs = [] if s.get("pass") is True else [f"{command}: pass is not true"]
    errs += [f"{command}: {e}" for e in invariant_errors(command, s)]
    errs += [f"{command}: {e}" for e in reference_errors(
        command, s, reference["steps"][command], reference["rtol"])]
    if first_bytes is not None and summary_bytes != first_bytes:
        errs.append(f"{command}: summary.json differs from the first pass")
    return errs


def accuracy(workload, summaries):
    """The workload's accuracy figure (lower is better, never 0 today).

    prop1: max over n of max_zero_deviation / q^(n^2), below 1 when the
    zeros keep their bound; stahl-segment: max relative error of the
    capacity estimates against e^(-eps)/2; capacity-circle: max relative
    error of the capacity runner's checks; leja-uniform: KS distance of
    the points to the target.
    """
    if workload == "prop1":
        s = summaries["prop1"]
        q = s["config"]["q"]
        return max(e["max_zero_deviation"] / q ** (e["n"] ** 2)
                   for e in s["per_n"])
    if workload == "stahl-segment":
        s = summaries["stahl-segment"]
        exact = math.exp(-s["config"]["eps"]) / 2
        return max(abs(e["cap_estimate"] - exact) / exact for e in s["per_n"])
    if workload == "capacity-circle":
        return max(abs(c["estimate"] - c["analytic"]) / c["analytic"]
                   for c in summaries["capacity"]["checks"])
    if workload == "leja-uniform":
        return summaries["leja"]["ks"]
    raise ValueError(f"unknown workload {workload!r}")
