"""Span tracing of potlab's layers, applied from outside the package.

`instrumented(tracer)` replaces every public function of the layer
modules with a wrapper that records a span (name, start, end, parent)
into `tracer`.  Every reference to the function inside potlab is
swapped: the defining module, `from x import f` bindings in other
modules, package re-exports and dispatch dicts such as
`experiments.RUNNERS`.  On exit every original is put back, so untraced
passes run the unmodified modules.

Spans stay in flat arrays in memory for the whole pass; worker.py
writes them out when the run ends.  A span's self time is
its duration minus the durations of its direct children.  The program
is single-threaded, so children are disjoint and lie inside the parent.
"""

import dataclasses
import inspect
import sys
import types
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("orthopoly", "leja", "potentials", "capacity", "measures",
          "experiments", "svgplot", "cli")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {}
        self.seen = set()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def wrap(self, name, fn, hook=None):
        """fn wrapped in a span called `name`.

        hook(tracer, fn, args, kwargs, result) runs after the span has
        ended and returns the result handed to the caller.
        """
        nid = self._id(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                result = hook(self, fn, args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def span_arrays(self):
        """(name_id, parent, duration, self_time) as numpy arrays."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=float)
               - np.frombuffer(self.start, dtype=float))
        nested = par >= 0
        child = np.bincount(par[nested], weights=dur[nested],
                            minlength=len(dur))
        return nid, par, dur, dur - child

    def by_name(self):
        """{span name: (calls, total duration, self time)}."""
        nid, _, dur, self_t = self.span_arrays()
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_t, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def covered(self):
        """Time inside root spans; everything traced happened in there."""
        _, par, dur, _ = self.span_arrays()
        return float(dur[par < 0].sum())

    def count_within(self, name, ancestor):
        """Spans called `name` that have a span `ancestor` above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        want, anc = self._ids[name], self._ids[ancestor]
        found = 0
        for i, n in enumerate(self.name_id):
            if n != want:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != anc:
                p = self.parent[p]
            found += p >= 0
        return found


def _bound(fn, args, kwargs):
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _zeros_hook(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    rc, n = a["rc"], a["n"]
    tracer.count("orthopoly.orthopoly_zeros.roots", len(result.roots))
    key = (tuple(rc.a[:n]), tuple(rc.b[:n]), n, rc.ctx.bits)
    if key in tracer.seen:
        tracer.count("orthopoly.orthopoly_zeros.repeats")
    tracer.seen.add(key)
    return result


def _build_sigma_hook(tracer, fn, args, kwargs, result):
    bits = _bound(fn, args, kwargs)["cfg"].bits
    tracer.counts["orthopoly.bits"] = max(
        tracer.counts.get("orthopoly.bits", 0), bits)
    return result


def _floor_hook(tracer, fn, args, kwargs, result):
    tracer.counts["orthopoly.precision_floor"] = max(
        tracer.counts.get("orthopoly.precision_floor", 0), result)
    return result


def _generate_hook(tracer, fn, args, kwargs, result):
    tracer.count("leja.generate.points", len(result))
    return result


def _phi_np_hook(tracer, fn, args, kwargs, result):
    tracer.count("potentials.phi_np.elems", result.size)
    return result


def _fekete_hook(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    region = a["region"]
    #  a point cloud is used whole; other regions give sample_count points
    samples = (len(region.params["points"]) if region.kind == "point_cloud"
               else a["sample_count"])
    tracer.count("capacity.greedy_fekete_capacity.samples", samples)
    return result


def _target_hook(tracer, fn, args, kwargs, result):
    return dataclasses.replace(result, potential=tracer.wrap(
        "potentials.target_potential", result.potential))


HOOKS = {
    "orthopoly.orthopoly_zeros": _zeros_hook,
    "orthopoly.build_sigma": _build_sigma_hook,
    "orthopoly.precision_floor": _floor_hook,
    "leja.generate": _generate_hook,
    "potentials.phi_np": _phi_np_hook,
    "capacity.greedy_fekete_capacity": _fekete_hook,
    "potentials.target_arcsine": _target_hook,
    "potentials.target_uniform": _target_hook,
    "potentials.target_blend": _target_hook,
}


def _public_functions(layer):
    mod = sys.modules[f"potlab.{layer}"]
    return [(f"{layer}.{attr}", obj) for attr, obj in vars(mod).items()
            if isinstance(obj, types.FunctionType)
            and obj.__module__ == mod.__name__ and not attr.startswith("_")]


def _references(originals):
    """(namespace dict, key, function) for every potlab reference to them."""
    refs = []
    for modname, mod in list(sys.modules.items()):
        if modname != "potlab" and not modname.startswith("potlab."):
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("__"):
                continue
            if isinstance(obj, types.FunctionType) and obj in originals:
                refs.append((vars(mod), attr, obj))
            elif isinstance(obj, dict):
                refs.extend((obj, k, v) for k, v in obj.items()
                            if isinstance(v, types.FunctionType)
                            and v in originals)
    return refs


@contextmanager
def instrumented(tracer):
    """Trace every public function of the potlab layer modules."""
    wrappers = {}
    for layer in LAYERS:
        for name, fn in _public_functions(layer):
            wrappers[fn] = tracer.wrap(name, fn, HOOKS.get(name))
    refs = _references(wrappers)
    for ns, key, fn in refs:
        ns[key] = wrappers[fn]
    try:
        yield tracer
    finally:
        for ns, key, fn in refs:
            ns[key] = fn


def layer_metrics(tracer, wall, out_bytes):
    """Per-layer metrics of one traced pass of `wall` seconds."""
    spans = tracer.by_name()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v[2] for k, v in spans.items()
                                   if k.startswith(layer + "."))
    for name in ("orthopoly.orthopoly_zeros",
                 "orthopoly.stieltjes_recurrence", "leja.generate",
                 "potentials.phi_np", "potentials.target_potential",
                 "capacity.greedy_fekete_capacity",
                 "capacity.trace_lemniscate_boundary",
                 "measures.ks_distance"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = own(name)
    zeros = calls("orthopoly.orthopoly_zeros")
    c = tracer.counts
    m["orthopoly.orthopoly_zeros.roots"] = c.get(
        "orthopoly.orthopoly_zeros.roots", 0)
    m["orthopoly.orthopoly_zeros.repeat_frac"] = (
        c.get("orthopoly.orthopoly_zeros.repeats", 0) / zeros
        if zeros else 0.0)
    m["orthopoly.build_sigma.total_s"] = total("orthopoly.build_sigma")
    m["orthopoly.build_sigma.zeros_calls"] = tracer.count_within(
        "orthopoly.orthopoly_zeros", "orthopoly.build_sigma")
    for name in ("orthopoly.zero_stability_check",
                 "orthopoly.potential_asymptotics_check",
                 "leja.verify_weighted_asymptotics",
                 "capacity.lune_capacity_bounds"):
        m[f"{name}.total_s"] = total(name)
    m["orthopoly.bits"] = c.get("orthopoly.bits", 0)
    m["orthopoly.precision_floor"] = c.get("orthopoly.precision_floor", 0)
    m["leja.generate.points"] = c.get("leja.generate.points", 0)
    #  potential_on_grid lives in potentials but only leja calls it
    m["leja.potential_on_grid.calls"] = calls("potentials.potential_on_grid")
    m["leja.potential_on_grid.self_s"] = own("potentials.potential_on_grid")
    phi_calls = calls("potentials.phi_np")
    m["potentials.phi_np.elems_per_call"] = (
        c.get("potentials.phi_np.elems", 0) / phi_calls if phi_calls else 0.0)
    m["capacity.greedy_fekete_capacity.samples"] = c.get(
        "capacity.greedy_fekete_capacity.samples", 0)
    m["experiments.runner.self_s"] = sum(
        v[2] for k, v in spans.items() if k.startswith("experiments.run_"))
    m["experiments.out_bytes"] = out_bytes
    m["svgplot.total_s"] = sum(v[1] for k, v in spans.items()
                               if k.startswith("svgplot."))
    m["cli.main.self_s"] = own("cli.main")
    m["trace.wall_s"] = wall
    m["trace.uncovered_s"] = wall - tracer.covered()
    m["trace.spans"] = len(tracer.start)
    return m
