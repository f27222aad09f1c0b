"""Experiment runners: the sigma pipeline and the two non-convergence demos.

Each runner takes an ExperimentConfig and ends by handing its CSV tables,
summary and named SVG plots to _write_run, the one writer of the output
directory, so a refused run writes nothing.  It returns the summary as a
dict with a "pass" flag.  Outputs are byte-deterministic for a fixed config.

The two demo families push discrete root measures that converge weak-*
to an equilibrium measure while their potentials stay eps-far from the
equilibrium potential on sets whose capacity does not shrink:

* circle: mu_n = roots of z^n - 1.  The deviation set contains the
  z^n-preimage of the lune {|w| >= 1, |w-1| <= e^{-n eps}}, so its
  capacity is at least (1/4)^(1/n) e^{-eps}.
* segment: mu_n = Chebyshev zeros.  The deviation set contains the
  sublevel lemniscate {|T_n| <= 2^{-n} e^{-n eps}} of capacity exactly
  e^{-eps}/2.

All potential differences are evaluated in log-domain form
(-(1/n) log|1 - z^{-n}| and -(1/n) log|1 + phi^{-2n}|) so n in the
thousands stays in float64 range.
"""

import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional, Tuple, Union, get_args, get_origin

import numpy as np

from . import capacity as cap
from . import leja as lj
from . import orthopoly as op
from . import svgplot
from .measures import ks_distance, separation
from .potentials import phi_np, target_arcsine, target_blend, target_uniform
from .precision import MIN_BITS

LUNE_DEGREE = 20            # n of the lune whose capacity capacity_only checks
#  fields that size arrays, ranges or significands: each must fit an int64
_SIZES = ("n_list", "n_max", "leja_n", "grid_size", "bits")
_INT64_MAX = int(np.iinfo(np.int64).max)


class ConfigError(ValueError):
    """Bad or unknown experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    q: float = 0.4
    n_list: Tuple[int, ...] = ()
    eps: float = 0.1
    rho: float = 1.5
    bits: int = 2048
    grid_size: int = 4096
    leja_n: int = 200
    n_max: Optional[int] = None
    cascade: str = "stabilized"
    target: str = "arcsine"
    seed: int = 1
    out_dir: str = "out"
    plot: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ConfigError(f"{f.name} must be {_type_name(f.type)}, "
                                  f"got {value!r}")
            if f.type is float and not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            sizes = value if f.name == "n_list" else (value or 0,)
            if f.name in _SIZES and max(sizes, default=0) > _INT64_MAX:
                raise ConfigError(f"{f.name} exceeds {_INT64_MAX}: {value!r}")
        object.__setattr__(self, "n_list", tuple(self.n_list))
        if self.experiment not in RUNNERS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {tuple(RUNNERS)}")
        if self.bits < MIN_BITS:
            raise ConfigError(f"bits must be >= {MIN_BITS}, got {self.bits}")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")
        if self.rho <= 1:
            raise ConfigError("rho must exceed 1")
        if self.grid_size < 2:
            raise ConfigError(f"grid_size must be >= 2, got {self.grid_size}")
        if self.leja_n < 1:
            raise ConfigError(f"leja_n must be >= 1, got {self.leja_n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")
        if self.experiment == "capacity_only" and LUNE_DEGREE * self.eps < 1:
            raise ConfigError(f"capacity_only needs {LUNE_DEGREE} * eps >= 1")
        if self.experiment == "prop1" or (self.experiment == "leja_only"
                                          and self.target != "none"):
            target_from_name(self.target)
        if self.n_list and min(self.n_list) < 1:
            raise ConfigError(f"n_list entries must be >= 1: {self.n_list}")
        #  the demos' trend checks compare consecutive entries
        if any(m >= k for m, k in zip(self.n_list, self.n_list[1:])):
            raise ConfigError(f"n_list must be strictly increasing: "
                              f"{self.n_list}")
        if self.experiment == "prop1":
            nm = self.n_max if self.n_max is not None else max(
                self.n_list, default=10)
            try:
                #  q range, cascade name and the precision floor, before
                #  a default n_list of nm - 1 degrees is built
                op.SigmaBuildConfig(q=self.q, n_max=nm, bits=self.bits,
                                    cascade=self.cascade)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            if not self.n_list:     # degrees 2..n_max, n_max alone below 2
                object.__setattr__(self, "n_list",
                                   tuple(range(min(2, nm), nm + 1)))
            if max(self.n_list) > nm:
                raise ConfigError(
                    f"n_list contains {max(self.n_list)} beyond n_max={nm}")
            object.__setattr__(self, "n_max", nm)
        elif not self.n_list:
            object.__setattr__(self, "n_list", (8, 16, 32, 64))
        #  with a node per point, every greedy step has a free node
        n_pts = (max(self.leja_n, self.n_max) if self.experiment == "prop1"
                 else self.leja_n if self.experiment == "leja_only" else 0)
        if self.grid_size < n_pts:
            raise ConfigError(f"grid_size {self.grid_size} is below the "
                              f"{n_pts} Leja points to generate")

    @staticmethod
    def from_json(obj, **overrides):
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(obj)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        if "experiment" not in merged:
            raise ConfigError("config needs an 'experiment' key")
        return ExperimentConfig(**merged)


def _has_type(value, kind):
    """Whether value fits the field annotation kind.  bool counts as no
    number, an int as a float, and a list or tuple as a Tuple."""
    if get_origin(kind) is Union:
        return any(_has_type(value, k) for k in get_args(kind))
    if get_origin(kind) is tuple:
        return (isinstance(value, (tuple, list))
                and all(_has_type(v, get_args(kind)[0]) for v in value))
    if kind in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _type_name(kind):
    return (kind.__name__ if isinstance(kind, type)
            else str(kind).replace("typing.", ""))


def target_from_name(name):
    if name == "arcsine":
        return target_arcsine()
    if name == "uniform":
        return target_uniform()
    if name.startswith("blend:"):
        try:
            return target_blend(float(name.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad target {name!r}: {exc}") from None
    raise ConfigError(f"unknown target {name!r}")


def _write_run(cfg, report, tables=(), plots=()):
    """Make cfg.out_dir and write into it each (name, header, rows) table
    as CSV, the report with the run's experiment and config as
    summary.json and, when cfg.plot is set, the SVG text draw() returns
    for each (name, draw) plot.  The config echo leaves out out_dir, so
    no file depends on where it goes.  A float that is not finite raises
    ValueError before anything is written.  Return the completed report."""
    config = {k: v for k, v in asdict(cfg).items() if k != "out_dir"}
    report = {"experiment": cfg.experiment, "config": config, **report}
    summary = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for name, header, rows in tables:
        with open(os.path.join(cfg.out_dir, name), "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(rows)
    texts = [("summary.json", lambda: summary + "\n")]
    if cfg.plot:
        texts += plots
    for name, draw in texts:
        with open(os.path.join(cfg.out_dir, name), "w", newline="\n") as f:
            f.write(draw())
    return report


def _finite_or_none(x):
    """x, or None (JSON null) when it is not finite."""
    return x if math.isfinite(x) else None


def _interval_scatter(name, xs, title):
    """The (name, draw) plot of the points xs of [-1, 1] on the real axis."""
    return name, lambda: svgplot.scatter_svg(
        [(x, 0.0) for x in xs], title, xlim=(-1.05, 1.05), ylim=(-1, 1))


def _leja_table(seq):
    return ("leja.csv", ["index", "x"],
            [(i, "%.17g" % x) for i, x in enumerate(seq)])


# ---------------------------------------------------------------------------
#  bad-set machinery shared by the two demos


def _certified(samples, dev, eps, members):
    """Count the member samples that deviate by at least eps, and return
    the count with the first 50 of them as [re, im]."""
    hit = samples[members & (np.abs(dev) >= eps)]
    return len(hit), [[z.real, z.imag] for z in hit[:50].tolist()]


def _scan_grid(cfg):
    """Polar grid over 1 <= |w| <= rho, one row of 256 angles for each of
    512 radii clustered toward 1 as u^3."""
    nr, nt = 512, 256
    radii = 1 + (cfg.rho - 1) * ((np.arange(nr) + 1) / nr) ** 3
    return radii[:, None] * np.exp(1j * (2 * np.pi * np.arange(nt) / nt))


def _badset_grid_count(grid, vdiff, n, p, eps):
    """Grid points with |vdiff(w, n)| >= eps, vdiff = -log|1 -+ w^-p| / n.
    Only rows (one radius each, angle 0 first) with |w|^-p at least
    1 - e^(-n eps), below e^(n eps) - 1, can hold one; they are taken
    with a slack above the rounding of the computed w^-p and vdiff.  The
    radii grow down the rows, as _scan_grid builds them, so those rows
    are the leading k, and vdiff reads the view grid[:k]."""
    floor = -math.expm1(-n * eps) - 1e-9 - 32 * p * np.finfo(float).eps
    k = np.count_nonzero(grid[:, 0].real ** -float(p) >= floor)
    return int(np.sum(np.abs(vdiff(grid[:k], n)) >= eps))


def _neg_log_abs(t, n):
    """-log|t| / n in one new float array, log 0 = -inf quietly."""
    a = np.abs(t)
    with np.errstate(divide="ignore"):
        np.log(a, out=a)
    np.negative(a, out=a)
    a /= n
    return a


def _vdiff_circle(z, n):
    """V^{mu_n}(z) - V^{lambda}(z) for mu_n = roots of unity, |z| >= 1.

    -log|1 - z ** -float(n)| / n bit for bit, with the 1 - z^-n formed in
    the power's own buffer and z, a view of the scan grid, left unwritten.
    The negative power stays one: z^-n underflows quietly to 0 where a
    reciprocal of z^n would overflow with a warning.
    """
    t = z ** (-float(n))
    np.subtract(1, t, out=t)
    return _neg_log_abs(t, n)


def _vdiff_segment_w(w, n):
    """Same for Chebyshev-zero measures, in terms of w = phi(z), |w| >= 1:
    -log|1 + w ** (-2.0 * n)| / n bit for bit, formed as _vdiff_circle's."""
    t = w ** (-2.0 * n)
    np.add(1, t, out=t)
    return _neg_log_abs(t, n)


def _nth_roots(w, n):
    """All n branches of w^(1/n), branch-major."""
    root = np.exp(np.log(w) / n)
    return np.concatenate([root * np.exp(2j * np.pi * k / n)
                           for k in range(n)])


def _sample_lune_preimage(n, s, rng):
    """Interior points of the z^n-preimage of the radius-s lune, 40 per branch.

    Points are kept strictly inside (radius factor 0.999, |w| >= 1+1e-9)
    so the membership inequalities hold with slack well above rounding.
    """
    psis = 2 * np.pi * (np.arange(40) + rng.random(40)) / 40
    rads = s * (0.1 + 0.899 * rng.random(40))
    w = 1 + rads * np.exp(1j * psis)
    return _nth_roots(w[np.abs(w) >= 1 + 1e-9], n)


def _cheb_level_set(n, eps):
    """2^n |T_n| = |phi^n + phi^{-n}|, the zeros of T_n and e^{-n eps}."""
    def g(z):
        """|phi^n + phi^-n| with one complex power: phi^-n is np.divide(1,
        phi^n), written over phi.  For 3 <= n <= 99 numpy's power loop
        forms phi ** -float(n) as exactly that quotient, so g equals
        |phi ** n + phi ** -float(n)| bit for bit; at n <= 2 and n >= 100
        it agrees up to float rounding."""
        p = phi_np(z)
        pn = p ** n
        pn += np.divide(1, pn, out=p)
        return np.abs(pn)

    roots = np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))
    return g, roots, math.exp(-n * eps)


def _trace_cheb_lemniscate(g, roots, level):
    """Boundary of _cheb_level_set's {g = level} and samples inside it.

    64 rays from each Chebyshev zero go through
    `capacity.trace_level_curve`.  Each boundary point is the midpoint of
    its final bracket; each sample sits at 0.9 times the inner end of the
    bracket of every fourth ray.  Rays are bracketed independently and
    2 pi 4j/64 rounds to 2 pi j/16, so the samples are those of 16 rays.
    """
    z0, d, lo, hi = cap.trace_level_curve(g, roots, level, 64)
    return z0 + 0.5 * (lo + hi) * d, (z0 + 0.9 * lo * d)[::4]


def _write_demo(cfg, per_n, ok, **checks):
    """Write a demo's per-n table as <experiment>.csv, its KS and bad-set
    plots and its report, which passes when ok and every check hold."""
    table = (f"{cfg.experiment}.csv",
             ["n", "ks", "bound_analytic", "cap_estimate",
              "badset_grid_count", "certified", "samples"],
             [[e["n"], "%.17g" % e["ks"], "%.17g" % e["bound_analytic"],
               "%.17g" % e["cap_estimate"], e["badset_grid_count"],
               e["certified_samples"], e["sample_count"]] for e in per_n])
    plots = [
        ("ks.svg", lambda: svgplot.line_chart_svg(
            [e["n"] for e in per_n], [e["ks"] for e in per_n],
            "KS distance")),
        ("badset.svg", lambda: svgplot.scatter_svg(
            [p for e in per_n for p in e["badset_points"]],
            "sampled potential-deviation points")),
    ]
    return _write_run(cfg, {"per_n": per_n, **checks,
                            "pass": bool(ok and all(checks.values()))},
                      [table], plots)


# ---------------------------------------------------------------------------
#  runners


def run_stahl_circle(cfg):
    """Roots-of-unity measures versus the circle equilibrium measure."""
    rng = np.random.default_rng(cfg.seed)
    grid = _scan_grid(cfg)

    per_n, ok = [], True
    for n in cfg.n_list:
        ks = ks_distance(np.arange(n) / n, lambda t: np.clip(t, 0, 1))
        bound = 0.25 ** (1.0 / n) * math.exp(-cfg.eps)
        s = math.exp(-n * cfg.eps)
        if 1 + s == 1:
            raise cap.DegenerateRegion(f"lune radius {s:.3g} at n = {n} "
                                       "underflows float64 next to 1")
        samples = _sample_lune_preimage(n, s, rng)
        if not len(samples):
            raise cap.DegenerateRegion(f"lune radius {s:.3g} at n = {n} lies "
                                       "inside the sampler's 1e-9 margin")
        cert, bad_pts = _certified(samples, _vdiff_circle(samples, n),
                                   cfg.eps, np.abs(samples) >= 1)

        z_bdry = _nth_roots(1 + s * cap.lune_rescaled_boundary(s, 1024), n)
        in_krho = bool(np.all(np.abs(z_bdry) <= cfg.rho))
        est = cap.greedy_fekete_capacity(cap.point_cloud(z_bdry))
        per_n.append({
            "n": n, "ks": ks, "ks_expected": 1.0 / n,
            "bound_analytic": bound,
            "cap_estimate": est,
            "cap_enclosure": [bound, math.exp(-cfg.eps)],
            "badset_grid_count": _badset_grid_count(
                grid, _vdiff_circle, n, n, cfg.eps),
            "badset_points": bad_pts,
            "certified_samples": cert,
            "sample_count": len(samples),
            "preimage_in_K_rho": in_krho,
        })
        ok = (ok and cert == len(samples) and in_krho
              and abs(ks - 1.0 / n) < 1e-12)

    bounds = [e["bound_analytic"] for e in per_n]
    non_decay = all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    return _write_demo(cfg, per_n, ok, non_decay=non_decay)


def run_stahl_segment(cfg):
    """Chebyshev-zero measures versus the segment equilibrium measure."""
    arcsine_cdf = target_arcsine().cdf
    grid = _scan_grid(cfg)

    per_n, ok = [], True
    for n in cfg.n_list:
        g, roots, level = _cheb_level_set(n, cfg.eps)
        bdry, samples = _trace_cheb_lemniscate(g, roots, level)
        cert, bad_pts = _certified(
            samples, _vdiff_segment_w(phi_np(samples), n), cfg.eps,
            g(samples) <= level)
        in_krho = bool(np.all(np.abs(phi_np(bdry)) <= cfg.rho))
        est = cap.greedy_fekete_capacity(cap.point_cloud(bdry))

        per_n.append({
            "n": n, "ks": ks_distance(roots, arcsine_cdf),
            "bound_analytic": math.exp(-cfg.eps) / 2,
            "cap_estimate": est,
            "certified_samples": cert,
            "sample_count": len(samples),
            "badset_grid_count": _badset_grid_count(
                grid, _vdiff_segment_w, n, 2 * n, cfg.eps),
            "badset_points": bad_pts,
            "lemniscate_in_K_rho": in_krho,
        })
        ok = ok and cert == len(samples) and in_krho

    ks_seq = [e["ks"] for e in per_n]
    trend = all(k2 < k1 for k1, k2 in zip(ks_seq, ks_seq[1:]))
    return _write_demo(cfg, per_n, ok, ks_decreasing=trend)


def run_prop1(cfg):
    """Weighted Leja -> sigma -> orthogonal polynomial zeros pipeline."""
    target = target_from_name(cfg.target)
    grid = lj.chebyshev_grid(cfg.grid_size)
    n_pts = max(cfg.leja_n, cfg.n_max)
    seq = lj.generate(n_pts, target=target, grid=grid)

    ks_rows = [(m, ks_distance(seq[:m], target.cdf))
               for m in sorted({cfg.n_max, cfg.leja_n // 2, cfg.leja_n})
               if 1 <= m <= len(seq)]

    sigma_cfg = op.SigmaBuildConfig(q=cfg.q, n_max=cfg.n_max,
                                    bits=cfg.bits, cascade=cfg.cascade)
    sigma = op.build_sigma(sigma_cfg, seq)
    ctx = sigma.ctx             # cfg.bits, for the big-float tables

    rng = np.random.default_rng(cfg.seed)
    extra = 1.5 + 1.5 * rng.random(2) + 1j * (0.5 + rng.random(2))
    z_samples = [2.0] + [complex(z) for z in extra]

    rc = op.stieltjes_recurrence(sigma, max(cfg.n_list))
    stab_reports = [op.zero_stability_check(rc, seq, n, cfg.q)
                    for n in cfg.n_list]
    per_n = []
    for rep in stab_reports:
        res = lj.verify_weighted_asymptotics(rep.zeros.roots, target,
                                             z_samples)
        per_n.append({
            "n": rep.n,
            "ks": ks_distance(rep.zeros.roots, target.cdf),
            "bound_analytic": float(rep.bound),
            "max_zero_deviation": float(rep.max_deviation),
            "margin": _finite_or_none(float(rep.margin)),
            "stability_pass": bool(rep.passed),
            "zero_fallbacks": rep.zeros.fallbacks,
            "residuals": {str(z): r for z, r in zip(z_samples, res)},
        })

    tables = [
        _leja_table(seq),
        ("equidistribution.csv", ["n", "ks"],
         [(m, "%.17g" % v) for m, v in ks_rows]),
        ("sigma.csv", ["n", "x", "eps"],
         [(k + 1, "%.17g" % float(x), ctx.nstr(w))
          for k, (x, w) in enumerate(sigma.atoms)]),
        ("stability.csv",
         ["n", "k", "root", "paired_leja", "deviation", "bound"],
         [(rep.n, j + 1, ctx.nstr(root), "%.17g" % seq[j],
           ctx.nstr(d), ctx.nstr(rep.bound))
          for rep in stab_reports
          for (j, d), root in zip(rep.deviations, rep.zeros.roots)]),
        ("residuals.csv", ["n", "z", "residual"],
         [(e["n"], z, "%.17g" % r) for e in per_n
          for z, r in e["residuals"].items()]),
    ]
    report = {"ks_leja": {str(m): v for m, v in ks_rows},
              "per_n": per_n,
              "pass": all(rep.passed for rep in stab_reports)}
    ns = [e["n"] for e in per_n]
    plots = [
        _interval_scatter("points.svg", seq, "generated points"),
        _interval_scatter("zeros.svg", stab_reports[-1].zeros.roots,
                          "polynomial zeros"),
        ("deviation.svg", lambda: svgplot.line_chart_svg(
            ns, [e["max_zero_deviation"] for e in per_n],
            "max zero deviation (log10)", logy=True)),
        ("ks.svg", lambda: svgplot.line_chart_svg(
            ns, [e["ks"] for e in per_n], "KS distance")),
    ]
    return _write_run(cfg, report, tables, plots)


def run_leja_only(cfg):
    """Generate a Leja sequence and report its diagnostics."""
    target = None if cfg.target == "none" else target_from_name(cfg.target)
    grid = lj.chebyshev_grid(cfg.grid_size)
    seq = lj.generate(cfg.leja_n, target=target, grid=grid)
    zs = [2.0, 2j, -3.0]
    resid = lj.verify_weighted_asymptotics(seq, target, zs)
    ks = None if target is None else ks_distance(seq, target.cdf)
    report = {"residuals": {str(z): r for z, r in zip(zs, resid)},
              "ks": ks, "separation": _finite_or_none(separation(seq)),
              "pass": bool(all(abs(r) < 0.5 for r in resid))}
    return _write_run(cfg, report, [_leja_table(seq)],
                      [_interval_scatter("points.svg", seq,
                                         "generated points")])


def run_capacity_only(cfg):
    """Calibration battery for the capacity estimator.  Its estimates rest
    on one Fekete exchange pass: on the stahl-circle clouds (eps = 0.1,
    n = 8, 16, 32) a second pass moves the estimate by 1.8e-5, 4.9e-5 and
    1.9e-8 relative."""
    checks = [
        ("disk_r1", cap.greedy_fekete_capacity(
            cap.point_cloud(cap.disk_boundary())), 1.0),
        ("segment", cap.greedy_fekete_capacity(
            cap.point_cloud(cap.segment_boundary())), 0.5),
        ("lemniscate_z2_minus_1", cap.preimage_capacity_check([1, 0, -1], 0.9),
         0.9),
    ]
    lune = cap.lune_capacity_bounds(LUNE_DEGREE, cfg.eps)
    ok = (all(abs(v - t) / t < 0.05 for _, v, t in checks)
          and lune["within_bounds"])
    report = {"checks": [{"name": n, "estimate": v, "analytic": t}
                         for n, v, t in checks],
              "lune": lune, "pass": bool(ok)}
    return _write_run(cfg, report)


RUNNERS = {
    "prop1": run_prop1,
    "stahl_circle": run_stahl_circle,
    "stahl_segment": run_stahl_segment,
    "leja_only": run_leja_only,
    "capacity_only": run_capacity_only,
}


def run(cfg):
    return RUNNERS[cfg.experiment](cfg)

