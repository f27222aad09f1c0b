import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from potlab import (DegenerateGrid, DegenerateRegion, DiscreteMeasure,
                    PrecisionContext, TracingFailure, chebyshev_grid,
                    epsilon_stress_test)
from potlab.orthopoly import BreakdownError, RecurrenceCoeffs, _uniform_grid_64


@pytest.fixture(autouse=True)
def _high_ambient_precision():
    """Test oracles build mp constants inline; give them enough bits.

    Package code pins its own precision via PrecisionContext and is
    unaffected by the ambient setting.
    """
    with mp.workprec(320):
        yield


def chebyshev_monic_coeffs(n):
    """Float64 coefficients of the monic Chebyshev polynomial, leading first."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    prev = np.array([1.0])           # T_0
    cur = np.array([1.0, 0.0])       # T_1 = x
    for k in range(1, n):
        b = 0.5 if k == 1 else 0.25
        nxt = np.append(cur, 0.0)
        nxt[2:] -= b * prev
        prev, cur = cur, nxt
    return cur


def orth_tol(ctx):
    """Tolerance for orthogonality residuals and moment matches: 2^(-bits/4)."""
    return mpf(2) ** (-(ctx.bits // 4))


def mpf_fraction(x):
    """The mpf x as an exact Fraction.  The sign comes from _mpf_ because
    man_exp drops it."""
    sign, man, exp, _ = x._mpf_
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def exact_recurrence(m, n):
    """First n monic recurrence pairs (a, b) of the discrete measure m in
    exact rationals: the Stieltjes procedure of orthopoly, unrounded."""
    xs = [mpf_fraction(x) for x in m.locations]
    ws = [mpf_fraction(w) for w in m.weights]
    p_prev, p_cur = [Fraction(0)] * len(xs), [Fraction(1)] * len(xs)
    a, b, nu_prev = [], [], None
    for k in range(n):
        nu = sum(w * p * p for w, p in zip(ws, p_cur))
        ak = sum(w * x * p * p for w, x, p in zip(ws, xs, p_cur)) / nu
        bk = nu if k == 0 else nu / nu_prev
        a.append(ak)
        b.append(bk)
        p_prev, p_cur = p_cur, [(x - ak) * pc - (bk if k else 0) * pp
                                for x, pc, pp in zip(xs, p_cur, p_prev)]
        nu_prev = nu
    return a, b


def exact_sturm_count(a, b, n, x):
    """Number of eigenvalues of the order-n Jacobi matrix below x, or None
    when a pivot is exactly zero (then x may be an eigenvalue)."""
    cnt = 0
    for i in range(n):
        d = a[i] - x if i == 0 else (a[i] - x) - b[i] / d
        if d == 0:
            return None
        cnt += d < 0
    return cnt


def exact_enclosures_hold(a, b, n, centers, radius):
    """Whether the closed intervals of radius around the first n centers
    are disjoint and exact Sturm counts put exactly one eigenvalue of J_n,
    the k-th, in the k-th of them (sorted)."""
    cs = sorted(Fraction(c) for c in centers[:n])
    if any(not c2 - c1 > 2 * radius for c1, c2 in zip(cs, cs[1:])):
        return False
    return all((exact_sturm_count(a, b, n, c - radius),
                exact_sturm_count(a, b, n, c + radius)) == (k - 1, k)
               for k, c in enumerate(cs, 1))


def stieltjes_recurrence_reference(m, n):
    """orthopoly.stieltjes_recurrence as it was on mpf objects, before its
    loop ran on raw values: mpf arithmetic and mp.fsum under m.ctx, and
    an update to the degree-n values at the last step, after the same
    up-front check that m has n or more distinct locations.  The library
    must return the same a and b tuple for tuple."""
    if n < 0:
        raise ValueError("n must be >= 0")
    d = len(set(m.locations))
    if d < n:
        raise BreakdownError(f"the measure has {d} distinct atom locations, "
                             f"fewer than n = {n}")
    ctx = m.ctx
    with ctx.workprec():
        xs = m.locations
        ws = m.weights
        p_prev = [mpf(0)] * len(xs)
        p_cur = [mpf(1)] * len(xs)
        a, b = [], []
        nu_prev = None
        for k in range(n):
            nu = mp.fsum(w * p * p for w, p in zip(ws, p_cur))
            if nu <= 0:
                raise BreakdownError(
                    f"norm of degree-{k} polynomial is {nu}; the measure has "
                    f"fewer than {k + 1} atoms of support or bits are too low")
            ak = mp.fsum(w * x * p * p for w, x, p in zip(ws, xs, p_cur)) / nu
            bk = nu if k == 0 else nu / nu_prev
            a.append(ak)
            b.append(bk)
            p_prev, p_cur = p_cur, [
                (x - ak) * pc - (bk if k > 0 else 0) * pp
                for x, pc, pp in zip(xs, p_cur, p_prev)]
            nu_prev = nu
    return RecurrenceCoeffs(a=tuple(a), b=tuple(b), ctx=ctx)


def build_sigma_via_public_audit(cfg, seq):
    """orthopoly.build_sigma's stabilized cascade calibrated through the
    public audit: each candidate eps_{n+1} runs epsilon_stress_test on a
    DiscreteMeasure of sigma_n with the family [delta_leja_{n+1},
    uniform_grid_64], every member audited in full.  A candidate passes
    if its worst deviation is <= bound/2 = tgt, else it becomes
    cand * tgt / worst / 2.  The library must return the same atoms bit
    for bit."""
    ctx = PrecisionContext(cfg.bits)
    with ctx.workprec():
        q = ctx.mpf(str(cfg.q))
        pts = [ctx.mpf(x) for x in seq[:cfg.n_max]]
        eps = [q]
        for n in range(1, cfg.n_max):
            sigma_n = DiscreteMeasure(tuple(zip(pts, eps)), ctx=ctx)
            family = [(f"delta_leja_{n + 1}", ((pts[n], mpf(1)),)),
                      ("uniform_grid_64", _uniform_grid_64())]
            cand = q ** (n * n) * eps[-1] * q
            for _ in range(64):
                rep = epsilon_stress_test(sigma_n, seq, n, cand, cfg.q,
                                          family=family)
                tgt, worst = rep.bound / 2, rep.worst[1]
                if worst <= tgt:
                    break
                cand = cand * tgt / worst / 2
            else:
                raise AssertionError(f"eps_{n + 1} did not converge")
            eps.append(cand)
        return DiscreteMeasure(tuple(zip(pts, eps)), ctx=ctx)


def sturm_count_reference(a, b, n, x, tiny):
    """orthopoly._sturm_count as it was on mpf objects: the number of
    eigenvalues below x of the order-n Jacobi matrix, with an exactly
    zero pivot replaced by -tiny and counted.  Run it under the working
    precision; the library must return the same count."""
    cnt = 0
    d = a[0] - x
    if d < 0:
        cnt += 1
    elif d == 0:
        d = -tiny
        cnt += 1
    for i in range(1, n):
        d = (a[i] - x) - b[i] / d
        if d < 0:
            cnt += 1
        elif d == 0:
            d = -tiny
            cnt += 1
    return cnt


def greedy_select_reference(samples, n):
    """The greedy Fekete selection of capacity.py as it was before the log
    table became n x m with cached partial row sums: a full (m, n) table
    re-summed after every exchange swap.  The library must select the
    same points bit for bit, or raise DegenerateRegion with it."""
    m = len(samples)
    if len(np.unique(samples)) < n:
        raise DegenerateRegion(f"only {len(np.unique(samples))} distinct "
                               f"boundary points for n={n}")
    centroid = samples.mean()
    sel = [int(np.argmax(np.abs(samples - centroid)))]
    L = np.empty((m, n))
    with np.errstate(divide="ignore"):
        L[:, 0] = np.log(np.abs(samples - samples[sel[0]]))
    logd = L[:, 0].copy()
    for k in range(1, n):
        i = int(np.argmax(logd))
        sel.append(i)
        with np.errstate(divide="ignore"):
            L[:, k] = np.log(np.abs(samples - samples[i]))
        logd += L[:, k]
    rowsum = L.sum(axis=1)
    for k in range(n):
        zk = samples[sel[k]]
        others = samples[[s for j, s in enumerate(sel) if j != k]]
        val_k = float(np.sum(np.log(np.abs(zk - others))))
        #  -inf - (-inf) at coincident samples: treat as unusable
        with np.errstate(invalid="ignore"):
            cand = rowsum - L[:, k]
        cand[sel] = -np.inf
        cand[np.isnan(cand)] = -np.inf
        i = int(np.argmax(cand))
        if cand[i] > val_k:
            sel[k] = i
            with np.errstate(divide="ignore"):
                L[:, k] = np.log(np.abs(samples - samples[i]))
            rowsum = L.sum(axis=1)
    return samples[sel]


def corrected_dn_reference(pts):
    """capacity._corrected_dn as it was before it summed one n x n table
    of log distances: a fresh log|z_i - z_j| row per point, summed in
    order.  The library must return the same pair bit for bit."""
    n = len(pts)
    s = 0.0
    for i in range(n):
        s += np.sum(np.log(np.abs(pts[i] - pts[i + 1:])))
    raw = math.exp(2 * s / (n * (n - 1)))
    return raw, raw * n ** (-1.0 / (n - 1))


def trace_level_curve_reference(g, centers, level, angles):
    """capacity.trace_level_curve as it was before its bisection stopped
    at adjacent floats: all 64 bisection steps on every ray.  The library
    must return the same (z0, d, lo, hi) bit for bit."""
    dirs = np.array([complex(math.cos(th), math.sin(th))
                     for th in 2 * np.pi * np.arange(angles) / angles])
    z0 = np.repeat(np.asarray(centers), angles)
    d = np.tile(dirs, len(centers))
    hi = np.full(len(z0), 1e-9)
    below = g(z0 + hi * d) < level
    near = ~below
    while near.any():
        z = z0[near] + hi[near] / 2 * d[near]
        if np.any(z == z0[near]):
            raise TracingFailure(f"g = {level} crossing too near "
                                 f"{z[z == z0[near]][0]} for float64")
        near[near] = g(z) >= level
        hi[near] /= 2
    while below.any():
        hi[below] *= 2
        if hi.max() > 1e6:
            raise TracingFailure(f"no g = {level} crossing within 1e6 of "
                                 f"{z0[np.argmax(hi)]}")
        below[below] = g(z0[below] + hi[below] * d[below]) < level
    lo = hi / 2
    for _ in range(64):
        mid = (lo + hi) / 2
        below = g(z0 + mid * d) < level
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return z0, d, lo, hi


def uniform_potential_grid_reference(x):
    """The uniform target's float64 potential as it was before it took
    floats: 0 log 0 = 0 at the endpoints through np.where branches under a
    warning guard.  The library form must give the same bits."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(x > -1, (1 + x) * np.log1p(x), 0.0)
        t2 = np.where(x < 1, (1 - x) * np.log1p(-x), 0.0)
    return 1 - 0.5 * (t1 + t2)


def leja_generate_reference(n, target=None, grid=None):
    """leja.generate as it was before the golden-section objective took
    arrays of probes: one scalar objective call per probe and candidate,
    each under its own warning guard, and a 200-step cap on the refine
    loop.  The library must return the same points bit for bit, or raise
    DegenerateGrid with the same message."""
    REFINE_TOL = 2.0 ** (-53 / 4)
    REFINE_DEPTH = 200
    _INV_GOLDEN = (math.sqrt(5) - 1) / 2

    def _log_dist(ys, x):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(ys - x))

    def _golden_refine(f, a, b):
        x1 = b - _INV_GOLDEN * (b - a)
        x2 = a + _INV_GOLDEN * (b - a)
        f1, f2 = f(x1), f(x2)
        k = 0
        while b - a > REFINE_TOL and k < REFINE_DEPTH:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + _INV_GOLDEN * (b - a)
                f2 = f(x2)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - _INV_GOLDEN * (b - a)
                f1 = f(x1)
            k += 1
        return 0.5 * (a + b)

    def _step(pts, nodes, logsum, vg, target):
        n = len(pts)
        obj = logsum if vg is None else n * vg + logsum
        if not np.any(np.isfinite(obj)):
            raise DegenerateGrid("all candidate nodes collide with chosen points")
        i = int(np.argmax(obj))
        lo = nodes[max(i - 1, 0)]
        hi = nodes[min(i + 1, len(nodes) - 1)]

        def f(x):
            s = 0.0 if target is None else n * float(target.grid_potential(x))
            return s + float(np.sum(_log_dist(pts, x)))

        xg = _golden_refine(f, lo, hi)
        #  the refined point must also beat the bracket ends and the grid node
        cands = sorted({xg, lo, hi, float(nodes[i])})
        vals = [f(c) for c in cands]
        best = max(vals)
        return float(next(c for c, v in zip(cands, vals) if v == best))

    def generate(n, target=None, grid=None):
        if n < 1:
            raise ValueError(f"need at least one point, got n = {n}")
        nodes = chebyshev_grid() if grid is None else grid
        vg = None if target is None else target.grid_potential(nodes)
        pts = np.empty(n)
        pts[0] = 1.0 if vg is None else nodes[int(np.argmax(vg))]
        logsum = _log_dist(nodes, pts[0])
        for k in range(1, n):
            pts[k] = _step(pts[:k], nodes, logsum, vg, target)
            logsum += _log_dist(nodes, pts[k])
        return tuple(pts.tolist())

    return generate(n, target, grid)
