import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from potlab import DegenerateGrid, DegenerateRegion, chebyshev_grid
from potlab.leja import LejaSequence
from potlab.potentials import potential_on_grid


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
        vg = None if target is None else potential_on_grid(target, nodes)
        pts = np.empty(n)
        pts[0] = 1.0 if vg is None else nodes[int(np.argmax(vg))]
        logsum = _log_dist(nodes, pts[0])
        for k in range(1, n):
            pts[k] = _step(pts[:k], nodes, logsum, vg, target)
            logsum += _log_dist(nodes, pts[k])
        return LejaSequence(points=tuple(pts.tolist()))

    return generate(n, target, grid)
