from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from potlab import DegenerateRegion


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
