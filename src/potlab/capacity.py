"""Logarithmic capacity estimation by greedy Fekete configurations.

The estimator picks n = FEKETE_POINTS points greedily from a dense point
cloud of boundary samples (capacity lives on the outer boundary), improves
them with an exchange pass, and evaluates the n-point transfinite diameter

    d_n = (prod_{i<j} |z_i - z_j|)^(2 / (n (n-1))).

d_n carries a universal finite-n excess: already for the ideal case of n
roots of unity on the unit circle d_n = n^(1/(n-1)) instead of 1.  The
estimate, a float, divides that factor out, which makes the disk exact
and lands known answers (segment, ellipses, lemniscates) within a couple
of percent at n = 64; `_corrected_dn` also gives the raw d_n.  The
exchange pass skips the steps and samples a proved rounding bound rules
out, and so picks the points of exact column sums bit for bit
(`_exchange`).

Level curves are traced by `trace_level_curve`, shared by the lemniscate
tracer here and the Chebyshev lemniscates of the experiments.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

FEKETE_POINTS = 64          # size n of every greedy Fekete subset
BOUNDARY_SAMPLES = 2048     # points of the disk, segment and lune samplers


class DegenerateRegion(ValueError):
    """Boundary sample has fewer distinct points than requested."""


class TracingFailure(RuntimeError):
    """Lemniscate boundary could not be resolved along some ray."""


#  perfbench's Fekete hook reads kind and params["points"] to count samples
@dataclass(frozen=True)
class RegionDescriptor:
    """Boundary point cloud handed to `greedy_fekete_capacity`."""

    kind: str
    params: dict


def point_cloud(points):
    points = np.array(points, dtype=complex)
    points.setflags(write=False)
    return RegionDescriptor("point_cloud", {"points": points})


def disk_boundary(r=1.0):
    """BOUNDARY_SAMPLES equally spaced points on the circle |z| = r."""
    t = 2 * np.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
    return float(r) * np.exp(1j * t)


def segment_boundary(a=-1.0, b=1.0):
    """BOUNDARY_SAMPLES points of [a, b] spaced as its equilibrium measure."""
    a, b = float(a), float(b)
    j = np.arange(BOUNDARY_SAMPLES)
    x = -np.cos(np.pi * j / (BOUNDARY_SAMPLES - 1))
    return ((a + b) / 2 + (b - a) / 2 * x).astype(complex)


def lune_rescaled_boundary(s, count=BOUNDARY_SAMPLES):
    """Boundary of {zeta: |zeta| <= 1, |1 + s*zeta| >= 1} (unit-size lune).

    Both arcs are covered: the |zeta| = 1 portion and the image of the
    unit circle |1 + s*zeta| = 1.  Raises DegenerateRegion when the lune
    radius s is 0 or subnormal, where that image is undefined or overflows.
    """
    if s < sys.float_info.min:
        raise DegenerateRegion(f"lune radius {s:.3g} is subnormal in float64"
                               if s else "lune radius underflows float64 to 0")
    n_outer = (2 * count) // 3
    n_inner = count - n_outer
    tstar = math.acos(max(-1.0, -s / 2))
    t = np.linspace(-tstar, tstar, n_outer)
    outer = np.exp(1j * t)
    phim = 2 * math.asin(min(1.0, s / 2))
    ph = np.linspace(-phim, phim, n_inner)
    inner = (np.exp(1j * ph) - 1) / s
    inner = inner[np.abs(inner) <= 1 + 1e-12]
    return np.concatenate([outer, inner])


def trace_level_curve(g, centers, level, angles):
    """First crossings of g = level along `angles` rays from each center.

    g maps complex arrays elementwise to moduli below level at the
    centers.  Rays are bracketed from length 1e-9 by doubling
    (TracingFailure past 1e6) or halving (TracingFailure once float64
    cannot step off the center), then bisected at most 64 times, until
    every bracket's midpoint is one of its ends.  Returns center-major
    (z0, d, lo, hi): origins, unit directions and brackets with
    g(z0 + lo*d) < level <= g(z0 + hi*d).
    """
    #  math.cos/math.sin round apart from np.cos/np.sin on arrays, and the
    #  pinned runner outputs rest on the former
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
        #  adjacent floats: by the bracket invariant each further step
        #  would reassign the end that mid already equals
        if np.all((mid == lo) | (mid == hi)):
            break
        below = g(z0 + mid * d) < level
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return z0, d, lo, hi


def trace_lemniscate_boundary(coeffs, level):
    """Points with |P(z)| = level, traced along 512 rays from each root of P.

    Each point is the midpoint of a final `trace_level_curve` bracket;
    the union over roots covers every component of the sublevel set.
    """
    coeffs = np.asarray(coeffs, dtype=complex)

    def modulus(z):
        #  np.hypot rounds as abs() of a complex scalar and np.abs on arrays
        #  may not; the pinned capacity outputs rest on the former
        v = np.polyval(coeffs, z)
        return np.hypot(v.real, v.imag)

    z0, d, lo, hi = trace_level_curve(modulus, np.roots(coeffs), level, 512)
    return z0 + 0.5 * (lo + hi) * d


def _log_dist(samples, z, out, buf):
    """out = log|samples - z|, -inf where equal, through the complex buf."""
    np.log(np.abs(np.subtract(samples, z, out=buf), out=out), out=out)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _greedy_select(samples, n):
    """n of the samples, picked greedily, then improved by `_exchange`.

    Row k of the n x m float64 log table L holds log|samples - z_k| for
    the k-th selected point z_k, and logd holds the running sums of its
    columns.  The greedy step raises DegenerateRegion when every sample
    coincides with one of the k points picked so far, which happens at
    some k < n exactly when the samples hold fewer than n distinct points.
    """
    m = len(samples)
    if m == 0:
        raise DegenerateRegion(f"only 0 distinct boundary points for n={n}")
    dist = np.abs(samples - samples.mean())
    sel = [int(np.argmax(dist))]
    L, buf = np.empty((n, m)), np.empty(m, dtype=complex)
    _log_dist(samples, samples[sel[0]], L[0], buf)
    logd = L[0].copy()
    for k in range(1, n):
        i = int(np.argmax(logd))
        if logd[i] == -np.inf:
            raise DegenerateRegion(f"only {k} distinct boundary points "
                                   f"for n={n}")
        sel.append(i)
        _log_dist(samples, samples[i], L[k], buf)
        logd += L[k]
    #  no two samples lie over 2 max|x - centroid| apart, and no two
    #  distinct floats closer than the smallest subnormal, e^-744.4
    lmax = np.maximum(745.0, np.log(2 * dist[sel[0]]))
    _exchange(samples, sel, L, logd, buf, lmax)
    return samples[sel]


def _exchange(samples, sel, L, logd, buf, lmax):
    """One exchange pass over sel, keeping L and logd; returns tau.

    Step k swaps z_k for the sample j of largest exact value
    rowsum_j - L[k, j] (rowsum_j: numpy's pairwise sum of column j of L,
    as the reference selection takes it) if that beats val_k, the
    off-diagonal sum of row k of the symmetric D = log|z_i - z_j| of sel.
    S = n lmax bounds each column's absolute sum, and any summation order
    rounds within (n-1) u S of the exact sum (Higham 2002, section 4.2),
    so tau = (n + 2 + 2 swaps) eps S, eps = 2u, bounds |logd - rowsum|
    after the two roundings of each swap, and the two candidate values
    apart.  A step whose best logd - L[k] plus tau is at most val_k thus
    cannot swap and is skipped; in the others only the columns within
    2 tau of that best are summed exactly, all if tau is not finite.
    """
    n = len(sel)
    unit = n * lmax * np.finfo(float).eps
    tau = (n + 2) * unit
    D, approx, row = L[:, sel], np.empty_like(logd), np.empty(n - 1)
    for k in range(n):
        row[:k], row[k:] = D[k, :k], D[k, k + 1:]
        val_k = float(row.sum())
        top = np.fmax.reduce(np.subtract(logd, L[k], out=approx))
        if top + tau <= val_k:
            continue
        #  nan columns (samples at z_k), and all at a nan threshold, stay
        cols = np.flatnonzero(~(approx < top - 2 * tau))
        cand = L[:, cols].T.copy().sum(axis=1) - L[k, cols]
        cand[np.isnan(cand)] = -np.inf
        j = int(np.argmax(cand))
        if cand[j] > val_k:
            sel[k] = int(cols[j])
            _log_dist(samples, samples[sel[k]], L[k], buf)
            np.add(approx, L[k], out=logd)
            D[k] = D[:, k] = L[k, sel]
            #  the columns of samples equal to the swapped-out point
            stale = np.flatnonzero(np.isnan(logd))
            logd[stale] = L[:, stale].sum(axis=0)
            tau += 2 * unit
    return tau


@np.errstate(divide="ignore")
def _corrected_dn(pts):
    """(d_n, d_n / n^(1/(n-1))): raw and bias-corrected diameters."""
    n = len(pts)
    D = np.log(np.abs(pts[:, None] - pts))
    s = 0.0
    for i in range(n):
        s += np.sum(D[i, i + 1:])
    raw = math.exp(2 * s / (n * (n - 1)))
    return raw, raw * n ** (-1.0 / (n - 1))


def greedy_fekete_capacity(region):
    """Capacity of a `point_cloud`, from FEKETE_POINTS greedy Fekete points.

    Calibration: disk_boundary(r) -> r exactly, segment_boundary of
    length L -> L/4 within a few percent.  The selection holds an n x m
    float64 log table over the m samples (33.5 MB at m = 65,536, n = 64),
    skips and prunes its exchange by a certified rounding bound without
    changing a bit, and raises DegenerateRegion when the samples hold
    fewer than n distinct points.
    """
    return _corrected_dn(_greedy_select(region.params["points"],
                                        FEKETE_POINTS))[1]


def preimage_capacity_check(coeffs, rho):
    """Estimated capacity of {z: |P(z)| <= rho^deg}, whose exact value is rho.

    P must be monic; the boundary is traced from the roots of P and the
    greedy Fekete estimator is run on the union.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if abs(coeffs[0] - 1) > 1e-12:
        raise ValueError("polynomial must be monic")
    deg = len(coeffs) - 1
    level = float(rho) ** deg
    bdry = trace_lemniscate_boundary(coeffs, level)
    return greedy_fekete_capacity(point_cloud(bdry))


def lune_capacity_bounds(n, eps):
    """Numerical capacity of the lune {|w| >= 1, |w-1| <= e^{-n eps}}.

    Capacity is scale equivariant, so the unit-size rescaled lune is
    estimated and multiplied by e^{-n eps}; this avoids feeding
    vanishingly small coordinates to the estimator.  Returns the estimate
    with the strict enclosure (lower, upper) = (e^{-n eps}/4, e^{-n eps}),
    whether it lies within, and the rescaled (unit-size) estimate.
    """
    if n * eps < 1:
        raise ValueError("need n*eps >= 1 for the rescaled computation")
    s = math.exp(-n * eps)
    est = greedy_fekete_capacity(point_cloud(lune_rescaled_boundary(s)))
    return {"n": n, "eps": eps, "estimate": est * s, "lower": s / 4,
            "upper": s, "rescaled_estimate": est, "n_points": FEKETE_POINTS,
            "within_bounds": s / 4 < est * s < s}
