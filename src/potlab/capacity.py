"""Logarithmic capacity estimation by greedy Fekete configurations.

The estimator picks n points greedily from a dense boundary sample
(capacity lives on the outer boundary), improves them with an exchange
pass, and evaluates the n-point transfinite diameter

    d_n = (prod_{i<j} |z_i - z_j|)^(2 / (n (n-1))).

d_n carries a universal finite-n excess: already for the ideal case of n
roots of unity on the unit circle d_n = n^(1/(n-1)) instead of 1.  The
reported value divides that factor out, which makes the disk exact and
lands known answers (segment, ellipses, lemniscates) within a couple of
percent at n = 64; the raw d_n is kept alongside.

A region is a disk, a segment, a lune or a point cloud (RegionDescriptor);
other sets, such as traced lemniscate boundaries, enter as point clouds.
Level curves are traced by `trace_level_curve`, shared by the lemniscate
tracer here and the Chebyshev lemniscates of the experiments.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np


class DegenerateRegion(ValueError):
    """Boundary sample has fewer distinct points than requested."""


class TracingFailure(RuntimeError):
    """Lemniscate boundary could not be resolved along some ray."""


@dataclass(frozen=True)
class RegionDescriptor:
    """Planar compact set with a deterministic boundary sampler."""

    kind: str
    params: dict

    def boundary_sample(self, count=2048):
        return _SAMPLERS[self.kind](self.params, count)


def disk(center=0.0, r=1.0):
    return RegionDescriptor("disk", {"center": complex(center), "r": float(r)})


def segment(a=-1.0, b=1.0):
    return RegionDescriptor("segment", {"a": float(a), "b": float(b)})


def lune(n, eps):
    return RegionDescriptor("lune", {"n": int(n), "eps": float(eps)})


def point_cloud(points):
    points = np.array(points, dtype=complex)
    points.setflags(write=False)
    return RegionDescriptor("point_cloud", {"points": points})


def _sample_disk(p, count):
    t = 2 * np.pi * np.arange(count) / count
    return complex(p["center"]) + p["r"] * np.exp(1j * t)


def _sample_segment(p, count):
    #  Chebyshev spacing: boundary density of the equilibrium measure
    a, b = p["a"], p["b"]
    j = np.arange(count)
    x = -np.cos(np.pi * j / (count - 1))
    return ((a + b) / 2 + (b - a) / 2 * x).astype(complex)


def lune_rescaled_boundary(s, count=2048):
    """Boundary of {zeta: |zeta| <= 1, |1 + s*zeta| >= 1} (unit-size lune).

    Both arcs are covered: the |zeta| = 1 portion and the image of the
    unit circle |1 + s*zeta| = 1.
    """
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


def _sample_lune(p, count):
    s = math.exp(-p["n"] * p["eps"])
    return 1 + s * lune_rescaled_boundary(s, count)


def trace_level_curve(g, centers, level, angles):
    """First crossings of g = level along `angles` rays from each center.

    g maps complex arrays elementwise to moduli below level at the
    centers.  All rays are bracketed at once by doubling from length 1e-9
    (TracingFailure past 1e6), then bisected 64 times down to adjacent
    floats.  Returns center-major (z0, d, lo, hi): origins, unit
    directions and brackets with g(z0 + lo*d) < level <= g(z0 + hi*d).
    """
    #  math.cos/math.sin round apart from np.cos/np.sin on arrays, and the
    #  pinned runner outputs rest on the former
    dirs = np.array([complex(math.cos(th), math.sin(th))
                     for th in 2 * np.pi * np.arange(angles) / angles])
    z0 = np.repeat(np.asarray(centers), angles)
    d = np.tile(dirs, len(centers))
    hi = np.full(len(z0), 1e-9)
    below = g(z0 + hi * d) < level
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


def _sample_point_cloud(p, count):
    return p["points"]


_SAMPLERS = {
    "disk": _sample_disk,
    "segment": _sample_segment,
    "lune": _sample_lune,
    "point_cloud": _sample_point_cloud,
}


@dataclass(frozen=True)
class CapacityEstimate:
    value: float               # bias-corrected d_n
    raw_dn: float


def _log_dist(samples, z, out):
    """out = log|samples - z|, with -inf at samples equal to z."""
    np.abs(samples - z, out=out)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)


def _row_sum(L, parts, k=-1, lo=0, hi=None):
    """Sum of rows lo..hi-1 of L, rounded as numpy's pairwise sum of each
    column taken as a contiguous vector rounds it.

    Each block of at most 128 rows sums as 8 partial sums of every 8th
    row, cached in parts under its first row; a block recomputes only
    the partial sum holding row k, or all 8 the first time.
    """
    hi = len(L) if hi is None else hi
    if hi - lo > 128:
        mid = lo + (hi - lo) // 16 * 8
        return (_row_sum(L, parts, k, lo, mid)
                + _row_sum(L, parts, k, mid, hi))
    full = hi - (hi - lo) % 8
    if lo not in parts:
        parts[lo] = [L[j:full:8].sum(axis=0) for j in range(lo, lo + 8)]
    elif lo <= k < full:
        j = lo + (k - lo) % 8
        parts[lo][j - lo] = L[j:full:8].sum(axis=0)
    p = parts[lo]
    #  numpy's fixed combination order: the pinned capacity outputs rest
    #  on these bits
    s = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
    for i in range(full, hi):
        s += L[i]
    return s


def _greedy_select(samples, n):
    """n of the samples picked greedily, then improved by one exchange pass.

    Row k of the n x m float64 log table L holds log|samples - z_k| for
    the k-th selected point z_k.  The greedy step raises DegenerateRegion
    when every sample coincides with one of the k points picked so far,
    which happens at some k < n exactly when the samples hold fewer than
    n distinct points.
    """
    m = len(samples)
    if m == 0:
        raise DegenerateRegion(f"only 0 distinct boundary points for n={n}")
    centroid = samples.mean()
    sel = [int(np.argmax(np.abs(samples - centroid)))]
    L = np.empty((n, m))
    _log_dist(samples, samples[sel[0]], L[0])
    logd = L[0].copy()
    for k in range(1, n):
        i = int(np.argmax(logd))
        if logd[i] == -np.inf:
            raise DegenerateRegion(f"only {k} distinct boundary points "
                                   f"for n={n}")
        sel.append(i)
        _log_dist(samples, samples[i], L[k])
        logd += L[k]
    parts = {}
    rowsum = _row_sum(L, parts)
    for k in range(n):
        zk = samples[sel[k]]
        others = samples[[s for j, s in enumerate(sel) if j != k]]
        val_k = float(np.sum(np.log(np.abs(zk - others))))
        #  -inf - (-inf) at coincident samples: treat as unusable
        with np.errstate(invalid="ignore"):
            cand = rowsum - L[k]
        cand[sel] = -np.inf
        cand[np.isnan(cand)] = -np.inf
        i = int(np.argmax(cand))
        if cand[i] > val_k:
            sel[k] = i
            _log_dist(samples, samples[i], L[k])
            rowsum = _row_sum(L, parts, k)
    return samples[sel]


def _corrected_dn(pts):
    n = len(pts)
    s = 0.0
    for i in range(n):
        s += np.sum(np.log(np.abs(pts[i] - pts[i + 1:])))
    raw = math.exp(2 * s / (n * (n - 1)))
    return raw, raw * n ** (-1.0 / (n - 1))


def greedy_fekete_capacity(region, n=64, sample_count=2048):
    """Capacity estimate of a region from an n-point greedy Fekete set.

    Calibration: disk(r) -> r exactly, segment of length L -> L/4 within
    a few percent at n = 64.  A point cloud is used whole; other regions
    are sampled at sample_count boundary points.  The selection holds an
    n x m float64 log table over the m samples (33.5 MB at m = 65,536,
    n = 64) and raises DegenerateRegion when the samples hold fewer than
    n distinct points.
    """
    if n < 8:
        raise ValueError("need n >= 8")
    samples = np.asarray(region.boundary_sample(sample_count), dtype=complex)
    raw, value = _corrected_dn(_greedy_select(samples, n))
    return CapacityEstimate(value=value, raw_dn=raw)


@dataclass(frozen=True)
class PreimageReport:
    estimate: float
    analytic: float
    rel_error: float


def preimage_capacity_check(coeffs, rho, n_points=64):
    """Capacity of {z: |P(z)| <= rho^deg} versus the exact value rho.

    P must be monic; the boundary is traced from the roots of P and the
    greedy Fekete estimator is run on the union.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if abs(coeffs[0] - 1) > 1e-12:
        raise ValueError("polynomial must be monic")
    deg = len(coeffs) - 1
    level = float(rho) ** deg
    bdry = trace_lemniscate_boundary(coeffs, level)
    est = greedy_fekete_capacity(point_cloud(bdry), n=n_points)
    return PreimageReport(estimate=est.value, analytic=float(rho),
                          rel_error=abs(est.value - rho) / rho)


@dataclass(frozen=True)
class LuneReport:
    n: int
    eps: float
    estimate: float
    lower: float               # e^{-n eps} / 4
    upper: float               # e^{-n eps}
    rescaled_estimate: float   # capacity of the unit-size lune
    n_points: int = 64

    @property
    def within_bounds(self):
        return self.lower < self.estimate < self.upper

    def to_json(self):
        return {**asdict(self), "within_bounds": self.within_bounds}


def lune_capacity_bounds(n, eps, n_points=64):
    """Numerical capacity of the lune {|w| >= 1, |w-1| <= e^{-n eps}}.

    Capacity is scale equivariant, so the unit-size rescaled lune is
    estimated and multiplied by e^{-n eps}; this avoids feeding
    vanishingly small coordinates to the estimator.  The estimate is
    compared against the strict enclosure (e^{-n eps}/4, e^{-n eps}).
    """
    if n * eps < 1:
        raise ValueError("need n*eps >= 1 for the rescaled computation")
    s = math.exp(-n * eps)
    est = greedy_fekete_capacity(point_cloud(lune_rescaled_boundary(s)),
                                 n=n_points)
    return LuneReport(n=n, eps=eps, estimate=est.value * s,
                      lower=s / 4, upper=s,
                      rescaled_estimate=est.value, n_points=n_points)
