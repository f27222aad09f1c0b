"""Greedy extremal (Leja) sequences on the segment [-1,1].

Each new point maximizes the log-product of distances to the points
already chosen, optionally tilted by n times an external potential.  The
maximization is over a fixed candidate grid followed by a golden-section
refinement inside the bracketing grid interval, so runs are deterministic
for a fixed grid and tie-break rule (smallest coordinate wins).

Sequences are immutable; extension returns a new sequence.  Points are
kept in float64: downstream big-float consumers embed the stored values
exactly, so grid-localization error only enters equidistribution
diagnostics, far below their tolerances.
"""

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .measures import ks_distance
from .potentials import phi_np, potential_on_grid

#  width below which the bracketing interval is not refined further;
#  2^(-bits/4) at the 53-bit generation precision
REFINE_TOL = 2.0 ** (-53 / 4)
_INV_GOLDEN = (math.sqrt(5) - 1) / 2


class DegenerateGrid(ValueError):
    """Every candidate node collides with an already chosen point."""


@dataclass(frozen=True)
class CandidateGrid:
    """Sorted distinct candidate nodes plus a refinement iteration cap."""

    nodes: np.ndarray
    refinement_depth: int = 200

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if np.any(np.diff(nodes) <= 0):
            nodes = np.unique(nodes)
        object.__setattr__(self, "nodes", nodes)

    def __len__(self):
        return len(self.nodes)


def chebyshev_grid(m=4096):
    """Chebyshev-Lobatto nodes on [-1,1], endpoints included."""
    j = np.arange(m)
    return CandidateGrid(-np.cos(np.pi * j / (m - 1)))


@dataclass(frozen=True)
class LejaSequence:
    """Ordered extremal points with running log-products and separation.

    points : x coordinates.  log_products[n] is sum_{j<n} log|x_n - x_j|
        (the value of the maximized log-product when point n was added)
        and separations[n] is the minimal pairwise distance among the
        first n+1 points.
    """

    points: Tuple[float, ...]
    log_products: Tuple[float, ...] = field(default=())
    separations: Tuple[float, ...] = field(default=())

    def __len__(self):
        return len(self.points)

    @property
    def separation(self):
        return self.separations[-1] if self.separations else math.inf


def _log_dist(ys, x):
    """log of the distance from x to each y in ys (-inf where they meet)."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(ys - x))


def _objective_scalar(pts, vpot, n, x):
    s = 0.0 if vpot is None else n * vpot(x)
    return s + float(np.sum(_log_dist(np.asarray(pts), x)))


def _golden_refine(f, a, b, depth, tol=REFINE_TOL):
    if depth <= 0:
        return a
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    k = 0
    while b - a > tol and k < depth:
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


def _weight(target, nodes):
    """External potential on the grid nodes and as a scalar callable for
    the refinement; both None for an unweighted sequence."""
    if target is None:
        return None, None

    def vs(x):
        return float(potential_on_grid(target, np.asarray([x]))[0])

    return potential_on_grid(target, nodes), vs


def _logsum(seq, nodes):
    """sum_j log|node - x_j| over the sequence's points, per grid node."""
    return sum(_log_dist(nodes, x) for x in seq.points)


def _step(seq, grid, vg, vs, logsum):
    """One greedy step; returns seq with the chosen point appended.

    logsum: _logsum(seq, grid.nodes), which generate keeps up to date
    instead of recomputing; vg, vs: as returned by _weight.
    """
    nodes = grid.nodes
    n = len(seq.points)
    obj = logsum if vg is None else n * vg + logsum
    if not np.any(np.isfinite(obj)):
        raise DegenerateGrid("all candidate nodes collide with chosen points")
    i = int(np.argmax(obj))
    lo = nodes[max(i - 1, 0)]
    hi = nodes[min(i + 1, len(nodes) - 1)]

    def f(x):
        return _objective_scalar(seq.points, vs, n, x)

    xg = _golden_refine(f, lo, hi, grid.refinement_depth)
    #  the refined point must also beat the bracket ends and the grid node
    cands = sorted({xg, lo, hi, float(nodes[i])})
    vals = [f(c) for c in cands]
    best = max(vals)
    x = float(next(c for c, v in zip(cands, vals) if v == best))
    #  log_products stores the bare distance product, without the weight
    bare = _objective_scalar(seq.points, None, n, x)
    sep = seq.separation
    for p in seq.points:
        sep = min(sep, abs(x - p))
    return LejaSequence(
        points=seq.points + (x,),
        log_products=seq.log_products + (bare,),
        separations=seq.separations + (sep,),
    )


def extend_unweighted(seq, grid):
    """Append the point maximizing the distance log-product over the grid."""
    if not seq.points:
        raise ValueError("sequence must be nonempty")
    return _step(seq, grid, None, None, _logsum(seq, grid.nodes))


def extend_weighted(seq, target, grid):
    """Append the maximizer of n*V(x) + sum log|x - x_j| over the grid."""
    if not seq.points:
        raise ValueError("sequence must be nonempty")
    vg, vs = _weight(target, grid.nodes)
    return _step(seq, grid, vg, vs, _logsum(seq, grid.nodes))


def generate(n, target=None, grid=None):
    """Generate the first n points (fast path with cached grid sums).

    x1 is 1 unweighted, and the grid node maximizing the potential
    (leftmost on ties) when a target weight is given.
    """
    grid = grid or chebyshev_grid()
    vg, vs = _weight(target, grid.nodes)
    x0 = 1.0 if vg is None else float(grid.nodes[int(np.argmax(vg))])
    seq = LejaSequence(points=(x0,), log_products=(0.0,),
                       separations=(math.inf,))
    logsum = _logsum(seq, grid.nodes)
    while len(seq) < n:
        seq = _step(seq, grid, vg, vs, logsum)
        logsum += _log_dist(grid.nodes, seq.points[-1])
    return seq


def verify_unweighted_asymptotics(seq, z_samples):
    """Residuals (1/n) sum log|z - x_j| - (log|phi(z)| - log 2), the
    Green function of [-1,1] minus its Robin constant.  Callers assert
    the decay.
    """
    pts = np.asarray(seq.points, dtype=complex)
    n = len(pts)
    out = []
    for z in z_samples:
        s = float(np.sum(np.log(np.abs(complex(z) - pts)))) / n
        g = math.log(abs(phi_np(np.asarray([z]))[0])) - math.log(2)
        out.append(s - g)
    return out


def verify_weighted_asymptotics(seq, target, z_samples):
    """Residuals (1/n) sum log|z - x_j| + V(z) for samples off the segment."""
    pts = np.asarray(seq.points, dtype=complex)
    n = len(pts)
    out = []
    for z in z_samples:
        s = float(np.sum(np.log(np.abs(complex(z) - pts)))) / n
        out.append(s + float(target.potential(z)))
    return out


def equidistribution_distance(seq, target):
    """KS distance between the point-counting measure and the target CDF."""
    return ks_distance(seq.points, target.cdf)
