"""Greedy extremal (Leja) sequences on the segment [-1,1].

Each new point maximizes the log-product of distances to the points
already chosen, optionally tilted by n times an external potential.  The
maximization is over a fixed candidate grid followed by a golden-section
refinement inside the bracketing grid interval, so runs are deterministic
for a fixed grid and tie-break rule (smallest coordinate wins).

Points are kept in float64: downstream big-float consumers embed the
stored values exactly, so grid-localization error only enters
equidistribution diagnostics, far below their tolerances.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .potentials import phi_np, potential_on_grid

#  width below which the bracketing interval is not refined further;
#  2^(-bits/4) at the 53-bit generation precision
REFINE_TOL = 2.0 ** (-53 / 4)
_INV_GOLDEN = (math.sqrt(5) - 1) / 2


class DegenerateGrid(ValueError):
    """Every candidate node collides with an already chosen point."""


def chebyshev_grid(m=4096):
    """Ascending Chebyshev-Lobatto nodes on [-1,1], endpoints included."""
    j = np.arange(m)
    return -np.cos(np.pi * j / (m - 1))


@dataclass(frozen=True)
class LejaSequence:
    """Ordered extremal points (x coordinates)."""

    points: Tuple[float, ...]

    def __len__(self):
        return len(self.points)

    @property
    def separation(self):
        """Minimal pairwise distance among the points (inf below two).

        Rounding is monotone, so the smallest gap between sorted
        neighbours is exactly the smallest |x_i - x_j| over all pairs.
        """
        if len(self.points) < 2:
            return math.inf
        return float(np.min(np.diff(np.sort(self.points))))


def _log_dist(ys, x):
    """log of the distance from x to each y in ys (-inf where they meet)."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(ys - x))


def _golden_refine(f, a, b):
    """Golden-section maximizer of f on [a, b]; f maps an array of probes
    to their values.

    The bracket spans at most two cells of a grid in [-1, 1], so at most
    2 wide, and each step shrinks it by the golden factor 0.618: the loop
    ends after at most log(2 / REFINE_TOL) / log(1 / 0.618), about 21,
    steps.
    """
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(np.array([x1, x2]))
    while b - a > REFINE_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(np.array([x2]))[0]
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(np.array([x1]))[0]
    return 0.5 * (a + b)


def _step(pts, nodes, logsum, vg, target):
    """The greedy point that follows pts, the points chosen so far.

    logsum: sum_j log|node - pts_j| per grid node, which generate keeps
    up to date; vg: the target potential on the nodes (None unweighted).
    """
    n = len(pts)
    obj = logsum if vg is None else n * vg + logsum
    if not np.any(np.isfinite(obj)):
        raise DegenerateGrid("all candidate nodes collide with chosen points")
    i = int(np.argmax(obj))
    lo = nodes[max(i - 1, 0)]
    hi = nodes[min(i + 1, len(nodes) - 1)]

    def f(xs):
        #  each row sum is the pairwise sum a 1-D np.sum of that row gives
        s = np.log(np.abs(pts - xs[:, None])).sum(axis=1)
        return s if target is None else n * target.grid_potential(xs) + s

    with np.errstate(divide="ignore", invalid="ignore"):
        xg = _golden_refine(f, lo, hi)
        #  the refined point must also beat the bracket ends and the grid node
        cands = sorted({xg, lo, hi, float(nodes[i])})
        vals = f(np.array(cands)).tolist()
    best = max(vals)
    return float(next(c for c, v in zip(cands, vals) if v == best))


def generate(n, target=None, grid=None):
    """The first n points, maximizing n*V(x) + sum log|x - x_j| at each
    step (V = 0 without a target) over grid, an ascending node array in
    [-1, 1] (chebyshev_grid() by default).

    x1 is 1 unweighted, and the grid node maximizing the potential
    (leftmost on ties) when a target weight is given.
    """
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


def verify_weighted_asymptotics(seq, target, z_samples):
    """Residuals (1/n) sum log|z - x_j| + V(z) for samples off the segment.

    Without a target (None), V is log 2 - log|phi(z)|, the Robin constant
    of [-1,1] minus its Green function.  Callers assert the decay.
    """
    pts = np.asarray(seq.points, dtype=complex)
    n = len(pts)
    out = []
    for z in z_samples:
        s = float(np.sum(np.log(np.abs(complex(z) - pts)))) / n
        if target is None:
            v = math.log(2) - math.log(abs(phi_np(np.asarray([z]))[0]))
        else:
            v = float(target.potential(z))
        out.append(s + v)
    return out
