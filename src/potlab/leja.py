"""Greedy extremal (Leja) sequences on the segment [-1,1].

Each new point maximizes the log-product of distances to the points
already chosen, optionally tilted by n times an external potential.  The
maximization is over a fixed candidate grid followed by a golden-section
refinement inside the bracketing grid interval, so runs are deterministic
for a fixed grid and tie-break rule (smallest coordinate wins).

Points are kept in float64, which downstream big-float consumers embed
exactly.  They are pseudo-Leja points (grid plus golden-section
refinement): at 1000 points the greedy maximum can sit elsewhere, off
the grid interval the refinement searches.
"""

import math

import numpy as np

#  unused phi_np: perfbench's tracer test reads it as a `from x` binding
from .potentials import phi_np, target_arcsine  # noqa: F401

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


def _log_dist(ys, x, out=None):
    """log|y - x| per y in ys (-inf where they meet), into out if given;
    the caller ignores np.errstate's divide."""
    return np.log(np.abs(np.subtract(ys, x, out=out), out=out), out=out)


def _golden_pair(a, b):
    """The golden-section probes inside [a, b], the left one first."""
    return b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)


def _golden_refine(f, a, b, f1, f2):
    """Golden-section maximizer of f on [a, b], given f1 and f2, its values
    at _golden_pair(a, b), which _step takes from its opening batch; each
    in-loop probe goes to f as a float (_objective's buffer).

    The bracket spans at most two cells of a grid in [-1, 1], so at most 2
    wide, and each step shrinks it by the golden factor 0.618: at most
    log(2 / REFINE_TOL) / log(1 / 0.618), about 21, steps.
    """
    x1, x2 = _golden_pair(a, b)
    while b - a > REFINE_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def _objective(pts, target):
    """n V(x) + sum_j log|x - pts_j| (n = len(pts)) at a float x, summed in
    a reused buffer, with V = target.grid_potential (0 unweighted)."""
    n = len(pts)
    row = np.empty(n)

    def f(x):
        s = np.add.reduce(np.log(np.abs(
            np.subtract(pts, x, out=row), out=row), out=row))
        return s if target is None else n * target.grid_potential(x) + s

    return f


def _batch(pts, xs, vs):
    """_objective's values at the floats xs, to the same bits, from one
    (len(xs), n) array, with V(x) read from vs (None unweighted)."""
    s = np.log(np.abs(np.subtract.outer(xs, pts))).sum(axis=-1).tolist()
    n = len(pts)
    return s if vs is None else [n * v + t for v, t in zip(vs, s)]


def _step(pts, nodes, logsum, vg, target, out):
    """The greedy point that follows pts, the points chosen so far.

    logsum: sum_j log|node - pts_j| per grid node, updated in place with
    the new point; vg: the target potential on the nodes (None
    unweighted); out: node-sized scratch.  With no NaN on the grid, a
    -inf argmax means every node meets a chosen point.

    One _batch opens the refinement: the golden pair x1, x2 of the
    bracket [lo, hi], with V from target.grid_potential on each float,
    and the grid candidates lo, nodes[i], hi, with V read from vg
    (elementwise the same bits).  The refined point is then probed alone,
    as a float, and the best of the four wins, the leftmost on ties.
    """
    n = len(pts)
    obj = logsum if vg is None else np.add(
        np.multiply(vg, n, out=out), logsum, out=out)
    i = int(obj.argmax())
    if not math.isfinite(obj[i]):
        raise DegenerateGrid("all candidate nodes collide with chosen points")
    j = [max(i - 1, 0), i, min(i + 1, len(nodes) - 1)]
    lo, _, hi = grid = list(map(nodes.item, j))
    x1, x2 = _golden_pair(lo, hi)
    f = _objective(pts, target)
    with np.errstate(divide="ignore", invalid="ignore"):
        vs = None if vg is None else [target.grid_potential(x1),
                                      target.grid_potential(x2),
                                      *map(vg.item, j)]
        f1, f2, *vals = _batch(pts, [x1, x2, *grid], vs)
        xg = _golden_refine(f, lo, hi, f1, f2)
        val = dict(zip([*grid, xg], [*vals, f(xg)]))
        x = max(sorted(val), key=val.get)
        logsum += _log_dist(nodes, x, out)
    return x


def generate(n, target=None, grid=None):
    """The first n points as a tuple of floats, maximizing n*V(x) +
    sum log|x - x_j| at each step (V = 0 without a target) over grid, an
    ascending node array in [-1, 1] (chebyshev_grid() by default).

    x1 is 1 unweighted, else the grid node maximizing the potential
    (leftmost on ties).  A node-sized scratch array holds each step's
    weighted objective, then the logs that update logsum in place.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got n = {n}")
    nodes = chebyshev_grid() if grid is None else grid
    vg = None if target is None else target.grid_potential(nodes)
    pts = np.empty(n)
    pts[0] = 1.0 if vg is None else nodes[int(np.argmax(vg))]
    with np.errstate(divide="ignore"):
        logsum = _log_dist(nodes, pts[0])
    scratch = np.empty_like(logsum)
    for k in range(1, n):
        pts[k] = _step(pts[:k], nodes, logsum, vg, target, scratch)
    return tuple(pts.tolist())


def verify_weighted_asymptotics(seq, target, z_samples):
    """Residuals (1/n) sum log|z - x_j| + V(z) for samples off the segment.

    The x_j are Leja points or the zeros of P_n(sigma) alike: floats or
    mpf roots, which the sum takes as float64.  Without a target (None),
    V is the arcsine target's potential log 2 - log|phi(z)|, the Robin
    constant of [-1,1] minus its Green function.  Callers assert the
    decay.
    """
    target = target_arcsine() if target is None else target
    pts = np.asarray(seq, dtype=complex)
    n = len(pts)
    out = []
    for z in z_samples:
        s = float(np.sum(np.log(np.abs(complex(z) - pts)))) / n
        out.append(s + target.potential(z))
    return out
