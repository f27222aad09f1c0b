"""Measures on the segment [-1,1]: prescribed targets and discrete atoms.

Two kinds of objects live here.  A TargetMeasure is a probability measure
given analytically through its logarithmic potential and its CDF; it is
what zero distributions are compared against.  A DiscreteMeasure is a
finite list of weighted atoms in a precision context; orthogonal
polynomials are built with respect to these.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .precision import PrecisionContext


@dataclass(frozen=True)
class TargetMeasure:
    """Probability measure on [-1,1] with continuous logarithmic potential.

    potential(z) returns the value of the potential at any real or complex
    point as a Python float; cdf(x) is vectorized over numpy arrays and maps
    [-1,1] into [0,1]; grid_potential(x) is the same potential in float64
    on a float or an array of real points in [-1,1].
    """

    potential: Callable
    cdf: Callable
    grid_potential: Callable


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atomic measure sum(w_k * delta_{x_k}) with big-float atoms.

    Locations and weights are mpf values created under `ctx`; weights are
    strictly positive and locations lie in [-1,1].
    """

    atoms: tuple
    ctx: PrecisionContext = field(default_factory=PrecisionContext)

    def __post_init__(self):
        from mpmath import mpf
        with self.ctx.workprec():
            atoms = tuple((mpf(x), mpf(w)) for x, w in self.atoms)
        for x, w in atoms:
            if not w > 0:
                raise ValueError(f"nonpositive weight {w} at {x}")
            if not -1 <= x <= 1:
                raise ValueError(f"atom {x} outside [-1,1]")
        object.__setattr__(self, "atoms", atoms)

    @property
    def locations(self):
        return [x for x, _ in self.atoms]

    @property
    def weights(self):
        return [w for _, w in self.atoms]

    def __len__(self):
        return len(self.atoms)


def separation(points):
    """Minimal pairwise distance among the float points (inf below two).

    Rounding is monotone, so the smallest gap between sorted neighbours
    is exactly the smallest |x_i - x_j| over all pairs.
    """
    if len(points) < 2:
        return math.inf
    return float(np.min(np.diff(np.sort(points))))


def ks_distance(points, cdf):
    """Kolmogorov-Smirnov distance between equal masses at points and a CDF.

    Evaluates sup |F_n - cdf| at the points, taking both one-sided
    limits of the empirical CDF.  For a continuous nondecreasing cdf that
    is the supremum: between consecutive atoms F_n is constant, so the
    gap is largest at one end of the interval.
    """
    xs = np.asarray([float(x) for x in points], dtype=float)
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    cum = np.arange(1, len(xs) + 1) / len(xs)
    cx = np.asarray(cdf(xs), dtype=float)
    #  left limits of both CDFs: sup over t < x_i is attained as t -> x_i
    cx_left = np.asarray(cdf(np.nextafter(xs, -np.inf)), dtype=float)
    left = np.concatenate(([0.0], cum[:-1]))
    return float(max(np.max(np.abs(cum - cx)),
                     np.max(np.abs(left - cx_left))))
