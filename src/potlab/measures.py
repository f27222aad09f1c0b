"""Measures on the segment [-1,1]: prescribed targets and discrete atoms.

Two kinds of objects live here.  A TargetMeasure is a probability measure
given analytically through its logarithmic potential and its CDF; it is
what zero distributions are compared against.  A DiscreteMeasure is a
finite list of weighted atoms in a precision context; orthogonal
polynomials are built with respect to these.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from mpmath import mp

from .precision import PrecisionContext

SEGMENT = (-1.0, 1.0)


@dataclass(frozen=True)
class TargetMeasure:
    """Probability measure on [-1,1] with continuous logarithmic potential.

    potential(z) returns the value of the potential at a real or complex
    point (a real number); cdf(x) is vectorized over numpy arrays and maps
    [-1,1] into [0,1].  grid_potential(x), when given, is a vectorized
    float64 potential on real points of the support; without it grid
    callers evaluate potential point by point.
    """

    name: str
    potential: Callable
    cdf: Callable
    grid_potential: Optional[Callable] = None


class AtomCollision(ValueError):
    """Potential evaluated exactly at an atom location."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atomic measure sum(w_k * delta_{x_k}) with big-float atoms.

    Locations and weights are mpf values created under `ctx`; weights are
    strictly positive and locations lie in the declared support.  The
    total mass is the exact stored sum of the weights.
    """

    atoms: tuple
    ctx: PrecisionContext = field(default_factory=PrecisionContext)
    support: Optional[Tuple[float, float]] = SEGMENT

    def __post_init__(self):
        #  support=None admits planar (complex) atoms without a range check
        planar = self.support is None
        loc = self.ctx.mpc if planar else self.ctx.mpf
        atoms = tuple((loc(x), self.ctx.mpf(w)) for x, w in self.atoms)
        lo, hi = self.support or (None, None)
        for x, w in atoms:
            if not w > 0:
                raise ValueError(f"nonpositive weight {w} at {x}")
            if not planar and not lo <= x <= hi:
                raise ValueError(f"atom {x} outside support [{lo},{hi}]")
        object.__setattr__(self, "atoms", atoms)

    @property
    def locations(self):
        return [x for x, _ in self.atoms]

    @property
    def weights(self):
        return [w for _, w in self.atoms]

    @property
    def total_mass(self):
        with self.ctx.workprec():
            return mp.fsum(self.weights)

    def __len__(self):
        return len(self.atoms)


def ks_distance(points, cdf, weights=None):
    """Kolmogorov-Smirnov distance between an atomic measure and a CDF.

    Evaluates sup |F_n - cdf| over atom locations (both one-sided limits
    of the empirical CDF) and over midpoints of consecutive atoms.
    """
    xs = np.asarray([float(x) for x in points], dtype=float)
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    if weights is None:
        cum = np.arange(1, len(xs) + 1) / len(xs)
    else:
        ws = np.asarray([float(w) for w in weights], dtype=float)[order]
        cum = np.cumsum(ws) / ws.sum()
    cx = np.asarray(cdf(xs), dtype=float)
    #  left limits of both CDFs: sup over t < x_i is attained as t -> x_i
    cx_left = np.asarray(cdf(np.nextafter(xs, -np.inf)), dtype=float)
    left = np.concatenate(([0.0], cum[:-1]))
    d = max(np.max(np.abs(cum - cx)), np.max(np.abs(left - cx_left)))
    if len(xs) > 1:
        mids = 0.5 * (xs[1:] + xs[:-1])
        cm = np.asarray(cdf(mids), dtype=float)
        d = max(d, np.max(np.abs(cum[:-1] - cm)))
    return float(d)
