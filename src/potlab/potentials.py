"""Logarithmic potentials, the exterior map phi, and the target measures.

The map phi(z) = z + (z^2-1)^(1/2) sends the outside of [-1,1] onto the
outside of the unit disk; the branch is fixed so that |phi| >= 1
everywhere, which matches (z^2-1)^(1/2)/z -> 1 at infinity.  On the open
segment |phi| = 1 and the boundary values from the two half planes are
conjugate; which of them comes back is left to rounding (a computed
|w| < 1 triggers the flip to 1/w), so callers there read only |phi| or
conjugation-symmetric forms such as phi^n + phi^(-n).

Each target measure gives its potential V in float64 closed form twice:
a scalar formula valid at every real or complex z, returning a Python
float, and a form on a float or an array of real points in [-1,1] for
the Leja objective.  Every reader of V takes a float64.
"""

import cmath
import math

import numpy as np

from .measures import TargetMeasure

_ABOVE_M1 = float(np.nextafter(-1.0, 0.0))
_LOG2 = float(np.log(2.0))
#  past 2^1000 in either part w = 1/z has |w|^2 < 2^-2000, and each
#  target's V is -log|z| to far below an ulp; nearer float64's maximum
#  abs(z) overflows and CPython's 1/z goes subnormal, then 0
_HUGE = 2.0 ** 1000


def _huge_potential(z):
    """V = -log|z| of every target at a z with a part past _HUGE."""
    try:
        return -math.log(abs(z))
    except OverflowError:
        #  |z| past float64's maximum, where z / 2 is exact
        return -(math.log(abs(z / 2)) + _LOG2)


def phi_np(z):
    """Vectorized float64 phi with the same branch choice.

    Returns a new complex array of z's shape (0-d for a scalar) and never
    writes z.  Only the entries with a computed |w| < 1, which rounding
    leaves on the cut, are replaced by 1/w: np.divide of 1.0 by w, which
    is never 0 as |w| >= 1 up to rounding.
    """
    z = np.asarray(z, dtype=complex)
    #  a 0-d z gives a numpy scalar here, which the divide cannot write
    w = np.asarray(z + np.sqrt(z - 1) * np.sqrt(z + 1))
    flip = np.abs(w) < 1
    if flip.any():
        np.divide(1.0, w, out=w, where=flip)
    return w


def equilibrium_potential_segment(z):
    """Equilibrium potential of [-1,1]: log 2 - log|phi(z)| (log 2 on the cut).

    Past |z| = 4 it takes the form in w = 1/z, phi(z) = z (1 + sqrt(1 -
    w^2)) with the principal root, since z + sqrt(z-1) sqrt(z+1)
    overflows from |z| of about 9e307, and past _HUGE it is -log|z|.
    """
    z = complex(z)
    if max(abs(z.real), abs(z.imag)) > _HUGE:
        return _huge_potential(z)
    if abs(z) <= 4:
        return _LOG2 - math.log(abs(complex(phi_np(z))))
    #  log 2 + log|w| - log|1 + sqrt(1 - w^2)|, with the log 2 divided
    #  out first so that one rounding, not two, lands at the size of V
    w = 1 / z
    return math.log(abs(w)) - math.log(abs((1 + cmath.sqrt(1 - w * w)) / 2))


def _re_wlogw(w):
    """Re(w log w) of a complex w, with 0 log 0 = 0.

    Re(w log w) = Re(w) log|w| - Im(w) arg(w), so for real w the branch
    of the log drops out.
    """
    return (w * cmath.log(w)).real if w else 0.0


def _uniform_potential_grid(x):
    #  log1p's argument is clamped to the float after -1 (builtin max for
    #  a float; math.log1p would round some points apart): no value inside
    #  (-1, 1) moves, and at x = +-1 the clamped term is 0 * finite = -0.0
    clamp = max if type(x) is float else np.maximum
    return 1 - 0.5 * ((1 + x) * np.log1p(clamp(x, _ABOVE_M1))
                      + (1 - x) * np.log1p(clamp(-x, _ABOVE_M1)))


#  the targets ignore ctx: perfbench's test_target_potential_spans passes one
def target_arcsine(ctx=None):
    """Arcsine (equilibrium) distribution dx / (pi sqrt(1-x^2))."""

    def cdf(x):
        return 0.5 + np.arcsin(np.clip(np.asarray(x, dtype=float), -1, 1)) / np.pi

    def grid_potential(x):
        return _LOG2 if type(x) is float else np.full_like(x, _LOG2)

    return TargetMeasure(potential=equilibrium_potential_segment, cdf=cdf,
                         grid_potential=grid_potential)


def target_uniform(ctx=None):
    """Uniform distribution dx/2 on [-1,1]."""

    def potential(z):
        #  -(1/2) int_{-1}^{1} log|z - t| dt in closed form (SaTo97); past
        #  |z| = 4 the two w log w terms cancel, so take the form in w = 1/z
        #  (z^2 would overflow), in which z atanh(w) = 1 + w^2/3 + ...
        z = complex(z)
        if max(abs(z.real), abs(z.imag)) > _HUGE:
            return _huge_potential(z)
        if abs(z) <= 4:
            return 1 - (_re_wlogw(z + 1) - _re_wlogw(z - 1)) / 2
        w = 1 / z
        return (1 - (z * cmath.atanh(w)).real - math.log(abs(1 - w * w)) / 2
                - math.log(abs(z)))

    def cdf(x):
        return (np.clip(np.asarray(x, dtype=float), -1, 1) + 1) / 2

    return TargetMeasure(potential=potential, cdf=cdf,
                         grid_potential=_uniform_potential_grid)


def target_blend(alpha, ctx=None):
    """Convex combination alpha*arcsine + (1-alpha)*uniform."""
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be in [0,1], got {alpha}")
    arc, uni = target_arcsine(), target_uniform()

    def potential(z):
        return alpha * arc.potential(z) + (1 - alpha) * uni.potential(z)

    def cdf(x):
        return alpha * arc.cdf(x) + (1 - alpha) * uni.cdf(x)

    def grid_potential(x):
        return (alpha * arc.grid_potential(x)
                + (1 - alpha) * uni.grid_potential(x))

    return TargetMeasure(potential=potential, cdf=cdf,
                         grid_potential=grid_potential)
