"""potlab: weighted Leja points on [-1,1], orthogonal polynomials of
discrete measures, and logarithmic capacity estimation for the
roots-of-unity and Chebyshev-zero demonstrations.

Only the big-float layer, `potlab.orthopoly`, needs mpmath.  It is
registered in sys.modules unexecuted and runs, importing mpmath, on its
first attribute access, so the float runners never load mpmath.  Its
public names resolve here through the module `__getattr__`.
"""

import importlib.util as _importlib_util
import sys as _sys

from .precision import PrecisionContext, PrecisionTooLow
from .measures import DiscreteMeasure, TargetMeasure, ks_distance, separation
from .potentials import (equilibrium_potential_segment, target_arcsine,
                         target_blend, target_uniform)
from .leja import (DegenerateGrid, chebyshev_grid, generate,
                   verify_weighted_asymptotics)
from .capacity import (DegenerateRegion, RegionDescriptor, TracingFailure,
                       greedy_fekete_capacity, lune_capacity_bounds,
                       preimage_capacity_check)

_ORTHOPOLY_NAMES = ("BreakdownError", "PairingFailure", "RecurrenceCoeffs",
                    "SigmaBuildConfig", "ZeroSet", "build_sigma",
                    "epsilon_stress_test", "orthopoly_zeros",
                    "precision_floor", "stieltjes_recurrence",
                    "zero_stability_check")


def _register_lazily(name):
    """The module `name`, in sys.modules, executed on first attribute use."""
    spec = _importlib_util.find_spec(name)
    spec.loader = _importlib_util.LazyLoader(spec.loader)
    module = _importlib_util.module_from_spec(spec)
    _sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


#  before experiments, whose `from . import orthopoly` then binds it as is
orthopoly = _register_lazily(f"{__name__}.orthopoly")

from .experiments import ConfigError, ExperimentConfig, run  # noqa: E402

__version__ = "0.1.0"

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + list(_ORTHOPOLY_NAMES))


def __getattr__(name):
    if name in _ORTHOPOLY_NAMES:
        return getattr(orthopoly, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_ORTHOPOLY_NAMES))
