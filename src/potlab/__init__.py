"""potlab: weighted Leja points on [-1,1], orthogonal polynomials of
discrete measures, and logarithmic capacity estimation for the
roots-of-unity and Chebyshev-zero demonstrations."""

from .precision import PrecisionContext, PrecisionTooLow
from .measures import DiscreteMeasure, TargetMeasure, ks_distance, separation
from .potentials import (equilibrium_potential_segment, target_arcsine,
                         target_blend, target_uniform)
from .leja import (DegenerateGrid, chebyshev_grid, generate,
                   verify_weighted_asymptotics)
from .orthopoly import (BreakdownError, PairingFailure, RecurrenceCoeffs,
                        SigmaBuildConfig, ZeroSet, build_sigma,
                        epsilon_stress_test, orthopoly_zeros, precision_floor,
                        stieltjes_recurrence, zero_stability_check)
from .capacity import (DegenerateRegion, RegionDescriptor, TracingFailure,
                       greedy_fekete_capacity, lune_capacity_bounds,
                       preimage_capacity_check)
from .experiments import ConfigError, ExperimentConfig, run

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
