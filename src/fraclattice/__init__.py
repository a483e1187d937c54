"""Damped coupled lattices driven by long-memory fractional noise.

The package simulates the pathwise dynamics

    du_i/dt = kappa (u_{i-1} - 2 u_i + u_{i+1}) - lam u_i + f(u_i) + g_i
              + sigma_i d(omega_i)/dt,   i in [-N, N],

with independent fractional Brownian paths omega_i (Hurst > 1/2), and
ships the experiments that verify its long-term structure numerically:
pairwise contraction, pullback shrinkage to a unique random equilibrium,
and the absorbing-ball bound around the stationary damped field.
"""

from .errors import (
    BlowUpError,
    ConfigError,
    EmbeddingError,
    FracLatticeError,
    InsufficientHorizonError,
    NonlinearityOverflowError,
    OffGridError,
    WindowError,
)
from .fbm import (
    TimeGrid,
    sample_fbm_array,
)
from .lattice import (
    Boundary,
    LatticeParams,
    LatticeVector,
    NonlinearitySpec,
    apply_diff,
    apply_diff_adjoint,
    apply_laplacian,
)
from .noise import (
    NoiseField,
    OUProcess,
    VectorSeries,
    build_noise_field,
    derive_seed,
    noise_growth_constant,
    stationary_ou,
)
from .solver import (
    Scheme,
    SolverConfig,
    cocycle_map,
    integrate,
)
from .attractor import (
    AbsorbingRadius,
    AbsorptionReport,
    ContractionReport,
    EquilibriumEstimate,
    PullbackReport,
    StationarityReport,
    absorbing_radius,
    absorption_check,
    contraction_experiment,
    forward_stationarity_check,
    pullback_experiment,
    random_equilibrium,
)

__version__ = "0.1.0"
