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
    SizeLimitError,
    WindowError,
)
from .fbm import (
    HurstParameter,
    TimeGrid,
    fgn_autocovariance,
    sample_fbm_array,
    sample_fbm_cholesky,
)
from .lattice import (
    Boundary,
    LatticeParams,
    LatticeVector,
    NonlinearitySpec,
    apply_diff,
    apply_diff_adjoint,
    apply_laplacian,
    laplacian_modes,
    probe_dissipativity,
    probe_growth,
)
from .noise import (
    NoiseField,
    OUProcess,
    VectorSeries,
    build_noise_field,
    coarsen_noise,
    derive_seed,
    noise_growth_constant,
    ou_solution,
    shift_noise,
    stationary_ou,
    stieltjes_exp_integral,
)
from .solver import (
    CocycleReport,
    Scheme,
    SolverConfig,
    cocycle_check,
    cocycle_map,
    gronwall_envelope,
    integrate,
    linear_oracle,
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
