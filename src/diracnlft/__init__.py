"""Nonlinear Fourier analysis of real Dirac systems on the half-line.

Exact piecewise-constant transfer matrices with tracked determinants, the
Hermite-Biehler pair (E, Etilde) and its inner function theta, scattering
coefficients a/b/r with an energy (Parseval) check, resonance location and
tracking in the upper half-plane, reproducing-kernel universality probes,
and long-horizon convergence experiments.
"""

from .errors import (
    AliasingError,
    BoundaryNearZeroError,
    DerivativeDegenerateError,
    DiracNLFTError,
    DomainTooSmallError,
    FitError,
    InstabilityError,
    InvariantViolation,
    NumericalError,
    OverflowRangeError,
    PoleProximityError,
    PreconditionError,
    QuadratureError,
    RangeError,
    UsageError,
    ValidationError,
)
from .potential import (
    PotentialSpec,
    SampledPotential,
    cell_cover,
    integral,
    l2_norm_sq,
    load_potential,
    restrict,
    sample,
    save_potential,
)
from .propagator import (
    HermiteBiehlerPair,
    Transfer,
    hermite_biehler,
    symmetric_grid,
    theta,
    theta_derivs,
    transfer,
    transfer_batch,
    transfer_derivative,
    transfer_derivative_batch,
)
from .riccati import riccati_evolve_moebius, riccati_evolve_rk
from .nlft import (
    ParsevalReport,
    ScatteringData,
    hilbert_consistency,
    hilbert_transform,
    interval_scattering_grid,
    nlft_forward,
    parseval_check,
)
from .resonance import (
    Box,
    EigenTrack,
    MotionSegment,
    ResonanceTrack,
    classify_track,
    find_zeros,
    track_eigenvalue,
    track_resonance,
    track_rows,
)
from .debranges import (
    KernelProbe,
    SineFit,
    estimate_w,
    gamma_factor,
    hb_exp_fit,
    hb_sine_fit,
    kernel_K,
    kernel_probe,
    kernel_sinc,
)
from .experiments import (
    ConvergenceTable,
    LimitReport,
    box_sample_points,
    limit_identities,
    run_convergence,
)

__version__ = "0.1.0"
