"""Spectral laboratory for odd solutions of Burgers-type equations on the torus."""

from .spectral import (
    NonOddInputError,
    SineSpectrum,
    UnderResolvedError,
    analyze,
    load_spectrum,
    sobolev_norm,
    synthesize,
)
from .dynamics import (
    DiagnosticsConfig,
    ModelParams,
    SimulationRecord,
    evolve,
    evolve_batch,
)
from .characteristics import (
    HorizonError,
    InitialField,
    sample_solution,
    tmax_inviscid,
)
from .attractors import (
    AttractorFn,
    DivergentSeriesError,
    F_L2_NORM_SQ,
    PROFILES,
    attractor_decay_series,
    attractor_distance,
    c_alpha,
    lyapunov,
    optimal_r,
)
from .blowup import (
    BlowupCertificate,
    HypothesisError,
    KAPPA_F,
    OutsideValidityError,
    UnsupportedRegimeError,
    certify_blowup_F,
    certify_blowup_H,
    comparison_lower_bound,
    corollary_condition,
    detect_numerical_blowup,
    monitor_lyapunov_bound,
    simplified_lower_bound,
    verify_comparison_lemma,
)

__version__ = "0.1.0"
