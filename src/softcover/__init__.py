"""Exact error exponents and finite-blocklength checks for detecting a
random-codebook channel output against the i.i.d. output distribution."""

__version__ = "0.1.0"

from .measures import (
    AlphabetMismatchError,
    Channel,
    Distribution,
    JointType,
    channel_surprisal,
    conditional_kl,
    entropy,
    kl_divergence,
    llr_level,
    mutual_information,
    output_marginal,
)
from .exponents import (
    ExponentResult,
    SolverConfig,
    default_config,
    fa_exponent,
    interference_level,
    md_exponent,
    r0_exponents,
)
from .phase import (
    FlatPoint,
    PhaseGrid,
    PhaseReport,
    RegionTag,
    TradeoffCurve,
    classify,
    fa_cusp_rate,
    lambda_extrema,
    phase_grid,
    phase_report,
    tau_flat,
    tau_kink,
    tradeoff_curve,
)
from .simulate import (
    BudgetError,
    Codebook,
    CompositionError,
    SimEstimate,
    estimate_error_probs,
    exact_r0_error_probs,
    exact_r0_log_error_probs,
    llr,
    llr_from_types,
    mixture_prob,
    quantized_composition,
    s_threshold,
    sample_codebook,
    tce,
)

__all__ = [name for name in dir() if not name.startswith("_")]
