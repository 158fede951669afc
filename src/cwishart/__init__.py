"""Compound Wishart matrices: simulation, deviation bounds, and verification.

The package simulates W = (1/n) X B X^T for Gaussian X and arbitrary square
B, evaluates the closed-form bound on E||W - E(W)||, certifies spectral norms
through regular-vector maxima, and verifies every probabilistic ingredient of
the bound by seeded Monte Carlo.
"""
from .bounds import (
    BoundInputs,
    BoundReport,
    KappaConvention,
    deviation_bound,
    invert_bound_for_n,
    log_factor,
    sequence_bound,
)
from .errors import (
    DimensionError,
    EnumerationCapError,
    InvalidMatrixError,
    NotAchievableError,
    NotPositiveDefiniteError,
    ShapeParityError,
    TraceNormalizationError,
    WishartError,
    ZeroSpectralNormError,
)
from .linalg import (
    SpdMatrix,
    frobenius_norm,
    generator,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    mix_seed,
    sample_standard_gaussian_matrix,
    save_matrix,
    spd_sqrt,
    spectral_norm,
)
from .model import (
    ShapeSpec,
    WishartModel,
    WishartSequenceSpec,
    build_shape,
    expected_wishart,
    identity_family,
    load_model,
    model_from_dict,
    model_to_dict,
    normalized_diagonal_family,
    sample_decoupled,
    sample_wishart,
    skew_block_family,
)
from .netcert import (
    NetCertificate,
    RegularVector,
    certify_norm_bound,
    enumerate_regular,
    max_bilinear_over_regular,
    max_regular_response,
    regular_count,
)
from .verify import (
    ConcentrationCheck,
    DeviationStats,
    TrialConfig,
    check_bound_dominance,
    check_chaos_decoupling,
    check_concentration,
    check_expectation,
    check_linear_form_std,
    check_wishart_decoupling,
    count_lipschitz_violations,
    emit_report,
    empirical_sample_complexity,
    estimate_mean_deviation,
    sweep_scaling,
)

__version__ = "0.1.0"
