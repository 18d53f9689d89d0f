"""Support recovery for jointly sparse signals: optimal decoders, Chernoff and
Fano error bounds, and a reproducible Monte Carlo harness."""

from .model import (
    CapExceeded,
    FieldTag,
    MeasurementMatrix,
    NumericFailure,
    Support,
    check_non_degenerate,
    draw_matrices,
    enumerate_supports,
    field_gaussian,
    load_matrix_csv,
    make_support,
    sample_gaussian_matrix,
    save_matrix_csv,
    substream,
    support_rows,
    ula_angle_grid,
    ula_manifold_matrix,
    unrank_supports,
)
from .spectra import (
    IncoherenceSummary,
    PairIncoherence,
    SpectrumSplit,
    covariance,
    h_eigenvalues,
    h_spectra,
    matrix_incoherence,
    noise_constants,
    pair_incoherence,
    pair_incoherences,
    qr_lower_bound_eigs,
    spectrum_split,
    upper_bound_eigs,
)
from .decode import (
    DecodeResult,
    LrtResult,
    SupportDecoder,
    binary_lrt,
    log_likelihood,
    ml_decode,
)
from .bounds import (
    BoundReport,
    SufficiencyReport,
    ThresholdReport,
    binary_chernoff,
    chernoff_mu,
    doa_requirements,
    ensemble_fano_lower,
    expected_incoherence_bounds,
    fano_beta_exact,
    fano_beta_frobenius,
    fano_lower,
    gaussian_necessary,
    gaussian_sufficiency_report,
    hypergeometric_mean_check,
    kl_divergence,
    log_binomial,
    multiple_bound_geometric,
    multiple_bound_union,
    snet_requirements,
)
from .montecarlo import (
    ErrorEstimate,
    IncoherenceMoment,
    clopper_pearson,
    estimate_binary_perr,
    estimate_ensemble_perr,
    estimate_expected_incoherence,
    estimate_incoherence_tail,
    estimate_multiple_perr,
)

__version__ = "0.1.0"
