"""Support recovery for jointly sparse signals: optimal decoders, Chernoff and
Fano error bounds, and a reproducible Monte Carlo harness.

The public names below resolve on first use (PEP 562), so `import suprec`
loads no numpy; `suprec.cli` relies on that to choose the BLAS thread count
before numpy loads.
"""

from importlib import import_module

# submodule -> the public names it exports at the package level
_EXPORTS = {
    "model": (
        "CapExceeded", "FieldTag", "MeasurementMatrix", "NumericFailure", "Support",
        "check_non_degenerate", "draw_matrices", "enumerate_supports", "field_gaussian",
        "load_matrix_csv", "make_support", "sample_gaussian_matrix", "save_matrix_csv",
        "substream", "support_rows", "ula_angle_grid", "ula_manifold_matrix",
        "unrank_supports",
    ),
    "spectra": (
        "IncoherenceSummary", "PairIncoherence", "SpectrumSplit", "covariance",
        "h_eigenvalues", "h_spectra", "matrix_incoherence", "noise_constants",
        "pair_incoherence", "pair_incoherences", "qr_lower_bound_eigs", "spectrum_split",
        "upper_bound_eigs",
    ),
    "decode": (
        "DecodeResult", "LrtResult", "SupportDecoder", "binary_lrt", "log_likelihood",
        "ml_decode",
    ),
    "bounds": (
        "BoundReport", "SufficiencyReport", "ThresholdReport", "binary_chernoff",
        "chernoff_mu", "doa_requirements", "ensemble_fano_lower",
        "expected_incoherence_bounds", "fano_beta_exact", "fano_beta_frobenius",
        "fano_lower", "gaussian_necessary", "gaussian_sufficiency_report",
        "hypergeometric_mean_check", "kl_divergence", "log_binomial",
        "multiple_bound_geometric", "multiple_bound_union", "snet_requirements",
    ),
    "montecarlo": (
        "ErrorEstimate", "IncoherenceMoment", "clopper_pearson", "estimate_binary_perr",
        "estimate_ensemble_perr", "estimate_expected_incoherence",
        "estimate_incoherence_tail", "estimate_multiple_perr",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
