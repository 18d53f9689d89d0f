"""Closed-form error bounds and sample-count thresholds.

Upper bounds come from the Chernoff machinery applied to the eigenvalues of
H; lower bounds from Fano's inequality with the average pairwise KL
divergence beta. For one support pair, `binary_chernoff` takes beta from the
reduced spectrum of H it already holds (`binary_chernoffs` at several T
from one spectrum); over all C(N, K) supports,
`fano_beta_exact` takes it from the stacked low-rank covariance factors, and
`fano_betas` at several T from factors already built (`simulate` reads each
level's from its `SupportDecoder.factors`, and the same decoders go to
`montecarlo.estimate_multiple_perrs`, the owner of the Monte Carlo
(T, sigma2) grid). The sum of inverse covariances in beta is the
factors' own `CovarianceFactors.inverse_sum`: `spectra` decides how Grams and
covariances are factored and is the one reader of their layout, and this
module reads no factor. The dense `kl_divergence` of two M x M
covariances is the reference form for both. Threshold formulas are evaluated in the log domain
(`log_binomial`) so they stay finite up to N ~ 1e6. They are one computation,
Fano's inequality solved for the sample count under the total gain
||A||_F^2, and `_FANO_THRESHOLDS` maps each formula id to the count it bounds
and one of two gain forms: unit rows (`_row_gain`, gain M, on MT) and unit
columns (`_column_gain`, gain N on T, or MN on MT: the Gaussian ensemble, and
the DOA grid at kappa = 1).

Every formula that takes the noise level sigma2 or the density constant kappa
checks it by the one rule of both, `model._positive` (0 < value < inf), so a
value outside it is a `ValueError` naming the input, never a NaN, a negative
threshold or an arithmetic error.
Every T, and every entry of a sequence Ts, is checked by `model._check_counts`
(an integer >= 1) in the same way, and every other count (M, N, K, L, k_d)
is an integer by `model._integer` before the formula's own range rule.

Probability bounds are reported raw and clamped to [0, 1] together with an
applicability flag; a bound whose stated precondition fails is still
evaluated but flagged inapplicable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .model import Support, _check_counts, _integer, _positive, as_matrix, support_rows
from .spectra import covariance_factors, pair_incoherences

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class BoundReport:
    """A probability-of-error bound value with its applicability status."""

    raw_value: float
    clamped: float
    applicable: bool
    precondition_note: str = ""
    extras: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class ThresholdReport:
    """A sample-count threshold (on MT, T, or M) with its variant forms."""

    quantity: str
    value: float
    formula_id: str
    forms: dict


def _report(raw: float, applicable: bool, note: str = "", **extras) -> BoundReport:
    return BoundReport(raw_value=float(raw), clamped=min(1.0, max(0.0, raw)),
                       applicable=applicable, precondition_note=note, extras=extras)


def _check_sizes(N: int, K: int) -> None:
    """The rule of a bound over size-K supports of N columns: integers
    (`model._integer`) with 1 <= K <= N; K = N is the single-support case."""
    K, N = _integer(K, "K"), _integer(N, "N")
    if not 1 <= K <= N:
        raise ValueError(f"need 1 <= K <= N, got K={K!r}, N={N!r}")


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) by its asymptotic series, which
    is exact to double precision for n > 30."""
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / nn) / nn) / nn) / nn) / n


def log_binomial(N: int, K: int) -> float:
    """log C(N, K) of integers to an ulp or two: the log of the exact integer when
    k = min(K, N - K) <= 30, else a Stirling difference that, unlike lgamma's, does not cancel."""
    if not 0 <= K <= N:
        raise ValueError(f"binomial out of range: C({N},{K})")
    k = min(K, N - K)
    if k <= 30:
        return math.log(math.comb(N, k))
    return (_stirlerr(N) - _stirlerr(k) - _stirlerr(N - k) + k * math.log(N / k)
            + (N - k) * math.log1p(k / (N - k)) + 0.5 * math.log(N / (2 * math.pi * k * (N - k))))


def chernoff_mu(h_eigs, s: float, T: int, kappa: float) -> float:
    """Log moment-generating function of the LRT statistic at parameter s.

    mu(s) = -kappa*T * sum_i log(s*lambda_i^(1-s) + (1-s)*lambda_i^(-s));
    mu(0) = mu(1) = 0 and mu <= 0 on [0, 1].
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    _check_counts(T=T)
    _positive(kappa, "kappa")
    lam = np.asarray(h_eigs, dtype=np.float64)
    if not np.all(lam > 0):
        raise ValueError("eigenvalues must be positive")
    log_lam = np.log(lam)
    terms = np.logaddexp(np.log(s) + (1.0 - s) * log_lam if s > 0 else -np.inf,
                         np.log1p(-s) - s * log_lam if s < 1 else -np.inf)
    return -kappa * T * float(np.sum(terms))


def binary_chernoff(A, S0: Support, S1: Support, sigma2: float, T: int) -> BoundReport:
    """Chernoff upper bound on the binary support-recovery error,

        P_err <= (1/2) [lam(S0,S1) lam(S1,S0) / 16]^(-kappa*k_d*T/2),

    together with the sharper (1/2) exp(mu(1/2)) it was derived from.

    The extras also carry the binary Fano beta = (D01 + D10)/4 of the pair.
    Since tr(Sigma_1^{-1} Sigma_0) + tr(Sigma_0^{-1} Sigma_1) - 2M sums
    lambda + 1/lambda - 2 over H's spectrum, it is
    (kappa*T/8) sum_i (lambda_i - 1)^2 / lambda_i over the eigenvalues that
    differ from 1: a sum of nonnegative terms, with no cancellation. The one-T
    view of `binary_chernoffs`.
    """
    return binary_chernoffs(A, S0, S1, sigma2, [T])[0]


def binary_chernoffs(A, S0: Support, S1: Support, sigma2: float, Ts) -> list:
    """`binary_chernoff` at each T of `Ts`, from one H spectrum of the pair:
    T scales only the exponents and beta, so the spectrum is formed once."""
    _check_counts(T=Ts)
    _, fieldtag = as_matrix(A)
    kappa = fieldtag.kappa
    rows = np.array([S0.indices, S1.indices])
    values, k_ds, top = pair_incoherences(A, rows, rows[::-1], sigma2)    # (S0, S1), (S1, S0)
    lam01, lam10 = float(values[0]), float(values[1])
    k_d = int(k_ds[0])
    log_product = np.log(lam01) + np.log(lam10) - np.log(16.0)

    # H's eigenvalues other than 1 are the (S0, S1) ones above 1 and the
    # reciprocals of the (S1, S0) ones above 1. mu(1/2) sums
    # log((sqrt(lambda) + 1/sqrt(lambda)) / 2) and beta sums
    # lambda + 1/lambda - 2: both terms are unchanged under lambda -> 1/lambda
    # and vanish at lambda = 1, so both orders' `top` serve as they are.
    eigs = top[top > 1.0]
    beta_sum = float(np.sum((eigs - 1.0) ** 2 / eigs))
    note = "" if lam01 * lam10 > 16.0 else "incoherence product <= 16: bound does not decay in T"
    reports = []
    for T in Ts:
        log_raw = -LOG2 - (kappa * k_d * T / 2.0) * log_product
        mu_half = chernoff_mu(eigs, 0.5, T, kappa)
        reports.append(_report(float(np.exp(log_raw)), applicable=True, note=note,
                               mu_half_bound=float(0.5 * np.exp(mu_half)), mu_half=mu_half,
                               fano_beta=kappa * T / 8.0 * beta_sum,
                               lambda_01=lam01, lambda_10=lam10, k_d=k_d))
    return reports


def multiple_bound_union(lambda_bar, N: int, K: int, T: int, kappa: float) -> BoundReport:
    """Union-of-pairs upper bound

        (1/2) sum_{k_d=1}^{K} C(K,k_d) C(N-K,k_d) (lam/4)^(-kappa*k_d*T),

    evaluated in the log domain. `lambda_bar` may be a single global value or
    one value per difference size k_d (sequence of length K).
    """
    _check_sizes(N, K)
    _check_counts(T=T)
    _positive(kappa, "kappa")
    lams = np.broadcast_to(np.asarray(lambda_bar, dtype=np.float64), (K,)).copy()
    if not np.all(lams > 0):
        raise ValueError(f"lambda_bar must be positive, got {lambda_bar!r}")
    terms = [log_binomial(K, k_d) + log_binomial(N - K, k_d)
             - kappa * k_d * T * (np.log(lams[k_d - 1]) - np.log(4.0))
             for k_d in range(1, min(K, N - K) + 1)]
    raw = 0.0 if not terms else float(0.5 * np.exp(np.logaddexp.reduce(terms)))
    applicable = bool(np.all(lams > 4.0))
    note = "" if applicable else "requires lambda_bar > 4 for every term to decay"
    return _report(raw, applicable=applicable, note=note)


def multiple_bound_geometric(lambda_bar: float, N: int, K: int, T: int, kappa: float) -> BoundReport:
    """Geometric-series upper bound on full support recovery,

        P_err <= (1/2) q / (1 - q),  q = K(N-K) / (lambda_bar/4)^(kappa*T),

    valid when lambda_bar exceeds 4*[K(N-K)]^(1/(kappa*T)) strictly.
    """
    if not lambda_bar > 0:
        raise ValueError(f"lambda_bar must be positive, got {lambda_bar!r}")
    _check_sizes(N, K)
    _check_counts(T=T)
    _positive(kappa, "kappa")
    KNK = K * (N - K)
    if KNK == 0:
        return _report(0.0, applicable=True, note="single candidate support: no competing hypotheses")
    threshold = 4.0 * KNK ** (1.0 / (kappa * T))
    applicable = lambda_bar > threshold
    log_q = math.log(KNK) - kappa * T * (math.log(lambda_bar) - math.log(4.0))
    if log_q >= 0:
        raw = math.inf
    else:
        q = math.exp(log_q)
        raw = 0.5 * q / (1.0 - q)
    note = "" if applicable else f"requires lambda_bar > {threshold:.6g}"
    return _report(raw, applicable=applicable, note=note, threshold=threshold)


def kl_divergence(Sigma_i: np.ndarray, Sigma_j: np.ndarray, T: int, kappa: float) -> float:
    """Divergence between the zero-mean matrix Gaussians with per-column
    covariances Sigma_i and Sigma_j:

        D = (kappa*T/2) [tr(Sigma_j^{-1} Sigma_i) - M + log|Sigma_j| - log|Sigma_i|].

    Note the 1/2 prefactor: with kappa = 1/2 this is half the conventional
    E_i[log f_i/f_j]; the Fano chain (beta, the lower bounds, the thresholds)
    uses this normalization throughout.
    """
    M = Sigma_i.shape[0]
    if Sigma_i.shape != Sigma_j.shape or Sigma_j.shape != (M, M):
        raise ValueError("covariances must be square matrices of equal size")
    _check_counts(T=T)
    _positive(kappa, "kappa")
    sign_i, logdet_i = np.linalg.slogdet(Sigma_i)
    sign_j, logdet_j = np.linalg.slogdet(Sigma_j)
    if sign_i.real <= 0 or sign_j.real <= 0:
        raise ValueError("covariances must be positive definite")
    trace = float(np.trace(np.linalg.solve(Sigma_j, Sigma_i)).real)
    return 0.5 * kappa * T * (trace - M + float(logdet_j.real) - float(logdet_i.real))


def fano_beta_exact(A, K: int, sigma2: float, T: int) -> float:
    """Average pairwise KL divergence over all ordered candidate pairs.

    The log-determinant terms cancel over the full double sum, so
    beta = kappa*T/(2 L^2) * sum_{i,j} [tr(Sigma_j^{-1} Sigma_i) - M]
         = kappa*T/(2 L^2) * [tr((sum_j Sigma_j^{-1}) (sum_i Sigma_i)) - L^2 M].
    With the low-rank factors (`covariance_factors`) of every Sigma_j,
    sum_j Sigma_j^{-1} = (L I - sum_j Q_j Q_j^H) / sigma2 + sum_j Q_j C_j^{-1} Q_j^H,
    and sum_i Sigma_i = L sigma2 I + C(N-1, K-1) A A^H, since every column
    lies in C(N-1, K-1) of the supports. The one-T call of `fano_betas`.
    """
    entries, _ = as_matrix(A)
    rows = support_rows(entries.shape[1], K)
    return fano_betas(A, covariance_factors(entries, rows, sigma2), [T])[0]


def fano_betas(A, factors, Ts) -> list:
    """`fano_beta_exact` at each T of `Ts`, from `factors`, the
    `covariance_factors` of all C(N, K) size-K supports (`support_rows`) at one
    sigma2: the trace in beta does not depend on T, so it is formed once, from
    their `CovarianceFactors.inverse_sum`."""
    _check_counts(T=Ts)
    entries, fieldtag = as_matrix(A)
    kappa = fieldtag.kappa
    M, N = entries.shape
    L, K = factors.rows.shape
    sigma_sum = L * factors.sigma2 * np.eye(M) + math.comb(N - 1, K - 1) * (entries @ entries.conj().T)
    total = np.einsum("ab,ba->", factors.inverse_sum(), sigma_sum).real
    return [float(kappa * T / (2.0 * L * L) * (total - L * L * M)) for T in Ts]


def fano_beta_frobenius(A, N: int, K: int, sigma2: float, T: int) -> float:
    """Closed-form upper bound on beta via the total gain of the matrix:

        beta <= kappa*T*K*(N-K) / (2*sigma2*N^2) * ||A||_F^2.
    """
    entries, fieldtag = as_matrix(A)
    kappa = fieldtag.kappa
    _check_sizes(N, K)
    if entries.shape[1] != N:
        raise ValueError(f"matrix has {entries.shape[1]} columns, expected N={N}")
    _check_counts(T=T)
    _positive(sigma2, "sigma2")
    return _gain_beta(kappa, T, K, N, sigma2, float(np.sum(np.abs(entries) ** 2)))


def _gain_beta(kappa: float, T: int, K: int, N: int, sigma2: float, gain) -> float:
    """The Fano beta bound of a matrix of total gain ||A||_F^2 = `gain`,
    kappa*T*K*(N-K) / (2*sigma2*N^2) * gain."""
    return kappa * T * K * (N - K) / (2.0 * sigma2 * N * N) * gain


def fano_lower(beta: float, L: int) -> BoundReport:
    """Fano lower bound P_err >= 1 - (beta + log 2)/log L for any decoder."""
    if _integer(L, "L") < 2:
        raise ValueError("Fano bound needs at least two hypotheses")
    if not beta >= 0:
        raise ValueError(f"beta must be nonnegative, got {beta!r}")
    raw = 1.0 - (beta + LOG2) / math.log(L)
    return _report(raw, applicable=True)


def ensemble_fano_lower(M: int, N: int, K: int, sigma2: float, T: int, kappa: float) -> BoundReport:
    """Fano bound on the Gaussian-ensemble average error, substituting the
    expected total gain E||A||_F^2 = M*N."""
    _check_counts(M=M, N=N, K=K, T=T)
    _positive(sigma2, "sigma2")
    _positive(kappa, "kappa")
    beta = _gain_beta(kappa, T, K, N, sigma2, M * N)
    report = fano_lower(beta, math.comb(N, K))
    return BoundReport(report.raw_value, report.clamped, report.applicable,
                       report.precondition_note, extras={"beta": beta})


def _row_gain(f: float, N: int, K: int, sigma2: float, kappa: float) -> tuple:
    """(denominator, relaxed form) of a threshold under total gain
    ||A||_F^2 = M, unit-norm rows: the threshold is on MT."""
    return kappa * (K / N) * (1.0 - K / N), f * 8.0 * sigma2 / kappa * K * math.log(N / K)


def _column_gain(f: float, N: int, K: int, sigma2: float, kappa: float) -> tuple:
    """(denominator, relaxed form) of a threshold under total gain
    ||A||_F^2 = N, unit-norm columns: the threshold is on T, and on MT when
    every column has squared norm M (gain MN)."""
    return kappa * K * (1.0 - K / N), f * 2.0 * sigma2 / kappa * math.log(N / K)


# formula id -> (the sample count it bounds, its gain form). The unit-variance
# Gaussian ensemble (E||A||_F^2 = MN) and the DOA manifold of an isotropic
# array (complex, so kappa = 1; every column of squared norm M) take the
# column form on MT.
_FANO_THRESHOLDS = {
    "snet-unit_rows": ("MT", _row_gain),
    "snet-unit_columns": ("T", _column_gain),
    "gaussian-necessary-mean": ("MT", _column_gain),
    "gaussian-necessary-prob": ("MT", _column_gain),
    "doa": ("MT", _column_gain),
}


def _fano_threshold(formula_id: str, epsilon: float, delta: float | None, N: int, K: int,
                    sigma2: float, kappa: float) -> ThresholdReport:
    """Fano's inequality solved for the sample count of `formula_id`'s row of
    `_FANO_THRESHOLDS` that P_err < epsilon needs:

        exact_binomial = factor * 2 sigma2 log C(N, K) / denominator,
        log2_corrected = 2 sigma2 (factor log C(N, K) - log 2) / denominator,

    with factor = 1 - epsilon, or 1 - epsilon - delta when `delta` is given
    (the probability form), next to the row's relaxed form; the gain form is
    evaluated only once every input passes its check.
    """
    _positive(kappa, "kappa")
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    if delta is not None and (delta <= 0 or epsilon + delta >= 1):
        raise ValueError("need delta > 0 and epsilon + delta < 1")
    N, K = _integer(N, "N"), _integer(K, "K")
    if not 1 <= K < N:
        raise ValueError("need 1 <= K < N")
    _positive(sigma2, "sigma2")
    quantity, gain = _FANO_THRESHOLDS[formula_id]
    factor = 1.0 - epsilon if delta is None else 1.0 - epsilon - delta
    log_binom = log_binomial(N, K)
    denom, relaxed = gain(factor, N, K, sigma2, kappa)
    forms = {"exact_binomial": factor * 2.0 * sigma2 * log_binom / denom, "relaxed": relaxed,
             "log2_corrected": 2.0 * sigma2 * (factor * log_binom - LOG2) / denom}
    return ThresholdReport(quantity=quantity, value=forms["exact_binomial"],
                           formula_id=formula_id, forms=forms)


def snet_requirements(epsilon: float, N: int, K: int, sigma2: float, kappa: float,
                      normalization: str) -> ThresholdReport:
    """Minimal sample counts for P_err < epsilon under row- or column-normalized
    measurement matrices (total gain M and N respectively)."""
    formula_id = f"snet-{normalization}"
    if formula_id not in _FANO_THRESHOLDS:
        raise ValueError(f"unknown normalization {normalization!r}")
    return _fano_threshold(formula_id, epsilon, None, N, K, sigma2, kappa)


def doa_requirements(epsilon: float, N: int, K: int, sigma2: float) -> ThresholdReport:
    """Minimal MT for DOA-grid support recovery with an isotropic array
    (complex field, every manifold column of squared norm M)."""
    return _fano_threshold("doa", epsilon, None, N, K, sigma2, 1.0)


def gaussian_necessary(epsilon: float, delta: float | None, N: int, K: int,
                       sigma2: float, kappa: float) -> ThresholdReport:
    """Necessary MT for the unit-variance Gaussian ensemble: mean form with
    factor (1-eps), probability form with (1-eps-delta)."""
    formula_id = "gaussian-necessary-mean" if delta is None else "gaussian-necessary-prob"
    return _fano_threshold(formula_id, epsilon, delta, N, K, sigma2, kappa)


@dataclass(frozen=True)
class SufficiencyReport:
    """Diagnostic ratios for the asymptotic sufficiency conditions.

    No pass/fail verdict is attached: the conditions are order statements, so
    only the ratios they compare are reported, along with the large-deviation
    threshold gamma and the exponent ceiling kappa*(log 3 - 1).
    """

    m_over_klognk: float | None
    t_condition_ratio: float | None
    t_loglog_ratio: float | None
    gamma: float | None
    exponent_ceiling: float
    notes: tuple


def gaussian_sufficiency_report(M: int, N: int, K: int, T: int, sigma2: float,
                                kappa: float) -> SufficiencyReport:
    _check_counts(M=M, N=N, K=K, T=T)
    _positive(sigma2, "sigma2")
    _positive(kappa, "kappa")
    notes = []
    m_ratio = None
    if N > K:
        m_ratio = M / (K * math.log(N / K))
    else:
        notes.append("N <= K: M-growth ratio undefined")
    t_ratio = None
    if K * (N - K) > 1:
        t_ratio = kappa * T * math.log(M / sigma2) / math.log(K * (N - K))
    else:
        notes.append("log[K(N-K)] <= 0: T-condition ratio undefined")
    t_loglog = None
    if N > math.e:
        t_loglog = T * math.log(math.log(N)) / math.log(N)
    else:
        notes.append("N too small for log log N")
    gamma = None
    if M > 2 * K:
        gamma = (M - 2 * K) / (3.0 * sigma2)
    else:
        notes.append("M <= 2K: gamma undefined")
    return SufficiencyReport(m_over_klognk=m_ratio, t_condition_ratio=t_ratio,
                             t_loglog_ratio=t_loglog, gamma=gamma,
                             exponent_ceiling=kappa * (math.log(3.0) - 1.0),
                             notes=tuple(notes))


def expected_incoherence_bounds(M: int, K: int, k_d: int, sigma2: float) -> tuple:
    """Closed-form interval for the Gaussian-ensemble mean pair incoherence:
    1 + (M-K-k_d)/sigma2 <= E <= 1 + M/sigma2."""
    M, K, k_d = _integer(M, "M"), _integer(K, "K"), _integer(k_d, "k_d")
    if M <= K + k_d:
        raise ValueError(f"need M > K + k_d, got M={M}, K={K}, k_d={k_d}")
    if not 1 <= k_d <= K:
        raise ValueError("need 1 <= k_d <= K")
    _positive(sigma2, "sigma2")
    return 1.0 + (M - K - k_d) / sigma2, 1.0 + M / sigma2


def hypergeometric_mean_check(N: int, K: int) -> float:
    """Sum of k_d C(K,k_d) C(N-K,k_d) / C(N,K), which equals K(N-K)/N.

    The sum is an exact integer, and the quotient of two integers is rounded
    correctly to a float.
    """
    N, K = _integer(N, "N"), _integer(K, "K")
    if not 1 <= K < N:
        raise ValueError("need 1 <= K < N")
    total = sum(k_d * math.comb(K, k_d) * math.comb(N - K, k_d) for k_d in range(1, K + 1))
    return total / math.comb(N, K)
