import math
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from suprec import (
    FieldTag,
    MeasurementMatrix,
    NumericFailure,
    SupportDecoder,
    binary_chernoff,
    binary_lrt,
    chernoff_mu,
    covariance,
    doa_requirements,
    ensemble_fano_lower,
    estimate_binary_perr,
    estimate_ensemble_perr,
    estimate_expected_incoherence,
    estimate_incoherence_tail,
    estimate_multiple_perr,
    expected_incoherence_bounds,
    fano_beta_exact,
    fano_beta_frobenius,
    fano_lower,
    gaussian_necessary,
    gaussian_sufficiency_report,
    h_eigenvalues,
    hypergeometric_mean_check,
    kl_divergence,
    log_binomial,
    log_likelihood,
    make_support,
    matrix_incoherence,
    ml_decode,
    multiple_bound_geometric,
    multiple_bound_union,
    pair_incoherence,
    sample_gaussian_matrix,
    snet_requirements,
    substream,
    support_rows,
)
from suprec.bounds import binary_chernoffs, fano_betas
from suprec.montecarlo import draw_level_blocks
from suprec.spectra import covariance_factors

from conftest import gaussian_instance, mp_pencil_eigs, random_pair

I2 = MeasurementMatrix(np.eye(2), FieldTag.REAL)
S0_I2 = make_support([0], 2)
S1_I2 = make_support([1], 2)


def mu_logdet_oracle(eigs, s, T, kappa):
    """Oracle: -kappa*T*log|s H^(1-s) + (1-s) H^(-s)| on the explicit diagonal H."""
    H = np.diag(np.asarray(eigs, dtype=float))
    mat = s * np.diag(np.diag(H) ** (1 - s)) + (1 - s) * np.diag(np.diag(H) ** (-s))
    _, logdet = np.linalg.slogdet(mat)
    return -kappa * T * logdet


class TestChernoffMu:
    def test_identity_spectrum_is_zero(self):
        for s in (0.0, 0.3, 0.5, 1.0):
            assert chernoff_mu(np.ones(4), s, 3, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_half_value(self):
        got = chernoff_mu([2.0, 0.5], 0.5, 1, 1.0)
        assert got == pytest.approx(-2 * np.log(3 / (2 * np.sqrt(2))), abs=1e-12)
        assert got == pytest.approx(-0.11778, abs=1e-5)
        assert got == pytest.approx(mu_logdet_oracle([2.0, 0.5], 0.5, 1, 1.0), abs=1e-12)

    def test_endpoints_exact_zero(self):
        eigs = [3.0, 1.2, 0.4]
        assert chernoff_mu(eigs, 0.0, 2, 0.5) == 0.0
        assert chernoff_mu(eigs, 1.0, 2, 0.5) == 0.0

    def test_nonpositive_and_convex_on_grid(self):
        A = gaussian_instance(6, 8, seed=10)
        S0, S1 = random_pair(8, 2, overlap=1)
        eigs = h_eigenvalues(A, S0, S1, 0.5)
        grid = np.linspace(0, 1, 21)
        values = [chernoff_mu(eigs, s, 2, 0.5) for s in grid]
        assert max(values) <= 1e-12
        second = np.diff(values, 2)
        assert np.min(second) >= -1e-9

    def test_matches_logdet_oracle_random(self):
        rng = substream(7, "mu-oracle")
        for _ in range(20):
            eigs = rng.uniform(0.1, 5.0, size=5)
            s = float(rng.uniform(0, 1))
            assert chernoff_mu(eigs, s, 3, 1.0) == pytest.approx(
                mu_logdet_oracle(eigs, s, 3, 1.0), abs=1e-10)

    def test_s_out_of_range(self):
        with pytest.raises(ValueError):
            chernoff_mu([1.0], 1.5, 1, 0.5)


class TestBinaryChernoff:
    def test_vacuous_below_16(self):
        report = binary_chernoff(I2, S0_I2, S1_I2, 1.0, 4)
        assert report.raw_value == pytest.approx(2.0)
        assert report.clamped == 1.0
        assert report.applicable

    def test_small_noise_closed_form(self):
        report = binary_chernoff(I2, S0_I2, S1_I2, 0.01, 4)
        assert report.raw_value == pytest.approx(0.5 * 16 / 101**2, rel=1e-9)

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_mu_half_matches_dense_spectrum(self, field):
        for seed in range(10):
            A = gaussian_instance(8, 10, field=field, seed=seed, label="mu-dense")
            S0, S1 = random_pair(10, 3, overlap=seed % 3)
            for sigma2 in (0.1, 0.5, 2.0):
                got = binary_chernoff(A, S0, S1, sigma2, 3).extras["mu_half"]
                want = chernoff_mu(h_eigenvalues(A, S0, S1, sigma2), 0.5, 3, field.kappa)
                assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_extras_match_the_assembled_spectrum(self, field):
        # binary_chernoff sums over both orders' eigenvalues above 1 without
        # inverting any: mu(1/2) and beta are unchanged under lambda -> 1/lambda
        for seed in range(6):
            A = gaussian_instance(8, 10, field=field, seed=seed, label="extras-assembled")
            S0, S1 = random_pair(10, 3, overlap=seed % 3)
            for sigma2 in (0.5, 1e-4, 1e-8):
                extras = binary_chernoff(A, S0, S1, sigma2, 3).extras
                eigs = h_eigenvalues(A, S0, S1, sigma2)
                want_beta = field.kappa * 3 / 8.0 * float(np.sum((eigs - 1.0) ** 2 / eigs))
                want_mu = chernoff_mu(eigs, 0.5, 3, field.kappa)
                assert extras["mu_half"] == pytest.approx(want_mu, rel=1e-13)
                assert extras["fano_beta"] == pytest.approx(want_beta, rel=1e-13)

    def test_mu_half_at_small_noise_matches_high_precision(self):
        # the dense pencil's eigenvalues of order sigma2 are wrong here
        A = sample_gaussian_matrix(6, 8, FieldTag.REAL, substream(1, "cli-matrix"))
        S0, S1 = make_support([0, 1], 8), make_support([2, 5], 8)
        report = binary_chernoff(A, S0, S1, 1e-8, 2)
        want = chernoff_mu([float(x) for x in mp_pencil_eigs(A, S0, S1, 1e-8)], 0.5, 2, 0.5)
        assert abs(report.extras["mu_half"] - want) <= 1e-6 * abs(want)
        assert report.extras["mu_half_bound"] <= report.raw_value

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_fano_beta_matches_dense_kl_pair(self, field):
        # beta = (D01 + D10)/4 from the two dense M x M covariances
        for seed in range(10):
            A = gaussian_instance(8, 10, field=field, seed=seed, label="beta-pair")
            S0, S1 = random_pair(10, 3, overlap=seed % 3)
            for sigma2 in (0.1, 0.5, 2.0):
                got = binary_chernoff(A, S0, S1, sigma2, 3).extras["fano_beta"]
                Sig0, Sig1 = covariance(A, S0, sigma2), covariance(A, S1, sigma2)
                want = (kl_divergence(Sig0, Sig1, 3, field.kappa)
                        + kl_divergence(Sig1, Sig0, 3, field.kappa)) / 4.0
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_fano_beta_at_small_noise_matches_high_precision(self, field):
        # (kappa T / 8) sum (lambda - 1)^2 / lambda over the 60-digit spectrum of H
        A = sample_gaussian_matrix(6, 8, field, substream(1, "cli-matrix"))
        S0, S1 = make_support([0, 1], 8), make_support([2, 5], 8)
        got = binary_chernoff(A, S0, S1, 1e-8, 2).extras["fano_beta"]
        eigs = mp_pencil_eigs(A, S0, S1, 1e-8)
        want = float(sum((x - 1) ** 2 / x for x in eigs)) * field.kappa * 2 / 8.0
        assert got == pytest.approx(want, rel=1e-12)
        assert fano_lower(got, 2).clamped == 0.0

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_several_T_equal_one_T_calls(self, field):
        # one H spectrum serves every T, bit for bit
        Ts = [1, 2, 5, 8]
        for seed in range(3):
            A = gaussian_instance(8, 10, field=field, seed=seed, label="chernoff-Ts")
            S0, S1 = random_pair(10, 3, overlap=seed)
            for sigma2 in (0.5, 1e-8):
                got = binary_chernoffs(A, S0, S1, sigma2, Ts)
                assert got == [binary_chernoff(A, S0, S1, sigma2, T) for T in Ts]

    def test_mu_half_never_exceeds_pair_product_form(self):
        for seed in range(500):
            A = gaussian_instance(6, 8, seed=seed, label="bc")
            S0, S1 = random_pair(8, 2, overlap=seed % 2)
            report = binary_chernoff(A, S0, S1, 0.7, 3)
            assert report.extras["mu_half_bound"] <= report.raw_value + 1e-9


class TestMultipleBounds:
    def test_union_direct_arithmetic(self):
        report = multiple_bound_union(10.0, 3, 1, 2, 1.0)
        assert report.raw_value == pytest.approx(0.16, abs=1e-12)

    def test_union_empty_when_no_competitors(self):
        # K = N leaves one candidate support, the edge of both bounds' K <= N
        assert multiple_bound_union(10.0, 3, 3, 2, 1.0).raw_value == 0.0
        assert multiple_bound_geometric(10.0, 3, 3, 2, 1.0).raw_value == 0.0

    def test_union_below_geometric_when_applicable(self):
        for lam in (9.0, 12.0, 40.0):
            union = multiple_bound_union(lam, 8, 2, 3, 0.5)
            geo = multiple_bound_geometric(lam, 8, 2, 3, 0.5)
            if geo.applicable:
                assert union.raw_value <= geo.raw_value + 1e-12

    def test_union_per_kd_values(self):
        flat = multiple_bound_union(10.0, 6, 2, 2, 0.5)
        per_kd = multiple_bound_union([10.0, 10.0], 6, 2, 2, 0.5)
        assert flat.raw_value == pytest.approx(per_kd.raw_value)

    @pytest.mark.parametrize("lam,N,K,T,kappa", [
        (10.0, 3, 1, 2, 1.0), (10.0, 30, 2, 4, 1.0), (20.0, 100, 3, 2, 1.0),
        ([6.0, 9.0], 24, 2, 1, 0.5), ([4.5, 6.0, 12.0, 50.0], 40, 4, 2, 0.75),
        (50.0, 10**6, 3, 2, 1.0)])
    def test_union_against_mpmath(self, lam, N, K, T, kappa):
        # Each log-domain term is within an ulp or two (`log_binomial`), and
        # exp of a term of size ~10 turns that into ~1e-15 relative: the bound
        # is held to 1e-14. An lgamma difference was off by 3.8e-10 at N = 1e6.
        mpmath = pytest.importorskip("mpmath")
        lams = np.broadcast_to(np.asarray(lam, dtype=float), (K,))
        with mpmath.workdps(40):
            want = sum(mpmath.binomial(K, kd) * mpmath.binomial(N - K, kd)
                       * (mpmath.mpf(float(lams[kd - 1])) / 4) ** (-mpmath.mpf(kappa) * kd * T)
                       for kd in range(1, K + 1)) / 2
        got = multiple_bound_union(lam, N, K, T, kappa).raw_value
        assert abs(got - want) <= 1e-14 * want

    def test_geometric_frozen_example(self):
        report = multiple_bound_geometric(10.0, 3, 1, 2, 1.0)
        assert report.clamped == pytest.approx(0.23529, abs=1e-5)
        assert report.applicable

    def test_geometric_threshold_is_strict(self):
        threshold = 4.0 * (1 * 2) ** (1 / 2)
        report = multiple_bound_geometric(threshold, 3, 1, 2, 1.0)
        assert not report.applicable

    def test_geometric_decreasing_in_T(self):
        values = [multiple_bound_geometric(70.0, 10, 2, T, 0.5) for T in (2, 3, 4)]
        assert all(r.applicable for r in values)
        assert values[0].raw_value > values[1].raw_value > values[2].raw_value

    def test_log_domain_matches_direct(self):
        lam, N, K, T, kappa = 25.0, 12, 3, 4, 0.5
        report = multiple_bound_geometric(lam, N, K, T, kappa)
        q = K * (N - K) / (lam / 4) ** (kappa * T)
        assert report.raw_value == pytest.approx(0.5 * q / (1 - q), rel=1e-9)
        union = multiple_bound_union(lam, N, K, T, kappa)
        direct = 0.5 * sum(math.comb(K, kd) * math.comb(N - K, kd) * (lam / 4) ** (-kappa * kd * T)
                           for kd in range(1, K + 1))
        assert union.raw_value == pytest.approx(direct, rel=1e-9)


class TestLogBinomial:
    def test_against_mpmath(self):
        # the exact integer up to k = min(K, N - K) = 30, a Stirling difference
        # beyond: both within 4e-16 of a 40-digit reference, where a difference
        # of lgamma values was off by 2.9e-14 at (360, 3) and 4.4e-11 at (1e6, 3)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        cases = [(360, 3), (10**6, 3), (31, 15), (61, 30), (62, 31), (10**6, 31), (10**6, 5 * 10**5)]
        for N in np.unique(np.geomspace(31, 10**6, 60).astype(int)):
            cases += [(int(N), int(K)) for K in rng.integers(1, N // 2 + 1, size=5)]
        with mpmath.workdps(40):
            for N, K in cases:
                got = log_binomial(N, K)
                want = mpmath.log(mpmath.binomial(N, K))
                assert abs(got - want) <= 4e-16 * want, (N, K)
                assert log_binomial(N, N - K) == got

    def test_edges(self):
        assert log_binomial(7, 0) == log_binomial(7, 7) == 0.0
        assert log_binomial(1, 1) == 0.0
        with pytest.raises(ValueError, match="out of range"):
            log_binomial(3, 4)


class TestKlDivergence:
    def test_identical_is_zero(self):
        Sigma = covariance(gaussian_instance(4, 6), make_support([0, 2], 6), 1.0)
        assert kl_divergence(Sigma, Sigma, 3, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_scalar_closed_form(self):
        got = kl_divergence(np.array([[2.0]]), np.array([[1.0]]), 1, 0.5)
        assert got == pytest.approx(0.25 * (1.0 + np.log(0.5)), abs=1e-12)
        assert got == pytest.approx(0.07671, abs=1e-5)

    def test_nonnegative(self):
        for seed in range(50):
            A = gaussian_instance(4, 6, seed=seed, label="kl")
            Si = covariance(A, make_support([0, 1], 6), 0.5)
            Sj = covariance(A, make_support([2, 3], 6), 0.5)
            assert kl_divergence(Si, Sj, 2, 0.5) >= -1e-9

    def test_matches_sampling_oracle(self):
        # E_i[log f_i - log f_j] estimated from 1e5 draws, M=2, T=1, real field.
        # The implemented closed form carries the source convention's extra
        # factor 1/2, so it equals half the sampled divergence.
        A = gaussian_instance(2, 4, seed=42)
        Si = covariance(A, make_support([0], 4), 1.0)
        Sj = covariance(A, make_support([2], 4), 1.0)
        kappa, n = 0.5, 100_000
        root = np.linalg.cholesky(Si)
        Z = root @ substream(9, "kl-oracle").standard_normal((2, n))
        inv_i, inv_j = np.linalg.inv(Si), np.linalg.inv(Sj)
        _, ld_i = np.linalg.slogdet(Si)
        _, ld_j = np.linalg.slogdet(Sj)
        quad_i = np.sum(Z * (inv_i @ Z), axis=0)
        quad_j = np.sum(Z * (inv_j @ Z), axis=0)
        samples = -kappa * (quad_i - quad_j) - kappa * (ld_i - ld_j)
        est, se = samples.mean(), samples.std(ddof=1) / np.sqrt(n)
        got = kl_divergence(Si, Sj, 1, kappa)
        assert abs(2 * got - est) <= 3 * se


class TestFanoBeta:
    def test_identity_exact_value(self):
        beta = fano_beta_exact(I2, 1, 1.0, 1)
        assert beta == pytest.approx(0.0625, abs=1e-12)

    def test_exact_matches_pairwise_kl_sum(self):
        A = gaussian_instance(4, 5, seed=8)
        from suprec import enumerate_supports
        supports = enumerate_supports(5, 2)
        L = len(supports)
        sigmas = [covariance(A, S, 0.8) for S in supports]
        total = sum(kl_divergence(sigmas[i], sigmas[j], 2, 0.5)
                    for i in range(L) for j in range(L))
        assert fano_beta_exact(A, 2, 0.8, 2) == pytest.approx(total / L**2, rel=1e-9)

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("sigma2", [0.8, 1e-4])
    def test_pairwise_kl_sum_across_fields_and_noise(self, field, sigma2):
        A = gaussian_instance(4, 5, field, seed=8)
        from suprec import enumerate_supports
        supports = enumerate_supports(5, 2)
        L = len(supports)
        kappa = field.kappa
        sigmas = [covariance(A, S, sigma2) for S in supports]
        total = sum(kl_divergence(sigmas[i], sigmas[j], 2, kappa)
                    for i in range(L) for j in range(L))
        assert fano_beta_exact(A, 2, sigma2, 2) == pytest.approx(total / L**2, rel=1e-9)
        inverse_sum = covariance_factors(A, support_rows(5, 2), sigma2).inverse_sum()
        want = sum(np.linalg.inv(S) for S in sigmas)
        np.testing.assert_allclose(inverse_sum, want, rtol=0, atol=1e-9 * np.abs(want).max())

    def test_support_at_least_M(self):
        # K >= M: every Q_j is square, so the (L I - sum Q_j Q_j^H) term vanishes
        A = gaussian_instance(3, 5, FieldTag.COMPLEX, seed=9)
        from suprec import enumerate_supports
        supports = enumerate_supports(5, 3)
        L = len(supports)
        sigmas = [covariance(A, S, 0.5) for S in supports]
        total = sum(kl_divergence(sigmas[i], sigmas[j], 1, 1.0)
                    for i in range(L) for j in range(L))
        assert fano_beta_exact(A, 3, 0.5, 1) == pytest.approx(total / L**2, rel=1e-9)
        want = sum(np.linalg.inv(S) for S in sigmas)
        np.testing.assert_allclose(covariance_factors(A, support_rows(5, 3), 0.5).inverse_sum(),
                                   want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_betas_from_shared_factors_are_the_exact_betas(self, field):
        A = gaussian_instance(4, 6, field, seed=3, label="beta")
        factors = covariance_factors(A, support_rows(6, 2), 0.7)
        assert fano_betas(A, factors, [1, 4, 1]) == [fano_beta_exact(A, 2, 0.7, T) for T in (1, 4, 1)]
        # a set with a failed support (equal columns 0 and 1 at sigma2 = 1e-300)
        # has no inverse sum
        dup = A.entries.copy()
        dup[:, 1] = dup[:, 0]
        failed = covariance_factors(dup, support_rows(6, 2), 1e-300)
        assert list(failed.failures) == [0]
        with pytest.raises(NumericFailure, match="covariance factorization failed"):
            fano_betas(dup, failed, [1])

    def test_exact_below_frobenius(self):
        for seed in range(200):
            A = gaussian_instance(4, 6, seed=seed, label="beta")
            exact = fano_beta_exact(A, 2, 1.0, 2)
            frob = fano_beta_frobenius(A, 6, 2, 1.0, 2)
            assert exact <= frob + 1e-9

    def test_linear_in_T(self):
        A = gaussian_instance(4, 6, seed=1)
        b1 = fano_beta_exact(A, 2, 1.0, 1)
        b4 = fano_beta_exact(A, 2, 1.0, 4)
        assert b4 == pytest.approx(4 * b1, rel=1e-9)

    def test_frobenius_closed_forms(self):
        assert fano_beta_frobenius(I2, 2, 1, 1.0, 1) == pytest.approx(0.125, abs=1e-12)
        assert fano_beta_frobenius(I2, 2, 1, 2.0, 1) == pytest.approx(0.0625, abs=1e-12)
        # unit rows: ||A||_F^2 = M
        A = MeasurementMatrix(np.eye(3), FieldTag.REAL)
        got = fano_beta_frobenius(A, 3, 1, 1.0, 2)
        assert got == pytest.approx(0.5 * 2 * 1 * 2 / (2 * 9) * 3, abs=1e-12)


class TestFanoLower:
    def test_identity_case_vacuous(self):
        report = fano_lower(0.125, 2)
        assert report.raw_value == pytest.approx(-0.18034, abs=1e-4)
        assert report.clamped == 0.0

    def test_zero_beta_two_hypotheses(self):
        assert fano_lower(0.0, 2).raw_value == pytest.approx(0.0, abs=1e-15)

    def test_monotone_in_beta_and_L(self):
        assert fano_lower(0.1, 16).raw_value > fano_lower(0.2, 16).raw_value
        assert fano_lower(0.1, 32).raw_value > fano_lower(0.1, 16).raw_value

    def test_exact_beta_gives_larger_bound(self):
        A = gaussian_instance(4, 6, seed=3)
        L = math.comb(6, 2)
        lo_exact = fano_lower(fano_beta_exact(A, 2, 1.0, 1), L)
        lo_frob = fano_lower(fano_beta_frobenius(A, 6, 2, 1.0, 1), L)
        assert lo_exact.raw_value >= lo_frob.raw_value - 1e-12

    def test_L_validation(self):
        with pytest.raises(ValueError):
            fano_lower(0.1, 1)

    def test_ensemble_form(self):
        report = ensemble_fano_lower(2, 20, 2, 5.0, 1, 0.5)
        beta = 0.5 * 1 * 2 * 18 / (2 * 5.0 * 400) * 40
        assert report.extras["beta"] == pytest.approx(beta)
        assert report.raw_value == pytest.approx(1 - (beta + math.log(2)) / math.log(math.comb(20, 2)))


class TestThresholds:
    def test_snet_unit_rows_relaxed(self):
        forms = snet_requirements(0.0, 16, 4, 1.0, 0.5, "unit_rows").forms
        assert forms["relaxed"] == pytest.approx(16 * 4 * math.log(4), rel=1e-12)

    def test_snet_unit_columns_relaxed(self):
        forms = snet_requirements(0.0, 16, 4, 1.0, 1.0, "unit_columns").forms
        assert forms["relaxed"] == pytest.approx(2 * math.log(4), rel=1e-12)

    def test_exact_binomial_dominates_relaxed(self):
        for N in range(3, 51):
            for K in range(2, N):
                r = snet_requirements(0.1, N, K, 1.0, 0.5, "unit_rows")
                assert r.forms["exact_binomial"] >= r.forms["relaxed"] - 1e-9
                c = snet_requirements(0.1, N, K, 1.0, 0.5, "unit_columns")
                assert c.forms["exact_binomial"] >= c.forms["relaxed"] - 1e-9

    def test_doa_frozen_values(self):
        forms = doa_requirements(0.1, 360, 2, 1.0).forms
        assert forms["relaxed"] == pytest.approx(0.9 * 2 * math.log(180), rel=1e-12)
        assert forms["relaxed"] == pytest.approx(9.345, abs=5e-3)
        assert forms["exact_binomial"] == pytest.approx(10.02, abs=5e-3)

    def test_doa_log_growth_in_N(self):
        base = doa_requirements(0.1, 360, 2, 1.0).forms["relaxed"]
        doubled = doa_requirements(0.1, 720, 2, 1.0).forms["relaxed"]
        assert doubled - base == pytest.approx(0.9 * 2 * math.log(2), rel=1e-9)

    def test_doa_denominator_maximized_at_half(self):
        N = 40
        values = {K: K * (1 - K / N) for K in range(1, N)}
        assert max(values, key=values.get) == N // 2

    def test_gaussian_necessary_frozen(self):
        r = gaussian_necessary(0.1, None, 100, 1, 1.0, 0.5)
        assert r.forms["exact_binomial"] == pytest.approx(16.746, abs=1e-2)
        assert r.forms["relaxed"] == pytest.approx(16.58, abs=1e-2)
        assert r.forms["relaxed"] <= r.forms["exact_binomial"]

    def test_gaussian_necessary_delta_factor(self):
        mean = gaussian_necessary(0.1, None, 100, 2, 1.0, 0.5)
        prob = gaussian_necessary(0.1, 0.1, 100, 2, 1.0, 0.5)
        assert prob.value == pytest.approx(mean.value * 0.8 / 0.9, rel=1e-12)

    def test_doa_is_gaussian_necessary_at_kappa_one(self):
        # the `doa` row of the threshold table is the unit-column form at
        # kappa = 1: every form the same bits as the Gaussian mean form's
        for eps, N, sigma2 in product((0.0, 0.05, 0.3, 0.99), (2, 3, 31, 90, 360, 10**6),
                                      (1e-8, 0.1, 1.0, 7.5)):
            for K in sorted({1, 2, N // 2, N - 1} & set(range(1, N))):
                doa = doa_requirements(eps, N, K, sigma2).forms
                gauss = gaussian_necessary(eps, None, N, K, sigma2, 1.0).forms
                assert {k: v.hex() for k, v in doa.items()} == {k: v.hex() for k, v in gauss.items()}

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            doa_requirements(1.0, 10, 2, 1.0)
        with pytest.raises(ValueError):
            gaussian_necessary(0.5, 0.6, 10, 2, 1.0, 0.5)

    @pytest.mark.parametrize("fn,args,message", [
        *((fn, {"epsilon": eps}, "epsilon must lie in [0, 1)")
          for fn in ("snet", "doa", "gaussian_necessary") for eps in (-0.1, 1.0, 1.5)),
        *((fn, {"K": K}, "need 1 <= K < N")
          for fn in ("snet", "doa", "gaussian_necessary") for K in (0, 10, 11)),
        *((fn, {"N": 0, "K": 1}, "need 1 <= K < N") for fn in ("snet", "doa", "gaussian_necessary")),
        ("snet", {"normalization": "unit_diagonal"}, "unknown normalization 'unit_diagonal'"),
        *(("gaussian_necessary", {"delta": delta}, "need delta > 0 and epsilon + delta < 1")
          for delta in (0.0, -0.1, 0.9, 2.0)),
    ])
    def test_one_invalid_argument(self, fn, args, message):
        # valid arguments but one; the error is a ValueError naming it,
        # never an arithmetic error from the formulas
        call = {"snet": lambda a: snet_requirements(a["epsilon"], a["N"], a["K"], a["sigma2"],
                                                    0.5, a["normalization"]),
                "doa": lambda a: doa_requirements(a["epsilon"], a["N"], a["K"], a["sigma2"]),
                "gaussian_necessary": lambda a: gaussian_necessary(a["epsilon"], a["delta"], a["N"],
                                                                   a["K"], a["sigma2"], 0.5)}[fn]
        valid = {"epsilon": 0.1, "N": 10, "K": 2, "sigma2": 1.0, "normalization": "unit_rows",
                 "delta": 0.05}
        call(valid)
        with pytest.raises(ValueError, match=re.escape(message)):
            call({**valid, **args})


class TestSufficiencyReport:
    def test_gamma_and_ceiling(self):
        report = gaussian_sufficiency_report(30, 100, 5, 4, 1.0, 0.5)
        assert report.gamma == pytest.approx(20 / 3)
        assert report.exponent_ceiling == pytest.approx(0.5 * (math.log(3) - 1), abs=1e-12)
        assert report.exponent_ceiling == pytest.approx(0.04930, abs=1e-5)

    def test_loglog_ratio(self):
        report = gaussian_sufficiency_report(64, 10**6, 2, 30, 1.0, 0.5)
        assert report.t_loglog_ratio == pytest.approx(30 * math.log(math.log(1e6)) / math.log(1e6), rel=1e-9)
        assert report.t_loglog_ratio == pytest.approx(5.70, abs=5e-2)

    def test_gamma_undefined_when_M_small(self):
        report = gaussian_sufficiency_report(4, 100, 2, 4, 1.0, 0.5)
        assert report.gamma is None
        assert any("gamma" in n for n in report.notes)


class TestExpectedIncoherenceBounds:
    def test_direct_arithmetic(self):
        assert expected_incoherence_bounds(10, 2, 2, 1.0) == (7.0, 11.0)

    def test_noise_scaling(self):
        assert expected_incoherence_bounds(10, 2, 2, 2.0) == (4.0, 6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_incoherence_bounds(4, 2, 2, 1.0)


# every public function that takes the noise level, with valid other
# arguments: the matrix ones on a real 6 x 8 matrix, K = 2, a disjoint pair
A6 = gaussian_instance(6, 8, seed=3)
P0, P1 = make_support([0, 1], 8), make_support([2, 3], 8)
SIGMA2_FORMULAS = {
    "doa": lambda s: doa_requirements(0.1, 90, 2, s),
    "snet": lambda s: snet_requirements(0.1, 90, 2, s, 0.5, "unit_rows"),
    "gaussian_necessary": lambda s: gaussian_necessary(0.1, None, 90, 2, s, 0.5),
    "expected_incoherence": lambda s: expected_incoherence_bounds(8, 2, 1, s),
    "ensemble_fano": lambda s: ensemble_fano_lower(8, 10, 2, s, 2, 0.5),
    "fano_beta_frobenius": lambda s: fano_beta_frobenius(I2, 2, 1, s, 1),
    "sufficiency": lambda s: gaussian_sufficiency_report(30, 100, 5, 4, s, 0.5),
    "covariance": lambda s: covariance(A6, P0, s),
    "pair_incoherence": lambda s: pair_incoherence(A6, P0, P1, s),
    "h_eigenvalues": lambda s: h_eigenvalues(A6, P0, P1, s),
    "matrix_incoherence": lambda s: matrix_incoherence(A6, 2, s),
    "SupportDecoder": lambda s: SupportDecoder(A6, [P0, P1], s),
    "binary_lrt": lambda s: binary_lrt(np.ones(6), A6, P0, P1, s),
    "ml_decode": lambda s: ml_decode(np.ones(6), A6, [P0, P1], s),
    "binary_chernoff": lambda s: binary_chernoff(A6, P0, P1, s, 2),
    "fano_beta_exact": lambda s: fano_beta_exact(A6, 2, s, 2),
    "estimate_binary_perr": lambda s: estimate_binary_perr(A6, P0, P1, s, 2, 10, 1),
    "estimate_multiple_perr": lambda s: estimate_multiple_perr(A6, 2, s, 2, 10, 1),
    "estimate_ensemble_perr": lambda s: estimate_ensemble_perr(8, 10, 2, s, 2, 2, 10, 1),
    "estimate_incoherence_tail": lambda s: estimate_incoherence_tail(6, 8, 2, s, 4, 1),
    "estimate_expected_incoherence": lambda s: estimate_expected_incoherence(6, 2, 1, s, 4, 1),
    # a generator: the check runs before its first draw
    "draw_level_blocks": lambda s: next(draw_level_blocks(A6, support_rows(8, 2)[:2], [s], [2],
                                                          10, 1, "sigma2-check")),
}


@pytest.mark.parametrize("name", sorted(SIGMA2_FORMULAS))
@pytest.mark.parametrize("sigma2", [0.0, -1.0, math.nan, math.inf, True])
def test_noise_level_outside_zero_to_inf_is_rejected(name, sigma2):
    # the one rule's ValueError naming sigma2 (`model._positive`), never a NaN
    # result, a silent estimate, a ZeroDivisionError or numpy's "invalid value"
    # warning
    SIGMA2_FORMULAS[name](1.0)
    with pytest.raises(ValueError, match=r"sigma2 must lie in \(0, inf\)"):
        SIGMA2_FORMULAS[name](sigma2)


# every formula that takes the density constant kappa, with valid other arguments
KAPPA_FORMULAS = {
    "multiple_union": lambda k: multiple_bound_union(10.0, 30, 2, 3, k),
    "multiple_geometric": lambda k: multiple_bound_geometric(10.0, 3, 1, 2, k),
    "chernoff_mu": lambda k: chernoff_mu([2.0, 1.0, 0.5], 0.5, 2, k),
    "kl_divergence": lambda k: kl_divergence(np.eye(2), 2.0 * np.eye(2), 1, k),
    "ensemble_fano": lambda k: ensemble_fano_lower(8, 10, 2, 1.0, 2, k),
    "snet": lambda k: snet_requirements(0.1, 90, 2, 1.0, k, "unit_rows"),
    "gaussian_necessary": lambda k: gaussian_necessary(0.1, None, 90, 2, 1.0, k),
    "sufficiency": lambda k: gaussian_sufficiency_report(30, 100, 5, 4, 1.0, k),
    "log_likelihood": lambda k: log_likelihood(np.ones(2), 2.0 * np.eye(2), k),
}


@pytest.mark.parametrize("name", sorted(KAPPA_FORMULAS))
@pytest.mark.parametrize("kappa", [0.0, -0.5, math.nan, math.inf, True])
def test_density_constant_outside_zero_to_inf_is_rejected(name, kappa):
    # a ValueError naming kappa, never a negative threshold, a positive mu or a
    # ZeroDivisionError
    KAPPA_FORMULAS[name](0.5)
    with pytest.raises(ValueError, match=r"kappa must lie in \(0, inf\)"):
        KAPPA_FORMULAS[name](kappa)


# every formula that takes T, or a sequence Ts, with valid other arguments
T_FORMULAS = {
    "chernoff_mu": lambda T: chernoff_mu([2.0, 1.0, 0.5], 0.5, T, 0.5),
    "binary_chernoff": lambda T: binary_chernoff(A6, P0, P1, 0.5, T),
    "binary_chernoffs": lambda T: binary_chernoffs(A6, P0, P1, 0.5, [1, T]),
    "multiple_union": lambda T: multiple_bound_union(10.0, 30, 2, T, 0.5),
    "multiple_geometric": lambda T: multiple_bound_geometric(30.0, 24, 2, T, 0.5),
    "kl_divergence": lambda T: kl_divergence(np.eye(2), 2.0 * np.eye(2), T, 0.5),
    "fano_beta_exact": lambda T: fano_beta_exact(A6, 2, 0.5, T),
    "fano_betas": lambda T: fano_betas(A6, covariance_factors(A6.entries, support_rows(8, 2), 0.5),
                                       [1, T]),
    "fano_beta_frobenius": lambda T: fano_beta_frobenius(I2, 2, 1, 1.0, T),
    "ensemble_fano": lambda T: ensemble_fano_lower(8, 10, 2, 1.0, T, 0.5),
    "sufficiency": lambda T: gaussian_sufficiency_report(30, 100, 5, T, 1.0, 0.5),
}


@pytest.mark.parametrize("name", sorted(T_FORMULAS))
@pytest.mark.parametrize("T", [0, -1, 2.5, True])
def test_T_that_is_not_an_integer_of_at_least_one_is_rejected(name, T):
    # a ValueError naming T (`model._check_counts`), never a ZeroDivisionError,
    # a bound flagged applicable or a complaint about beta
    T_FORMULAS[name](2)
    with pytest.raises(ValueError, match="^(need T >= 1|T must be an integer)"):
        T_FORMULAS[name](T)


# every bound formula that takes lambda_bar, beta or H eigenvalues: the label
# its ValueError starts with, and the call with that input set to x
NAN_INPUTS = {
    "multiple_union": ("lambda_bar", lambda x: multiple_bound_union(x, 24, 2, 4, 0.5)),
    "multiple_union_per_kd": ("lambda_bar", lambda x: multiple_bound_union([10.0, x], 24, 2, 4,
                                                                          0.5)),
    "multiple_geometric": ("lambda_bar", lambda x: multiple_bound_geometric(x, 24, 2, 4, 0.5)),
    "fano_lower": ("beta", lambda x: fano_lower(x, 10)),
    "chernoff_mu": ("eigenvalues", lambda x: chernoff_mu([2.0, x], 0.5, 4, 0.5)),
}


@pytest.mark.parametrize("name", sorted(NAN_INPUTS))
def test_nan_input_is_rejected(name):
    # a ValueError naming the input, never a clamped 0 that reads as a
    # certified bound, nor a NaN mu
    label, call = NAN_INPUTS[name]
    call(5.0)
    with pytest.raises(ValueError, match=f"^{label} must be"):
        call(math.nan)


# counts that are not integers, or lie outside a formula's range: each call
# with the count it should name, next to the same call with valid counts
COUNT_CALLS = {
    "union-K-above-N": ("K", lambda: multiple_bound_union(10.0, 30, 40, 2, 0.5),
                        lambda: multiple_bound_union(10.0, 30, 2, 2, 0.5)),
    "union-K-float": ("K", lambda: multiple_bound_union(10.0, 30, 2.5, 2, 0.5),
                      lambda: multiple_bound_union(10.0, 30, 2, 2, 0.5)),
    "union-N-float": ("N", lambda: multiple_bound_union(10.0, 30.0, 2, 2, 0.5),
                      lambda: multiple_bound_union(10.0, 30, 2, 2, 0.5)),
    "geometric-K-negative": ("K", lambda: multiple_bound_geometric(30.0, 24, -1, 2, 0.5),
                             lambda: multiple_bound_geometric(30.0, 24, 1, 2, 0.5)),
    "geometric-K-above-N": ("K", lambda: multiple_bound_geometric(30.0, 24, 30, 2, 0.5),
                            lambda: multiple_bound_geometric(30.0, 24, 24, 2, 0.5)),
    "fano-L-float": ("L", lambda: fano_lower(0.1, 2.5), lambda: fano_lower(0.1, 2)),
    "ensemble-N-float": ("N", lambda: ensemble_fano_lower(8, 10.5, 2, 1.0, 2, 0.5),
                         lambda: ensemble_fano_lower(8, 10, 2, 1.0, 2, 0.5)),
    "ensemble-M-zero": ("M", lambda: ensemble_fano_lower(0, 10, 2, 1.0, 2, 0.5),
                        lambda: ensemble_fano_lower(1, 10, 2, 1.0, 2, 0.5)),
    "sufficiency-M-float": ("M", lambda: gaussian_sufficiency_report(30.5, 100, 5, 4, 1.0, 0.5),
                            lambda: gaussian_sufficiency_report(30, 100, 5, 4, 1.0, 0.5)),
    "sufficiency-K-bool": ("K", lambda: gaussian_sufficiency_report(30, 100, True, 4, 1.0, 0.5),
                           lambda: gaussian_sufficiency_report(30, 100, 1, 4, 1.0, 0.5)),
    "incoherence-M-float": ("M", lambda: expected_incoherence_bounds(10.5, 2, 1, 1.0),
                            lambda: expected_incoherence_bounds(10, 2, 1, 1.0)),
    "incoherence-k_d-float": ("k_d", lambda: expected_incoherence_bounds(10, 2, 1.0, 1.0),
                              lambda: expected_incoherence_bounds(10, 2, 1, 1.0)),
    "hypergeometric-N-float": ("N", lambda: hypergeometric_mean_check(10.5, 3),
                               lambda: hypergeometric_mean_check(10, 3)),
    "doa-N-float": ("N", lambda: doa_requirements(0.1, 90.5, 2, 1.0),
                    lambda: doa_requirements(0.1, 90, 2, 1.0)),
    "snet-K-float": ("K", lambda: snet_requirements(0.1, 90, 2.0, 1.0, 0.5, "unit_columns"),
                     lambda: snet_requirements(0.1, 90, 2, 1.0, 0.5, "unit_columns")),
    "frobenius-K-above-N": ("K", lambda: fano_beta_frobenius(I2, 2, 3, 1.0, 1),
                            lambda: fano_beta_frobenius(I2, 2, 2, 1.0, 1)),
}


@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_count_that_is_not_an_integer_in_range_is_rejected(name):
    # a ValueError naming the count (`model._integer`, then the formula's own
    # range rule), never a TypeError, a math domain error or a bound for a
    # count that cannot be
    count, bad, good = COUNT_CALLS[name]
    good()
    with pytest.raises(ValueError, match=f"(^|need .*){count}\\b"):
        bad()


class TestHypergeometricMean:
    def test_small_exact_cases(self):
        assert hypergeometric_mean_check(4, 2) == pytest.approx(1.0, abs=1e-15)
        assert hypergeometric_mean_check(10, 3) == pytest.approx(2.1, abs=1e-15)

    def test_rational_identity_oracle(self):
        # independent exact-rational summation, checked against K(N-K)/N
        for N in range(2, 31):
            for K in range(1, N):
                total = Fraction(0)
                for kd in range(1, K + 1):
                    total += Fraction(kd * math.comb(K, kd) * math.comb(N - K, kd),
                                      math.comb(N, K))
                assert total == Fraction(K * (N - K), N)
                assert abs(hypergeometric_mean_check(N, K) - float(total)) < 1e-12

    def test_correctly_rounded(self):
        # the integer quotient rounds as the exact rational K(N-K)/N does
        for N in range(2, 200):
            for K in range(1, N):
                assert hypergeometric_mean_check(N, K) == float(Fraction(K * (N - K), N))
