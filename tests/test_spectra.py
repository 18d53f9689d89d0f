import math
import re
import warnings
from itertools import product

import numpy as np
import pytest

import suprec.model as model
import suprec.spectra as spectra
from suprec import (
    CapExceeded,
    FieldTag,
    MeasurementMatrix,
    NumericFailure,
    SupportDecoder,
    covariance,
    enumerate_supports,
    h_eigenvalues,
    log_likelihood,
    make_support,
    matrix_incoherence,
    noise_constants,
    pair_incoherence,
    pair_incoherences,
    qr_lower_bound_eigs,
    sample_gaussian_matrix,
    spectrum_split,
    substream,
    ula_angle_grid,
    ula_manifold_matrix,
    unrank_supports,
    upper_bound_eigs,
)

from conftest import (dense_h_eigenvalues, dense_sandwich, gaussian_instance, gram_factor_instance,
                      mp_pencil_eigs, r33, random_pair)

I2 = MeasurementMatrix(np.eye(2), FieldTag.REAL)
S0_I2 = make_support([0], 2)
S1_I2 = make_support([1], 2)


def explicit_h_eigs(A, S0, S1, sigma2):
    """Oracle: eigenvalues of the explicitly formed Sigma0^{1/2} Sigma1^{-1} Sigma0^{1/2}."""
    Sig0 = covariance(A, S0, sigma2)
    Sig1 = covariance(A, S1, sigma2)
    w, V = np.linalg.eigh(Sig0)
    root = V @ np.diag(np.sqrt(w)) @ V.conj().T
    H = root @ np.linalg.inv(Sig1) @ root
    return np.linalg.eigvalsh(H)[::-1]


def dense_top(A, S0, S1, sigma2):
    """Oracle: H's eigenvalues above 1 from the dense M x M pencil, and their
    geometric mean."""
    split = spectrum_split(dense_h_eigenvalues(A, S0, S1, sigma2))
    top = np.asarray(split.eigenvalues[:split.count_gt])
    return top, float(np.exp(np.mean(np.log(top))))


def draw_stack(M, N, D, field, seed=0, label="stack"):
    """D Gaussian M x N matrices stacked as (D, M, N), one substream each."""
    return np.stack([gaussian_instance(M, N, field=field, seed=seed, label=f"{label}-{d}").entries
                     for d in range(D)])


class TestCovariance:
    def test_identity_closed_form(self):
        assert np.allclose(covariance(I2, S0_I2, 1.0), np.diag([2.0, 1.0]))

    def test_zero_column_gives_scaled_identity(self):
        A = MeasurementMatrix(np.array([[0.0, 1.0], [0.0, 2.0]]), FieldTag.REAL)
        assert np.allclose(covariance(A, make_support([0], 2), 4.0), 4.0 * np.eye(2))

    def test_hermitian_and_floor(self):
        A = gaussian_instance(6, 9, field=FieldTag.COMPLEX, seed=2)
        Sigma = covariance(A, make_support([1, 4, 7], 9), 0.3)
        assert np.allclose(Sigma, Sigma.conj().T)
        assert np.linalg.eigvalsh(Sigma)[0] >= 0.3 - 1e-12

    def test_sigma2_positive_required(self):
        with pytest.raises(ValueError):
            covariance(I2, S0_I2, 0.0)


class TestFactorizationFailure:
    @pytest.mark.parametrize("case", ["non-finite", "singular"])
    def test_every_covariance_path_reports_it_alike(self, case):
        # S1 = {0, 1} holds a zero column and (1, 1, 0, 0): at sigma2 = 1e-20
        # Sigma_1 rounds to [[1, 1], [1, 1]] (+) 1e-20 I, and so do its K x K
        # (decoder) and union (pair kernel) forms, none of which then factors.
        # A NaN entry in column 1 leaves every form non-finite instead.
        A = np.array([[0.0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 1, -1]])
        sigma2 = 1e-20
        detail = "condition number ~ "
        if case == "non-finite":
            A[2, 1], sigma2, detail = np.nan, 1.0, r"non-finite\)"
        pattern = rf"covariance factorization failed \({detail}"
        S0, S1 = make_support([2, 3], 4), make_support([0, 1], 4)
        with pytest.raises(NumericFailure, match=pattern):
            spectra.h_spectra(A[None], S0, S1, sigma2)[0]
        with pytest.raises(NumericFailure, match=pattern):
            pair_incoherences(A, [S0.indices], [S1.indices], sigma2)
        with pytest.raises(NumericFailure, match=pattern):
            log_likelihood(np.ones((4, 1)), covariance(A, S1, sigma2), 0.5)
        decoder = SupportDecoder(A, [S1, S0], sigma2)
        assert list(decoder.failures) == [0] and re.match(pattern, decoder.failures[0])


class TestHEigenvalues:
    def test_equal_supports_give_ones(self):
        A = gaussian_instance(5, 8, seed=1)
        S = make_support([0, 3], 8)
        assert np.allclose(h_eigenvalues(A, S, S, 0.7), 1.0)

    def test_diagonal_closed_form(self):
        assert np.allclose(h_eigenvalues(I2, S0_I2, S1_I2, 1.0), [2.0, 0.5])

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_matches_explicit_square_root_oracle(self, field):
        for seed in range(10):
            A = gaussian_instance(6, 10, field=field, seed=seed, label="heig")
            S0, S1 = random_pair(10, 2, overlap=1)
            got = h_eigenvalues(A, S0, S1, 0.5)
            want = explicit_h_eigs(A, S0, S1, 0.5)
            assert np.max(np.abs(got - want)) < 1e-8

    def test_reciprocity(self):
        # at sigma2 = 1e-8 the eigenvalues span 1e-9 .. 1e9 and the one equal
        # to 1 in theory is off by ~eps lambda_max ~ 1e-7, so that check is relative
        A = gaussian_instance(7, 9, seed=6)
        S0, S1 = random_pair(9, 3, overlap=1)
        for sigma2, atol, rtol in ((1.0, 1e-9, 0.0), (1e-8, 0.0, 1e-6)):
            forward = h_eigenvalues(A, S0, S1, sigma2)
            backward = h_eigenvalues(A, S1, S0, sigma2)
            np.testing.assert_allclose(backward, 1.0 / forward[::-1], rtol=rtol, atol=atol)

    def test_union_wider_than_m_is_out_of_domain(self):
        # |S0 cup S1| = 4 > M = 3: the union QR has no room for the union
        A = gaussian_instance(3, 6, seed=2)
        S0, S1 = random_pair(6, 2, overlap=0)
        with pytest.raises(ValueError, match=re.escape("need M >= k0 + k_i + k1")):
            h_eigenvalues(A, S0, S1, 1.0)


class TestStackedKernels:
    """`h_spectra`'s spectra and bounds against the per-matrix dense oracles
    of conftest, for every overlap of a K = 3 pair."""

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("overlap", [0, 1, 2])
    def test_pencil_matches_dense_oracle(self, field, overlap):
        M, N, K = 9, 8, 3
        S0, S1 = random_pair(N, K, overlap)
        stack = draw_stack(M, N, 12, field, seed=overlap)
        eigs = spectra.h_spectra(stack, S0, S1, 0.7)[0]
        assert eigs.shape == (12, M)
        for A, got in zip(stack, eigs):
            want = dense_h_eigenvalues(A, S0, S1, 0.7)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
            a, b = spectrum_split(got), spectrum_split(want)
            k = K - overlap
            assert (a.count_gt, a.count_eq, a.count_lt) == (b.count_gt, b.count_eq, b.count_lt) \
                == (k, M - 2 * k, k)

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("overlap", [0, 1, 2])
    def test_sandwich_matches_dense_oracle(self, field, overlap):
        S0, S1 = random_pair(8, 3, overlap)
        stack = draw_stack(9, 8, 12, field, seed=overlap, label="sandwich-stack")
        lower, upper = spectra.h_spectra(stack, S0, S1, 0.7)[1:]
        assert lower.shape == upper.shape == (12, 3 - overlap)
        for A, low, up in zip(stack, lower, upper):
            want_low, want_up = dense_sandwich(A, S0, S1, 0.7)
            np.testing.assert_allclose(low, want_low, rtol=1e-10, atol=0)
            np.testing.assert_allclose(up, want_up, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_single_matrix_is_the_batch_call(self, field):
        S0, S1 = random_pair(8, 3, 1)
        stack = draw_stack(9, 8, 5, field, label="single")
        eigs = spectra.h_spectra(stack, S0, S1, 0.4)[0]
        lower, upper = spectra.h_spectra(stack, S0, S1, 0.4)[1:]
        for d, entries in enumerate(stack):
            A = MeasurementMatrix(entries, field)
            np.testing.assert_array_equal(h_eigenvalues(A, S0, S1, 0.4), eigs[d])
            np.testing.assert_array_equal(qr_lower_bound_eigs(A, S0, S1, 0.4), lower[d])
            np.testing.assert_array_equal(upper_bound_eigs(A, S0, S1, 0.4), upper[d])

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("first", [0, 2])
    def test_gram_factor_matches_dense(self, field, first):
        # `_gram_factor`, the one factor kernel of the decoder's Gram screen
        # (first = 0) and the pair floors (first = K = 2), against per-item
        # `np.linalg.cholesky`, and the floors' `_spread_bound` against the
        # dense ||L^{-1}||_F^2 it stands for. The first item fails
        # `_whitener` (`gram_factor_instance`); in the complex field its
        # pivots are finite, 1e41 to 6, and so is its bound.
        entries, rows = gram_factor_instance(field)
        sigma2 = 0.5
        L, pivots, failed, mass = spectra._gram_factor(entries, rows, sigma2, first)
        assert failed.tolist() == [True] + [False] * 30
        assert np.array_equal(L[0], np.eye(4))
        bound = spectra._spread_bound(pivots, mass + (4 - first) * sigma2)
        for got in (L, mass):
            assert not np.isnan(got).any()
        assert np.isfinite(bound[np.isfinite(pivots).all(axis=1)]).all()
        for n, row in enumerate(rows):
            X = entries[:, row]
            B = X.conj().T @ X
            np.testing.assert_allclose(mass[n], np.trace(B).real, rtol=1e-14)
            if n:
                B[first:, first:] += sigma2 * np.eye(4 - first)
                G = np.linalg.cholesky(B)
                np.testing.assert_allclose(pivots[n], np.abs(np.diag(G)) ** 2, rtol=1e-12)
                np.testing.assert_allclose(L[n], G, rtol=1e-12, atol=1e-12 * np.abs(G).max())
                assert bound[n] >= np.sum(np.abs(np.linalg.inv(G)) ** 2)

    def test_numeric_failures(self):
        S0, S1 = make_support([0, 1], 5), make_support([2, 3], 5)
        stack = draw_stack(6, 5, 4, FieldTag.REAL, label="failure")
        dup = stack.copy()                  # S1's two columns equal and huge: Sigma_1 singular
        dup[:, :, 3] = dup[:, :, 2]
        dup[:, :, 2:4] *= 1e8
        with pytest.raises(NumericFailure, match="covariance factorization failed"):
            spectra.h_spectra(dup, S0, S1, 1e-8)[0]
        # at 1e-12 the dense oracle fails (a non-positive eigenvalue) while
        # both reduced pencils hold: 2 eigenvalues above 1, 2 below, 2 units
        for A, got in zip(stack, spectra.h_spectra(stack, S0, S1, 1e-12)[0]):
            exact = np.array([float(x) for x in mp_pencil_eigs(
                MeasurementMatrix(A, FieldTag.REAL), S0, S1, 1e-12)])
            np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0)
            assert (spectrum_split(got).count_gt, spectrum_split(1.0 / got).count_gt) == (2, 2)
        with pytest.raises(ValueError, match="sigma2"):
            spectra.h_spectra(stack, S0, S1, 0.0)[0]
        zero = stack.copy()
        zero[2, :, 1] = 0.0                 # a column of S0 \ S1 vanishes in one draw
        with pytest.raises(NumericFailure, match="rank-deficient"):
            spectra.h_spectra(zero, S0, S1, 1.0)[1:]
        nan = stack.copy()                  # a bare array with one NaN entry, in S0 or S1
        nan[1, 2, 1] = np.nan
        for Sa, Sb in ((S0, S1), (S1, S0)):
            with pytest.raises(NumericFailure):
                spectra.h_spectra(nan, Sa, Sb, 1.0)[0]
            with pytest.raises(NumericFailure):
                h_eigenvalues(nan[1], Sa, Sb, 1.0)

    @pytest.mark.parametrize("column", [0, 4, 2], ids=["S0-only", "S1-only", "shared"])
    def test_sandwich_non_finite_column_fails(self, column):
        # one NaN in a column of S0 \ S1, S1 \ S0 or S0 cap S1, either order
        S0, S1 = make_support([0, 1, 2], 5), make_support([2, 3, 4], 5)
        nan = draw_stack(6, 5, 4, FieldTag.REAL, label="nan-sandwich")
        nan[2, 3, column] = np.nan
        for Sa, Sb in ((S0, S1), (S1, S0)):
            with pytest.raises(NumericFailure, match=re.escape("failed (non-finite)")):
                spectra.h_spectra(nan, Sa, Sb, 1.0)[1:]

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_sandwich_unequal_sizes_match_dense_oracle(self, field):
        # |S0| = 3, |S1| = 2, neither inside the other (both orders), and a
        # single column inside S0, whose union is S0 led by that column
        S0, S1, inner = make_support([0, 3, 5], 7), make_support([1, 3], 7), make_support([3], 7)
        stack = draw_stack(8, 7, 6, field, label="unequal-sandwich")
        for Sa, Sb, k0 in ((S0, S1, 2), (S1, S0, 1), (S0, inner, 2)):
            lower, upper = spectra.h_spectra(stack, Sa, Sb, 0.6)[1:]
            assert lower.shape == upper.shape == (6, k0)
            for A, low, up in zip(stack, lower, upper):
                want_low, want_up = dense_sandwich(A, Sa, Sb, 0.6)
                np.testing.assert_allclose(low, want_low, rtol=1e-10, atol=0)
                np.testing.assert_allclose(up, want_up, rtol=1e-10, atol=0)

    def test_padding_is_exactly_one(self):
        # r = |S0 cup S1| = 4 eigenvalues come from the reduced pencils, the
        # other M - r = 8 are exactly 1 by construction
        S0, S1 = random_pair(6, 2, 0)
        stack = draw_stack(12, 6, 6, FieldTag.REAL, label="full")
        eigs = spectra.h_spectra(stack, S0, S1, 1.0)[0]
        assert eigs.shape == (6, 12) and np.all(eigs[:, 2:-2] == 1.0)
        for A, got in zip(stack, eigs):
            want = dense_h_eigenvalues(A, S0, S1, 1.0)
            np.testing.assert_allclose(got[[0, 1, -2, -1]], want[[0, 1, -2, -1]], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_tiny_noise_warns_nothing(self, field):
        # reciprocals are taken of the chosen (S1, S0) eigenvalues only, each
        # the larger of its pair: at 1e-30 some unused ones round to exactly 0
        for M, K, overlap in ((2, 1, 0), (8, 3, 2)):
            S0, S1 = random_pair(2 * K + 2, K, overlap)
            stack = draw_stack(M, 2 * K + 2, 32, field, label="tiny")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                eigs = spectra.h_spectra(stack, S0, S1, 1e-30)[0]
            assert eigs.shape == (32, M) and np.all(eigs > 0)


class TestLowRankWhitening:
    """`h_spectra` reads the reduced pencils of `_pencil`, which whitens
    Sigma_1 (or Sigma_0 for the reversed pair) with the leading K x K block of
    the union R: checked against the 60-digit pencil, the dense M x M
    oracle's counts and the failure paths of a non-finite column on either
    side."""

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("sigma2", [1.0, 1e-4, 1e-8, 1e-16, 1e-18])
    def test_top_eigenvalues_match_high_precision_oracle(self, field, sigma2):
        # the whole spectrum: eigenvalues away from 1 to 1e-12 relative, and
        # those equal to 1 in theory (M - r padding and k_i = overlap) to
        # eigvalsh's rounding level M eps lambda_max. At 1e-16 and below an
        # eigenvalue below 1 rounds to ~eps lambda_max > 1 in the (S0, S1)
        # pencil, so each is read from the order in which it is larger
        for overlap in (0, 1):
            S0, S1 = random_pair(8, 3, overlap)
            A = gaussian_instance(8, 8, field=field, seed=overlap, label="whiten-mp")
            got = spectra.h_spectra(A.entries[None], S0, S1, sigma2)[0][0]
            k0 = 3 - overlap
            exact = np.array([float(x) for x in mp_pencil_eigs(A, S0, S1, sigma2)])
            assert np.all(exact[:k0] > 1.0) and spectrum_split(got).count_gt == k0
            unit = exact == 1.0
            assert unit.sum() == 8 - 2 * k0
            np.testing.assert_allclose(got[~unit], exact[~unit], rtol=1e-12, atol=0)
            assert np.all(np.abs(got[unit] - 1.0) <= 8 * np.finfo(np.float64).eps * got[0])

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_counts_match_dense_oracle_on_a_grid(self, field):
        for M, K, sigma2 in product((6, 9, 12), (1, 2, 3), (1.0, 0.05)):
            if M < 2 * K:
                continue
            N = 2 * K + 2
            for overlap in range(K):
                S0, S1 = random_pair(N, K, overlap)
                stack = draw_stack(M, N, 4, field, seed=M * K, label=f"grid-{overlap}")
                for A, got in zip(stack, spectra.h_spectra(stack, S0, S1, sigma2)[0]):
                    a, b = spectrum_split(got), spectrum_split(dense_h_eigenvalues(A, S0, S1, sigma2))
                    assert (a.count_gt, a.count_eq, a.count_lt) == (b.count_gt, b.count_eq,
                                                                    b.count_lt)

    @pytest.mark.parametrize("column", [1, 3], ids=["S0", "S1"])
    def test_non_finite_column_fails(self, column):
        S0, S1 = make_support([0, 1], 5), make_support([2, 3], 5)
        nan = draw_stack(6, 5, 4, FieldTag.COMPLEX, label="nan-whiten")
        nan[2, 4, column] = np.nan
        with pytest.raises(NumericFailure, match=re.escape("factorization failed (non-finite)")):
            spectra.h_spectra(nan, S0, S1, 1.0)[0]


class TestSpectrumSplit:
    def test_stack_masks_match_each_rows_split(self):
        # `_split_masks` on a (D, M) stack counts each row as `spectrum_split`
        # does, with each row's own tolerance rel * max(1, largest), in any order
        S0, S1 = random_pair(8, 3, 1)
        dense = spectra.h_spectra(draw_stack(9, 8, 6, FieldTag.REAL, label="masks"), S0, S1, 0.7)[0]
        edge = np.array([[40.0, 1 + 3e-7, 1 + 5e-7, 1.0, 1 - 3.9e-7, 0.5],
                         [1 + 1.5e-8, 1 + 2.5e-8, 2.0, 1 - 1.5e-8, 1 - 2.5e-8, 0.9],
                         [1 + 5e-9, 1 - 5e-9, 1 - 2e-8, 0.95, 0.9, 0.5]])
        for stack in (dense, edge):
            for rel in (1e-8, 1e-6):
                counts = np.stack([m.sum(axis=1) for m in spectra._split_masks(stack, rel)[:3]], 1)
                for row, got in zip(stack, counts):
                    split = spectrum_split(row, tolerance=rel * max(1.0, row.max()))
                    assert tuple(got) == (split.count_gt, split.count_eq, split.count_lt)
        counts = [m.sum(axis=1) for m in spectra._split_masks(edge)[:3]]
        assert np.array_equal(np.stack(counts, 1), [[2, 3, 1], [2, 2, 2], [0, 2, 4]])
        assert all(tuple(c) == (s.count_gt, s.count_eq, s.count_lt)
                   for c, s in zip(np.stack(counts, 1), map(spectrum_split, edge)))

    def test_all_ones(self):
        split = spectrum_split(np.ones(5))
        assert (split.count_gt, split.count_eq, split.count_lt) == (0, 5, 0)

    def test_two_and_half(self):
        split = spectrum_split([2.0, 0.5], tolerance=1e-8)
        assert (split.count_gt, split.count_eq, split.count_lt) == (1, 0, 1)

    def test_counts_partition(self):
        split = spectrum_split([3.0, 1.0, 1.0, 0.2])
        assert split.count_gt + split.count_eq + split.count_lt == 4

    def test_positive_required(self):
        with pytest.raises(ValueError):
            spectrum_split([1.0, -0.5])

    @pytest.mark.parametrize("M,K,overlap", [(5, 2, 1), (6, 2, 0), (8, 3, 2)])
    def test_eigenvalue_counting_random_draws(self, M, K, overlap):
        # counts must be exactly (k0, M - k0 - k1, k1) for non-degenerate draws
        k0 = k1 = K - overlap
        N = 2 * K + 1
        S0, S1 = random_pair(N, K, overlap)
        for seed in range(200):
            A = gaussian_instance(M, N, seed=seed, label="count")
            split = spectrum_split(h_eigenvalues(A, S0, S1, 1.0))
            assert (split.count_gt, split.count_eq, split.count_lt) == (k0, M - k0 - k1, k1)


class TestPairIncoherence:
    def test_diagonal_example_both_ways(self):
        assert pair_incoherence(I2, S0_I2, S1_I2, 1.0).value == pytest.approx(2.0)
        assert pair_incoherence(I2, S1_I2, S0_I2, 1.0).value == pytest.approx(2.0)

    def test_identical_supports_rejected(self):
        with pytest.raises(ValueError):
            pair_incoherence(I2, S0_I2, S0_I2, 1.0)

    def test_unequal_sizes_rejected(self):
        A = gaussian_instance(6, 6)
        with pytest.raises(ValueError):
            pair_incoherence(A, make_support([0], 6), make_support([1, 2], 6), 1.0)

    def test_strictly_decreasing_in_noise(self):
        A = gaussian_instance(8, 8, seed=3)
        S0, S1 = random_pair(8, 2, overlap=0)
        values = [pair_incoherence(A, S0, S1, s2).value for s2 in (0.5, 1.0, 2.0)]
        assert values[0] > values[1] > values[2]

    def test_expected_incoherence_bracket_monte_carlo(self):
        # mean over 500 draws at (M=20, K=2, k_d=2) lies in [17, 21]
        vals = []
        for seed in range(500):
            A = gaussian_instance(20, 4, seed=seed, label="prop4")
            S0, S1 = random_pair(4, 2, overlap=0)
            vals.append(pair_incoherence(A, S0, S1, 1.0).value)
        mean = np.mean(vals)
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert 17.0 - 3 * se <= mean <= 21.0 + 3 * se


class TestPairKernel:
    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_matches_dense_oracle_for_every_k_d(self, field, monkeypatch):
        calls = []           # stack size of each `_pencil` call: one per k_d group
        pencil = spectra._pencil
        monkeypatch.setattr(spectra, "_pencil", lambda R, *a: calls.append(len(R)) or pencil(R, *a))
        A = gaussian_instance(8, 9, field=field, seed=5, label="kernel")
        supports = enumerate_supports(9, 3)[::9]
        pairs = [(a, b) for a in supports for b in supports if a != b]
        values, k_d, top = pair_incoherences(A, [a.indices for a, _ in pairs],
                                             [b.indices for _, b in pairs], 0.5)
        assert calls == [np.count_nonzero(k_d == kd) for kd in (1, 2, 3)]
        for n, (a, b) in enumerate(pairs):
            want_top, want = dense_top(A, a, b, 0.5)
            assert k_d[n] == len(a.difference(b))
            assert abs(values[n] - want) <= 1e-12 * want
            assert np.all(np.abs(top[n, :len(want_top)] - want_top) <= 1e-12 * want_top)
            assert np.all(top[n, len(want_top):] == 1.0)

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_stack_carries_one_pair_per_matrix(self, field):
        # mixed k_d, so each k_d group takes a scattered subset of the stack
        supports = enumerate_supports(9, 3)[::9]
        pairs = [(a, b) for a in supports for b in supports if a != b][:40]
        stack = draw_stack(8, 9, len(pairs), field, label="pair-stack")
        values, k_d, top = pair_incoherences(stack, [a.indices for a, _ in pairs],
                                             [b.indices for _, b in pairs], 0.5)
        assert set(k_d.tolist()) == {1, 2, 3}
        for n, (a, b) in enumerate(pairs):
            one = pair_incoherence(MeasurementMatrix(stack[n], field), a, b, 0.5)
            assert k_d[n] == one.k_d
            assert abs(values[n] - one.value) <= 1e-13 * one.value
            np.testing.assert_allclose(top[n, :one.k_d], one.eigenvalues, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_matches_high_precision_oracle_at_small_noise(self, field):
        # the dense M x M pencil loses the eigenvalues of order sigma2 here
        A = sample_gaussian_matrix(6, 8, field, substream(1, "cli-matrix"))
        S0, S1 = make_support([0, 1], 8), make_support([2, 5], 8)
        for a, b in ((S0, S1), (S1, S0)):
            exact = mp_pencil_eigs(A, a, b, 1e-8)
            got = pair_incoherence(A, a, b, 1e-8)
            assert len(got.eigenvalues) == 2
            for x, want in zip(got.eigenvalues, exact[:2]):
                assert abs(x - float(want)) <= 1e-6 * float(want)
            want = math.sqrt(float(exact[0] * exact[1]))
            assert abs(got.value - want) <= 1e-6 * want

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_union_wider_than_m_matches_dense_oracle(self, field):
        # M <= K + k_d, so R has p = M rows and `_pencil` whitens a p x p
        # block of C_1 with p <= K (M = 2, and M = 4 at K = 5) or a K x K
        # block beside a trailing 1 x 1 one (M = 4 at K = 3)
        for M, K in product((2, 4), (3, 5)):
            A = gaussian_instance(M, 8, field=field, seed=M + K, label="wide-union")
            pairs = [random_pair(8, K, K - kd) for kd in (1, 2) if M >= 2 * kd]
            pairs += [(b, a) for a, b in pairs]
            values, k_d, top = pair_incoherences(A, [a.indices for a, _ in pairs],
                                                 [b.indices for _, b in pairs], 0.5)
            for n, (a, b) in enumerate(pairs):
                want_top, want = dense_top(A, a, b, 0.5)
                np.testing.assert_allclose(top[n, :len(want_top)], want_top, rtol=1e-12, atol=0)
                assert np.all(top[n, len(want_top):] == 1.0)
                assert abs(values[n] - want) <= 1e-12 * want

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("sigma2", [0.5, 1e-6, 1e-8])
    def test_h_spectra_shares_the_pencil(self, field, sigma2):
        # both kernels read one `_reduced_spectra`: h_spectra's top k0
        # eigenvalues are the pair kernel's `top`
        A = gaussian_instance(8, 9, field=field, seed=4, label="shared-pencil")
        for kd in (1, 2, 3):
            S0, S1 = random_pair(9, 3, 3 - kd)
            top = pair_incoherences(A, [S0.indices], [S1.indices], sigma2)[2][0]
            eigs = spectra.h_spectra(A.entries[None], S0, S1, sigma2)[0][0]
            np.testing.assert_allclose(eigs[:kd], top[:kd], rtol=1e-12, atol=0)

    def test_tiny_noise_stays_in_domain(self):
        # the pivot floor covers C_1's leading K x K block only; flooring its
        # trailing sigma2 I block too would fail this pair at sigma2 = 1e-14
        A = sample_gaussian_matrix(16, 24, FieldTag.REAL, substream(1, "cli-matrix"))
        value = pair_incoherences(A, [[0, 1]], [[2, 5]], 1e-14)[0][0]
        assert np.isfinite(value) and value > 1.0

    def test_single_pair_is_the_batch_call(self):
        A = gaussian_instance(7, 9, field=FieldTag.COMPLEX, seed=2)
        S0, S1 = make_support([0, 4, 6], 9), make_support([1, 4, 8], 9)
        one = pair_incoherence(A, S0, S1, 0.3)
        values, k_d, top = pair_incoherences(A, [S0.indices], [S1.indices], 0.3)
        assert one.value == values[0] and one.k_d == k_d[0] == 2
        assert one.eigenvalues == tuple(top[0, :2])

    def test_checks(self):
        A = gaussian_instance(6, 8, seed=3)
        with pytest.raises(ValueError, match="identical"):
            pair_incoherences(A, [[0, 1], [2, 3]], [[0, 2], [2, 3]], 1.0)
        with pytest.raises(ValueError, match="equal-size"):
            pair_incoherences(A, [[0, 1]], [[2, 3, 4]], 1.0)
        with pytest.raises(ValueError, match="M >= 2"):
            pair_incoherences(A, [[0, 1, 2, 3]], [[4, 5, 6, 7]], 1.0)
        # a negative index is no column from the end, and a repeated one no support
        for rows in ([[-1, 0]], [[0, 0]], [[3, 2]], [[0, 8]], [[0.0, 1.0]]):
            with pytest.raises(ValueError, match="support rows"):
                pair_incoherences(A, rows, [[2, 5]], 1.0)
            with pytest.raises(ValueError, match="support rows"):
                pair_incoherences(A, [[2, 5]], rows, 1.0)
        stack = np.stack([A.entries] * 3)           # one pair per matrix: 3 matrices, 2 pairs
        with pytest.raises(ValueError, match="stack of 3 matrices"):
            pair_incoherences(stack, [[0, 1], [2, 3]], [[2, 3], [4, 5]], 1.0)
        silent = np.array(A.entries)
        silent[:, [0, 1]] = 0.0                  # S0's columns add nothing: no eigenvalue > 1
        with pytest.raises(NumericFailure, match="exceeds 1"):
            pair_incoherences(silent, [[0, 1]], [[2, 3]], 1.0)
        broken = np.array(A.entries)
        broken[2, 3] = np.nan
        with pytest.raises(NumericFailure):
            pair_incoherences(broken, [[0, 1]], [[2, 3]], 1.0)


class TestMatrixIncoherence:
    def test_identity_two_columns(self):
        summary = matrix_incoherence(I2, 1, 1.0)
        assert summary.lambda_bar == pytest.approx(2.0)
        assert summary.mode == "exhaustive"

    def test_is_minimum_over_pairs(self):
        A = gaussian_instance(6, 6, seed=9)
        summary = matrix_incoherence(A, 2, 1.0)
        from suprec import enumerate_supports
        supports = enumerate_supports(6, 2)
        for Si in supports[:5]:
            for Sj in supports[5:10]:
                if Si.indices != Sj.indices:
                    assert summary.lambda_bar <= pair_incoherence(A, Si, Sj, 1.0).value + 1e-12

    def test_sampled_upper_bounds_exhaustive(self):
        A = gaussian_instance(8, 8, seed=11)
        exact = matrix_incoherence(A, 2, 1.0)
        sampled = matrix_incoherence(A, 2, 1.0, sample_count=50, seed=1)
        assert sampled.lambda_bar >= exact.lambda_bar - 1e-12
        assert sampled.mode == "sampled(50)"

    def test_a_given_count_samples(self):
        A = gaussian_instance(6, 12, seed=4)
        summary = matrix_incoherence(A, 2, 1.0, sample_count=5)
        assert summary.mode == "sampled(5)" and summary.pairs_scored <= 5
        # a count past the pair cap still samples: C(360, 3) gives ~5.9e13 pairs
        A = ula_manifold_matrix(16, ula_angle_grid(360))
        assert matrix_incoherence(A, 3, 1.0, sample_count=20, seed=2).mode == "sampled(20)"

    @pytest.mark.parametrize("sample_count", [0, -3])
    def test_count_below_one_is_an_error_not_an_exhaustive_walk(self, sample_count, monkeypatch):
        monkeypatch.setattr(spectra, "unrank_supports", None)     # no pair is ever drawn
        with pytest.raises(ValueError, match="positive sample_count"):
            matrix_incoherence(gaussian_instance(6, 8, seed=7), 2, 1.0, sample_count=sample_count)

    def test_cap_exceeded(self, monkeypatch):
        A = gaussian_instance(6, 12)
        from suprec import CapExceeded
        monkeypatch.setattr(spectra, "PAIR_CAP", 100)
        with pytest.raises(CapExceeded, match="sampled"):
            matrix_incoherence(A, 3, 1.0)

    def test_exact_ties_keep_first_pair_in_draw_order(self):
        # orthonormal columns: every ordered pair scores exactly the same, in
        # every block
        A = MeasurementMatrix(np.eye(9), FieldTag.REAL)
        L = math.comb(9, 2)
        assert L * (L - 1) > spectra.PAIR_BLOCK
        i, j = np.divmod(np.arange(L * (L - 1)), L - 1)
        j += j >= i
        values = pair_incoherences(A, unrank_supports(i, 9, 2), unrank_supports(j, 9, 2), 0.5)[0]
        assert np.all(values == values[0])
        exhaustive = matrix_incoherence(A, 2, 0.5)
        assert [S.indices for S in exhaustive.argmin_pair] == [(0, 1), (0, 2)]
        sampled = matrix_incoherence(A, 2, 0.5, sample_count=1100, seed=3)
        first = substream(3, "incoherence-pair-sample").choice(L * (L - 1), size=1100,
                                                               replace=False)[0]
        i0, j0 = divmod(int(first), L - 1)
        j0 += j0 >= i0
        supports = enumerate_supports(9, 2)
        assert sampled.argmin_pair == (supports[i0], supports[j0])

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_exhaustive_across_blocks_matches_per_pair_loop(self, field):
        A = gaussian_instance(6, 7, field=field, seed=8, label="blocks")
        supports = enumerate_supports(7, 3)
        assert len(supports) * (len(supports) - 1) > spectra.PAIR_BLOCK
        best, best_pair = np.inf, None
        for Si in supports:
            for Sj in supports:
                if Si != Sj:
                    value = pair_incoherence(A, Si, Sj, 0.7).value
                    if value < best:
                        best, best_pair = value, (Si, Sj)
        summary = matrix_incoherence(A, 3, 0.7)
        assert summary.argmin_pair == best_pair
        assert abs(summary.lambda_bar - best) <= 1e-12 * best

    def test_sampled_mode_never_enumerates(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled incoherence enumerated the supports")
        # every enumeration goes through `model.support_rows`, and spectra
        # imports neither it nor `enumerate_supports`
        monkeypatch.setattr(model, "support_rows", refuse)
        assert not hasattr(spectra, "enumerate_supports") and not hasattr(spectra, "support_rows")
        A = ula_manifold_matrix(16, ula_angle_grid(360))
        summary = matrix_incoherence(A, 3, 1.0, sample_count=50, seed=1)
        assert summary.mode == "sampled(50)" and summary.lambda_bar > 1.0
        assert all(S.size == 3 and S.ambient_dim == 360 for S in summary.argmin_pair)

    def test_set_rule_holds_for_every_sampled_draw(self):
        # M = 3 < 2*min(K, N-K) = 4: some pairs have k_d = 2 and some k_d = 1,
        # so whether a one-pair sample fails must not depend on the draw
        A = gaussian_instance(3, 10, seed=6)
        for seed in range(40):
            with pytest.raises(ValueError, match="incoherence needs M >= 2"):
                matrix_incoherence(A, 2, 1.0, sample_count=1, seed=seed)

    @pytest.mark.parametrize("K", [2, 10])
    def test_set_rule_raises_before_any_pair_is_drawn(self, monkeypatch, K):
        def refuse(*args, **kwargs):
            raise AssertionError("a pair was drawn before the set rule was checked")
        monkeypatch.setattr(spectra, "unrank_supports", refuse)
        monkeypatch.setattr(spectra, "substream", refuse)
        A = gaussian_instance(3, 10, seed=6)
        for sample_count in (None, 5):
            with pytest.raises(ValueError, match="incoherence needs"):
                matrix_incoherence(A, K, 1.0, sample_count=sample_count)

    def test_pair_index_beyond_int64_is_cap(self):
        A = ula_manifold_matrix(16, ula_angle_grid(360))
        with pytest.raises(CapExceeded, match="64-bit"):
            matrix_incoherence(A, 6, 1.0, sample_count=50, seed=1)


@pytest.mark.parametrize("name, call", [
    ("sample_count", lambda A: matrix_incoherence(A, 2, 0.5, sample_count=2.5)),
    ("sample_count", lambda A: matrix_incoherence(A, 2, 0.5, sample_count=True)),
    ("count", lambda A: model.check_non_degenerate(A, count=2.5)),
    ("count", lambda A: model.check_non_degenerate(A, count=True)),
    ("K", lambda A: matrix_incoherence(A, 2.0, 1.0)),
    ("K", lambda A: matrix_incoherence(A, True, 1.0)),
    ("K", lambda A: noise_constants(A, 2.0)),
    ("K", lambda A: noise_constants(A, True)),
], ids=["sample_count-fraction", "sample_count-bool", "count-fraction", "count-bool",
        "incoherence-K-fraction", "incoherence-K-bool", "noise-K-fraction", "noise-K-bool"])
def test_sample_counts_are_integers(name, call):
    # a ValueError that names the argument, not numpy's TypeError from the draw
    # or the pair tables
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(gaussian_instance(6, 8, seed=7))


def sin_grid_ula(M, N):
    """ULA on a grid uniform in sin(theta): shifting both supports of a pair by
    one column keeps every Gram entry, so shifted pairs tie in exact arithmetic."""
    return ula_manifold_matrix(M, np.arcsin(-1 + 2 * (np.arange(N) + 0.5) / N)).entries


def all_pairs(N, K):
    L = math.comb(N, K)
    i, j = np.divmod(np.arange(L * (L - 1)), L - 1)
    j += j >= i
    return unrank_supports(i, N, K), unrank_supports(j, N, K)


def sampled_pairs(N, K, sample, seed):
    """`sample` random ordered pairs of distinct size-K supports."""
    rng = np.random.default_rng(seed)
    L = math.comb(N, K)
    i = rng.choice(L, sample)
    j = (i + 1 + rng.choice(L - 1, sample)) % L
    return unrank_supports(i, N, K), unrank_supports(j, N, K)


def adjacent_pairs(N, sample, seed):
    """Size-2 pairs of neighbouring columns ({a, a+1} against {a+1, a+2},
    {a+2, a+3} and {a, a+2}: nearly collinear supports and near-ties), plus
    `sample` random ordered pairs."""
    a = np.arange(N - 3)[:, None]
    rows0 = np.concatenate([a, a + 1] * 3, axis=1).reshape(-1, 2)
    rows1 = np.concatenate([a + 1, a + 2, a + 2, a + 3, a, a + 2], axis=1).reshape(-1, 2)
    random0, random1 = sampled_pairs(N, 2, sample, seed)
    return np.concatenate([rows0, random0]), np.concatenate([rows1, random1])


FLOOR_CASES = {
    "gaussian-real": lambda: (gaussian_instance(8, 9, seed=21, label="floor").entries,
                              *all_pairs(9, 2)),
    "gaussian-complex": lambda: (gaussian_instance(7, 8, FieldTag.COMPLEX, seed=22,
                                                   label="floor").entries, *all_pairs(8, 3)),
    "ula-fine": lambda: (ula_manifold_matrix(16, ula_angle_grid(360)).entries,
                         *adjacent_pairs(360, 2000, seed=23)),
    "ula-sin-grid": lambda: (sin_grid_ula(8, 64), *adjacent_pairs(64, 500, seed=24)),
    # r = K + k_d up to 6, where the floors' spread bound is loosest
    "ula-K3": lambda: (ula_manifold_matrix(8, ula_angle_grid(90)).entries,
                       *sampled_pairs(90, 3, 2000, seed=29)),
}
SIGMA2S = [1e-8, 1e-4, 1.0, 16.0]


def unpruned(entries, K, sigma2, sample_count=None, seed=0):
    """Reference: the walk that scores every pair exactly."""
    return spectra._pair_walk(entries.shape, K, lambda rows0, rows1: pair_incoherences(
        entries, rows0, rows1, sigma2)[0], sample_count, seed)


def walk_outcome(call):
    """(repr(lambda_bar), argmin rows, mode) of a walk, or the failure it raised."""
    try:
        best, pair, mode = call()
    except NumericFailure as failure:
        return f"NumericFailure: {failure}"
    return repr(best), [list(row) for row in pair], mode


class TestPrunedWalk:
    """`matrix_incoherence` scores exactly only the pairs whose certified floor
    (`_pair_floors`) does not exceed the bar; the unpruned `_pair_walk` is the
    reference."""

    @staticmethod
    def pruned(entries, K, sigma2, sample_count=None, seed=0):
        N = entries.shape[1]
        summary = matrix_incoherence(entries, K, sigma2, sample_count, seed)
        pair = tuple(np.array(S.indices) for S in summary.argmin_pair)
        assert all(S.ambient_dim == N for S in summary.argmin_pair)
        return summary.lambda_bar, pair, summary.mode

    @pytest.mark.parametrize("sigma2", SIGMA2S)
    @pytest.mark.parametrize("case", sorted(FLOOR_CASES))
    def test_floor_is_below_the_computed_value(self, case, sigma2):
        entries, rows0, rows1 = FLOOR_CASES[case]()
        floors = spectra._pair_floors(entries, rows0, rows1, sigma2)
        exact = pair_incoherences(entries, rows0, rows1, sigma2)[0]
        assert not np.isnan(floors).any()
        assert np.all(floors <= exact)

    def test_floor_is_nan_where_the_gram_fails(self):
        for field in (FieldTag.REAL, FieldTag.COMPLEX):
            A = np.array(gaussian_instance(6, 7, field, seed=25, label="floor").entries)
            A[:, 4] = A[:, 1]                      # S1 = {1, 4} has a singular Gram
            floors = spectra._pair_floors(A, np.array([[0, 2], [0, 2]]),
                                          np.array([[1, 4], [1, 3]]), 1.0)
            assert np.isnan(floors[0]) and np.isfinite(floors[1])

    @pytest.mark.parametrize("sigma2", SIGMA2S)
    @pytest.mark.parametrize("case", [
        ("gaussian-real", 6, 7, 3, FieldTag.REAL),             # 1190 pairs, every k_d in 1..3
        ("gaussian-complex", 7, 8, 2, FieldTag.COMPLEX),
        ("ula-sin-grid", 8, 16, 2, None),                      # shifted pairs tie
        ("gaussian-wide", 4, 7, 5, FieldTag.REAL),             # K > M: walked unpruned
    ], ids=lambda c: c[0])
    @pytest.mark.parametrize("block", [spectra.PAIR_BLOCK, 100])
    def test_exhaustive_walk_matches_unpruned(self, case, sigma2, block, monkeypatch):
        label, M, N, K, field = case
        entries = (sin_grid_ula(M, N) if field is None
                   else gaussian_instance(M, N, field, seed=26, label="walk").entries)
        monkeypatch.setattr(spectra, "PAIR_BLOCK", block)
        want = walk_outcome(lambda: unpruned(entries, K, sigma2)[:3])
        assert walk_outcome(lambda: self.pruned(entries, K, sigma2)) == want
        assert want[2] == "exhaustive"

    @pytest.mark.parametrize("sigma2", SIGMA2S)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_sampled_walk_matches_unpruned(self, sigma2, seed):
        # the doa-ula bench matrix at K = 2 (r <= 4), and an 8 x 90 ULA at
        # K = 3 (r <= 6), where the floors' spread bound is loosest
        for M, N, K in ((16, 360, 2), (8, 90, 3)):
            entries = ula_manifold_matrix(M, ula_angle_grid(N)).entries
            want = walk_outcome(lambda: unpruned(entries, K, sigma2, 2000, seed)[:3])
            got = walk_outcome(lambda: self.pruned(entries, K, sigma2, 2000, seed))
            assert got == want and want[2] == "sampled(2000)"

    @pytest.mark.parametrize("sigma2", SIGMA2S)
    @pytest.mark.parametrize("case", sorted(FLOOR_CASES))
    def test_spread_bound_is_above_the_dense_inverse_norm(self, case, sigma2):
        # each floor's margin reads `_spread_bound` where a dense margin reads
        # ||L^{-1}||_F^2, for L L^H = B' = A_U^H A_U + (0 (+) sigma2 I_kd), the
        # union U in `_union_rows` order
        entries, rows0, rows1 = FLOOR_CASES[case]()
        k_d, union = spectra._union_rows(rows0, rows1)
        K = rows0.shape[1]
        for kd in np.unique(k_d):
            U = union[k_d == kd, :K + kd]
            _, pivots, failed, mass = spectra._gram_factor(entries, U, sigma2, K)
            bound = spectra._spread_bound(pivots, mass + kd * sigma2)
            X = entries[:, U].swapaxes(0, 1)                  # (n, M, r)
            B = X.conj().swapaxes(1, 2) @ X
            B[:, K:, K:] += sigma2 * np.eye(kd)
            dense = np.sum(np.abs(np.linalg.inv(np.linalg.cholesky(B))) ** 2, axis=(1, 2))
            assert not failed.any() and (bound >= dense).all()

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("sample_count", [None, 500])
    def test_walk_hands_its_scorer_checked_rows(self, K, sample_count, monkeypatch):
        # the walk scores through the unchecked `_incoherences`, so every set
        # of rows it hands over must pass the row rule and the pair rule
        M, N = 7, 8 if sample_count is None else 30
        entries = gaussian_instance(M, N, seed=30, label="walk-rows").entries
        core, handed = spectra._incoherences, []

        def checked(A, rows0, rows1, sigma2):
            for rows in (rows0, rows1):
                np.testing.assert_array_equal(model._check_rows(rows, N, "support"), rows)
            spectra._pair_union(rows0, rows1, M, N)
            handed.append(len(rows0))
            return core(A, rows0, rows1, sigma2)

        monkeypatch.setattr(spectra, "_incoherences", checked)
        monkeypatch.setattr(spectra, "PAIR_BLOCK", 100)
        summary = matrix_incoherence(entries, K, 0.1, sample_count, seed=3)
        assert handed and sum(handed) == summary.pairs_scored

    def test_exact_ties_are_all_scored(self):
        # orthonormal columns: every pair scores the same, so no floor clears the bar
        entries = np.eye(9)
        summary = matrix_incoherence(entries, 2, 0.5)
        L = math.comb(9, 2)
        assert summary.pairs_scored == L * (L - 1)
        want = walk_outcome(lambda: unpruned(entries, 2, 0.5)[:3])
        assert walk_outcome(lambda: self.pruned(entries, 2, 0.5)) == want

    def test_walk_scores_what_the_floors_leave(self, monkeypatch):
        # K = 1 on 6 columns: 30 ordered pairs in blocks of 7, with made-up
        # scores (ties among them) and floors at or below them, some NaN
        rng = np.random.default_rng(28)
        values = rng.integers(2, 6, (6, 6)).astype(float)
        floors = values - rng.choice([0.0, 0.5, 3.0], (6, 6))
        floors[rng.random((6, 6)) < 0.2] = np.nan
        # The first block holds the minimum twice: (0, 2) with a floor equal to
        # it, and later (0, 5) with the block's lowest floor, scored first.
        values[0, 2] = values[0, 5] = 1.0
        floors[0], floors[1, :3] = values[0] - 0.5, values[1, :3] - 0.5
        floors[0, 2], floors[0, 5] = 1.0, -2.0
        scored = []

        def score(rows0, rows1):
            scored.extend(zip(rows0[:, 0].tolist(), rows1[:, 0].tolist()))
            return values[rows0[:, 0], rows1[:, 0]]

        monkeypatch.setattr(spectra, "PAIR_BLOCK", 7)
        best, pair, mode, count = spectra._pair_walk(
            (2, 6), 1, score, floor=lambda rows0, rows1: floors[rows0[:, 0], rows1[:, 0]])
        pairs = [(i, j) for i in range(6) for j in range(6) if i != j]
        first = min(pairs, key=lambda p: values[p])            # the first minimum in walk order
        assert (best, [row.tolist() for row in pair], mode) == (values[first], [[first[0]], [first[1]]],
                                                                 "exhaustive")
        assert count == len(scored) == len(set(scored)) < len(pairs)
        assert all((i, j) in scored for i, j in pairs if np.isnan(floors[i, j]))
        assert all(floors[p] > best for p in pairs if p not in scored)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_bench_config_scores_few_pairs(self, seed):
        # the doa-ula bench config: ULA M = 16, grid 360, K = 2, 2000 pairs
        entries = ula_manifold_matrix(16, ula_angle_grid(360)).entries
        summary = matrix_incoherence(entries, 2, 1.0, sample_count=2000, seed=seed)
        assert summary.pairs_scored <= 100
        assert unpruned(entries, 2, 1.0, 2000, seed)[3] == 2000

    @pytest.mark.parametrize("sigma2", [1.0, 1e-8])
    @pytest.mark.parametrize("K", [1, 2])
    @pytest.mark.parametrize("fault", ["duplicate", "nan", "inf"])
    def test_failures_match_unpruned(self, fault, K, sigma2):
        A = np.array(gaussian_instance(6, 7, seed=27, label="walk-fault").entries)
        if fault == "duplicate":
            A[:, 4] = A[:, 1]
        else:
            A[3, 5] = np.nan if fault == "nan" else np.inf
        want = walk_outcome(lambda: unpruned(A, K, sigma2)[:3])
        assert walk_outcome(lambda: self.pruned(A, K, sigma2)) == want
        if fault != "duplicate" or K == 1:
            assert want.startswith("NumericFailure")


class TestEigSandwich:
    def test_lower_equals_norms_for_orthogonal_disjoint(self):
        # orthogonal columns, disjoint supports: QR collapses, bound is exact
        A = MeasurementMatrix(np.diag([2.0, 3.0, 1.5, 1.0]), FieldTag.REAL)
        S0 = make_support([0, 1], 4)
        S1 = make_support([2, 3], 4)
        lower = qr_lower_bound_eigs(A, S0, S1, 1.0)
        assert np.allclose(lower, [1 + 9.0, 1 + 4.0])

    def test_upper_single_column_difference(self):
        A = gaussian_instance(6, 6, seed=4)
        S0, S1 = random_pair(6, 2, overlap=1)
        out = upper_bound_eigs(A, S0, S1, 2.0)
        col = A.entries[:, S0.difference(S1)[0]]
        assert out.shape == (1,)
        assert out[0] == pytest.approx(1 + np.sum(np.abs(col) ** 2) / 2.0)

    def test_identity_case_tight(self):
        assert np.allclose(upper_bound_eigs(I2, S0_I2, S1_I2, 1.0), [2.0])
        assert np.allclose(qr_lower_bound_eigs(I2, S0_I2, S1_I2, 1.0), [2.0])

    def test_k0_length_bookkeeping(self):
        A = gaussian_instance(9, 9)
        S0, S1 = random_pair(9, 3, overlap=1)
        assert len(qr_lower_bound_eigs(A, S0, S1, 1.0)) == 2
        assert len(upper_bound_eigs(A, S0, S1, 1.0)) == 2

    def test_nested_supports_have_empty_upper_part(self):
        # S0 inside S1 (unequal sizes): nothing exceeds 1, both bounds empty
        A = gaussian_instance(6, 6)
        S0 = make_support([0], 6)
        S1 = make_support([0, 1], 6)
        assert qr_lower_bound_eigs(A, S0, S1, 1.0).size == 0
        assert upper_bound_eigs(A, S0, S1, 1.0).size == 0
        split = spectrum_split(h_eigenvalues(A, S0, S1, 1.0))
        assert split.count_gt == 0 and split.count_lt == 1

    @pytest.mark.parametrize("M,K,overlap", [(8, 2, 0), (8, 2, 1), (10, 3, 1)])
    def test_sandwich_random_draws(self, M, K, overlap):
        N = 2 * K + 1
        S0, S1 = random_pair(N, K, overlap)
        k0 = K - overlap
        for seed in range(200):
            A = gaussian_instance(M, N, seed=seed, label="sandwich")
            split = spectrum_split(h_eigenvalues(A, S0, S1, 1.0))
            gt = np.asarray(split.eigenvalues[:split.count_gt])
            lower = qr_lower_bound_eigs(A, S0, S1, 1.0)
            upper = upper_bound_eigs(A, S0, S1, 1.0)
            assert split.count_gt == k0
            assert np.min(gt - lower) >= -1e-9
            assert np.min(upper - gt) >= -1e-9


class TestNoiseConstants:
    def test_identity_unit_constants(self):
        assert noise_constants(I2, 1) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_noise_constant_bracket(self):
        A = gaussian_instance(6, 6, seed=12)
        c1, c2 = noise_constants(A, 2)
        assert 0 < c1 <= c2
        for sigma2 in (0.1, 1.0, 10.0):
            lam = matrix_incoherence(A, 2, sigma2).lambda_bar
            assert 1 + c1 / sigma2 - 1e-9 <= lam <= 1 + c2 / sigma2 + 1e-9

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX, pytest.param(None, id="ula")])
    def test_c1_matches_per_pair_loop(self, field, monkeypatch):
        # Gaussian 7 x 7, K = 3: 35 supports give 1190 ordered pairs, two
        # PAIR_BLOCKs (twelve of 100), every k_d in 1..3. ULA 6 x 12, K = 2:
        # its coherent pairs set the minimum, where c1 read from Gram-Cholesky
        # pivots instead of the union QR is ~3e-11 off.
        if field is None:
            A, K = ula_manifold_matrix(6, ula_angle_grid(12)), 2
        else:
            A, K = gaussian_instance(7, 7, field=field, seed=4, label="c1"), 3
        supports = enumerate_supports(A.entries.shape[1], K)
        assert len(supports) * (len(supports) - 1) > spectra.PAIR_BLOCK
        want = min(float(np.exp(np.mean(np.log(np.abs(np.diag(r33(A, Si, Sj))) ** 2))))
                   for Si in supports for Sj in supports if Si != Sj)
        c1, _ = noise_constants(A, K)
        assert abs(c1 - want) <= 1e-12 * want
        monkeypatch.setattr(spectra, "PAIR_BLOCK", 100)
        c1, _ = noise_constants(A, K)
        assert abs(c1 - want) <= 1e-12 * want

    def test_single_support_is_rejected(self):
        # K = N leaves one support and no pair, as in `matrix_incoherence`
        A = gaussian_instance(4, 2, seed=5)
        for call in (lambda: noise_constants(A, 2), lambda: matrix_incoherence(A, 2, 1.0)):
            with pytest.raises(ValueError, match="at least two candidate supports"):
                call()

    @pytest.mark.parametrize("column", [0, 2, 5])
    def test_non_finite_column_fails(self, column):
        # every column lies in some pair, so a NaN anywhere fails c1 (was (inf, nan))
        A = np.array(gaussian_instance(6, 6, seed=12).entries)
        A[4, column] = np.nan
        with pytest.raises(NumericFailure, match=re.escape("factorization failed (non-finite)")):
            noise_constants(A, 2)

    def test_unit_columns_force_c2(self):
        cols = np.eye(4)[:, :3]
        A = MeasurementMatrix(cols, FieldTag.REAL)
        _, c2 = noise_constants(A, 1)
        assert c2 == pytest.approx(1.0)
