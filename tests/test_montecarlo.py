import numpy as np
import pytest

from suprec import (
    FieldTag,
    binary_chernoff,
    clopper_pearson,
    ensemble_fano_lower,
    estimate_binary_perr,
    estimate_ensemble_perr,
    estimate_expected_incoherence,
    estimate_incoherence_tail,
    estimate_multiple_perr,
    enumerate_supports,
    fano_beta_exact,
    fano_lower,
    make_support,
    pair_incoherence,
    sample_gaussian_matrix,
    substream,
    support_rows,
)
from suprec import montecarlo as mc
from suprec.montecarlo import TRIAL_BLOCK, draw_level_blocks
from suprec.spectra import covariance_factors
import math
from itertools import combinations, product

from conftest import dense_scores, gaussian_instance


def binomial_tail_root(k, n, target, start):
    """Oracle: the r where P(X >= k) = target for X ~ Bin(n, r), at 50 digits,
    by Newton's method from `start`. The tail is summed from k, where its
    terms fall, until the rest is below 1e-45 of it."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r, target, tiny = mpmath.mpf(start), mpmath.mpf(target), mpmath.mpf(10) ** -45
        for _ in range(30):
            first = term = total = mpmath.binomial(n, k) * r ** k * (1 - r) ** (n - k)
            for j in range(k, n):
                term *= (n - j) * r / ((j + 1) * (1 - r))
                total += term
                if term * n < total * tiny:
                    break
            step = (total - target) * r / (k * first)
            r -= step
            if abs(step) < r * tiny:
                return r
    raise AssertionError(f"oracle did not converge at k={k}, n={n}")


def exact_interval(errors, trials, confidence, start):
    """The Clopper-Pearson interval as roots of the binomial tails, at the
    float targets `clopper_pearson` states, from a (low, high) start."""
    mpmath = pytest.importorskip("mpmath")
    alpha = 1.0 - confidence
    low, high = start
    with mpmath.workdps(50):
        lo = 0 if errors == 0 else binomial_tail_root(errors, trials, alpha / 2, low)
        hi = 1 if errors == trials else 1 - binomial_tail_root(
            trials - errors, trials, 1.0 - (1.0 - alpha / 2), 1 - mpmath.mpf(high))
    return lo, hi


def ulps_off(got, want):
    """Distance of the float `got` from the exact `want`, in ulps of `want`."""
    return float(abs(got - want)) / math.ulp(float(want)) if 0 < want < 1 else float(got != want)


class TestClopperPearson:
    def test_contains_point_estimate(self):
        lo, hi = clopper_pearson(13, 100)
        assert lo <= 0.13 <= hi

    def test_boundary_cases(self):
        assert clopper_pearson(0, 50)[0] == 0.0
        assert clopper_pearson(50, 50)[1] == 1.0

    def test_widens_with_confidence(self):
        for errors, trials in [(10, 200), (0, 1), (1, 3), (3, 40), (20, 40), (39, 40),
                               (7, 1000), (5000, 10000)]:
            intervals = [clopper_pearson(errors, trials, c) for c in (0.5, 0.9, 0.95, 0.99, 0.999)]
            for (lo, hi), (wider_lo, wider_hi) in zip(intervals, intervals[1:]):
                assert wider_lo < lo or wider_lo == lo == 0.0
                assert hi < wider_hi or hi == wider_hi == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 4)
        with pytest.raises(ValueError, match="integer"):
            clopper_pearson(2.5, 10)
        with pytest.raises(ValueError, match="integer"):
            clopper_pearson(3, 10.0)
        with pytest.raises(ValueError, match="integer"):
            clopper_pearson(True, 10)
        with pytest.raises(ValueError, match="integer"):
            clopper_pearson(1, True)
        with pytest.raises(ValueError, match="confidence"):
            clopper_pearson(3, 10, confidence=1.0)
        assert clopper_pearson(np.int64(3), np.int32(10)) == clopper_pearson(3, 10)

    @pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.999])
    def test_within_8_ulp_of_binomial_tail_root(self, confidence):
        # (66, 111) and (999, 10000) are where scipy's betaincinv missed the
        # root by 160 and 1372 ulps. At 0.999, alpha/2 and 1 - (1 - alpha/2)
        # differ by 512 ulps, so the upper end's target is checked too.
        worst = 0.0
        cases = [(e, n) for n in (1, 2, 3, 10, 13, 37, 100, 111, 500, 1000, 10000)
                 for e in sorted({0, 1, 2, n // 2, n - 1, n} & set(range(n + 1)))]
        for e, n in cases + [(66, 111), (999, 10000)]:
            got = clopper_pearson(e, n, confidence)
            want = exact_interval(e, n, confidence, got)
            worst = max(worst, *map(ulps_off, got, want))
        assert worst <= 8

    @pytest.mark.parametrize("errors", [1, 500_000])
    def test_within_8_ulp_at_a_million_trials(self, errors):
        got = clopper_pearson(errors, 10 ** 6)
        want = exact_interval(errors, 10 ** 6, 0.95, got)
        assert max(map(ulps_off, got, want)) <= 8

    @pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99])
    def test_equals_beta_ppf_oracle(self, confidence):
        # scipy.stats is a cross-check here only; the package must not import
        # it. Its quantiles miss the binomial-tail root by up to ~1400 ulps, so
        # the two agree to 1e-13 (2.6e-14 at most on this grid), not bitwise.
        # The grid samples every e of n <= 200, 1000 and 10000, which would
        # take minutes in pure Python; at (999, 10000, 0.99), off the grid,
        # scipy's upper end is 1.8e-13 from the root (test above).
        from scipy.stats import beta

        grid = [(e, n) for n in [*range(1, 201, 3), 1000, 10000]
                for e in sorted({*range(0, n + 1, max(1, n // 40)), n - 1, n})]
        errors = np.array([e for e, _ in grid])
        trials = np.array([n for _, n in grid])
        alpha = 1.0 - confidence
        low, high = errors > 0, errors < trials
        want_low = np.zeros(len(grid))
        want_low[low] = beta.ppf(alpha / 2, errors[low], trials[low] - errors[low] + 1)
        want_high = np.ones(len(grid))
        want_high[high] = beta.ppf(1 - alpha / 2, errors[high] + 1, trials[high] - errors[high])
        got = np.array([clopper_pearson(e, n, confidence) for e, n in grid])
        np.testing.assert_allclose(got[:, 0], want_low, rtol=1e-13, atol=0)
        np.testing.assert_allclose(got[:, 1], want_high, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("trials", [1, 2, 7, 50, 333])
    def test_monotone_in_errors(self, trials):
        lows, highs = zip(*(clopper_pearson(e, trials) for e in range(trials + 1)))
        assert all(a < b for a, b in zip(lows, lows[1:]))
        assert all(a < b for a, b in zip(highs, highs[1:]))

    @pytest.mark.parametrize("confidence", [0.5, 0.75, 0.875])
    def test_mirror_symmetry(self, confidence):
        # P(X >= e) at x is P(X <= n - e) at 1 - x, so the lower end for
        # (e, n) is 1 minus the upper end for (n - e, n). At these confidences
        # alpha/2 and 1 - (1 - alpha/2) are the same double, so both ends
        # solve one equation and agree to their own rounding.
        for n in (1, 5, 40, 1000):
            for e in sorted({1, 2, n // 3, n // 2, n - 1, n} & set(range(1, n + 1))):
                low = clopper_pearson(e, n, confidence)[0]
                high = clopper_pearson(n - e, n, confidence)[1]
                assert abs(low - (1 - high)) <= 8 * (math.ulp(low) + math.ulp(high))


class TestBinaryEstimate:
    def setup_method(self):
        self.A = gaussian_instance(8, 10, seed=100, label="mc-binary")
        self.S0 = make_support([0, 1], 10)
        self.S1 = make_support([2, 3], 10)

    def test_determinism(self):
        a = estimate_binary_perr(self.A, self.S0, self.S1, 0.1, 2, 400, seed=5)
        b = estimate_binary_perr(self.A, self.S0, self.S1, 0.1, 2, 400, seed=5)
        assert a.p_hat == b.p_hat and a.ci_low == b.ci_low

    def test_first_block_independent_of_trial_count(self):
        rows = np.array([self.S0.indices, self.S1.indices])

        def first_block(trials):
            return next(draw_level_blocks(self.A, rows, [0.2], [2], trials, 6, "binary-trial"))

        short, long = first_block(TRIAL_BLOCK), first_block(2 * TRIAL_BLOCK)
        assert np.array_equal(short[0], long[0])
        assert np.array_equal(short[3], long[3])
        a = estimate_binary_perr(self.A, self.S0, self.S1, 0.2, 2, 500, seed=6)
        b = estimate_binary_perr(self.A, self.S0, self.S1, 0.2, 2, 500, seed=6)
        assert a.p_hat == b.p_hat

    def test_binary_requires_distinct_supports(self):
        with pytest.raises(ValueError, match="distinct"):
            estimate_binary_perr(self.A, self.S0, make_support([1, 0], 10), 0.2, 2, 10, seed=6)

    def test_supports_of_unequal_size_rejected(self):
        with pytest.raises(ValueError):
            estimate_binary_perr(self.A, self.S0, make_support([4], 10), 0.2, 2, 10, seed=6)

    def test_near_noiseless_error_vanishes(self):
        est = estimate_binary_perr(self.A, self.S0, self.S1, 1e-8, 5, 1000, seed=7)
        assert est.p_hat <= 0.01

    def test_chernoff_upper_sandwich_spot(self):
        for sigma2, T in ((0.1, 2), (0.5, 4)):
            est = estimate_binary_perr(self.A, self.S0, self.S1, sigma2, T, 2000, seed=8)
            bound = binary_chernoff(self.A, self.S0, self.S1, sigma2, T)
            half_width = (est.ci_high - est.ci_low) / 2
            assert est.p_hat <= bound.clamped + 3 * half_width

    def test_estimate_bracketed_by_ci(self):
        est = estimate_binary_perr(self.A, self.S0, self.S1, 0.5, 1, 300, seed=9)
        assert est.ci_low <= est.p_hat <= est.ci_high


class TestMultipleEstimate:
    def test_near_noiseless(self):
        A = gaussian_instance(6, 6, seed=101, label="mc-multi")
        est = estimate_multiple_perr(A, 2, 1e-8, 4, 500, seed=10)
        assert est.p_hat <= 0.01

    def test_more_snapshots_reduce_error(self):
        A = gaussian_instance(5, 8, seed=102, label="mc-multi")
        slow = estimate_multiple_perr(A, 2, 1.0, 1, 1500, seed=11)
        fast = estimate_multiple_perr(A, 2, 1.0, 8, 1500, seed=11)
        assert fast.ci_high < slow.ci_low  # separated beyond CI overlap

    def test_fano_lower_sandwich_spot(self):
        A = gaussian_instance(2, 12, seed=103, label="mc-multi")
        est = estimate_multiple_perr(A, 2, 5.0, 1, 1500, seed=12)
        bound = fano_lower(fano_beta_exact(A, 2, 5.0, 1), math.comb(12, 2))
        half_width = (est.ci_high - est.ci_low) / 2
        assert est.p_hat >= bound.clamped - 3 * half_width

    def test_kd_histogram_of_wrong_decodes(self):
        A = gaussian_instance(4, 7, seed=104, label="mc-multi")
        est = estimate_multiple_perr(A, 2, 2.0, 1, 400, seed=13)
        hist = est.extras["kd_histogram"]
        assert sum(hist.values()) == round(est.p_hat * est.trials)
        assert all(1 <= kd <= 2 for kd in hist)

    def test_shared_factors_leave_the_estimate(self):
        A = gaussian_instance(4, 6, seed=106, label="mc-multi")
        factors = covariance_factors(A, support_rows(6, 2), 1.0)
        [a] = mc.estimate_multiple_perrs(A, [factors], [2], 300, seed=15)
        b = estimate_multiple_perr(A, 2, 1.0, 2, 300, seed=15)
        assert (a.p_hat, a.extras) == (b.p_hat, b.extras)

    def test_determinism(self):
        A = gaussian_instance(4, 6, seed=105, label="mc-multi")
        a = estimate_multiple_perr(A, 2, 1.0, 2, 300, seed=14)
        b = estimate_multiple_perr(A, 2, 1.0, 2, 300, seed=14)
        assert a.p_hat == b.p_hat
        assert a.extras["kd_histogram"] == b.extras["kd_histogram"]


class TestBlockDraws:
    """The block-drawn estimators against a per-trial dense M x M decode."""

    TRIALS = 2 * TRIAL_BLOCK + 37     # two full blocks and a ragged one

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("sigma2", [0.5, 1e-8])
    def test_binary_matches_per_trial_lrt(self, field, sigma2):
        A = gaussian_instance(6, 8, field, seed=120, label="mc-blocks")
        S0, S1 = make_support([0, 1], 8), make_support([1, 4], 8)
        rows = np.array([S0.indices, S1.indices])
        errors = 0
        sizes = []
        for truths, _, _, Y in draw_level_blocks(A, rows, [sigma2], [3], self.TRIALS, 15,
                                                 "binary-trial"):
            sizes.append(len(truths))
            for truth, y in zip(truths, Y):
                score0, score1 = dense_scores(A, (S0, S1), sigma2, y)
                errors += (score1 > score0) != truth
        est = estimate_binary_perr(A, S0, S1, sigma2, 3, self.TRIALS, seed=15)
        assert sizes == [TRIAL_BLOCK, TRIAL_BLOCK, 37]
        assert est.p_hat == errors / self.TRIALS

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("sigma2", [0.5, 1e-8])
    def test_multiple_matches_per_trial_decode(self, field, sigma2):
        A = gaussian_instance(4, 6, field, seed=121, label="mc-blocks")
        candidates = enumerate_supports(6, 2)     # lexicographic, so argmax breaks ties
        rows = np.array([S.indices for S in candidates])
        hist = {}
        for truths, _, _, Y in draw_level_blocks(A, rows, [sigma2], [2], self.TRIALS, 16,
                                                 "multiple-trial"):
            for truth, y in zip(truths, Y):
                chosen = int(np.argmax(dense_scores(A, candidates, sigma2, y)))
                if chosen != truth:
                    k_d = len(candidates[truth].difference(candidates[chosen]))
                    hist[k_d] = hist.get(k_d, 0) + 1
        est = estimate_multiple_perr(A, 2, sigma2, 2, self.TRIALS, seed=16)
        assert est.p_hat == sum(hist.values()) / self.TRIALS
        assert est.extras["kd_histogram"] == hist
        if sigma2 == 0.5:
            assert hist  # the comparison covers wrong decodes


class TestNoiseLevels:
    """The grid estimators draw each trial block once per T for all their
    noise levels; every point of the (T, sigma2) grid must read what a
    one-point call reads, in `product(Ts, sigma2s)` order."""

    TRIALS = 2 * TRIAL_BLOCK + 37     # two full blocks and a ragged one
    LEVELS = [(0.5, 1e-8), (1e-8, 0.5, 1e-8)]   # each level both before and as the last
    TS = [[3], [1, 3]]

    @staticmethod
    def fields(est):
        return (est.p_hat, est.trials, est.ci_low, est.ci_high, est.master_seed, est.extras)

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("sigma2s", LEVELS)
    def test_level_blocks_are_the_one_level_blocks(self, field, sigma2s):
        A = gaussian_instance(5, 7, field, seed=122, label="mc-levels")
        rows = support_rows(7, 2)
        for Ts in self.TS:
            # every yield is held until the end: none may be overwritten by a later one
            held = list(draw_level_blocks(A, rows, sigma2s, Ts, self.TRIALS, 17, "levels"))
            assert [(t, level) for _, t, level, _ in held] == [
                (t, level) for t in range(len(Ts)) for _ in range(3)
                for level in range(len(sigma2s))]
            for (_, _, _, Y), (_, _, _, other) in combinations(held, 2):
                assert not np.shares_memory(Y, other)
            for (t, T), (level, sigma2) in product(enumerate(Ts), enumerate(sigma2s)):
                blocks = [(truths, Y) for truths, tt, lv, Y in held if (tt, lv) == (t, level)]
                want = [(truths, Y) for truths, _, _, Y in
                        draw_level_blocks(A, rows, [sigma2], [T], self.TRIALS, 17, "levels")]
                assert len(blocks) == len(want) == 3
                for (truths, Y), (want_truths, want_Y) in zip(blocks, want):
                    assert np.array_equal(truths, want_truths)
                    assert Y.tobytes() == np.ascontiguousarray(want_Y).tobytes()

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("sigma2s", LEVELS)
    def test_binary_levels_equal_one_level_calls(self, field, sigma2s):
        A = gaussian_instance(6, 8, field, seed=120, label="mc-blocks")
        S0, S1 = make_support([0, 1], 8), make_support([1, 4], 8)
        for Ts in self.TS:
            got = mc.estimate_binary_perrs(A, S0, S1, sigma2s, Ts, self.TRIALS, seed=15)
            want = [estimate_binary_perr(A, S0, S1, s, T, self.TRIALS, seed=15)
                    for T, s in product(Ts, sigma2s)]
            assert [self.fields(e) for e in got] == [self.fields(e) for e in want]

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("sigma2s", LEVELS)
    def test_multiple_levels_equal_one_level_calls(self, field, sigma2s):
        A = gaussian_instance(4, 6, field, seed=121, label="mc-blocks")
        factors = [covariance_factors(A, support_rows(6, 2), s) for s in sigma2s]
        for Ts in self.TS:
            got = mc.estimate_multiple_perrs(A, factors, Ts, self.TRIALS, seed=16)
            want = [estimate_multiple_perr(A, 2, s, T, self.TRIALS, seed=16)
                    for T, s in product(Ts, sigma2s)]
            assert [self.fields(e) for e in got] == [self.fields(e) for e in want]
            assert any(e.extras["kd_histogram"] for e in got)   # the comparison covers errors

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("sigma2s", LEVELS)
    def test_ensemble_levels_equal_one_level_calls(self, field, sigma2s):
        for Ts in self.TS:
            got = mc.estimate_ensemble_perrs(4, 6, 2, sigma2s, Ts, 2, self.TRIALS, seed=24,
                                             field=field)
            want = [estimate_ensemble_perr(4, 6, 2, s, T, 2, self.TRIALS, seed=24, field=field)
                    for T, s in product(Ts, sigma2s)]
            assert [self.fields(e) for e in got] == [self.fields(e) for e in want]
            assert any(any(e.extras["per_matrix_errors"]) for e in got)

    def test_factor_sets_of_other_supports_are_rejected(self):
        # the levels' rows are the first factor set's; a set of another K is
        # not the factors of those rows
        A = gaussian_instance(4, 6, seed=121, label="mc-blocks")
        by_K = [covariance_factors(A, support_rows(6, K), 0.5) for K in (2, 3)]
        for factors in (by_K, by_K[::-1]):
            with pytest.raises(ValueError, match="factors must be those of the candidate rows"):
                mc.estimate_multiple_perrs(A, factors, [2], 10, seed=1)

    def test_ensemble_builds_once_per_matrix_and_level(self, monkeypatch):
        built = {"decoders": 0, "matrices": 0}

        def counting(fn, key):
            def wrapped(*args, **kwargs):
                built[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(mc, "SupportDecoder", counting(mc.SupportDecoder, "decoders"))
        monkeypatch.setattr(mc, "sample_gaussian_matrix",
                            counting(mc.sample_gaussian_matrix, "matrices"))
        ests = mc.estimate_ensemble_perrs(4, 6, 2, [0.5, 1e-8], [1, 2, 3], 3, 20, seed=25)
        assert len(ests) == 3 * 2
        assert built == {"decoders": 3 * 2, "matrices": 3}


class TestEnsembleEstimate:
    def test_reproducible_with_breakdown(self):
        a = estimate_ensemble_perr(4, 8, 2, 1.0, 2, matrix_draws=5, trials_per_matrix=100, seed=20)
        b = estimate_ensemble_perr(4, 8, 2, 1.0, 2, matrix_draws=5, trials_per_matrix=100, seed=20)
        assert a.p_hat == b.p_hat
        assert a.extras["per_matrix"] == b.extras["per_matrix"]
        assert len(a.extras["per_matrix"]) == 5
        lo, med, hi = a.extras["spread_min_median_max"]
        assert lo <= med <= hi

    def test_grand_mean_pools_trials(self):
        est = estimate_ensemble_perr(4, 8, 2, 1.0, 1, matrix_draws=4, trials_per_matrix=50, seed=21)
        assert est.trials == 200
        assert est.p_hat == pytest.approx(np.mean(est.extras["per_matrix"]))
        counts = est.extras["per_matrix_errors"]
        assert all(isinstance(c, int) for c in counts)
        assert est.extras["per_matrix"] == tuple(c / 50 for c in counts)
        assert est.p_hat == sum(counts) / est.trials

    def test_matrices_never_share_a_trial_stream(self, monkeypatch):
        used = []

        def recording(seed, label, index=0):
            if label == "ensemble-trial":
                used.append(index)
            return substream(seed, label, index)

        monkeypatch.setattr(mc, "substream", recording)
        est = estimate_ensemble_perr(4, 6, 1, 1.0, 1, matrix_draws=3,
                                     trials_per_matrix=TRIAL_BLOCK + 1, seed=23)
        assert est.trials == 3 * (TRIAL_BLOCK + 1)
        assert used == list(range(6))   # two blocks per matrix, no index reused

    def test_ensemble_fano_respected(self):
        # hard regime (M=2, sigma2=5): average error must clear the ensemble Fano bound
        est = estimate_ensemble_perr(2, 20, 2, 5.0, 1, matrix_draws=4,
                                     trials_per_matrix=500, seed=22)
        bound = ensemble_fano_lower(2, 20, 2, 5.0, 1, 0.5)
        se = np.sqrt(est.p_hat * (1 - est.p_hat) / est.trials)
        assert est.p_hat >= bound.clamped - 3 * se


class TestIncoherenceTail:
    def test_gamma_formula(self):
        est = estimate_incoherence_tail(40, 4, 2, 1.0, draws=10, seed=30)
        assert est.extras["gamma"] == pytest.approx((40 - 4) / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_incoherence_tail(4, 4, 2, 1.0, draws=10, seed=0)

    def test_tail_below_analytic_ceiling(self):
        est = estimate_incoherence_tail(40, 4, 2, 1.0, draws=500, seed=31)
        ceiling = np.exp(-0.5 * (np.log(3) - 1) * (40 - 4))
        assert est.p_hat <= ceiling

    def test_tail_not_increasing_in_M(self):
        lo = estimate_incoherence_tail(30, 4, 2, 1.0, draws=400, seed=32)
        hi = estimate_incoherence_tail(60, 4, 2, 1.0, draws=400, seed=32)
        assert hi.p_hat <= lo.p_hat


class TestExpectedIncoherence:
    def test_mean_inside_closed_form_interval(self):
        m = estimate_expected_incoherence(10, 2, 2, 1.0, draws=300, seed=40)
        assert 7.0 - 3 * m.se <= m.mean <= 11.0 + 3 * m.se

    def test_mean_decreasing_in_noise(self):
        means = [estimate_expected_incoherence(12, 2, 1, s2, draws=200, seed=41).mean
                 for s2 in (0.5, 1.0, 2.0)]
        assert means[0] > means[1] > means[2]

    def test_full_and_single_overlap_cases(self):
        full = estimate_expected_incoherence(14, 2, 2, 1.0, draws=200, seed=42)
        single = estimate_expected_incoherence(14, 2, 1, 1.0, draws=200, seed=42)
        assert 1 + (14 - 4) / 1.0 - 3 * full.se <= full.mean <= 1 + 14 + 3 * full.se
        assert 1 + (14 - 3) / 1.0 - 3 * single.se <= single.mean <= 1 + 14 + 3 * single.se

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_expected_incoherence(4, 2, 2, 1.0, draws=10, seed=0)

    def test_needs_an_integer_count_of_draws(self):
        with pytest.raises(ValueError, match="draws >= 1"):
            estimate_expected_incoherence(10, 2, 2, 1.0, draws=0, seed=0)
        with pytest.raises(ValueError, match="draws must be an integer"):
            estimate_expected_incoherence(10, 2, 2, 1.0, draws=2.0, seed=0)
        assert estimate_expected_incoherence(10, 2, 2, 1.0, draws=1, seed=0).draws == 1


# case -> (argument it names, estimator call on a real 4 x 6 matrix A and the
# supports S0 = {0, 1}, S1 = {2, 3}) with one bad count
COUNT_CASES = {
    "binary-T": ("T", lambda A, S0, S1: estimate_binary_perr(A, S0, S1, 0.5, 0, 10, 1)),
    "binary-trials": ("trials", lambda A, S0, S1: estimate_binary_perr(A, S0, S1, 0.5, 1, 0, 1)),
    "binary-grid-T": ("T", lambda A, S0, S1: mc.estimate_binary_perrs(A, S0, S1, [0.5], [1, 2.0],
                                                                      10, 1)),
    "multiple-T": ("T", lambda A, S0, S1: estimate_multiple_perr(A, 2, 0.5, 0, 10, 1)),
    "multiple-trials": ("trials", lambda A, S0, S1: estimate_multiple_perr(A, 2, 0.5, 1, 2.5, 1)),
    "ensemble-T": ("T", lambda A, S0, S1: estimate_ensemble_perr(4, 6, 2, 0.5, 0, 2, 10, 1)),
    "ensemble-matrix_draws": ("matrix_draws", lambda A, S0, S1: estimate_ensemble_perr(
        4, 6, 2, 0.5, 1, 0, 10, 1)),
    "ensemble-trials_per_matrix": ("trials_per_matrix", lambda A, S0, S1: estimate_ensemble_perr(
        4, 6, 2, 0.5, 1, 2, 0, 1)),
    "tail-fractional-draws": ("draws", lambda A, S0, S1: estimate_incoherence_tail(
        6, 4, 2, 0.5, 2.5, 1)),
    "tail-no-draws": ("draws", lambda A, S0, S1: estimate_incoherence_tail(6, 4, 2, 0.5, 0, 1)),
    "mean-no-draws": ("draws", lambda A, S0, S1: estimate_expected_incoherence(6, 2, 2, 0.5, 0, 1)),
}


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_counts_are_integers_of_at_least_one(case):
    # a ValueError that names the argument, not a ZeroDivisionError or a numpy error
    name, call = COUNT_CASES[case]
    A = sample_gaussian_matrix(4, 6, FieldTag.REAL, substream(0, "count-args"))
    with pytest.raises(ValueError, match=f"^(need {name} >= 1|{name} must be an integer)"):
        call(A, make_support([0, 1], 6), make_support([2, 3], 6))


# case -> (argument it names, grid estimator call on a real 4 x 6 matrix A and
# the supports S0 = {0, 1}, S1 = {2, 3}) with that grid argument empty
EMPTY_GRID_CASES = {
    "binary-sigma2s": ("sigma2s", lambda A, S0, S1: mc.estimate_binary_perrs(A, S0, S1, [], [1],
                                                                              10, 1)),
    "binary-Ts": ("Ts", lambda A, S0, S1: mc.estimate_binary_perrs(A, S0, S1, [0.5], [], 10, 1)),
    "multiple-factors": ("factors", lambda A, S0, S1: mc.estimate_multiple_perrs(A, [], [1], 10,
                                                                                 1)),
    "multiple-Ts": ("Ts", lambda A, S0, S1: mc.estimate_multiple_perrs(
        A, [covariance_factors(A, support_rows(6, 2), 0.5)], [], 10, 1)),
    "ensemble-sigma2s": ("sigma2s", lambda A, S0, S1: mc.estimate_ensemble_perrs(
        4, 6, 2, [], [1], 2, 10, 1)),
    "ensemble-Ts": ("Ts", lambda A, S0, S1: mc.estimate_ensemble_perrs(4, 6, 2, [0.5], [], 2, 10,
                                                                        1)),
}


@pytest.mark.parametrize("case", sorted(EMPTY_GRID_CASES))
def test_empty_grids_raise_before_any_draw(case, monkeypatch):
    # a ValueError that names the argument, not an IndexError or an empty list
    name, call = EMPTY_GRID_CASES[case]
    A = sample_gaussian_matrix(4, 6, FieldTag.REAL, substream(0, "count-args"))

    def refuse(*args, **kwargs):
        raise AssertionError("a stream was drawn before the grid was checked")

    monkeypatch.setattr(mc, "substream", refuse)
    with pytest.raises(ValueError, match=f"^need at least one point in {name},"):
        call(A, make_support([0, 1], 6), make_support([2, 3], 6))


def test_any_integer_sequence_is_a_grid_of_Ts():
    A = sample_gaussian_matrix(4, 6, FieldTag.REAL, substream(0, "count-args"))
    S0, S1 = make_support([0, 1], 6), make_support([2, 3], 6)
    want = mc.estimate_binary_perrs(A, S0, S1, [0.5], [1, 2], 10, 1)
    for Ts in ((1, 2), range(1, 3), np.array([1, 2])):
        assert mc.estimate_binary_perrs(A, S0, S1, [0.5], Ts, 10, 1) == want


class TestStackedIncoherenceDraws:
    """`_draw_incoherences` scores PAIR_BLOCK draws per stacked call; each
    value is the per-draw incoherence of the same matrix."""

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("k_d", [1, 2])
    def test_matches_per_draw_oracle(self, field, k_d):
        M, K, draws = 9, 2, 23
        N = K + k_d + 1                       # one column outside the pair
        rows0, rows1 = list(range(K)), list(range(K - k_d)) + list(range(K, K + k_d))
        got = mc._draw_incoherences(M, N, rows0, rows1, 0.7, draws, 50, field, "stacked-oracle")
        S0, S1 = make_support(rows0, N), make_support(rows1, N)
        want = [pair_incoherence(sample_gaussian_matrix(M, N, field,
                                                        substream(50, "stacked-oracle", d)),
                                 S0, S1, 0.7).value for d in range(draws)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_block_size_leaves_values_bitwise(self, monkeypatch):
        # 30 draws: four blocks of 7 and one of 2
        args = (10, 5, [0, 1], [2, 3], 1.0, 30, 51, FieldTag.COMPLEX, "stacked-blocks")
        whole = mc._draw_incoherences(*args)
        monkeypatch.setattr(mc, "PAIR_BLOCK", 7)
        np.testing.assert_array_equal(mc._draw_incoherences(*args), whole)
