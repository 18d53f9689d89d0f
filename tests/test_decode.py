import numpy as np
import pytest

from suprec import (
    FieldTag,
    MeasurementMatrix,
    SupportDecoder,
    binary_lrt,
    covariance,
    enumerate_supports,
    log_likelihood,
    make_support,
    ml_decode,
    observe,
    sample_signal_batch,
    substream,
)

from conftest import gaussian_instance


def dense_log_likelihood(Y, Sigma, kappa):
    """Oracle: the density evaluated with an explicit matrix inverse."""
    M, T = Y.shape
    inv = np.linalg.inv(Sigma)
    _, logdet = np.linalg.slogdet(Sigma)
    quad = np.trace(Y.conj().T @ inv @ Y).real
    return float(-kappa * M * T * np.log(np.pi / kappa) - kappa * T * logdet.real - kappa * quad)


def random_observation(A, S, sigma2, T, seed):
    _, field = A.entries, A.field
    X = sample_signal_batch(S, T, field, substream(seed, "dec-sig"))
    return observe(A, X, sigma2, substream(seed, "dec-noise"))


class TestLogLikelihood:
    def test_standard_normal_at_zero(self):
        value = log_likelihood(np.zeros((1, 1)), np.eye(1), kappa=0.5)
        assert value == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_complex_standard_at_zero(self):
        value = log_likelihood(np.zeros((1, 1), dtype=complex), np.eye(1), kappa=1.0)
        assert value == pytest.approx(-np.log(np.pi), abs=1e-12)

    @pytest.mark.parametrize("field,kappa", [(FieldTag.REAL, 0.5), (FieldTag.COMPLEX, 1.0)])
    def test_matches_dense_inverse_oracle(self, field, kappa):
        for seed in range(50):
            A = gaussian_instance(6, 8, field=field, seed=seed, label="ll")
            S = make_support([0, 4], 8)
            Sigma = covariance(A, S, 0.7)
            Y = random_observation(A, S, 0.7, 3, seed)
            got = log_likelihood(Y, Sigma, kappa)
            assert got == pytest.approx(dense_log_likelihood(Y.values, Sigma, kappa), abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            log_likelihood(np.zeros((2, 1)), np.eye(3), kappa=0.5)


class TestBinaryLrt:
    def test_zero_input_symmetric_ties_to_zero(self):
        A = MeasurementMatrix(np.eye(2), FieldTag.REAL)
        res = binary_lrt(np.zeros((2, 1)), A, make_support([0], 2), make_support([1], 2), 1.0)
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.choice == 0

    def test_statistic_is_loglikelihood_difference(self):
        for seed in range(100):
            A = gaussian_instance(5, 8, seed=seed, label="lrt")
            S0 = make_support([0, 1], 8)
            S1 = make_support([2, 6], 8)
            Y = random_observation(A, S1, 0.4, 2, seed)
            res = binary_lrt(Y, A, S0, S1, 0.4)
            diff = (log_likelihood(Y, covariance(A, S1, 0.4), 0.5)
                    - log_likelihood(Y, covariance(A, S0, 0.4), 0.5))
            assert res.statistic == pytest.approx(diff, abs=1e-9)

    def test_near_noiseless_picks_truth(self):
        A = gaussian_instance(6, 8, seed=77)
        S0 = make_support([0, 1], 8)
        S1 = make_support([3, 5], 8)
        hits = 0
        for seed in range(100):
            Y = random_observation(A, S1, 1e-6, 5, seed)
            hits += binary_lrt(Y, A, S0, S1, 1e-6).choice == 1
        assert hits >= 99

    def test_antisymmetry(self):
        A = gaussian_instance(5, 7, seed=13)
        S0 = make_support([0, 2], 7)
        S1 = make_support([1, 4], 7)
        for seed in range(50):
            Y = random_observation(A, S0, 0.8, 2, seed)
            fwd = binary_lrt(Y, A, S0, S1, 0.8)
            rev = binary_lrt(Y, A, S1, S0, 0.8)
            assert fwd.statistic == pytest.approx(-rev.statistic, abs=1e-9)
            # never both prefer their second argument
            assert not (fwd.choice == 1 and rev.choice == 1)

    def test_identical_supports_rejected(self):
        A = gaussian_instance(4, 5)
        with pytest.raises(ValueError):
            binary_lrt(np.zeros((4, 1)), A, make_support([0], 5), make_support([0], 5), 1.0)


class TestMlDecode:
    def test_single_candidate(self):
        A = gaussian_instance(4, 6)
        S = make_support([1, 3], 6)
        Y = random_observation(A, S, 0.5, 2, 0)
        res = ml_decode(Y, A, [S], 0.5)
        assert res.chosen == S and not res.ties_broken

    def test_agrees_with_brute_force_pdf(self):
        candidates = enumerate_supports(6, 2)
        matches = 0
        for seed in range(200):
            A = gaussian_instance(6, 6, seed=seed, label="mlbf")
            truth = candidates[seed % len(candidates)]
            Y = random_observation(A, truth, 0.5, 3, seed)
            res = ml_decode(Y, A, candidates, 0.5)
            oracle = [dense_log_likelihood(Y.values, covariance(A, S, 0.5), 0.5)
                      for S in candidates]
            matches += res.chosen == candidates[int(np.argmax(oracle))]
        assert matches == 200

    def test_near_noiseless_recovery_rate(self):
        A = gaussian_instance(8, 8, seed=5)
        candidates = enumerate_supports(8, 2)
        decoder = SupportDecoder(A, candidates, 1e-6)
        hits = 0
        trials = 1000
        for seed in range(trials):
            truth = candidates[seed % len(candidates)]
            Y = random_observation(A, truth, 1e-6, 4, seed)
            idx, _ = decoder.decode_index(Y.values)
            hits += candidates[idx] == truth
        assert hits / trials >= 0.99

    def test_candidate_order_never_changes_choice(self):
        A = gaussian_instance(5, 6, seed=21)
        candidates = enumerate_supports(6, 2)
        Y = random_observation(A, candidates[3], 0.7, 2, 9)
        base = ml_decode(Y, A, candidates, 0.7).chosen
        perm = substream(0, "perm").permutation(len(candidates))
        shuffled = [candidates[i] for i in perm]
        assert ml_decode(Y, A, shuffled, 0.7).chosen == base

    def test_two_candidates_agree_with_binary_lrt(self):
        S0 = make_support([0, 1], 7)  # lexicographically first, matching the LRT tie rule
        S1 = make_support([2, 5], 7)
        for seed in range(1000):
            A = gaussian_instance(5, 7, seed=seed, label="ml2")
            truth = S0 if seed % 2 else S1
            Y = random_observation(A, truth, 0.6, 2, seed)
            lrt = binary_lrt(Y, A, S0, S1, 0.6)
            res = ml_decode(Y, A, [S0, S1], 0.6, keep_scores=False)
            assert res.chosen == (S1 if lrt.choice == 1 else S0)

    def test_chosen_attains_max_score_and_shift_invariance(self):
        A = gaussian_instance(5, 6, seed=2)
        candidates = enumerate_supports(6, 2)
        decoder = SupportDecoder(A, candidates, 0.9)
        Y = random_observation(A, candidates[0], 0.9, 2, 4)
        scores = decoder.log_scores(Y.values)
        res = decoder.decode(Y.values)
        assert res.log_scores[res.chosen] == pytest.approx(np.max(scores))
        assert np.array_equal(list(res.log_scores.values()), scores)
        assert (candidates.index(res.chosen), res.ties_broken) == decoder.decode_index(Y.values)
        assert not res.ties_broken
        # adding a constant to every log score cannot move the argmax
        assert int(np.argmax(scores)) == int(np.argmax(scores + 123.456))

    def test_batch_decode_matches_sequential(self):
        A = gaussian_instance(6, 8, seed=3)
        candidates = enumerate_supports(8, 2)
        decoder = SupportDecoder(A, candidates, 0.5)
        Ys = []
        for seed in range(40):
            Ys.append(random_observation(A, candidates[seed % 28], 0.5, 3, seed).values)
        batch = decoder.decode_index_batch(np.stack(Ys))
        for t, Y in enumerate(Ys):
            assert decoder.decode_index(Y)[0] == batch[t]

    def test_factorization_failure_scores_minus_inf(self):
        # duplicate columns + vanishing noise make one candidate numerically singular
        col = np.ones((3, 1))
        A = MeasurementMatrix(np.hstack([col, col, np.eye(3)]), FieldTag.REAL)
        bad = make_support([0, 1], 5)
        good = make_support([2, 3, 4], 5)
        decoder = SupportDecoder(A, [bad, good], 1e-300)
        assert 0 in decoder.failures and 1 not in decoder.failures
        res = decoder.decode(np.ones((3, 1)))
        assert res.chosen == good

    def test_decode_with_scores_breaks_ties_like_decode_index(self):
        # columns 0 and 1 are equal, so supports {0} and {1} score identically
        col = np.array([[1.0], [2.0], [-1.0]])
        A = MeasurementMatrix(np.hstack([col, col, np.eye(3)]), FieldTag.REAL)
        candidates = [make_support([1], 5), make_support([3], 5), make_support([0], 5)]
        decoder = SupportDecoder(A, candidates, 0.1)
        Y = 3.0 * col
        res = decoder.decode(Y, keep_scores=True)
        idx, tied = decoder.decode_index(Y)
        assert tied and res.ties_broken
        assert res.chosen == candidates[idx] == make_support([0], 5)
        assert np.array_equal(list(res.log_scores.values()), decoder.log_scores(Y))
