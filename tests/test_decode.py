import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import suprec.decode as decode
import suprec.montecarlo as mc
import suprec.spectra as spectra
from suprec import (
    FieldTag,
    MeasurementMatrix,
    NumericFailure,
    SupportDecoder,
    binary_lrt,
    covariance,
    enumerate_supports,
    field_gaussian,
    log_likelihood,
    make_support,
    ml_decode,
    substream,
    support_rows,
)
from suprec.decode import lrt_decoder

from conftest import (dense_scores, draw_observation, gaussian_instance, gram_factor_instance,
                      mp_log_likelihood)


def dense_log_likelihood(Y, Sigma, kappa):
    """Oracle: the density evaluated with an explicit matrix inverse."""
    M, T = Y.shape
    inv = np.linalg.inv(Sigma)
    _, logdet = np.linalg.slogdet(Sigma)
    quad = np.trace(Y.conj().T @ inv @ Y).real
    return float(-kappa * M * T * np.log(np.pi / kappa) - kappa * T * logdet.real - kappa * quad)


def random_observation(A, S, sigma2, T, seed):
    return draw_observation(A, S, T, sigma2, substream(seed, "dec-sig"),
                            substream(seed, "dec-noise"))


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
            assert got == pytest.approx(dense_log_likelihood(Y, Sigma, kappa), abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            log_likelihood(np.zeros((2, 1)), np.eye(3), kappa=0.5)

    def test_complex_observations_need_the_complex_kappa(self):
        # the real field's kappa on a complex quadratic form is no density; a
        # real-matrix decoder rejects the same observations with the same words
        A = gaussian_instance(4, 6, seed=1)
        S = make_support([0, 1], 6)
        Y = np.ones((4, 2)) + 1j
        for call in (lambda: log_likelihood(Y, covariance(A, S, 0.5), A.field.kappa),
                     lambda: ml_decode(Y, A, [S], 0.5)):
            with pytest.raises(ValueError, match="complex observations need a complex matrix"):
                call()


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
            oracle = [dense_log_likelihood(Y, covariance(A, S, 0.5), 0.5)
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
            idx, _ = decoder.decode_index(Y)
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
        scores = decoder.log_scores(Y)
        res = decoder.decode(Y)
        assert res.log_scores[res.chosen] == pytest.approx(np.max(scores))
        assert np.array_equal(list(res.log_scores.values()), scores)
        assert (candidates.index(res.chosen), res.ties_broken) == decoder.decode_index(Y)
        assert not res.ties_broken
        # adding a constant to every log score cannot move the argmax
        assert int(np.argmax(scores)) == int(np.argmax(scores + 123.456))

    def test_batch_decode_matches_sequential(self):
        A = gaussian_instance(6, 8, seed=3)
        candidates = enumerate_supports(8, 2)
        decoder = SupportDecoder(A, candidates, 0.5)
        Ys = []
        for seed in range(40):
            Ys.append(random_observation(A, candidates[seed % 28], 0.5, 3, seed))
        batch = decoder.decode_index_batch(np.stack(Ys))
        for t, Y in enumerate(Ys):
            assert decoder.decode_index(Y)[0] == batch[t]

    def test_factorization_failure_scores_minus_inf(self):
        # duplicate columns + vanishing noise make one candidate numerically
        # singular, at K < M and at K = M, given as Supports or as rows
        col = np.ones((3, 1))
        A = MeasurementMatrix(np.hstack([col, col, np.eye(3)]), FieldTag.REAL)
        for rows in ([[0, 1], [2, 3]], [[0, 1, 2], [2, 3, 4]]):
            good = make_support(rows[1], 5)
            for candidates in (np.array(rows), [make_support(r, 5) for r in rows]):
                decoder = SupportDecoder(A, candidates, 1e-300)
                assert 0 in decoder.failures and 1 not in decoder.failures
                res = decoder.decode(np.ones((3, 1)))
                assert res.chosen == good

    def test_non_finite_column_fails_only_its_candidate(self):
        # a bare array with a NaN entry: the candidate holding that column is a
        # failure scoring -inf, the other decodes normally
        A = gaussian_instance(6, 5, seed=37, label="nan").entries.copy()
        A[2, 1] = np.nan
        bad, good = make_support([0, 1], 5), make_support([2, 3], 5)
        decoder = SupportDecoder(A, [bad, good], 1.0)
        assert list(decoder.failures) == [0]
        assert "non-finite" in decoder.failures[0]
        scores = decoder.log_scores(np.ones((6, 2)))
        assert scores[0] == -np.inf and np.isfinite(scores[1])
        assert decoder.decode(np.ones((6, 2))).chosen == good
        with pytest.raises(NumericFailure, match="non-finite"):
            lrt_decoder(A, bad, good, 1.0)

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

    def test_batch_breaks_exact_ties_like_decode_index(self):
        # {0} and {1} score identically (equal columns), and at Y = 0 so do the
        # unit columns {3} and {4}; given as Supports or as rows, the batch
        # picks what each single decode does
        col = np.array([[1.0], [2.0], [-1.0]])
        A = MeasurementMatrix(np.hstack([col, col, np.eye(3)]), FieldTag.REAL)
        Ys = np.stack([3.0 * col, 4.0 * np.eye(3)[:, [1]], -col, np.zeros((3, 1))])
        rows = np.array([[1], [3], [0], [4]])
        for candidates in (rows, [make_support(r, 5) for r in rows]):
            decoder = SupportDecoder(A, candidates, 0.1)
            picks = [decoder.decode_index(Y) for Y in Ys]
            assert picks == [(2, True), (1, False), (2, True), (1, True)]
            assert decoder.decode_index_batch(Ys).tolist() == [idx for idx, _ in picks]


def batch_oracle(A, candidates, sigma2, Ys):
    """Dense slogdet/solve log-likelihoods (`conftest.dense_scores` plus the
    shared constant) of every candidate for a stack Ys (n, M, T)."""
    kappa = A.field.kappa
    _, M, T = Ys.shape
    const = -kappa * M * T * np.log(np.pi / kappa)
    return const + np.stack([dense_scores(A, candidates, sigma2, y) for y in Ys], axis=1)


def model_observations(A, candidates, sigma2, n, T, seed):
    """n observations, each drawn under a random candidate (any size)."""
    rng = substream(seed, "lowrank-obs")
    Ys = field_gaussian(rng, (n, A.entries.shape[0], T), A.field) * np.sqrt(sigma2)
    for i, truth in enumerate(rng.integers(0, len(candidates), size=n)):
        S = candidates[truth]
        Ys[i] += A.entries[:, S.as_array()] @ field_gaussian(rng, (S.size, T), A.field)
    return Ys


class TestLowRankScores:
    """`score_batch` (K x K factors, stacked over candidates) against the dense
    M x M oracle and a 60-digit oracle."""

    FIELDS = [FieldTag.REAL, FieldTag.COMPLEX]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("sigma2", [0.5, 0.1])
    def test_matches_dense_oracle(self, field, sigma2):
        A = gaussian_instance(6, 8, field, seed=30, label="lowrank")
        candidates = enumerate_supports(8, 2)
        Ys = model_observations(A, candidates, sigma2, 7, 3, seed=1)
        got = SupportDecoder(A, candidates, sigma2).score_batch(Ys)
        np.testing.assert_allclose(got, batch_oracle(A, candidates, sigma2, Ys), rtol=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    def test_rows_input_equals_support_input(self, field):
        A = gaussian_instance(5, 7, field, seed=31, label="lowrank")
        candidates = enumerate_supports(7, 3)
        rows = np.array([S.indices for S in candidates])
        Ys = model_observations(A, candidates, 0.3, 4, 2, seed=2)
        by_rows = SupportDecoder(A, rows, 0.3)
        assert np.array_equal(by_rows.score_batch(Ys),
                              SupportDecoder(A, candidates, 0.3).score_batch(Ys))
        assert by_rows.candidates == candidates

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("sigma2", [0.5, 1e-30])
    def test_support_at_least_M_has_no_residual(self, field, sigma2):
        # K >= M: Q is square, so y - Q Q^H y is zero and must not be computed.
        # At sigma2 = 1e-30 its rounding noise over sigma2 would swamp the score.
        # K = M, K > M and (at sigma2 = 0.5) K < M decoders score the same Ys.
        A = gaussian_instance(3, 6, field, seed=33, label="lowrank")
        sets = [[[0, 2, 4], [1, 3, 5], [0, 1, 2]], [[1, 2, 3, 5], [0, 2, 4, 5]]]
        if sigma2 == 0.5:
            sets.append([[0, 1], [2, 5], [3, 4]])
        Ys = model_observations(A, [make_support(r, 6) for r in sets[0] + sets[1]], sigma2, 5, 2,
                                seed=4)
        for rows in sets:
            candidates = [make_support(r, 6) for r in rows]
            got = SupportDecoder(A, candidates, sigma2).score_batch(Ys)
            np.testing.assert_allclose(got, batch_oracle(A, candidates, sigma2, Ys), rtol=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    def test_candidate_count_not_a_multiple_of_the_chunk(self, field, monkeypatch):
        A = gaussian_instance(6, 8, field, seed=34, label="lowrank")
        candidates = enumerate_supports(8, 2)                   # L = 28
        Ys = model_observations(A, candidates, 0.5, 9, 2, seed=5)
        monkeypatch.setattr(spectra, "SCORE_CHUNK_ELEMENTS", 3 * 6 * 9 * 2)   # chunks of 3
        got = SupportDecoder(A, candidates, 0.5).score_batch(Ys)
        np.testing.assert_allclose(got, batch_oracle(A, candidates, 0.5, Ys), rtol=1e-12)

    @pytest.mark.parametrize("stacked_fails", [False, True])
    def test_duplicate_columns_fail_only_their_candidate(self, stacked_fails, monkeypatch):
        # columns 0 and 1 are equal: at sigma2 = 1e-300 the candidate {0, 1}
        # has a singular C; at 0.1 it is an ordinary covariance.
        col = np.array([[1.0], [2.0], [-1.0], [0.5]])
        rest = gaussian_instance(4, 3, seed=35, label="lowrank").entries
        A = MeasurementMatrix(np.hstack([col, col, rest]), FieldTag.REAL)
        candidates = [make_support(s, 5) for s in ([2, 4], [0, 1], [1, 3], [0, 3])]
        if stacked_fails:
            # the stacked Cholesky raising sends every candidate through the
            # per-candidate fallback, which must give the same factors
            cholesky = np.linalg.cholesky

            def no_stacks(a, *args, **kwargs):
                if np.ndim(a) > 2:
                    raise np.linalg.LinAlgError("stacked input refused")
                return cholesky(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, "cholesky", no_stacks)
        Ys = model_observations(A, candidates, 0.1, 4, 2, seed=6)
        decoder = SupportDecoder(A, candidates, 0.1)
        assert decoder.failures == {}
        np.testing.assert_allclose(decoder.score_batch(Ys),
                                   batch_oracle(A, candidates, 0.1, Ys), rtol=1e-12)

        decoder = SupportDecoder(A, candidates, 1e-300)
        assert list(decoder.failures) == [1]
        assert "factorization failed" in decoder.failures[1]
        scores = decoder.score_batch(Ys)
        assert np.all(scores[1] == -np.inf) and np.all(np.isfinite(scores[[0, 2, 3]]))
        with pytest.raises(NumericFailure):
            lrt_decoder(A, candidates[0], candidates[1], 1e-300)

    @pytest.mark.parametrize("field", FIELDS)
    def test_small_noise_against_mpmath(self, field):
        # At sigma2 = 1e-8 the dense M x M path is off by up to ~4e-8; the projected
        # residual keeps every score to 1e-12 of a 60-digit reference.
        A = gaussian_instance(6, 8, field, seed=36, label="lowrank")
        candidates = enumerate_supports(8, 2)[::3]
        Ys = model_observations(A, candidates, 1e-8, 2, 2, seed=7)
        got = SupportDecoder(A, candidates, 1e-8).score_batch(Ys)
        for i, S in enumerate(candidates):
            for t, Y in enumerate(Ys):
                ref = mp_log_likelihood(A, S, 1e-8, Y)
                assert abs(got[i, t] - float(ref)) <= 1e-12 * abs(float(ref))


class TestCandidateTable:
    """Supports, index lists and rows all become one (L, K) table of one
    size K; one lexsort of it is the tie order, and every observation stack
    is read through one contiguous column block."""

    FIELDS = [FieldTag.REAL, FieldTag.COMPLEX]

    @pytest.mark.parametrize("candidates", [
        np.array([[-1, 0], [2, 3]]),            # -1 pads, it is no column
        np.array([[0, 1], [2, 6]]),             # N = 6
        np.array([[0.0, 1.0], [2.0, 3.5]]),     # a float row would be truncated
        np.array([0, 1, 2]),                    # 1-D
        [make_support([1], 8), make_support([2, 7], 8)],    # a Support beyond N
        [make_support([1], 10), make_support([2], 10)],     # ambient_dim 10, N = 6
        np.array([[1, 0], [2, 3]]),             # a row out of order
        np.array([[2, 3], [0, 0]]),             # a repeated column
        [[0, 1], [2, 6]],                                   # an index list beyond N
        [0, 1, 2],                                          # a flat index list
    ])
    def test_bad_candidates_are_rejected(self, candidates):
        A = gaussian_instance(4, 6, seed=50, label="table")
        with pytest.raises(ValueError, match="candidate"):
            SupportDecoder(A, candidates, 0.5)

    def test_mixed_sizes_rejected_before_factoring(self, monkeypatch):
        # a decoder, and so the binary test, takes candidates of one size only
        calls = []
        monkeypatch.setattr(decode, "covariance_factors", lambda *args: calls.append(args))
        A = gaussian_instance(4, 6, seed=50, label="table")
        S0, S1 = make_support([0, 1], 6), make_support([2], 6)
        for build in (lambda: SupportDecoder(A, [S0, S1], 0.5),
                      lambda: SupportDecoder(A, [[0, 1], [2, 3, 4]], 0.5),
                      lambda: binary_lrt(np.zeros((4, 1)), A, S0, S1, 0.5),
                      lambda: lrt_decoder(A, S1, S0, 0.5)):
            with pytest.raises(ValueError, match="one size"):
                build()
        assert calls == []

    @pytest.mark.parametrize("field", FIELDS)
    def test_index_lists_decode_like_rows(self, field):
        A = gaussian_instance(4, 6, field, seed=53, label="table")
        rows = [[0, 1], [2, 3], [1, 5]]
        Y = random_observation(A, make_support(rows[2], 6), 0.5, 2, 3)
        by_lists = ml_decode(Y, A, rows, 0.5)
        assert by_lists.chosen.indices in map(tuple, rows)
        for given in (np.array(rows), [make_support(r, 6) for r in rows]):
            assert ml_decode(Y, A, given, 0.5) == by_lists

    def test_observations_are_an_n_m_t_stack_of_the_field(self):
        A = gaussian_instance(4, 6, seed=54, label="table")
        decoder = SupportDecoder(A, support_rows(6, 2), 0.5)
        for method in (decoder.decode_index_batch, decoder.score_batch):
            with pytest.raises(ValueError, match=r"\(n, M, T\) stack"):
                method(np.ones((4, 2)))
            with pytest.raises(ValueError, match="complex observations"):
                method(np.ones((3, 4, 2)) + 1j)
        # a complex matrix takes complex and real observations
        A = gaussian_instance(4, 6, FieldTag.COMPLEX, seed=54, label="table")
        decoder = SupportDecoder(A, support_rows(6, 2), 0.5)
        for Ys in (np.ones((3, 4, 2)) + 1j, np.ones((3, 4, 2))):
            assert decoder.decode_index_batch(Ys).shape == (3,)

    @pytest.mark.parametrize("field", FIELDS)
    def test_tie_order_is_tuple_order(self, field):
        # shared first indices ({2, 5} and {2, 6}, ...) and duplicates, whose
        # exact ties go to the first copy in the tie order
        A = gaussian_instance(6, 8, field, seed=51, label="table")
        candidates = [make_support(s, 8) for s in
                      ([2, 5], [2, 6], [0, 4], [2, 5], [0, 3], [1, 2], [3, 6], [0, 7], [0, 3])]
        decoder = SupportDecoder(A, candidates, 0.3)
        order = sorted(range(len(candidates)), key=lambda i: candidates[i].indices)
        assert decoder._lex_order.tolist() == order
        Ys = model_observations(A, candidates, 0.3, 40, 2, seed=13)
        picks = decoder.decode_index_batch(Ys).tolist()
        assert picks == decoder._pick(decoder.score_batch(Ys))[0].tolist()
        assert 3 not in picks and 8 not in picks          # the later copies never win

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("T", [1, 3])
    def test_non_contiguous_observations(self, field, T):
        A = gaussian_instance(6, 8, field, seed=52, label="table")
        candidates = enumerate_supports(8, 2)
        Ys = model_observations(A, candidates, 0.3, 20, T, seed=14)
        decoder = SupportDecoder(A, candidates, 0.3)
        for view in (Ys[::2], np.asfortranarray(Ys)):
            dense = np.ascontiguousarray(view)
            assert np.array_equal(decoder.score_batch(view), decoder.score_batch(dense))
            assert np.array_equal(decoder.decode_index_batch(view),
                                  decoder.decode_index_batch(dense))


def screen_matches_scores(decoder, Ys):
    """Assert that `decode_index_batch` (the Gram screen) picks what `_pick`
    does on the exact `score_batch`; return the candidate rows it rescored."""
    rescored = []
    scores = decoder._scores

    def spy(values, T, *cand):
        rescored.extend(cand)
        return scores(values, T, *cand)

    decoder._scores = spy
    try:
        got = decoder.decode_index_batch(Ys)
    finally:
        del decoder._scores
    assert got.tolist() == decoder._pick(decoder.score_batch(Ys))[0].tolist()
    return rescored


def screen_table(decoder, values, ysq, T):
    """The (L, n) Gram screen of the observation block `values` (M, T n),
    its spans (`SupportDecoder._screen`) copied as each is yielded and stacked."""
    AhY = decoder._entries.conj().T @ values
    return np.concatenate([scores.copy() for _, scores in decoder._screen(AhY, ysq, T)])


def screen_builds(monkeypatch):
    """The list to which every Gram screen built (a `decode._gram_screen`
    call) appends its sigma2, in the order they are built."""
    built = []
    gram_screen = decode._gram_screen

    def spy(entries, factors):
        built.append(factors.sigma2)
        return gram_screen(entries, factors)

    monkeypatch.setattr(decode, "_gram_screen", spy)
    return built


class TestGramScreen:
    """`decode_index_batch` screens candidates in K x K Gram space
    (`SupportDecoder._screen`) and rescores near-ties exactly; its picks
    must be those of `_pick(score_batch)` in every case."""

    FIELDS = [FieldTag.REAL, FieldTag.COMPLEX]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("sigma2", [1e-8, 1e-4, 0.1, 2.0])
    def test_margin_bounds_the_screen_error(self, field, sigma2):
        for M, N, K in ((8, 10, 2), (3, 6, 4)):
            A = gaussian_instance(M, N, field, seed=40, label="screen")
            candidates = enumerate_supports(N, K)
            Ys = model_observations(A, candidates, sigma2, 64, 3, seed=8)
            decoder = SupportDecoder(A, candidates, sigma2)
            factors = decoder.factors
            inverse, rho = decoder._grams
            values, T = decoder._columns(Ys)
            ysq = np.sum(np.abs(Ys) ** 2, axis=(1, 2))
            screened = screen_table(decoder, values, ysq, T)
            error = np.abs(screened - decoder._scores(values, T))
            # each candidate's margin m_S (`SupportDecoder._screen`), and the
            # per-trial bound m-bar (`_margin`) over all of them
            eps = np.finfo(float).eps
            spread = decode.SCREEN_ROUNDING * (M + K) * (1.0 + rho) ** 2 + 4.0
            margin = 4 * eps * np.abs(decoder._offsets(T, factors.logdet)) + np.multiply.outer(
                spread, (eps * decoder.kappa / sigma2) * ysq)
            assert np.max(error / margin) <= 1e-2
            bound = decoder._margin(ysq, T)
            assert (margin <= bound).all() and (error <= bound).all()
            # F^{-1} (`_gram_screen`) and rho against a dense factor per support
            for row, got, got_rho in zip(factors.rows, inverse, rho):
                X = A.entries[:, row]
                want = np.linalg.inv(np.linalg.cholesky(sigma2 * np.eye(K) + X.conj().T @ X))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())
                assert got_rho == pytest.approx(np.linalg.norm(X) * np.linalg.norm(want), rel=1e-9)
            rescored = screen_matches_scores(decoder, Ys)
            # With K > M, F F^H has K - M eigenvalues sigma2, so rho >= ||A_S||_F / sigma:
            # at sigma2 = 1e-8 the margins may leave candidates near, to be rescored.
            assert rescored == [] or (K > M and sigma2 < 1e-4)

    @pytest.mark.parametrize("field", FIELDS)
    def test_gram_screen_matches_dense(self, field):
        # F^{-1}, inverted from `spectra._gram_factor`'s F a row at a time, and
        # rho against per-support `np.linalg.cholesky` and `np.linalg.inv`. The
        # first support's F and covariance factors fail
        # (`gram_factor_instance`): its F^{-1} is the identity and its rho 0.
        entries, rows = gram_factor_instance(field)
        factors = spectra.covariance_factors(entries, rows, 0.5)
        inverse, rho = decode._gram_screen(entries, factors)
        assert list(factors.failures) == [0] and rho[0] == 0.0
        assert np.array_equal(inverse[0], np.eye(4))
        for n, row in enumerate(rows[1:], 1):
            X = entries[:, row]
            want = np.linalg.inv(np.linalg.cholesky(0.5 * np.eye(4) + X.conj().T @ X))
            np.testing.assert_allclose(inverse[n], want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            np.testing.assert_allclose(rho[n], np.linalg.norm(X) * np.linalg.norm(want), rtol=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    def test_forced_near_ties_are_rescored(self, field, monkeypatch):
        # a margin constant of 1e12 makes nearly every candidate of every trial
        # near, so the exact rescoring and `_pick` decide
        A = gaussian_instance(6, 8, field, seed=41, label="screen")
        candidates = enumerate_supports(8, 2)
        Ys = model_observations(A, candidates, 0.3, 40, 2, seed=9)
        monkeypatch.setattr(decode, "SCREEN_ROUNDING", 1e12)
        rows = np.array([S.indices for S in candidates])
        for given in (rows, candidates):
            rescored = screen_matches_scores(SupportDecoder(A, given, 0.3), Ys)
            assert len(rescored) == 1 and len(rescored[0]) > 2

    @pytest.mark.parametrize("field", FIELDS)
    def test_near_duplicate_columns(self, field):
        # columns 0 and 1 differ by 1e-13: the supports {0, j} and {1, j} score
        # within rounding of each other, and {0, 1} is nearly singular
        A = gaussian_instance(6, 7, field, seed=42, label="screen").entries.copy()
        A[:, 1] = A[:, 0] + 1e-13 * A[:, 2]
        A = MeasurementMatrix(A, field)
        candidates = enumerate_supports(7, 2)
        for sigma2 in (1e-4, 0.5):
            Ys = model_observations(A, candidates, sigma2, 60, 2, seed=10)
            Ys[:8] = A.entries[:, [0]] * np.arange(1, 9)[:, None, None] + 1e-3 * Ys[:8]
            decoder = SupportDecoder(A, candidates, sigma2)
            assert decoder.failures == {}
            if sigma2 == 1e-4:
                _, rho = decoder._grams
                pair = candidates.index(make_support([0, 1], 7))
                assert rho[pair] > 50 * np.median(rho)
            assert screen_matches_scores(decoder, Ys)

    def test_exact_ties_as_rows_and_supports(self):
        # {0, 2} and {1, 2} score identically (equal columns 0 and 1), as do
        # {3, 4} and {3, 5} at Y = 0; the screen hands both ties to `_pick`
        col = np.array([[1.0], [2.0], [-1.0], [0.5]])
        g = gaussian_instance(4, 1, seed=43, label="screen").entries
        A = MeasurementMatrix(np.hstack([col, col, g, np.eye(4)[:, :3]]), FieldTag.REAL)
        rows = np.array([[1, 2], [3, 5], [0, 2], [3, 4], [2, 5]])
        Ys = np.stack([3.0 * col + g, np.zeros((4, 1)), -col])
        for candidates in (rows, [make_support(r, 6) for r in rows]):
            decoder = SupportDecoder(A, candidates, 0.1)
            assert screen_matches_scores(decoder, Ys)
            assert decoder.decode_index_batch(Ys).tolist()[:2] == [2, 3]

    @pytest.mark.parametrize("nan_column", [False, True])
    def test_failed_candidates_are_never_near(self, nan_column):
        # duplicate columns at sigma2 = 1e-300, or a NaN column, fail {0, 1};
        # it scores -inf and the screen never picks or rescores it
        col = np.array([[1.0], [2.0], [-1.0], [0.5]])
        rest = gaussian_instance(4, 3, seed=44, label="screen").entries
        entries = np.hstack([col, col, rest])
        sigma2 = 1e-300
        if nan_column:
            entries[2, 1], sigma2 = np.nan, 1.0
        A = MeasurementMatrix(entries, FieldTag.REAL) if not nan_column else entries
        candidates = [make_support(s, 5) for s in ([2, 4], [0, 1], [1, 3], [0, 3], [3, 4])]
        decoder = SupportDecoder(A, candidates, sigma2)
        bad = [1, 2] if nan_column else [1]
        assert sorted(decoder.failures) == bad
        Ys = np.stack([entries[:, [0, 3]] @ np.ones((2, 2)) + 0.1, np.ones((4, 2)), -np.ones((4, 2))])
        for rescored in screen_matches_scores(decoder, Ys):
            assert not set(rescored.tolist()) & set(bad)
        assert not set(decoder.decode_index_batch(Ys).tolist()) & set(bad)

        # when every candidate fails, each trial goes to the lexicographically
        # first, and none is rescored
        decoder = SupportDecoder(A, [candidates[i] for i in bad[::-1]], sigma2)
        assert not any(len(cand) for cand in screen_matches_scores(decoder, Ys))

    @pytest.mark.parametrize("field", FIELDS)
    def test_failed_gram_factor_on_a_zero_trial(self, field):
        # K = 4 > M = 3 at sigma2 = 1e-18: F fails (rho = inf) while the
        # covariance factors hold, and an all-zero trial has |y|^2 = 0; the
        # margin is inf there, not inf * 0 = NaN, so every trial is rescored.
        # Then one such candidate among finite ones: column 0 scaled by 1e4
        # puts F's pivot floor far above sigma2 = 1e-10 in {0, 1, 2, 3} only.
        A = gaussian_instance(3, 6, field, seed=47, label="screen")
        scaled = A.entries.copy()
        scaled[:, 0] *= 1e4
        one = np.vstack([[0, 1, 2, 3], support_rows(6, 4)[10:]])        # the others omit 0
        for A, candidates, sigma2, inf_rho in ((A, enumerate_supports(6, 4), 1e-18, None),
                                               (MeasurementMatrix(scaled, field), one, 1e-10, [0])):
            Ys = model_observations(A, enumerate_supports(6, 4), sigma2, 5, 2, seed=13)
            Ys[1] = 0.0
            decoder = SupportDecoder(A, candidates, sigma2)
            assert decoder.failures == {}
            rescored = screen_matches_scores(decoder, Ys)
            _, rho = decoder._grams
            infinite = np.flatnonzero(np.isinf(rho)).tolist()
            assert infinite if inf_rho is None else infinite == inf_rho
            assert np.isinf(decoder._margin(np.sum(np.abs(Ys) ** 2, axis=(1, 2)), 2)).all()
            assert [len(cand) for cand in rescored] == [len(rho)]

    @pytest.mark.parametrize("field", FIELDS)
    def test_support_at_least_M(self, field):
        # K = M and K > M (p = M) are screened like K < M, given as Supports
        # or as rows; so are a single candidate, an empty stack and a trial
        # with a NaN entry, whose screen is NaN, so it is rescored
        A = gaussian_instance(3, 6, field, seed=45, label="screen")
        for rows in ([[0, 2, 4], [1, 3, 5], [0, 1, 2]], [[1, 2, 3, 5], [0, 2, 4, 5]],
                     [[0, 1], [2, 5], [3, 4]], [[1, 4]]):
            candidates = [make_support(r, 6) for r in rows]
            Ys = model_observations(A, candidates, 0.2, 20, 2, seed=11)
            Ys[3, 1, 0] = np.nan
            for given in (np.array(rows), candidates):
                decoder = SupportDecoder(A, given, 0.2)
                assert len(screen_matches_scores(decoder, Ys)) == 1
                assert decoder.decode_index_batch(Ys)[3] == decoder._lex_order[0]
                assert screen_matches_scores(decoder, Ys[:0]) == []
                assert decoder.decode_index_batch(Ys[:0]).shape == (0,)

    @pytest.mark.parametrize("field", FIELDS)
    def test_chunk_not_a_multiple_of_the_candidates(self, field, monkeypatch):
        A = gaussian_instance(6, 8, field, seed=46, label="screen")
        candidates = enumerate_supports(8, 2)                   # L = 28
        Ys = model_observations(A, candidates, 0.5, 9, 2, seed=12)
        decoder = SupportDecoder(A, candidates, 0.5)
        values, T = decoder._columns(Ys)
        ysq = np.sum(np.abs(Ys) ** 2, axis=(1, 2))
        whole = screen_table(decoder, values, ysq, T)
        monkeypatch.setattr(spectra, "SCORE_CHUNK_ELEMENTS", 3 * 2 * 9 * 2)   # screen chunks of 3
        # spans of 7 x 9 screen values round down to two chunks: 4 spans of
        # 6 candidates and one of 4, which is a chunk and one candidate
        monkeypatch.setattr(decode, "SCREEN_SPAN", 7 * 9)
        held = [scores for _, scores in decoder._screen(A.entries.conj().T @ values, ysq, T)]
        assert [len(scores) for scores in held] == [6, 6, 6, 6, 4]
        # spans held at once read as spans consumed one at a time
        assert np.array_equal(screen_table(decoder, values, ysq, T), whole)
        assert np.array_equal(np.concatenate(held), whole)
        assert not any(np.shares_memory(a, b) for a, b in combinations(held, 2))
        screen_matches_scores(decoder, Ys)
        monkeypatch.setattr(decode, "SCREEN_ROUNDING", 1e12)            # and rescoring chunks
        assert screen_matches_scores(decoder, Ys)

    def test_working_memory_does_not_grow_with_candidates_times_trials(self):
        # L = C(30, 3) = 4,060 candidates and 256 trials: an (L, n) float table
        # is 8.3 MB, while the decoder holds at most two spans (`SCREEN_SPAN`,
        # 1 MB each)
        A = gaussian_instance(6, 30, seed=50, label="screen")
        candidates = enumerate_supports(30, 3)
        Ys = model_observations(A, candidates, 0.5, 256, 2, seed=15)
        decoder = SupportDecoder(A, candidates, 0.5)
        tracemalloc.start()
        try:
            decoder.decode_index_batch(Ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert screen_matches_scores(decoder, Ys) == []

    def test_covariance_factors_factor_once(self, monkeypatch):
        # the screen's Gram factor is the decoder's: `covariance_factors`
        # factors only the C of its supports
        shapes = []
        whitener = spectra._whitener

        def spy(C):
            shapes.append(C.shape)
            return whitener(C)

        monkeypatch.setattr(spectra, "_whitener", spy)
        spectra.covariance_factors(gaussian_instance(6, 8, seed=47, label="screen"),
                                   support_rows(8, 2), 0.5)
        assert shapes == [(28, 2, 2)]

    def test_binary_decoders_build_no_screen(self, monkeypatch):
        built = screen_builds(monkeypatch)
        A = gaussian_instance(6, 8, FieldTag.COMPLEX, seed=48, label="screen")
        S0, S1 = make_support([0, 1], 8), make_support([2, 5], 8)
        binary_lrt(np.ones((6, 2)), A, S0, S1, 0.5)
        mc.estimate_binary_perrs(A, S0, S1, [0.1, 0.5], [1, 2], 50, 1)
        assert built == []

    def test_each_level_builds_its_screen_once(self, monkeypatch):
        # 2 Ts x 2 noise levels x 3 trial blocks decode 12 times with 2 screens
        built = screen_builds(monkeypatch)
        decodes = []
        decode_index_batch = SupportDecoder.decode_index_batch

        def spy(decoder, Ys):
            decodes.append(len(Ys))
            return decode_index_batch(decoder, Ys)

        monkeypatch.setattr(SupportDecoder, "decode_index_batch", spy)
        A = gaussian_instance(4, 6, seed=49, label="screen")
        sigma2s = [0.1, 0.5]
        decoders = [SupportDecoder(A, support_rows(6, 2), s) for s in sigma2s]
        mc.estimate_multiple_perrs(A, decoders, [1, 2], 2 * mc.TRIAL_BLOCK + 1, 1)
        assert len(decodes) == 12 and built == sigma2s
