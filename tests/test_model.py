import math
import warnings
from itertools import combinations, islice

import numpy as np
import pytest

from suprec import (
    CapExceeded,
    FieldTag,
    MeasurementMatrix,
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

import suprec.model as model
from suprec.model import NonDegeneracyReport, _comb_table, _seed_states
from suprec.montecarlo import TRIAL_BLOCK, draw_level_blocks

from conftest import gaussian_instance


class TestSupport:
    def test_sorting_is_canonical(self):
        s = make_support([2, 0], 5)
        assert s.indices == (0, 2) and s.ambient_dim == 5

    def test_minimal_case(self):
        assert make_support([0], 1).indices == (0,)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_support([0, 5], 5)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            make_support([1, 1], 4)

    def test_integer_indices_only(self):
        assert make_support([np.int64(3), np.intp(1)], 4).indices == (1, 3)
        for bad in ([0.9, 1], [0, "1"], [True, 2], [1.0, 2]):
            with pytest.raises(ValueError, match="support index must be an integer"):
                make_support(bad, 4)
            # the constructor holds the same rule, so no float is read as a column
            with pytest.raises(ValueError, match="support index must be an integer"):
                Support(tuple(bad), 4)
        assert Support((np.intp(0), 2), 3).as_array().tolist() == [0, 2]
        # so is the ambient dimension: a float N is not truncated, and N >= 1
        assert make_support([0, 1], np.int64(3)).ambient_dim == 3
        for bad in (2.7, 2.0, True, "3"):
            with pytest.raises(ValueError, match="ambient_dim must be an integer"):
                make_support([0, 1], bad)
            with pytest.raises(ValueError, match="ambient_dim must be an integer"):
                Support((0,), bad)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="ambient_dim must be positive"):
                Support((0,), bad)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_support([], 4)

    def test_set_helpers(self):
        a = make_support([0, 1, 4], 6)
        b = make_support([1, 2, 4], 6)
        assert a.intersection(b) == (1, 4)
        assert a.difference(b) == (0,)


class TestEnumerateSupports:
    def test_exhaustive_tiny(self):
        got = [s.indices for s in enumerate_supports(3, 2)]
        assert got == [(0, 1), (0, 2), (1, 2)]

    def test_singletons(self):
        assert [s.indices for s in enumerate_supports(4, 1)] == [(0,), (1,), (2,), (3,)]

    def test_count_matches_binomial(self):
        # oracle: direct factorial binomial
        expected = math.factorial(10) // (math.factorial(3) * math.factorial(7))
        assert len(enumerate_supports(10, 3)) == expected == 120

    def test_lexicographic_and_deterministic(self):
        a = enumerate_supports(6, 3)
        b = enumerate_supports(6, 3)
        assert a == b
        assert all(x.indices < y.indices for x, y in zip(a, a[1:]))

    def test_cap_names_the_binomial(self, monkeypatch):
        monkeypatch.setattr(model, "DEFAULT_ENUMERATION_CAP", 1000)
        with pytest.raises(CapExceeded, match=str(math.comb(40, 10))):
            enumerate_supports(40, 10)

    @pytest.mark.parametrize("N,K", [(3, 2), (4, 1), (10, 3), (7, 7)])
    def test_rows_match_combinations_order(self, N, K):
        rows = support_rows(N, K)
        assert rows.dtype == np.intp and rows.shape == (math.comb(N, K), K)
        assert rows.tolist() == [list(c) for c in combinations(range(N), K)]
        assert [list(S.indices) for S in enumerate_supports(N, K)] == rows.tolist()

    def test_rows_cap_and_range(self, monkeypatch):
        monkeypatch.setattr(model, "DEFAULT_ENUMERATION_CAP", 1000)
        with pytest.raises(CapExceeded, match=str(math.comb(40, 10))):
            support_rows(40, 10)
        monkeypatch.setattr(model, "DEFAULT_ENUMERATION_CAP", 10)
        assert len(support_rows(5, 2)) == 10       # a set exactly at the cap is listed
        for K in (0, 6):
            with pytest.raises(ValueError):
                support_rows(5, K)


class TestUnrankSupports:
    @pytest.mark.parametrize("N,K", [(6, 1), (8, 3), (10, 5)])
    def test_every_rank_matches_combinations_order(self, N, K):
        rows = unrank_supports(np.arange(math.comb(N, K)), N, K)
        assert rows.dtype == np.intp
        assert rows.tolist() == [list(c) for c in combinations(range(N), K)]
        assert np.array_equal(rows, support_rows(N, K))

    def test_first_and_last_ranks_of_a_360_grid(self):
        total = math.comb(360, 4)
        first = unrank_supports(np.arange(1000), 360, 4)
        assert first.tolist() == [list(c) for c in islice(combinations(range(360), 4), 1000)]
        # supports drawn from the last 10 columns are the last C(10, 4) in lexicographic order
        tail = math.comb(10, 4)
        last = unrank_supports(np.arange(total - tail, total), 360, 4)
        assert last.tolist() == [list(c) for c in combinations(range(350, 360), 4)]

    def test_tables_are_built_once_and_read_only(self):
        rows = unrank_supports(np.arange(math.comb(9, 3)), 9, 3)
        table = _comb_table(9, 3)
        assert _comb_table(9, 3) is table and not table.flags.writeable
        assert table.tolist() == [math.comb(d, 3) for d in range(9)]
        # a second call reads the cached tables and ranks alike
        assert np.array_equal(unrank_supports(np.arange(math.comb(9, 3)), 9, 3), rows)
        assert rows.tolist() == [list(c) for c in combinations(range(9), 3)]

    def test_ranks_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            unrank_supports([math.comb(8, 3)], 8, 3)
        with pytest.raises(ValueError):
            unrank_supports([-1], 8, 3)


class TestGaussianMatrix:
    def test_real_moments(self):
        A = gaussian_instance(200, 500)  # 1e5 entries
        flat = A.entries.ravel()
        assert abs(flat.mean()) < 0.02
        assert abs(flat.var() - 1.0) < 0.03

    def test_complex_moments(self):
        A = gaussian_instance(200, 500, field=FieldTag.COMPLEX)
        flat = A.entries.ravel()
        assert abs(flat.mean()) < 0.02
        assert abs(np.mean(np.abs(flat) ** 2) - 1.0) < 0.03
        # circular symmetry: each part carries half the variance
        assert abs(flat.real.var() - 0.5) < 0.02
        assert abs(flat.imag.var() - 0.5) < 0.02

    def test_seed_reproducibility_bitwise(self):
        A = sample_gaussian_matrix(5, 7, FieldTag.REAL, substream(99, "m"))
        B = sample_gaussian_matrix(5, 7, FieldTag.REAL, substream(99, "m"))
        assert np.array_equal(A.entries, B.entries)

    def test_distinct_labels_differ(self):
        A = sample_gaussian_matrix(5, 7, FieldTag.REAL, substream(99, "m1"))
        B = sample_gaussian_matrix(5, 7, FieldTag.REAL, substream(99, "m2"))
        assert not np.array_equal(A.entries, B.entries)


class TestUlaManifold:
    def test_zero_angle_gives_ones(self):
        A = ula_manifold_matrix(4, [0.0])
        assert np.allclose(A.entries[:, 0], 1.0)

    def test_column_norms_are_sqrt_M(self):
        A = ula_manifold_matrix(7, ula_angle_grid(12))
        norms = np.sum(np.abs(A.entries) ** 2, axis=0)
        assert np.allclose(norms, 7.0, rtol=1e-10)

    def test_endfire_closed_form(self):
        A = ula_manifold_matrix(2, [np.pi / 2], spacing=0.5)
        assert np.allclose(A.entries[:, 0], [1.0, -1.0], atol=1e-12)

    def test_angle_out_of_range(self):
        with pytest.raises(ValueError):
            ula_manifold_matrix(4, [2.0])


class TestMeasurementMatrix:
    def test_complex_entries_tagged_real_are_rejected(self):
        # a cast to float64 would keep [[1, 3]] and drop the imaginary parts
        with pytest.raises(ValueError, match="COMPLEX field"):
            MeasurementMatrix(np.array([[1 + 2j, 3 - 1j]]), FieldTag.REAL)

    def test_field_sets_the_dtype(self):
        z = MeasurementMatrix(np.array([[1 + 2j, 3 - 1j]]), FieldTag.COMPLEX).entries
        assert z.dtype == np.complex128 and z.tolist() == [[1 + 2j, 3 - 1j]]
        assert MeasurementMatrix(np.eye(2), FieldTag.COMPLEX).entries.dtype == np.complex128
        assert MeasurementMatrix(np.eye(2, dtype=int), FieldTag.REAL).entries.dtype == np.float64


class TestSignalsAndObservations:
    """Signals and noise as `draw_level_blocks` draws them at one (T, sigma2)."""

    @staticmethod
    def _blocks(A, rows, sigma2, T, trials=TRIAL_BLOCK, seed=3):
        return [(truths, Y) for truths, _, _, Y in
                draw_level_blocks(A, rows, [sigma2], [T], trials, seed, "model-draws")]

    def test_off_support_rows_zero(self):
        # identity A at tiny noise: Y is the signal, so the rows off the true support vanish
        A = MeasurementMatrix(np.eye(6), FieldTag.REAL)
        rows = np.array([[1, 3], [0, 5], [2, 4]])
        [(truths, Y)] = self._blocks(A, rows, 1e-14, 4)
        for truth, y in zip(truths, Y):
            off = np.setdiff1d(np.arange(6), rows[truth])
            assert np.max(np.abs(y[off])) < 1e-5

    def test_on_support_variance(self):
        A = MeasurementMatrix(np.eye(2), FieldTag.REAL)
        rows = np.array([[0], [1]])
        on = [y[rows[truth]] for truths, Y in self._blocks(A, rows, 1e-14, 200, 2 * TRIAL_BLOCK)
              for truth, y in zip(truths, Y)]
        assert abs(np.concatenate(on).var() - 1.0) < 0.03

    def test_noise_variance_with_zero_signal(self):
        A = MeasurementMatrix(np.zeros((10, 10)), FieldTag.REAL)
        [(_, Y)] = self._blocks(A, np.array([[0, 1]]), 0.5, 40)
        assert abs(Y.var() - 0.5) < 0.015

    def test_identity_near_noiseless(self):
        # each block draws its truths, then its signals, then its noise, from one stream
        A = MeasurementMatrix(np.eye(5), FieldTag.COMPLEX)
        rows = np.array([[0, 2], [1, 4], [3, 4]])
        [(truths, Y)] = self._blocks(A, rows, 1e-14, 3, trials=50, seed=8)
        rng = substream(8, "model-draws", 0)
        assert np.array_equal(truths, rng.integers(0, 3, size=50))
        X = field_gaussian(rng, (50, 2, 3), FieldTag.COMPLEX)
        for truth, x, y in zip(truths, X, Y):
            assert np.max(np.abs(y[rows[truth]] - x)) < 1e-5


class TestNonDegenerate:
    def test_hand_checkable_pass(self):
        A = MeasurementMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), FieldTag.REAL)
        report = check_non_degenerate(A)
        assert report.passed and report.tested == 3

    def test_duplicate_columns_fail_with_witness(self):
        A = MeasurementMatrix(np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]]), FieldTag.REAL)
        report = check_non_degenerate(A)
        assert not report.passed
        assert report.witness == (0, 1)

    def test_gaussian_draws_always_pass(self):
        passes = 0
        for d in range(100):
            A = gaussian_instance(4, 8, seed=d, label="nondeg")
            passes += check_non_degenerate(A).passed
        assert passes == 100

    def test_cap_points_to_sampled_mode(self, monkeypatch):
        A = gaussian_instance(10, 40)
        monkeypatch.setattr(model, "DEFAULT_ENUMERATION_CAP", 100)
        with pytest.raises(CapExceeded, match="sampled"):
            check_non_degenerate(A)

    def test_a_given_count_samples(self):
        report = check_non_degenerate(gaussian_instance(6, 12, seed=2), count=5)
        assert (report.tested, report.mode) == (5, "sampled")
        # C(360, 16) submatrices are far past the cap, 100 of them are not
        report = check_non_degenerate(ula_manifold_matrix(16, ula_angle_grid(360)), count=100)
        assert (report.tested, report.mode) == (100, "sampled")
        # 5000 draws of the C(12, 6) = 924 submatrices walk each of them once
        A = gaussian_instance(6, 12, seed=2)
        report = check_non_degenerate(A, count=5000)
        assert (report.tested, report.mode) == (924, "sampled")
        assert report.witness == check_non_degenerate(A).witness

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_is_an_error_not_an_exhaustive_check(self, count, monkeypatch):
        monkeypatch.setattr(model, "unrank_supports", None)     # no submatrix is enumerated
        with pytest.raises(ValueError, match="positive count"):
            check_non_degenerate(gaussian_instance(3, 6), count=count)

    @staticmethod
    def reference(A, count=None, seed=0):
        """One SVD per submatrix, over `combinations` or one `rng.choice` per
        pick, keeping the first strict minimum; a count of at least C(N, M)
        walks the combinations, and `tested` counts distinct submatrices."""
        entries = A.entries
        M, N = entries.shape
        if count is None or count >= math.comb(N, M):
            picks = combinations(range(N), M)
        else:
            rng = substream(seed, "non-degenerate-sample")
            picks = (tuple(sorted(rng.choice(N, size=M, replace=False).tolist()))
                     for _ in range(count))
        worst, witness, tested = np.inf, None, set()
        for cols in picks:
            smin = np.linalg.svd(entries[:, list(cols)], compute_uv=False)[-1]
            tested.add(cols)
            if smin < worst:
                worst, witness = smin, tuple(cols)
        return NonDegeneracyReport(passed=bool(worst >= 1e-10 * np.linalg.norm(entries, 2)),
                                   worst_sigma_min=float(worst), witness=witness,
                                   tested=len(tested),
                                   mode="exhaustive" if count is None else "sampled")

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    @pytest.mark.parametrize("mode,count", [("exhaustive", None), ("sampled", 37),
                                            ("sampled", 1500)])
    def test_matches_the_per_submatrix_loop(self, field, mode, count):
        # every field equal, worst_sigma_min bit for bit; C(14, 5) = 2002 and
        # 1500 picks span more than one stacked SVD
        dup = gaussian_instance(2, 8, field=field, seed=3, label="nondeg").entries.copy()
        dup[:, [3, 6]] = dup[:, [1, 1]]     # {1, 3}, {1, 6} and {3, 6} tie at the minimum
        matrices = [gaussian_instance(M, N, field=field, seed=M * N, label="nondeg")
                    for M, N in ((1, 5), (2, 8), (3, 3), (4, 10), (5, 14))]
        matrices += [MeasurementMatrix(dup, field)]
        if field is FieldTag.COMPLEX:
            matrices.append(ula_manifold_matrix(4, ula_angle_grid(12)))
        for A in matrices:
            got = check_non_degenerate(A, count=count, seed=5)
            want = self.reference(A, count, seed=5)
            assert got == want
            assert got.mode == mode
            assert got.worst_sigma_min.hex() == want.worst_sigma_min.hex()
        assert not check_non_degenerate(MeasurementMatrix(dup, field)).passed

    def test_sampled_mode_reproducible(self):
        A = gaussian_instance(4, 12)
        r1 = check_non_degenerate(A, count=20, seed=5)
        r2 = check_non_degenerate(A, count=20, seed=5)
        assert r1.worst_sigma_min == r2.worst_sigma_min


class TestMatrixCsv:
    def test_real_roundtrip(self, tmp_path):
        A = gaussian_instance(3, 5)
        path = tmp_path / "a.csv"
        save_matrix_csv(path, A)
        B = load_matrix_csv(path)
        assert B.field is FieldTag.REAL
        assert np.array_equal(A.entries, B.entries)
        assert path.read_text().splitlines()[0] == "# 3 5 real"

    def test_complex_roundtrip(self, tmp_path):
        A = gaussian_instance(2, 4, field=FieldTag.COMPLEX)
        path = tmp_path / "a.csv"
        save_matrix_csv(path, A)
        B = load_matrix_csv(path)
        assert B.field is FieldTag.COMPLEX
        assert np.array_equal(A.entries, B.entries)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError):
            load_matrix_csv(path)

    @pytest.mark.parametrize("A,saved", [
        (np.array([[1.0, -0.0, 1e-300, 0.1], [2.5, -3.0, 1e22, 123456789.123]]),
         b"# 2 4 real\n1.0,-0.0,1e-300,0.1\r\n2.5,-3.0,1e+22,123456789.123\r\n"),
        (np.array([[1 + 2j, complex(-0.5, -0.0), 0.1j], [1e-5j, 3.25, -1e300 + 7j]]),
         b"# 2 3 complex\n1.0,2.0,-0.5,-0.0,0.0,0.1\r\n0.0,1e-05,3.25,0.0,-1e+300,7.0\r\n"),
    ], ids=["real", "complex"])
    def test_saved_bytes(self, tmp_path, A, saved):
        # repr of every entry, re,im pairs for complex, CRLF row ends
        path = tmp_path / "a.csv"
        save_matrix_csv(path, A)
        assert path.read_bytes() == saved
        assert np.array_equal(load_matrix_csv(path).entries, A)

    @pytest.mark.parametrize("text", [
        "# 2 3 real\n1,2,3\n4,5\n",
        "# 2 2 real\n1,x\n3,4\n",
        "# 3 2 real\n1,2\n3,4\n",
        "# 2 2 real\n\n",
        "# 2 2 complex\n1,2,3\n4,5,6\n",
        "# 2 2 quaternion\n1,2\n3,4\n",
        "# 2 real\n1,2\n3,4\n",
        "# a 2 real\n1,2\n3,4\n",
    ], ids=["ragged-row", "non-numeric-cell", "too-few-rows", "no-rows", "odd-complex-columns",
            "unknown-field", "short-header", "non-integer-header"])
    def test_malformed_body_is_value_error(self, tmp_path, capfd, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                load_matrix_csv(path)
        assert capfd.readouterr().err == ""

    def test_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"# 2 2 complex\r\n\r\n1.0,2.0,-0.5,0.25\r\n\r\n3.0,-4.0,0.0,1e-05\r\n\n")
        B = load_matrix_csv(path)
        assert B.field is FieldTag.COMPLEX
        assert np.array_equal(B.entries, [[1 + 2j, -0.5 + 0.25j], [3 - 4j, 1e-5j]])


class TestSubstream:
    def test_same_inputs_same_stream(self):
        a = substream(1, "x", 5).standard_normal(4)
        b = substream(1, "x", 5).standard_normal(4)
        assert np.array_equal(a, b)

    def test_index_and_label_independence(self):
        base = substream(1, "x", 0).standard_normal(4)
        assert not np.array_equal(base, substream(1, "x", 1).standard_normal(4))
        assert not np.array_equal(base, substream(1, "y", 0).standard_normal(4))
        assert not np.array_equal(base, substream(2, "x", 0).standard_normal(4))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            substream(-1, "x")


def numpy_states(entropy):
    """numpy's own PCG64 seed words for each row of 32-bit entropy words."""
    return np.stack([np.random.SeedSequence(entropy=[int(w) for w in row])
                     .generate_state(4, np.uint64) for row in entropy])


def substream_stack(seed, label, draws, shape, field):
    return np.stack([field_gaussian(substream(seed, label, d), shape, field) for d in draws])


class TestDrawMatrices:
    """`draw_matrices` seeds the per-draw streams in one vectorized pass;
    numpy's SeedSequence and `substream` are its oracles."""

    @pytest.mark.parametrize("n_words", range(1, 7))
    def test_seed_pass_matches_seed_sequence(self, n_words):
        # below 4 words the pool is padded with hashmix(0); above 4 the extra
        # words are mixed into every pool word
        rng = np.random.default_rng(n_words)
        entropy = rng.integers(0, 2**32, size=(9, n_words), dtype=np.uint32)
        entropy[0], entropy[1] = 0, 2**32 - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _seed_states(entropy)
        assert got.dtype == np.uint64 and got.shape == (9, 4)
        assert np.array_equal(got, numpy_states(entropy))

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 - 1])
    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_equals_substream_stack(self, seed, field):
        # a seed of 2**32 or more takes two entropy words: five in all
        draws = range(3, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = draw_matrices(seed, "draw-test", draws, (4, 3), field)
        want = substream_stack(seed, "draw-test", draws, (4, 3), field)
        assert got.dtype == want.dtype and got.shape == (7, 4, 3)
        assert got.tobytes() == want.tobytes()
        # a stack cut to its leading columns keeps each draw's stream whole
        cut = draw_matrices(seed, "draw-test", draws, (4, 3), field, columns=2)
        assert cut.shape == (7, 4, 2) and np.array_equal(cut, want[:, :, :2])

    @pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
    def test_indices_of_one_and_two_words(self, field):
        # indices 0 and 2**32 - 1 take one word, 2**32 and up take two; one
        # range may hold both kinds
        for draws in (range(0, 2), range(2**32 - 2, 2**32 + 2), range(2**40, 2**40 + 9, 4),
                      range(2**64 - 2, 2**64)):
            got = draw_matrices(5, "draw-index", draws, (2, 5), field)
            assert got.tobytes() == substream_stack(5, "draw-index", draws, (2, 5), field).tobytes()

    def test_chunking_and_empty_ranges(self):
        whole = draw_matrices(2, "draw-chunk", range(11), (3, 3), FieldTag.REAL)
        parts = [draw_matrices(2, "draw-chunk", range(a, b), (3, 3), FieldTag.REAL)
                 for a, b in ((0, 4), (4, 4), (4, 11))]
        assert np.array_equal(np.concatenate(parts), whole)
        assert parts[1].shape == (0, 3, 3)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            draw_matrices(-1, "x", range(2), (2, 2), FieldTag.REAL)
        with pytest.raises(ValueError):
            draw_matrices(1, "x", range(-1, 2), (2, 2), FieldTag.REAL)
        with pytest.raises(ValueError):
            draw_matrices(1, "x", range(2**64 - 1, 2**64 + 1), (2, 2), FieldTag.REAL)
