"""Seeded Monte Carlo estimation of error probabilities and ensemble statistics.

Every estimator is a pure function of its parameters and the master seed.
Trials are drawn and scored in blocks of TRIAL_BLOCK: block b draws the
truths, signals and unit noise of its trials from one generator,
substream(seed, label, b), so trial t belongs to block t // TRIAL_BLOCK (the
ensemble estimator offsets b per matrix so no two matrices share a stream).
The block size is a constant, so the estimates depend on nothing but the
arguments. This module is the one owner of the (T, sigma2) grid: each
`estimate_*_perrs` covers every point of `product(Ts, sigma2s)`, one estimate
per point in that order (the scalar estimators are their one-point views),
and builds what does not depend on T, a matrix draw or a level's decoder,
once. No stream depends on T or the noise level, so each block is drawn
once, as one run of normals sized for the largest T, and every T reads its
signals and noise from the front of that run; every level scores them as
Y = A_S X + sqrt(sigma2) W1. Matrix-draw
statistics take their stacks of draws from `model.draw_matrices`, whose
draw d is byte for byte the matrix of substream(seed, label, d), and score
PAIR_BLOCK draws as one stack. The multiple estimator takes its levels as
decoders, one `SupportDecoder` per noise level, whose `factors` `simulate`
also reads the exact Fano beta from; the ensemble estimator builds its own
for each matrix. Both run one ML trial loop (`_kd_counts`) over the (L, K)
index rows of `model.support_rows` and never build a `Support` per
candidate. The binary estimator keeps its own loop: its LRT breaks ties to S0.
Uncertainty is reported as an exact binomial (Clopper-Pearson) interval at
95%. `clopper_pearson` finds each endpoint as the root of a binomial tail,
I_x(a, b) = P(Bin(a + b - 1, x) >= a), with the `math` module only: the tail
is summed from Loader's saddle-point pmf (or the direct product on its short
side) and solved by Halley's method inside the bracket that the median gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bounds import _stirlerr, expected_incoherence_bounds
from .decode import SupportDecoder, lrt_decoder
from .model import (
    FieldTag,
    Support,
    _check_counts,
    _field_normals,
    _fill_field_gaussian,
    _integer,
    _positive,
    as_matrix,
    draw_matrices,
    sample_gaussian_matrix,
    substream,
    support_rows,
)
from .spectra import PAIR_BLOCK, _incoherences, _pair_union

# Trials per block: one generator and one batched score per block. Large enough
# to amortize the per-block Python work, small enough to keep the block's
# observations (and the decoder's score matrix) far below the process's memory.
TRIAL_BLOCK = 256

@dataclass(frozen=True)
class ErrorEstimate:
    """Empirical error probability with its exact binomial interval."""

    p_hat: float
    trials: int
    ci_low: float
    ci_high: float
    master_seed: int
    extras: dict = dc_field(default_factory=dict)


def clopper_pearson(errors: int, trials: int, confidence: float = 0.95) -> tuple:
    """Two-sided exact binomial confidence interval for errors/trials.

    With e = errors and X ~ Bin(n = trials, x), the lower end solves
    P(X >= e) = alpha/2 and the upper end P(X <= e) = 1 - (1 - alpha/2): the
    roots that the beta quantiles B(alpha/2; e, n - e + 1) and
    B(1 - alpha/2; e + 1, n - e) name.
    """
    errors, trials = _integer(errors, "errors"), _integer(trials, "trials")
    if not 0 <= errors <= trials or trials < 1:
        raise ValueError("need 0 <= errors <= trials, trials >= 1")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    alpha = 1.0 - confidence
    low = 0.0 if errors == 0 else _tail_root(errors, trials, alpha / 2, upper=False)
    high = 1.0 if errors == trials else _tail_root(trials - errors, trials,
                                                   1.0 - (1.0 - alpha / 2), upper=True)
    return low, high


# `_binomial_pmf` multiplies C(n, k) p^k q^(n-k) out directly when the short
# side min(k, n - k) is at most this (and C(n, k) fits a double): there it is
# exact to a few roundings, where the saddle-point form carries the rounding
# of k log(k / np).
_DIRECT_SIDE = 30


def _bd0(x: float, m: float) -> float:
    """Deviance term x log(x / m) + m - x, by its series where x is near m."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    total, term, v2 = (x - m) * v, 2.0 * x * v, v * v
    for j in range(3, 2000, 2):
        term *= v2
        if total + term / j == total:
            break
        total += term / j
    return total


def _power(y: float, z: float, m: int) -> float:
    """y^m where z = 1 - y; the larger side's log is taken from the smaller."""
    return math.pow(y, m) if y <= z else math.exp(m * math.log1p(-z))


def _binomial_pmf(k: int, n: int, p: float, q: float) -> float:
    """P(X = k) for X ~ Bin(n, p), with q = 1 - p passed separately: the
    smaller of p, q must be exact, and nothing is taken from a rounded 1 - p.
    Beyond `_DIRECT_SIDE` it is Loader's saddle-point form (C. Loader, "Fast
    and Accurate Computation of Binomial Probabilities", 2000)."""
    if min(k, n - k) <= _DIRECT_SIDE and n < 1 << 36:
        return math.comb(n, k) * _power(p, q, k) * _power(q, p, n - k)
    lc = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
          - _bd0(k, n * p) - _bd0(n - k, n * q))
    return math.exp(lc) * math.sqrt(n / (2 * math.pi * k * (n - k)))


def _upper_tail(k: int, n: int, p: float, q: float) -> tuple:
    """(P(X >= k), P(X = k)) for X ~ Bin(n, p), summed from k away from the
    mode until a term no longer changes the sum."""
    first = term = total = _binomial_pmf(k, n, p, q)
    for j in range(k, n):
        term *= (n - j) * p / ((j + 1) * q)
        if total + term == total:
            break
        total += term
    return total, first


def _tail_root(k: int, n: int, target: float, upper: bool) -> float:
    """The x in (0, 1) where P(Bin(n, r) >= k) = target < 1/2, for r = 1 - x
    when `upper` and r = x otherwise; 1 <= k <= n.

    Halley's method on log P in log r, started at the continuity-corrected
    normal (Wilson) root and kept inside a bisection bracket: the median of
    Bin(n, k/n) is k, so the root lies below r = k/n. The iterate is x itself,
    so a lower end near 0 or an upper end near 1 keeps its relative precision.
    """
    t = math.sqrt(-2.0 * math.log(target))     # normal quantile to 5e-4 (A&S 26.2.23)
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    c, zz = k - 0.5, z * z
    r = (2.0 * c + zz - abs(z) * math.sqrt(zz + 4.0 * c * (n - c) / n)) / (2.0 * (n + zz))
    lo, hi = ((n - k) / n, 1.0) if upper else (0.0, k / n)
    x = 1.0 - r if upper else r
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(200):
        p, q = x, 1.0 - x
        r, s = (q, p) if upper else (p, q)
        tail, pmf = _upper_tail(k, n, r, s)
        g = math.log(tail / target) if tail > 0 else -math.inf
        if (g > 0) != upper:
            hi = x
        else:
            lo = x
        if g == 0:
            return x
        new = math.nan
        if tail > 0:
            a = k * pmf / tail                      # d log P / d log r
            b = a * (k - (n - k) * r / s - a)       # d^2 log P / d (log r)^2
            step = r * math.expm1(-g / a / (1.0 - g * b / (2.0 * a * a)))
            new = x - step if upper else x + step
        if abs(new - x) <= 2.0 ** -49 * x:    # a few ulps: the next step is rounding noise
            return new
        x = new if lo < new < hi else 0.5 * (lo + hi)
    return x


def _check_grid(**grids) -> None:
    """Each keyword's sequence (a grid's noise levels or Ts) must hold at
    least one point; a `ValueError` names the keyword that is empty."""
    for name, grid in grids.items():
        if not len(grid):
            raise ValueError(f"need at least one point in {name}, got an empty grid")


def _estimate(errors: int, trials: int, seed: int, **extras) -> ErrorEstimate:
    low, high = clopper_pearson(errors, trials)
    return ErrorEstimate(p_hat=errors / trials, trials=trials, ci_low=low,
                         ci_high=high, master_seed=seed, extras=extras)


def draw_level_blocks(A, supports: np.ndarray, sigma2s, Ts, trials: int, seed: int,
                      label: str, first_index: int = 0):
    """Yield (truths, t, level, Y) for consecutive blocks of at most
    TRIAL_BLOCK trials and, within a block, each T of the sequence `Ts` in
    order and, within a T, each noise level of the sequence `sigma2s` in
    order: Y (n, M, Ts[t]) are the block's observations at sigma2s[level].
    Before the first draw, `trials` and every T are held to
    `model._check_counts`, both grids to `_check_grid` and every sigma2 to
    `model._positive`.

    `supports` is an (L, K) array of column indices, one row per hypothesis.
    Block b draws everything from substream(seed, label, first_index + b):
    the true hypotheses (n,), then one flat run of standard normals sized for
    max(Ts) (`model._field_normals`), so one draw per block serves every T.
    At each T the signals X (n, K, T) and then the unit noise W1 (n, M, T)
    are read from the front of that run (`model._fill_field_gaussian`): byte
    for byte the X and W1 that a block drawn for that T alone gives, since a
    `standard_normal` run is the front of any longer one. The stream is keyed
    by (seed, label, block) and never by T or the noise level, so every level
    shares the block's draws: level sigma2 observes Y = A_S X + sqrt(sigma2)
    W1, the same Y a one-point call at (T, sigma2) yields. A change to the
    streams must keep them free of T and sigma2, or give up this sharing.

    Each Y is a fresh array, which the consumer may keep. A_S X, W1 and Y
    are held trial-last, (M, T, n) in memory, and Y is yielded as its
    (n, M, T) view: the layout `SupportDecoder` reads, so a decoder takes Y
    without a copy.
    """
    _check_counts(trials=trials, T=Ts)
    _check_grid(sigma2s=sigma2s, Ts=Ts)
    for sigma2 in sigma2s:
        _positive(sigma2, "sigma2")
    entries, field = as_matrix(A)
    M = entries.shape[0]
    L, K = supports.shape
    for b, start in enumerate(range(0, trials, TRIAL_BLOCK)):
        n = min(TRIAL_BLOCK, trials - start)
        rng = substream(seed, label, first_index + b)
        truths = rng.integers(0, L, size=n)
        normals = _field_normals(rng, n * (K + M) * max(Ts), field)
        A_S = np.moveaxis(entries[:, supports[truths]], 1, 0)
        for t, T in enumerate(Ts):
            X = np.empty((n, K, T), field.dtype)
            noise = _fill_field_gaussian(X, normals)
            AX = np.ascontiguousarray(np.moveaxis(A_S @ X, 0, -1))
            del X
            W1 = np.empty((M, T, n), field.dtype)
            _fill_field_gaussian(np.moveaxis(W1, -1, 0), noise)
            if t == len(Ts) - 1:
                # the block's draw is all read: freed before its last observations
                # and the next block's draw, since holding a block's buffers
                # through the next one's draw raised sim-binary's peak RSS by 0.3 MB
                del normals, noise, A_S
            for level, sigma2 in enumerate(sigma2s):
                # Adding A_S X in place gives the bits of A_S X + sqrt(sigma2) W1:
                # a floating-point sum does not depend on the order of its terms.
                # The last level needs W1 no more, so its Y is W1 scaled in place.
                Y = np.multiply(W1, np.sqrt(sigma2), out=W1 if level == len(sigma2s) - 1 else None)
                Y += AX
                yield truths, t, level, np.moveaxis(Y, -1, 0)
            del AX, W1


def estimate_binary_perr(A, S0: Support, S1: Support, sigma2: float, T: int,
                         trials: int, seed: int) -> ErrorEstimate:
    """Empirical error of the binary likelihood-ratio test.

    Each trial draws the true hypothesis uniformly from {S0, S1}, generates
    signals and noise, and records whether the LRT picks the wrong support.
    The one-point view of `estimate_binary_perrs`.
    """
    return estimate_binary_perrs(A, S0, S1, [sigma2], [T], trials, seed)[0]


def estimate_binary_perrs(A, S0: Support, S1: Support, sigma2s, Ts, trials: int,
                          seed: int) -> list:
    """`estimate_binary_perr` at each point of `product(Ts, sigma2s)`, one
    estimate per point in that order: each level's `lrt_decoder` is built
    once, and every level scores the same trial blocks (`draw_level_blocks`)."""
    if S0.size != S1.size:
        raise ValueError("binary estimation needs supports of equal size")
    _check_counts(trials=trials, T=Ts)
    _check_grid(sigma2s=sigma2s, Ts=Ts)
    decoders = [lrt_decoder(A, S0, S1, sigma2) for sigma2 in sigma2s]
    rows = np.array([S0.indices, S1.indices], dtype=np.intp)
    errors = np.zeros((len(Ts), len(sigma2s)), dtype=np.int64)
    for truths, t, level, Y in draw_level_blocks(A, rows, sigma2s, Ts, trials, seed,
                                                 "binary-trial"):
        scores = decoders[level].score_batch(Y)
        errors[t, level] += np.count_nonzero((scores[1] - scores[0] > 0) != truths)
    return [_estimate(e, trials, seed) for e in errors.ravel().tolist()]


def estimate_multiple_perr(A, K: int, sigma2: float, T: int, trials: int,
                           seed: int) -> ErrorEstimate:
    """Empirical error of maximum-likelihood recovery over all size-K supports.

    The error event is exact support mismatch; sizes of wrong-decode
    difference sets are kept as a k_d histogram in the extras. The one-point
    view of `estimate_multiple_perrs`.
    """
    decoder = SupportDecoder(A, support_rows(as_matrix(A)[0].shape[1], K), sigma2)
    return estimate_multiple_perrs(A, [decoder], [T], trials, seed)[0]


def estimate_multiple_perrs(A, decoders, Ts, trials: int, seed: int) -> list:
    """`estimate_multiple_perr` at each point of `product(Ts, levels)`, one
    estimate per point in that order. The levels are `decoders`, one
    `SupportDecoder` of A per noise level, all over the same candidate rows
    (`support_rows(N, K)`); each carries its sigma2 in its `factors`. Every
    level decodes the same trial blocks (`_kd_counts`)."""
    _check_counts(trials=trials, T=Ts)
    _check_grid(decoders=decoders, Ts=Ts)
    kd_counts = _kd_counts(A, decoders, Ts, trials, seed, "multiple-trial", 0)
    # every wrong decode has k_d >= 1, so the histogram counts all the errors
    return [_estimate(int(counts.sum()), trials, seed,
                      kd_histogram={k_d: int(count) for k_d, count in enumerate(counts) if count})
            for counts in kd_counts.reshape(-1, kd_counts.shape[-1])]


def _kd_counts(A, decoders, Ts, trials: int, seed: int, label: str,
               first_index: int) -> np.ndarray:
    """The ML trial loop of the multiple and ensemble estimators: counts
    (len(Ts), len(decoders), K + 1) of the wrong decodes by the size k_d of
    their difference set, at each T and level. Level i is decoders[i], a
    `SupportDecoder` of A; the levels must share one candidate table, which
    is the table of true supports, else a `ValueError` before any draw. Every
    level decodes the same trial blocks (`draw_level_blocks`, from
    `first_index`) by `decode_index_batch`."""
    rows = decoders[0].factors.rows
    if any(not np.array_equal(d.factors.rows, rows) for d in decoders):
        raise ValueError("decoders must share one candidate table")
    K = rows.shape[1]
    counts = np.zeros((len(Ts), len(decoders), K + 1), dtype=np.int64)
    for truths, t, level, Y in draw_level_blocks(A, rows, [d.factors.sigma2 for d in decoders],
                                                 Ts, trials, seed, label, first_index):
        chosen = decoders[level].decode_index_batch(Y)
        wrong = chosen != truths
        shared = (rows[truths[wrong]][:, :, None] == rows[chosen[wrong]][:, None, :]).sum((1, 2))
        counts[t, level] += np.bincount(K - shared, minlength=K + 1)
    return counts


def estimate_ensemble_perr(M: int, N: int, K: int, sigma2: float, T: int,
                           matrix_draws: int, trials_per_matrix: int, seed: int,
                           field: FieldTag = FieldTag.REAL) -> ErrorEstimate:
    """Error probability averaged over fresh Gaussian measurement matrices.

    The grand estimate pools all matrix_draws * trials_per_matrix trials;
    per-matrix estimates (`per_matrix`) and their integer error counts
    (`per_matrix_errors`) are retained in the extras for the
    P{P_err(A) <= eps} reading. Matrix d owns the trial streams
    d * B .. d * B + B - 1, where B = ceil(trials_per_matrix / TRIAL_BLOCK).
    The one-point view of `estimate_ensemble_perrs`.
    """
    return estimate_ensemble_perrs(M, N, K, [sigma2], [T], matrix_draws, trials_per_matrix,
                                   seed, field)[0]


def estimate_ensemble_perrs(M: int, N: int, K: int, sigma2s, Ts, matrix_draws: int,
                            trials_per_matrix: int, seed: int,
                            field: FieldTag = FieldTag.REAL) -> list:
    """`estimate_ensemble_perr` at each point of `product(Ts, sigma2s)`, one
    estimate per point in that order: each matrix and its decoders are built
    once, and its trial blocks drawn once and decoded at every T and level."""
    _check_counts(T=Ts, matrix_draws=matrix_draws, trials_per_matrix=trials_per_matrix)
    _check_grid(sigma2s=sigma2s, Ts=Ts)
    rows = support_rows(N, K)
    blocks_per_matrix = math.ceil(trials_per_matrix / TRIAL_BLOCK)
    errors = np.zeros((len(Ts), len(sigma2s), matrix_draws), dtype=np.int64)
    for d in range(matrix_draws):
        A = sample_gaussian_matrix(M, N, field, substream(seed, "ensemble-matrix", d))
        decoders = [SupportDecoder(A, rows, sigma2) for sigma2 in sigma2s]
        errors[:, :, d] = _kd_counts(A, decoders, Ts, trials_per_matrix, seed, "ensemble-trial",
                                     d * blocks_per_matrix).sum(axis=2)
    return [_ensemble_estimate(point, trials_per_matrix, seed)
            for point in errors.reshape(-1, matrix_draws).tolist()]


def _ensemble_estimate(per_matrix_errors: list, trials_per_matrix: int, seed: int) -> ErrorEstimate:
    per_matrix = tuple(e / trials_per_matrix for e in per_matrix_errors)
    return _estimate(sum(per_matrix_errors), len(per_matrix_errors) * trials_per_matrix, seed,
                     per_matrix=per_matrix, per_matrix_errors=tuple(per_matrix_errors),
                     spread_min_median_max=(min(per_matrix), float(np.median(per_matrix)),
                                            max(per_matrix)))


def _draw_incoherences(M: int, N: int, rows0, rows1, sigma2: float, draws: int,
                       seed: int, field: FieldTag, label: str) -> np.ndarray:
    """Incoherence of the support pair (rows0, rows1) on `draws` Gaussian M x N
    matrices; draw d comes from substream(seed, label, d) through
    `draw_matrices`. The pair is checked once (`spectra._pair_union`), and
    each block of PAIR_BLOCK draws is one `spectra._incoherences` call on
    their stack."""
    rows0, rows1 = _pair_union([rows0], [rows1], M, N)      # (1, K): one pair for every draw
    width = max(rows0.max(), rows1.max()) + 1               # no column past the pair's is read
    values = np.empty(draws)
    for start in range(0, draws, PAIR_BLOCK):
        block = range(start, min(start + PAIR_BLOCK, draws))
        stack = draw_matrices(seed, label, block, (M, N), field, width)
        values[start:block.stop] = _incoherences(stack, rows0.repeat(len(block), 0),
                                                 rows1.repeat(len(block), 0), sigma2)[0]
    return values


def estimate_incoherence_tail(M: int, N: int, K: int, sigma2: float, draws: int,
                              seed: int, field: FieldTag = FieldTag.REAL) -> ErrorEstimate:
    """Empirical P{pairwise incoherence <= gamma} over Gaussian matrix draws,
    for a fixed disjoint support pair (the hardest case k_d = K) and
    gamma = (M - 2K) / (3 sigma^2)."""
    _check_counts(M=M, N=N, K=K, draws=draws)
    if M <= 2 * K:
        raise ValueError("tail estimation requires M > 2K")
    if N < 2 * K:
        raise ValueError("need N >= 2K for a disjoint support pair")
    values = _draw_incoherences(M, N, range(K), range(K, 2 * K), sigma2, draws, seed, field,
                                "incoherence-tail")
    gamma = (M - 2 * K) / (3.0 * sigma2)          # the draws have checked sigma2
    return _estimate(int(np.count_nonzero(values <= gamma)), draws, seed, gamma=gamma)


@dataclass(frozen=True)
class IncoherenceMoment:
    """Sample mean and standard error of the pairwise incoherence."""

    mean: float
    se: float
    draws: int
    master_seed: int


def estimate_expected_incoherence(M: int, K: int, k_d: int, sigma2: float, draws: int,
                                  seed: int, field: FieldTag = FieldTag.REAL) -> IncoherenceMoment:
    """Monte Carlo mean of the pairwise incoherence for supports of size K
    whose difference sets have size k_d (overlap K - k_d), under the rule of
    (M, K, k_d, sigma2) of `bounds.expected_incoherence_bounds`."""
    expected_incoherence_bounds(M, K, k_d, sigma2)
    _check_counts(draws=draws)
    values = _draw_incoherences(M, K + k_d, range(K), [*range(K - k_d), *range(K, K + k_d)],
                                sigma2, draws, seed, field, "incoherence-mean")
    se = float(values.std(ddof=1) / np.sqrt(draws)) if draws > 1 else float("nan")
    return IncoherenceMoment(mean=float(values.mean()), se=se, draws=draws, master_seed=seed)
