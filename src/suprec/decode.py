"""Optimal decision rules: the binary likelihood-ratio test and
maximum-likelihood support recovery over a candidate set.

Observations under support S are zero-mean matrix Gaussians with per-column
covariance Sigma_S, so the log density is

    log p(Y|S) = -kappa*M*T*log(pi/kappa) - kappa*T*log|Sigma_S|
                 - kappa*tr(Y^H Sigma_S^{-1} Y).

Every log determinant and quadratic form goes through the covariance core in
`spectra`. `SupportDecoder` decodes over candidates of one size K, as in the
paper's multiple-hypothesis test: it keeps them in one (L, K) table, whose one
`np.lexsort` is the tie order, factors them in K x K form (one stacked
`covariance_factors` call) and lays observations out one way (`_columns`). Its
`score_batch` is the exact scoring path: `log_scores`, `decode`,
`decode_index`, `binary_lrt` (a two-candidate decoder) and the binary Monte
Carlo estimator score through it, all candidates at once. `decode_index_batch`,
which the multiple and ensemble estimators call, returns the pick of
`score_batch` but screens first: it streams every candidate through K x K Gram
space (`_screen`), each within a rounding margin of its exact score, keeps a
trial's best and runner-up, and rescores exactly only the trials whose
runner-up lies within twice the trial's margin of the best. The
decoder decides when its screen is built: once (`_gram_screen`), on its first
`decode_index_batch`, so the exact scorers and the Fano beta never pay for it.
`spectra` decides how the screen's Gram sigma2 I + A_S^H A_S is factored:
by `spectra._gram_factor`, the kernel of the pair floors too. The screen
alone inverts that factor, a row at a time (`_gram_screen`).
`log_likelihood` takes one dense covariance and whitens with its inverse
Cholesky factor (`spectra._inverse_factor`), which fails under the same
pivot-floor rule as every other covariance. Candidate rows follow the rule
`Support` holds each support to (`model._check_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectra
from .model import FieldTag, NumericFailure, Support, _check_rows, _positive, as_matrix
from .spectra import _column_energy, _gram_factor, _inverse_factor, covariance_factors

# Constant of the Gram screen's margin (`SupportDecoder._screen`): it covers
# the rounding constants of both scorers, real or complex.
SCREEN_ROUNDING = 16
# Screen values (candidates x trials) in one span of `SupportDecoder._screen`,
# 1 MB; a span is rounded down to whole chunks of
# `spectra.SCORE_CHUNK_ELEMENTS` gathered values.
SCREEN_SPAN = 2**17


def _observation_values(Y) -> np.ndarray:
    arr = np.asarray(Y)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def log_likelihood(Y, Sigma: np.ndarray, kappa: float) -> float:
    """Exact log density of the observations under covariance Sigma. kappa
    names the field: complex observations need the complex field's kappa, as
    a decoder's need a complex matrix (`SupportDecoder._columns`)."""
    values = _observation_values(Y)
    M, T = values.shape
    if Sigma.shape != (M, M):
        raise ValueError(f"covariance shape {Sigma.shape} does not match observations with M={M}")
    _positive(kappa, "kappa")
    if np.iscomplexobj(values) and kappa != FieldTag.COMPLEX.kappa:
        raise ValueError(f"complex observations need a complex matrix (kappa="
                         f"{FieldTag.COMPLEX.kappa!r}), got kappa={kappa!r}")
    Li = _inverse_factor(Sigma[None])[0]
    logdet = -2.0 * float(np.sum(np.log(np.abs(np.diagonal(Li)))))
    quad = float(np.sum(np.abs(Li @ values) ** 2))
    return -kappa * M * T * np.log(np.pi / kappa) - kappa * T * logdet - kappa * quad


@dataclass(frozen=True)
class LrtResult:
    """Binary test outcome: chosen hypothesis index and the LRT statistic."""

    choice: int
    statistic: float


def binary_lrt(Y, A, S0: Support, S1: Support, sigma2: float) -> LrtResult:
    """Likelihood-ratio test between supports S0 and S1.

    The statistic is log p(Y|S1) - log p(Y|S0); positive values choose S1,
    ties go to S0.
    """
    scores = lrt_decoder(A, S0, S1, sigma2).score_batch(_observation_values(Y)[None])
    statistic = float(scores[1, 0] - scores[0, 0])
    return LrtResult(choice=1 if statistic > 0 else 0, statistic=statistic)


def _gram_screen(entries: np.ndarray, factors) -> tuple:
    """(F^{-1}, rho) of the Gram screen for the supports of one
    `covariance_factors` set of the matrix `entries` (M, N): the inverse
    factors (L, K, K) of F F^H = sigma2 I + A_S^H A_S, with F from
    `spectra._gram_factor` (first = 0), which also factors the pair floors'
    Grams, and rho = ||A_S||_F ||F^{-1}||_F (L,). rho is inf where F fails to
    factor, and 0 for a failed support, whose screen score
    `SupportDecoder._screen` discards."""
    F, _, failed, mass = _gram_factor(entries, factors.rows, factors.sigma2, 0)
    # F^{-1} a row at a time: `np.linalg.inv` is 1.7-4x slower on stacks of a
    # few hundred or more, and no faster on a few dozen
    inverse = np.zeros_like(F)
    for i in range(F.shape[1]):
        inverse[:, i, i] = 1.0
        inverse[:, i] -= np.einsum("nj,njk->nk", F[:, i, :i], inverse[:, :i])
        inverse[:, i] /= F[:, i, i, None]
    rho = np.sqrt(mass * np.where(failed, np.inf, _column_energy(inverse).sum(axis=1)))
    rho[list(factors.failures)] = 0.0
    return inverse, rho


@dataclass(frozen=True)
class DecodeResult:
    chosen: Support
    log_scores: dict | None
    ties_broken: bool


class SupportDecoder:
    """Maximum-likelihood decoder over a fixed candidate support set of one
    size K.

    `candidates` is an (L, K) integer array of support rows, each strictly
    increasing within [0, N) like a `Support`'s indices, or a sequence of
    `Support`s of ambient dimension N (A's column count) or of index rows,
    which becomes that array by the same rule (`model._check_rows`). Rows
    that break it, a `Support` of another ambient dimension, or candidates of
    more than one size are a `ValueError`. The covariance factors are computed
    once per (A, sigma2, candidates), in one `covariance_factors` call, and
    reused across observations. A candidate whose factorization fails scores
    -inf and is recorded in `failures` instead of aborting the decode. The
    set is the decoder's `factors`: its rows are the candidate table and it
    carries sigma2, so `simulate` reads the exact Fano beta from the factors
    of the decoders it hands to `estimate_multiple_perrs`, and a level is
    factored once.

    The decoder owns the Gram screen of `decode_index_batch`: it builds the
    screen's factors (`_grams`, by `_gram_screen`) once, on the first such
    call, and nothing else reads them.
    """

    def __init__(self, A, candidates, sigma2: float):
        entries, field = as_matrix(A)
        self.kappa = field.kappa
        self.M, self._N = entries.shape
        self._entries = entries
        if not isinstance(candidates, np.ndarray):
            candidates = list(candidates)
            if any(isinstance(S, Support) and S.ambient_dim != self._N for S in candidates):
                raise ValueError(f"candidate supports must have ambient_dim {self._N}, the column"
                                 " count of A")
            candidates = [S.indices if isinstance(S, Support) else S for S in candidates]
            if len({np.shape(row) for row in candidates}) > 1:
                raise ValueError("candidate supports must all have one size")
        table = _check_rows(candidates, self._N, "candidate")
        if not len(table):
            raise ValueError("candidate set must be nonempty")
        # Ties go to the first support in lexicographic order.
        self._lex_order = np.lexsort(table.T[::-1])
        self.factors = covariance_factors(entries, table, sigma2)
        self.failures = dict(self.factors.failures)

    @cached_property
    def candidates(self) -> list:
        """The candidate supports, in the decoder's order (built on first use)."""
        return [Support(tuple(int(i) for i in row), self._N) for row in self.factors.rows]

    def _columns(self, Ys) -> tuple:
        """(values, T): observations (n, M, T) as the one contiguous block
        (M, T n) all scorers read, column t of observation i at t n + i.
        Complex observations of a real matrix are a `ValueError`."""
        Ys = np.asarray(Ys)
        if Ys.ndim != 3:
            raise ValueError(f"observations must be an (n, M, T) stack, got shape {Ys.shape}")
        n, M, T = Ys.shape
        if M != self.M:
            raise ValueError(f"observation row count {M} does not match decoder M={self.M}")
        if np.iscomplexobj(Ys) and not np.iscomplexobj(self._entries):
            raise ValueError("complex observations need a complex matrix")
        return np.ascontiguousarray(np.moveaxis(Ys, 0, -1)).reshape(M, T * n), T

    def _offsets(self, T: int, logdet: np.ndarray) -> np.ndarray:
        """The part of the log-likelihood that does not depend on the
        observations, as a column (L, 1): -kappa (M T log(pi/kappa) + T log|Sigma_S|)."""
        const = -self.kappa * self.M * T * np.log(np.pi / self.kappa)
        return const - self.kappa * T * logdet[:, None]

    def _scores(self, values: np.ndarray, T: int, cand=slice(None)) -> np.ndarray:
        """Exact log-likelihoods of the candidates at indices `cand` (all by
        default) for observation columns (M, T n): (len(cand), n), scored as
        one stack (`CovarianceFactors.energies`). A candidate scores the same
        bits whichever others are scored with it, and a failed one, whose
        logdet is +inf, scores -inf."""
        energies = self.factors.energies(values, T, cand)
        return self._offsets(T, self.factors.logdet[cand]) - self.kappa * energies

    def score_batch(self, Ys) -> np.ndarray:
        """Log-likelihood of every candidate for a stack of observations
        (n, M, T), as an array of shape (n_candidates, n); a candidate whose
        factorization failed scores -inf."""
        return self._scores(*self._columns(Ys))

    def log_scores(self, Y) -> np.ndarray:
        return self.score_batch(_observation_values(Y)[None])[:, 0]

    def _pick(self, scores: np.ndarray) -> tuple:
        """Winning candidate index and broken-tie flag, as two (n,) arrays,
        for each column of an (n_candidates, n) score stack; ties go to the
        lexicographically smallest support, the first maximum in `_lex_order`."""
        ranked = scores[self._lex_order]
        top = np.argmax(ranked, axis=0)
        tied = np.count_nonzero(ranked == np.take_along_axis(ranked, top[None], axis=0), axis=0) > 1
        return self._lex_order[top], tied

    def decode_index(self, Y) -> tuple:
        """Index of the winning candidate plus a flag for broken ties."""
        (idx,), (tied,) = self._pick(self.log_scores(Y)[:, None])
        return int(idx), bool(tied)

    def decode(self, Y, keep_scores: bool = True) -> DecodeResult:
        values = self.log_scores(Y)
        (idx,), (tied,) = self._pick(values[:, None])
        scores = {S: float(v) for S, v in zip(self.candidates, values)} if keep_scores else None
        return DecodeResult(chosen=self.candidates[idx], log_scores=scores, ties_broken=bool(tied))

    @cached_property
    def _grams(self) -> tuple:
        """The Gram screen's (F^{-1}, rho) (`_gram_screen`), built on the first
        `decode_index_batch`."""
        return _gram_screen(self._entries, self.factors)

    def _screen(self, AhY, ysq, T: int):
        """Gram-space log-likelihoods of n observations of T columns each,
        one span of candidates at a time: yields (first, scores), scores the
        (c, n) screen of candidates first .. first + c - 1, each within its
        margin of what `score_batch` gives. A failed candidate scores -inf.
        Each span is a fresh array, which the consumer may keep.

        F^{-1} and rho are the decoder's (`_grams`), `AhY` (N, T n) is A^H
        values for the whole matrix and the block `_columns` gives, so
        b = A_S^H y is a row gather, and `ysq` (n,) is |y|^2 summed per
        observation. By Woodbury,

            y^H Sigma_S^{-1} y = (|y|^2 - |F^{-1} b|^2) / sigma2,

        O(K^2) per (support, column) against the O(M K) of
        `CovarianceFactors.energies`. Supports are gathered
        `spectra.SCORE_CHUNK_ELEMENTS` // (K T n) at a time, and a span is
        `SCREEN_SPAN` screen values rounded down to whole chunks (at least
        one), so the chunks, and each score's bits, do not depend on the span.

        The margin. With u = eps, rho >= ||A_S||_F ||F^{-1}|| and, to first
        order in u: b is formed with |db| <= M u ||A_S|| |y|, which moves
        q = |F^{-1} b|^2 <= |y|^2 by at most 2 |F^{-1} b| ||F^{-1}|| |db|
        <= 2 M u rho |y|^2. The Gram A_S^H A_S, formed from the gathered
        columns, is within M u ||A_S||_F^2 of the exact one, and Cholesky and
        triangular inversion are backward stable, so the computed F^{-1} is
        the exact one of sigma2 I + A_S^H A_S + D with
        ||D|| <= c (M + K) u (sigma2 + ||A_S||_F^2). q = b^H (F F^H)^{-1} b
        then moves by at most ||F^{-H} F^{-1} b||^2 ||D||
        <= c (M + K) u (1 + rho^2) |y|^2, since sigma2 ||F^{-1}||^2 <= 1 and
        |F^{-1} b| <= |y|. Forming F^{-1} b, the squares and the difference
        add (2 K rho + K + M + 1) u |y|^2. `energies` is as close to the true
        form: its residual is formed explicitly, and a backward error dC of
        C = R R^H + sigma2 I moves w^H C^{-1} w by at most
        ||C^{-1} w||^2 ||dC|| <= c (M + K) u (1 + rho^2) |y|^2 / sigma2,
        because C's eigenvalues are among those of F F^H. Hence the forms
        differ by at most

            SCREEN_ROUNDING (M + K) u (1 + rho)^2 |y|^2 / sigma2,

        summed per observation. In score units that is times kappa, and each
        scorer's rounding of offset - kappa * form adds at most
        2 u (|offset| + kappa |y|^2 / sigma2), so candidate S's margin is

            m_S = 4 u |offset_S| + spread_S (u kappa / sigma2) |y|^2,
            spread_S = SCREEN_ROUNDING (M + K) (1 + rho_S)^2 + 4.

        Nearly collinear supports have a large rho and so widen the margin;
        rho = inf (an F that fails to factor) makes it inf. F^{-1} is
        inverted a row at a time and rho formed as the square root of
        ||A_S||_F^2 ||F^{-1}||_F^2 (`_gram_screen`): both are backward
        stable to first order, which the constant covers. `_margin` bounds
        every m_S of a trial at once.
        """
        factors = self.factors
        inverse, _ = self._grams
        L, K = factors.rows.shape
        step = max(1, spectra.SCORE_CHUNK_ELEMENTS // max(1, K * AhY.shape[1]))
        span = step * max(1, SCREEN_SPAN // (step * max(1, len(ysq))))
        offsets = self._offsets(T, factors.logdet)
        for first in range(0, L, span):
            energy = np.empty((min(span, L - first), len(ysq)))
            offset = offsets[first:first + len(energy)]
            for start in range(0, len(energy), step):
                rows = slice(first + start, first + start + step)
                # F^{-1} A_S^H y for the supports of one chunk
                z = inverse[rows] @ AhY[factors.rows[rows]]
                energy[start:start + step] = _column_energy(z.reshape(len(z), K * T, -1))
            np.subtract(ysq, energy, out=energy)
            energy *= -self.kappa / factors.sigma2
            energy += offset
            energy[np.isneginf(offset[:, 0])] = -np.inf          # failed candidates
            yield first, energy

    def _margin(self, ysq, T: int) -> np.ndarray:
        """m-bar (n,): per trial, the largest margin m_S (`_screen`) over the
        candidates that did not fail,

            4 u max_S |offset_S| + max_S spread_S (u kappa / sigma2) |y|^2,

        so m-bar >= m_S for each of them, and inf on every trial when one of
        them has rho = inf (an F that fails to factor)."""
        rho = self._grams[1].max()                  # a failed candidate's rho is 0
        if np.isinf(rho):
            return np.full(len(ysq), np.inf)
        eps = np.finfo(np.float64).eps
        logdet = self.factors.logdet                 # a failed candidate's is inf
        offset = np.abs(self._offsets(T, logdet[np.isfinite(logdet)])).max(initial=0.0)
        spread = SCREEN_ROUNDING * (self.M + self.factors.rows.shape[1]) * (1.0 + rho) ** 2 + 4.0
        return 4.0 * eps * offset + spread * ((eps * self.kappa / self.factors.sigma2) * ysq)

    def decode_index_batch(self, Ys: np.ndarray) -> np.ndarray:
        """Winning candidate index for a stack of observations (n, M, T): the
        index `_pick(score_batch(Ys))` gives, with the tie-break of
        :meth:`decode_index`.

        Candidates are screened in Gram space (`_screen`), one span at a
        time, and each trial keeps three values: its best screen score, that
        candidate's index, and the runner-up score. Each screen score lies
        within its margin m_S of the exact one, and m_S <= m-bar, the trial's
        `_margin`. A candidate S whose exact score reaches that of the best
        screened candidate S^ screens at least exact_S - m_S >= exact_S^ - m_S
        >= best - m_S^ - m_S >= best - 2 m-bar, so any candidate screening
        below best - 2 m-bar scores exactly below the exact maximum. A trial
        whose runner-up lies below best - 2 m-bar thus takes its best
        candidate. Every other trial (a NaN score or margin included) is
        screened again on its own columns, within the same margins whatever
        the rounding of that block; the candidates at or above its
        best - 2 m-bar that did not fail are rescored exactly (`_scores`) and
        `_pick` chooses among them, which holds every candidate that attains
        the exact maximum. They are scored on all n columns and then narrowed
        to the redone trials, because a narrower block may round differently
        and a near-tie must see the bits of `score_batch`. The decoder holds
        at most two spans of screen scores (`SCREEN_SPAN`), briefly, while the
        next span is formed, and O(n) per-trial state, never an (L, n) table;
        only the rescoring holds (c, n) exact scores for its c candidates.
        """
        values, T = self._columns(Ys)
        n = values.shape[1] // T
        AhY = self._entries.conj().T @ values
        ysq = _column_energy(values.reshape(1, self.M * T, n))[0]       # |y_i|^2
        best, second = np.full((2, n), -np.inf)
        choice = np.zeros(n, dtype=np.intp)
        for first, scores in self._screen(AhY, ysq, T):
            top = np.argmax(scores, axis=0)[None]
            high = np.take_along_axis(scores, top, axis=0)[0]
            np.put_along_axis(scores, top, -np.inf, axis=0)
            # np.maximum and np.minimum carry a NaN score into best or second
            second = np.maximum(np.maximum(second, np.minimum(best, high)), scores.max(axis=0))
            choice = np.where(high > best, first + top[0], choice)
            best = np.maximum(best, high)
        floor = best - 2.0 * self._margin(ysq, T)
        redo = np.flatnonzero(~(second < floor))
        if redo.size:
            # the candidates within 2 m-bar of a redone trial's best, screened
            # again on its columns only; `_scores` rescores them on all columns,
            # since BLAS may round a column differently in a narrower block
            picked = AhY.reshape(self._N, T, n)[:, :, redo].reshape(self._N, -1)
            near = np.concatenate([~(scores < floor[redo]).all(axis=1)
                                   for _, scores in self._screen(picked, ysq[redo], T)])
            near[list(self.failures)] = False
            exact = np.full((self._lex_order.size, redo.size), -np.inf)
            exact[near] = self._scores(values, T, np.flatnonzero(near))[:, redo]
            choice[redo] = self._pick(exact)[0]
        return choice


def lrt_decoder(A, S0: Support, S1: Support, sigma2: float) -> SupportDecoder:
    """Two-candidate decoder [S0, S1] for the likelihood-ratio test, whose
    statistic is scores[1] - scores[0]. Unlike a general decoder it needs
    distinct supports and raises NumericFailure when either covariance cannot
    be factorized."""
    if S0.indices == S1.indices:
        raise ValueError("binary test requires distinct supports")
    decoder = SupportDecoder(A, [S0, S1], sigma2)
    if decoder.failures:
        raise NumericFailure(next(iter(decoder.failures.values())))
    return decoder


def ml_decode(Y, A, candidates, sigma2: float, keep_scores: bool = True) -> DecodeResult:
    """One-shot maximum-likelihood decode over the candidate supports."""
    return SupportDecoder(A, candidates, sigma2).decode(Y, keep_scores=keep_scores)
