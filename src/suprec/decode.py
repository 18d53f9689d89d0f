"""Optimal decision rules: the binary likelihood-ratio test and
maximum-likelihood support recovery over a candidate set.

Observations under support S are zero-mean matrix Gaussians with per-column
covariance Sigma_S, so the log density is

    log p(Y|S) = -kappa*M*T*log(pi/kappa) - kappa*T*log|Sigma_S|
                 - kappa*tr(Y^H Sigma_S^{-1} Y).

Every log determinant and quadratic form goes through the covariance core in
`spectra`. `SupportDecoder` keeps its candidates in one (L, K_max) table
padded with -1, whose one `np.lexsort` is the tie order, factors them in K x K
form (one stacked `covariance_factors` call per support size) and lays
observations out one way (`_columns`). Its `score_batch` is the exact scoring
path: `log_scores`, `decode`, `decode_index`, `binary_lrt` (a two-candidate
decoder) and the binary Monte Carlo estimator score through it, all candidates
of a size at once. `decode_index_batch`, which the multiple and ensemble
estimators call, returns the pick of `score_batch` but screens first: it
scores every candidate in K x K Gram space (`CovarianceFactors.screen`), each
within a rounding margin of its exact score, and rescores exactly only the
candidates of a trial whose margins reach the best one's. Sizes with K >= M
are scored exactly. `log_likelihood` takes one dense covariance and whitens
with its inverse Cholesky factor (`spectra._inverse_factor`), which fails
under the same pivot-floor rule as every other covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NumericFailure, Support, as_matrix
from .spectra import _column_energy, _inverse_factor, covariance_factors


def _observation_values(Y) -> np.ndarray:
    arr = np.asarray(Y)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def log_likelihood(Y, Sigma: np.ndarray, kappa: float) -> float:
    """Exact log density of the observations under covariance Sigma."""
    values = _observation_values(Y)
    M, T = values.shape
    if Sigma.shape != (M, M):
        raise ValueError(f"covariance shape {Sigma.shape} does not match observations with M={M}")
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


@dataclass(frozen=True)
class DecodeResult:
    chosen: Support
    log_scores: dict | None
    ties_broken: bool


class SupportDecoder:
    """Maximum-likelihood decoder over a fixed candidate support set.

    `candidates` is a sequence of `Support`s, of any sizes, or an (L, K)
    integer array of support rows. The covariance factors of each support
    size are computed once per (A, sigma2, candidates), in one
    `covariance_factors` call, and reused across observations. A candidate
    whose factorization fails scores -inf and is recorded in `failures`
    instead of aborting the decode. `factors`, when given, are the
    `covariance_factors` of candidates given as rows, already built at sigma2
    (`simulate` shares them with the exact Fano beta); they are not rebuilt.
    """

    def __init__(self, A, candidates, sigma2: float, factors=None):
        entries, field = as_matrix(A)
        self.kappa = field.kappa
        self.M, self._N = entries.shape
        self._entries = entries
        if isinstance(candidates, np.ndarray):
            if candidates.ndim != 2 or not candidates.shape[1] or candidates.dtype.kind not in "iu":
                raise ValueError("candidate rows must be a 2-D integer array")
            table = candidates.astype(np.intp, copy=False)
            self._supports = None
        else:
            self._supports = list(candidates)
            width = max((S.size for S in self._supports), default=0)
            table = np.array([[*S.indices] + [-1] * (width - S.size) for S in self._supports],
                             dtype=np.intp)
        if not len(table):
            raise ValueError("candidate set must be nonempty")
        if (self._supports is None and table.min() < 0) or table.max() >= self._N:
            raise ValueError(f"candidate column indices must lie in [0, {self._N})")
        if factors is not None and not (self._supports is None and factors.sigma2 == sigma2
                                        and np.array_equal(factors.rows, table)):
            raise ValueError("factors must be those of the candidate rows at sigma2")
        self._table = table
        # Ties go to the first in lexicographic order; the -1 padding puts a
        # support before every longer one it begins, as tuples sort.
        self._lex_order = np.lexsort(table.T[::-1])
        sizes = np.count_nonzero(table >= 0, axis=1)
        self.failures: dict = {}
        self._groups = []
        for K in np.unique(sizes):
            idx = np.flatnonzero(sizes == K)
            group = covariance_factors(entries, table[idx, :K], sigma2) if factors is None else factors
            self._groups.append((idx, group))
            self.failures.update({int(idx[i]): msg for i, msg in group.failures.items()})

    @property
    def candidates(self) -> list:
        """The candidate supports, in the decoder's order (built on first use
        when the decoder was given support rows)."""
        if self._supports is None:
            self._supports = [Support(tuple(int(i) for i in row), self._N) for row in self._table]
        return self._supports

    def _columns(self, Ys) -> tuple:
        """(values, T): observations (n, M, T) as the one contiguous block
        (M, T n) all scorers read, column t of observation i at t n + i."""
        Ys = np.asarray(Ys)
        n, M, T = Ys.shape
        if M != self.M:
            raise ValueError(f"observation row count {M} does not match decoder M={self.M}")
        return np.ascontiguousarray(np.moveaxis(Ys, 0, -1)).reshape(M, T * n), T

    def _offsets(self, T: int, logdet: np.ndarray) -> np.ndarray:
        """The part of the log-likelihood that does not depend on the
        observations, as a column (L, 1): -kappa (M T log(pi/kappa) + T log|Sigma_S|)."""
        const = -self.kappa * self.M * T * np.log(np.pi / self.kappa)
        return const - self.kappa * T * logdet[:, None]

    def _scores(self, values: np.ndarray, T: int, cand=None) -> np.ndarray:
        """Exact log-likelihoods of the candidates at indices `cand` (all when
        None) for observation columns (M, T n): (len(cand), n). Each support
        size is scored as one stack (`CovarianceFactors.energies`), and a
        candidate scores the same bits whichever others are scored with it."""
        n = values.shape[1] // T
        out = np.empty((self._lex_order.size if cand is None else len(cand), n))
        for idx, factors in self._groups:
            rows, which = idx, slice(None)
            if cand is not None:
                rows = np.flatnonzero(np.isin(cand, idx))
                which = np.searchsorted(idx, cand[rows])
            # a failed candidate has logdet = +inf, so it scores -inf
            out[rows] = (self._offsets(T, factors.logdet[which])
                         - self.kappa * factors.energies(values, T, which))
        return out

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

    def _screen(self, factors, AhY, ysq, T: int) -> tuple:
        """(scores, margins), each (L, n), of one support size with p = K < M:
        the Gram-space log-likelihoods of `CovarianceFactors.screen`, each
        within its margin of what `score_batch` gives. A failed candidate
        scores -inf with margin 0."""
        energy, margin = factors.screen(AhY, ysq, T)
        offsets = self._offsets(T, factors.logdet)
        energy *= -self.kappa
        energy += offsets
        # the margin in score units, plus the rounding of offset - kappa * energy
        # in both scorers
        eps = np.finfo(np.float64).eps
        margin *= self.kappa
        margin += 4.0 * eps * np.abs(offsets)
        margin += (4.0 * eps * self.kappa / factors.sigma2) * ysq
        failed = list(factors.failures)
        energy[failed] = -np.inf
        margin[failed] = 0.0
        return energy, margin

    def decode_index_batch(self, Ys: np.ndarray) -> np.ndarray:
        """Winning candidate index for a stack of observations (n, M, T): the
        index `_pick(score_batch(Ys))` gives, with the tie-break of
        :meth:`decode_index`.

        Candidates are screened in Gram space (`CovarianceFactors.screen`),
        each within its margin m of its exact score. In a trial, a candidate is
        near when screen + m reaches the largest screen - m of the trial; any
        other candidate's exact score lies below that of the candidate that
        attains it. A trial with one near candidate takes it; the near
        candidates of a trial with several are rescored exactly and `_pick`
        chooses among them. A score or margin that is NaN leaves every
        candidate of its trial near.
        """
        values, T = self._columns(Ys)
        n = values.shape[1] // T
        AhY = self._entries.conj().T @ values
        ysq = _column_energy(values.reshape(1, self.M * T, n))[0]       # |y_i|^2
        parts = []
        for idx, factors in self._groups:
            if factors.gram_inv is None:        # p = M: score exactly
                parts.append((self._scores(values, T, idx), np.zeros((len(idx), n))))
            else:
                parts.append(self._screen(factors, AhY, ysq, T))
        if len(parts) == 1:
            scores, margins = parts[0]
        else:
            scores = np.empty((self._lex_order.size, n))
            margins = np.empty_like(scores)
            for (idx, _), (part, margin) in zip(self._groups, parts):
                scores[idx], margins[idx] = part, margin
        threshold = (scores - margins).max(axis=0)
        margins += scores
        near = ~(margins < threshold)
        choice = np.argmax(near, axis=0)
        redo = np.flatnonzero(np.count_nonzero(near, axis=0) > 1)
        if redo.size:
            near = near[:, redo]
            cand = np.flatnonzero(near.any(axis=1))
            exact = np.full((self._lex_order.size, redo.size), -np.inf)
            exact[cand] = np.where(near[cand], self._scores(values, T, cand)[:, redo], -np.inf)
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
