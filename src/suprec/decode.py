"""Optimal decision rules: the binary likelihood-ratio test and
maximum-likelihood support recovery over a candidate set.

Observations under support S are zero-mean matrix Gaussians with per-column
covariance Sigma_S, so the log density is

    log p(Y|S) = -kappa*M*T*log(pi/kappa) - kappa*T*log|Sigma_S|
                 - kappa*tr(Y^H Sigma_S^{-1} Y).

Every log determinant and quadratic form goes through the covariance core in
`spectra` (`cholesky_logdet`, `whitened_energy`). `SupportDecoder` caches one
factorization per candidate support, and its `score_batch` is the one scoring
path: `log_scores`, the decode methods, `binary_lrt` (a two-candidate
decoder) and the Monte Carlo estimators all score through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NumericFailure, ObservationBatch, Support, as_matrix
from .spectra import cholesky_logdet, covariance, whitened_energy


def _observation_values(Y) -> np.ndarray:
    if isinstance(Y, ObservationBatch):
        return np.asarray(Y.values)
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
    L, logdet = cholesky_logdet(Sigma)
    quad = float(np.sum(whitened_energy(L, values)))
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
    if S0.indices == S1.indices:
        raise ValueError("binary test requires distinct supports")
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

    Covariance Cholesky factors are computed once per (A, sigma2, candidates)
    and reused across observations. A candidate whose factorization fails
    scores -inf and is recorded in `failures` instead of aborting the decode.
    """

    def __init__(self, A, candidates, sigma2: float):
        if not candidates:
            raise ValueError("candidate set must be nonempty")
        entries, field = as_matrix(A)
        self.kappa = field.kappa
        self.M = entries.shape[0]
        self.candidates = list(candidates)
        self.failures: dict = {}
        # Lexicographic rank of each candidate, for deterministic tie-breaks.
        self._lex_rank = sorted(range(len(self.candidates)),
                                key=lambda i: self.candidates[i].indices)
        self._factors = []
        for idx, S in enumerate(self.candidates):
            try:
                self._factors.append(cholesky_logdet(covariance(A, S, sigma2)))
            except NumericFailure as exc:
                self._factors.append(None)
                self.failures[idx] = str(exc)

    def score_batch(self, Ys) -> np.ndarray:
        """Log-likelihood of every candidate for a stack of observations
        (n, M, T), as an array of shape (n_candidates, n).

        One triangular solve per candidate covers the whole stack; a candidate
        whose factorization failed scores -inf.
        """
        Ys = np.asarray(Ys)
        n, M, T = Ys.shape
        if M != self.M:
            raise ValueError(f"observation row count {M} does not match decoder M={self.M}")
        flat = np.moveaxis(Ys, 0, 1).reshape(M, n * T)
        const = -self.kappa * M * T * np.log(np.pi / self.kappa)
        scores = np.full((len(self.candidates), n), -np.inf)
        for idx, factor in enumerate(self._factors):
            if factor is None:
                continue
            L, logdet = factor
            quad = whitened_energy(L, flat).reshape(n, T).sum(axis=1)
            scores[idx] = const - self.kappa * T * logdet - self.kappa * quad
        return scores

    def log_scores(self, Y) -> np.ndarray:
        return self.score_batch(_observation_values(Y)[None])[:, 0]

    def _pick(self, scores: np.ndarray) -> tuple:
        """Index of the best score plus a flag for broken ties; ties go to
        the lexicographically smallest support."""
        winners = np.flatnonzero(scores == np.max(scores))
        if winners.size == 1:
            return int(winners[0]), False
        choice = min(winners, key=lambda i: self.candidates[i].indices)
        return int(choice), True

    def decode_index(self, Y) -> tuple:
        """Index of the winning candidate plus a flag for broken ties."""
        return self._pick(self.log_scores(Y))

    def decode(self, Y, keep_scores: bool = True) -> DecodeResult:
        values = self.log_scores(Y)
        idx, tied = self._pick(values)
        scores = None
        if keep_scores:
            scores = {S: float(v) for S, v in zip(self.candidates, values)}
        return DecodeResult(chosen=self.candidates[idx], log_scores=scores, ties_broken=tied)

    def decode_index_batch(self, Ys: np.ndarray) -> np.ndarray:
        """Winning candidate index for a stack of observations (n, M, T);
        ties resolve to the lexicographically smallest support exactly as in
        :meth:`decode_index`."""
        # Evaluate candidates in lexicographic order so the first argmax is
        # the lexicographically smallest maximizer.
        picks = np.argmax(self.score_batch(Ys)[self._lex_rank], axis=0)
        return np.asarray(self._lex_rank, dtype=np.intp)[picks]


def lrt_decoder(A, S0: Support, S1: Support, sigma2: float) -> SupportDecoder:
    """Two-candidate decoder [S0, S1] for the likelihood-ratio test, whose
    statistic is scores[1] - scores[0]. Unlike a general decoder it raises
    NumericFailure when either covariance cannot be factorized."""
    decoder = SupportDecoder(A, [S0, S1], sigma2)
    if decoder.failures:
        raise NumericFailure(next(iter(decoder.failures.values())))
    return decoder


def ml_decode(Y, A, candidates, sigma2: float, keep_scores: bool = True) -> DecodeResult:
    """One-shot maximum-likelihood decode over the candidate supports."""
    return SupportDecoder(A, candidates, sigma2).decode(Y, keep_scores=keep_scores)
