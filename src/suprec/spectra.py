"""Covariance spectra: the H-matrix eigenvalue trichotomy, its QR/Gram
sandwich bounds, and the pairwise/global incoherence of a measurement matrix.

For a support pair (S0, S1) the object of interest is
H = Sigma_0^{1/2} Sigma_1^{-1} Sigma_0^{1/2} with
Sigma_S = A_S A_S^H + sigma^2 I. Its spectrum is computed as the generalized
eigenvalues of the pencil (Sigma_0, Sigma_1) via triangular whitening of
Sigma_1, which avoids explicit matrix square roots.

This module is also the package's one covariance core: `cholesky_logdet`
factorizes Sigma_S and `whitened_energy` evaluates its quadratic forms, for
the decoders as well as for the spectra here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .model import (
    CapExceeded,
    NumericFailure,
    Support,
    as_matrix,
    enumerate_supports,
    substream,
)

PAIR_CAP = 10**7


def covariance(A, S: Support, sigma2: float) -> np.ndarray:
    """Per-snapshot observation covariance A_S A_S^H + sigma^2 I."""
    entries, _ = as_matrix(A)
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    cols = entries[:, S.as_array()]
    M = entries.shape[0]
    return cols @ cols.conj().T + sigma2 * np.eye(M, dtype=entries.dtype)


def cholesky_logdet(Sigma: np.ndarray) -> tuple:
    """Lower Cholesky factor L and log-determinant of a positive definite matrix."""
    try:
        L = np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(
            f"covariance factorization failed (condition number ~ {np.linalg.cond(Sigma):.3e})"
        ) from exc
    logdet = 2.0 * float(np.sum(np.log(np.abs(np.diag(L)))))
    return L, logdet


def whitened_energy(L: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-column |L^{-1} y|^2 of the columns y of `values`: the quadratic
    form y^H Sigma^{-1} y for Sigma = L L^H."""
    return np.sum(np.abs(solve_triangular(L, values, lower=True)) ** 2, axis=0)


def h_eigenvalues(A, S0: Support, S1: Support, sigma2: float) -> np.ndarray:
    """Descending eigenvalues of the pencil (Sigma_0, Sigma_1); all positive."""
    Sigma0 = covariance(A, S0, sigma2)
    Sigma1 = covariance(A, S1, sigma2)
    L, _ = cholesky_logdet(Sigma1)
    # C = L^{-1} Sigma_0 L^{-H} shares the spectrum of H.
    W = solve_triangular(L, Sigma0, lower=True)
    C = solve_triangular(L, W.conj().T, lower=True).conj().T
    eigs = np.linalg.eigvalsh(C)
    if eigs[0] <= 0:
        raise NumericFailure(f"pencil produced non-positive eigenvalue {eigs[0]:.3e}")
    return eigs[::-1]


@dataclass(frozen=True)
class SpectrumSplit:
    """Eigenvalues of H classified around 1 under a tolerance."""

    eigenvalues: tuple
    count_gt: int
    count_eq: int
    count_lt: int
    tolerance: float

    def __post_init__(self):
        if self.count_gt + self.count_eq + self.count_lt != len(self.eigenvalues):
            raise ValueError("classification counts must partition the spectrum")


def spectrum_split(eigs, tolerance: float | None = None) -> SpectrumSplit:
    """Count eigenvalues greater than, equal to, and less than 1.

    Default tolerance is 1e-8 * max(1, largest eigenvalue); an eigenvalue
    counts as "equal" when |lambda - 1| <= tolerance.
    """
    arr = np.sort(np.asarray(eigs, dtype=np.float64))[::-1]
    if arr.size == 0 or arr[-1] <= 0:
        raise ValueError("all eigenvalues must be positive")
    if tolerance is None:
        tolerance = 1e-8 * max(1.0, float(arr[0]))
    eq = np.abs(arr - 1.0) <= tolerance
    gt = (arr > 1.0) & ~eq
    lt = (arr < 1.0) & ~eq
    return SpectrumSplit(tuple(float(x) for x in arr), int(gt.sum()), int(eq.sum()),
                         int(lt.sum()), float(tolerance))


@dataclass(frozen=True)
class PairIncoherence:
    """Geometric mean of the greater-than-1 eigenvalues of H for one pair."""

    value: float
    pair: tuple
    k_d: int


def pair_incoherence(A, Si: Support, Sj: Support, sigma2: float) -> PairIncoherence:
    if Si.indices == Sj.indices:
        raise ValueError("pair incoherence is undefined for identical supports")
    if Si.size != Sj.size:
        raise ValueError("pair incoherence requires equal-size supports")
    k_d = len(Si.difference(Sj))
    entries, _ = as_matrix(A)
    if entries.shape[0] < 2 * k_d:
        raise ValueError(f"need M >= 2*k_d = {2 * k_d}, got M = {entries.shape[0]}")
    split = spectrum_split(h_eigenvalues(A, Si, Sj, sigma2))
    if split.count_gt == 0:
        raise NumericFailure("no eigenvalue of H exceeds 1; matrix is degenerate on this pair")
    top = np.asarray(split.eigenvalues[: split.count_gt])
    value = float(np.exp(np.mean(np.log(top))))
    return PairIncoherence(value, (Si, Sj), k_d)


@dataclass(frozen=True)
class IncoherenceSummary:
    """Minimum pairwise incoherence over ordered size-K support pairs."""

    lambda_bar: float
    argmin_pair: tuple
    mode: str


def matrix_incoherence(A, K: int, sigma2: float, mode: str = "exhaustive",
                       sample_count: int | None = None, seed: int = 0,
                       cap: int = PAIR_CAP) -> IncoherenceSummary:
    """min over ordered pairs (Si, Sj), Si != Sj, of the pairwise incoherence.

    Sampled mode draws ordered pairs uniformly without replacement and only
    upper-estimates the true minimum; the mode string in the summary flags it.
    """
    entries, _ = as_matrix(A)
    N = entries.shape[1]
    supports = enumerate_supports(N, K)
    L = len(supports)
    n_pairs = L * (L - 1)
    if n_pairs == 0:
        raise ValueError("incoherence needs at least two candidate supports")

    if mode == "exhaustive":
        if n_pairs > cap:
            raise CapExceeded(f"{n_pairs} ordered pairs exceed cap {cap}; use sampled mode")
        pair_ids = ((i, j) for i in range(L) for j in range(L) if i != j)
        mode_str = "exhaustive"
    elif mode == "sampled":
        if sample_count is None or sample_count < 1:
            raise ValueError("sampled mode requires a positive sample_count")
        sample_count = min(sample_count, n_pairs)
        rng = substream(seed, "incoherence-pair-sample")
        flat = rng.choice(n_pairs, size=sample_count, replace=False)
        pair_ids = (divmod(int(f), L - 1) for f in flat)
        # row-major flat index over the off-diagonal: fix up the column.
        pair_ids = ((i, j if j < i else j + 1) for i, j in pair_ids)
        mode_str = f"sampled({sample_count})"
    else:
        raise ValueError(f"unknown mode {mode!r}")

    best = np.inf
    best_pair = None
    for i, j in pair_ids:
        value = pair_incoherence(A, supports[i], supports[j], sigma2).value
        if value < best:
            best, best_pair = value, (supports[i], supports[j])
    return IncoherenceSummary(float(best), best_pair, mode_str)


def _r33(entries: np.ndarray, S0: Support, S1: Support) -> np.ndarray:
    """R33 of the QR construction (see `qr_lower_bound_eigs`); needs S0 \\ S1 nonempty."""
    only0 = list(S0.difference(S1))
    stacked = entries[:, list(S1.difference(S0)) + list(S0.intersection(S1)) + only0]
    if entries.shape[0] < stacked.shape[1]:
        raise ValueError("need M >= k0 + k_i + k1 for the QR construction")
    k0 = len(only0)
    R33 = np.linalg.qr(stacked, mode="r")[-k0:, -k0:]
    if np.min(np.abs(np.diag(R33))) == 0:
        raise NumericFailure("rank-deficient column stack; measurement matrix is degenerate on these supports")
    return R33


def qr_lower_bound_eigs(A, S0: Support, S1: Support, sigma2: float) -> np.ndarray:
    """Eigenvalues of I + R33 R33^H / sigma^2, the lower bound on the
    greater-than-1 part of H's spectrum.

    R33 is the trailing k0 x k0 block of R in the QR factorization of
    [A_{S1\\S0} | A_{S1 cap S0} | A_{S0\\S1}].
    """
    k0 = len(S0.difference(S1))
    if k0 == 0:
        return np.empty(0)
    entries, _ = as_matrix(A)
    R33 = _r33(entries, S0, S1)
    G = R33 @ R33.conj().T
    eigs = np.linalg.eigvalsh(np.eye(k0) + G / sigma2)
    return eigs[::-1].real


def upper_bound_eigs(A, S0: Support, S1: Support, sigma2: float) -> np.ndarray:
    """Eigenvalues of I + A_{S0\\S1}^H A_{S0\\S1} / sigma^2, the upper bound."""
    only0 = list(S0.difference(S1))
    if not only0:
        return np.empty(0)
    entries, _ = as_matrix(A)
    block = entries[:, only0]
    gram = block.conj().T @ block
    eigs = np.linalg.eigvalsh(np.eye(len(only0)) + gram / sigma2)
    return eigs[::-1].real


def noise_constants(A, K: int, cap: int = PAIR_CAP) -> tuple:
    """Matrix-only constants (c1, c2) bracketing the incoherence as
    1 + c1/sigma^2 <= lambda_bar <= 1 + c2/sigma^2.

    c1 is the minimum over ordered support pairs of the geometric mean of the
    squared R33 diagonal; c2 the maximum over supports of size <= K of the
    mean squared column mass.
    """
    entries, _ = as_matrix(A)
    M, N = entries.shape
    if M < 2 * K:
        raise ValueError("noise constants require M >= 2K")
    supports = enumerate_supports(N, K)
    L = len(supports)
    if L * (L - 1) > cap:
        raise CapExceeded(f"{L * (L - 1)} ordered pairs exceed cap {cap}")

    c1 = np.inf
    for i in range(L):
        for j in range(L):
            if i == j:
                continue
            diag = np.abs(np.diag(_r33(entries, supports[i], supports[j]))) ** 2
            c1 = min(c1, float(np.exp(np.mean(np.log(diag)))))

    col_mass = np.sum(np.abs(entries) ** 2, axis=0)
    # max over |S| <= K of mean column mass = mean of the |S| largest masses,
    # maximized over the size; the best single column always attains it, but
    # keep the general scan to match the definition.
    order = np.sort(col_mass)[::-1]
    c2 = max(float(np.mean(order[:k])) for k in range(1, K + 1))
    return float(c1), c2
