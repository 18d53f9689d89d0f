"""Covariance spectra: the H-matrix eigenvalue trichotomy, its QR/Gram
sandwich bounds, and the pairwise/global incoherence of a measurement matrix.

For a support pair (S0, S1) the object of interest is
H = Sigma_0^{1/2} Sigma_1^{-1} Sigma_0^{1/2} with
Sigma_S = A_S A_S^H + sigma^2 I, whose spectrum is that of the pencil
(Sigma_0, Sigma_1). Every support pair reaches its union QR one way:
`_union_rows` orders the union [S1 \\ S0 | S0 cap S1 | S0 \\ S1] and
`_union_r` QRs it per k_d, on one matrix for all pairs (`matrix_incoherence`,
and `noise_constants`, whose c1 reads R33) or on a stack of one pair per
matrix (Monte Carlo draws, and eig-check's `h_spectra`). One block whitening,
`_pencil`, turns that R into the reduced r x r pencil W_r - I (r = |S0 cup S1|
<= 2K): it factors only the leading min(K, M) square block of C_1 and scales
its trailing sigma^2 I. Only r eigenvalues of H differ from 1;
`_reduced_spectra`, the one route from a pair to them, takes one stacked r x r
`eigvalsh` per k_d group for `pair_incoherences` and `h_spectra`. An
`eigvalsh` is accurate relative to its largest eigenvalue only, so `h_spectra`,
the one place that combines the two orders of a pair, takes each eigenvalue of
H from the order in which it is larger: lambda from the (S0, S1) pencil or
1 / lambda from the (S1, S0) one. `_split_masks` splits every spectrum
around 1. Both minima over ordered support pairs, lambda_bar and c1, run one
walk, `_pair_walk`, each with its own block scorer. Before the first draw it
checks the set rule (`_check_pair_set`: 1 <= K <= N, C(N, K) >= 2,
M >= 2 min(K, N - K)), so no pair it draws breaks the pair rule of
`_pair_union` (equal sizes, not identical, M >= 2 k_d).

Each Sigma_S is also sigma^2 I plus a rank-K term, and `covariance_factors`
factors many supports of one matrix at once in K x K form: one stacked QR of
the supports' columns and one stacked Cholesky of C = R R^H + sigma^2 I. Those
factors give every log-determinant and quadratic form the decoders need
(`CovarianceFactors.energies`) and the sum of inverses in the exact Fano beta.
When K < M they also hold the inverse Cholesky factor F^{-1} of
sigma^2 I + R^H R, with which `CovarianceFactors.screen` scores an observation
column in O(K^2) from A^H y (Woodbury) and bounds its distance from
`energies`; the ML decoder screens with it and rescores only near-ties. Both
read the one observation block of `SupportDecoder._columns`.

Every covariance is factored by `_whitener`, the one caller of
`np.linalg.cholesky`: one stacked call, item by item only when it breaks down,
and one failure rule, a NaN factor or a pivot at its rounding floor.
`covariance_factors` records failures per support (its Gram-screen factor F
marks them instead, so those supports are always rescored); `_inverse_factor`,
the raising form behind `_pencil` and the dense `decode.log_likelihood`,
raises the first, as "covariance factorization failed (...)".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CapExceeded,
    NumericFailure,
    Support,
    as_matrix,
    substream,
    unrank_supports,
)

PAIR_CAP = 10**7
PAIR_BLOCK = 1024     # ordered pairs scored per stacked kernel call
# Entries of the (c, M, T n) residual buffer of `CovarianceFactors.energies`
# and of the (c, K, T n) buffers of `CovarianceFactors.screen`, which score c
# supports at a time: it bounds the scoring's working memory whatever the
# number of supports or the size of the block.
SCORE_CHUNK_ELEMENTS = 2**15
# Constant of the Gram screen's margin (`CovarianceFactors.screen`): it covers
# the rounding constants of both scorers, real or complex.
SCREEN_ROUNDING = 16


def _gram(X: np.ndarray, sigma2: float) -> np.ndarray:
    """X X^H + sigma2 I for a matrix or a stack of matrices X (..., m, k)."""
    return X @ X.conj().swapaxes(-1, -2) + sigma2 * np.eye(X.shape[-2])


def covariance(A, S: Support, sigma2: float) -> np.ndarray:
    """Per-snapshot observation covariance A_S A_S^H + sigma^2 I."""
    entries, _ = as_matrix(A)
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    return _gram(entries[:, S.as_array()], sigma2)


def _factorization_failure(C: np.ndarray) -> str:
    """Message for a covariance C that failed to factor; it gives the condition
    number only when C is finite, since the SVD behind it fails otherwise."""
    detail = f"condition number ~ {np.linalg.cond(C):.3e}" if np.isfinite(C).all() else "non-finite"
    return f"covariance factorization failed ({detail})"


def _whitener(C: np.ndarray) -> tuple:
    """(G, pivots, failed) for a stack of covariances C (P, p, p): the lower
    Cholesky factors, their squared pivots, and the mask of the C that fail,
    because the factor is NaN or a pivot falls to its rounding level
    (p eps max C_jj), where log|C| and C^{-1} are rounding noise. The stack is
    factored in one call, and item by item only when that call breaks down,
    with a NaN factor for each item that does not factor."""
    try:
        G = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        G = np.full_like(C, np.nan)
        for i, c in enumerate(C):
            try:
                G[i] = np.linalg.cholesky(c)
            except np.linalg.LinAlgError:
                pass
    pivots = np.abs(np.diagonal(G, axis1=1, axis2=2)) ** 2
    p = C.shape[-1]
    floor = p * np.finfo(np.float64).eps * np.diagonal(C, axis1=1, axis2=2).real.max(axis=1)
    return G, pivots, ~(pivots.min(axis=1) > floor)          # NaN pivots fail too


def _inverse_factor(C: np.ndarray) -> np.ndarray:
    """Inverses G^{-1} of the `_whitener` factors G G^H = C of a stack
    (P, m, m); the first C that fails the `_whitener` rule is a
    `NumericFailure`."""
    G, _, failed = _whitener(C)
    if failed.any():
        raise NumericFailure(_factorization_failure(C[np.argmax(failed)]))
    return np.linalg.inv(G)


@dataclass(frozen=True)
class CovarianceFactors:
    """Low-rank factors of Sigma_S = A_S A_S^H + sigma2 I_M for L supports of
    one size K of one matrix A, stacked along the first axis.

    With the reduced QR A_S = Q R (Q: M x p orthonormal, p = min(M, K)) and
    the Cholesky factor G of C = R R^H + sigma2 I_p,

        Sigma_S = Q C Q^H + sigma2 (I - Q Q^H),
        log|Sigma_S| = (M - p) log sigma2 + log|C|        (Hager, SIAM Rev. 1989),
        y^H Sigma_S^{-1} y = |y - Q w|^2 / sigma2 + |G^{-1} w|^2,  w = Q^H y.

    A support whose C is not numerically positive definite is listed in
    `failures` (row position -> message); its `logdet` is +inf and its Q is
    zero, so its likelihood is 0 even when its columns are not finite.

    When p = K < M, `gram_inv` holds the inverse factor F^{-1} of
    F F^H = sigma2 I + R^H R = sigma2 I + A_S^H A_S and `cond` the conditioning
    factor rho = ||A_S||_F ||F^{-1}||_F of each support, for `screen`; both are
    None when p = M, where the residual term vanishes and `energies` is cheap.
    """

    Q: np.ndarray            # (L, M, p)
    proj: np.ndarray         # (L, 2p, M): Q^H stacked over G^{-1} Q^H
    logdet: np.ndarray       # (L,) log|Sigma_S|
    sigma2: float
    failures: dict
    rows: np.ndarray         # (L, K) column indices of the supports
    gram_inv: np.ndarray | None = None    # (L, K, K) F^{-1}; zero for a failed support
    cond: np.ndarray | None = None        # (L,) rho; inf where F fails `_whitener`

    def energies(self, values: np.ndarray, T: int, which=slice(None)) -> np.ndarray:
        """Quadratic forms y^H Sigma_S^{-1} y of n observations of T columns
        each, summed per observation: (L, n), or (len(which), n) for the
        supports at positions `which` only, for the block `values` (M, T n)
        of `SupportDecoder._columns`.

        The residual y - Q w is formed explicitly, not as |y|^2 - |w|^2, which
        cancels at small sigma2; when p = M it is zero and skipped. Supports
        are scored SCORE_CHUNK_ELEMENTS // (M T n) at a time, so neither an
        (L, M, T n) nor an (L, T n) array is built. A support's forms do not
        depend on which other supports are scored with it.
        """
        Q, proj = self.Q[which], self.proj[which]
        L, M, p = Q.shape
        nT = values.shape[1]
        out = np.empty((L, nT // T))
        step = max(1, SCORE_CHUNK_ELEMENTS // max(1, M * nT))
        # Work buffers shared by every chunk, rather than two fresh
        # chunk-sized arrays per chunk (measured slower).
        dtype = np.result_type(proj, values)
        wz = np.empty((min(step, L), 2 * p, nT), dtype)      # [w; G^{-1} w]
        resid = np.empty((min(step, L), M, nT), dtype) if p < M else None
        for start in range(0, L, step):
            stop = min(start + step, L)
            c = stop - start
            np.matmul(proj[start:stop], values, out=wz[:c])
            energy = _column_energy(wz[:c, p:].reshape(c, p * T, -1))
            if p < M:
                np.matmul(Q[start:stop], wz[:c, :p], out=resid[:c])
                np.subtract(values, resid[:c], out=resid[:c])
                energy += _column_energy(resid[:c].reshape(c, M * T, -1)) / self.sigma2
            out[start:stop] = energy
        return out

    def screen(self, AhY: np.ndarray, ysq: np.ndarray, T: int) -> tuple:
        """Gram-space quadratic forms y^H Sigma_S^{-1} y of n observations of
        T columns each, summed per observation, and a bound on their distance
        from `energies`: (energies, margins), each (L, n). Only for p = K < M.

        `AhY` (N, T n) is A^H values for the whole matrix and the `values`
        that `energies` reads, so b = A_S^H y is a row gather; `ysq` (n,) is
        |y|^2 summed per observation. By Woodbury,

            y^H Sigma_S^{-1} y = (|y|^2 - |F^{-1} b|^2) / sigma2,

        O(K^2) per (support, column) against the O(M K) of `energies`. Supports
        are gathered SCORE_CHUNK_ELEMENTS // (K T n) at a time.

        The margin. With u = eps, rho >= ||A_S|| ||F^{-1}|| and, to first order
        in u: b is formed with |db| <= M u ||A_S|| |y|, which moves
        q = |F^{-1} b|^2 <= |y|^2 by at most 2 |F^{-1} b| ||F^{-1}|| |db|
        <= 2 M u rho |y|^2. QR, Cholesky and triangular inversion are backward
        stable, so the computed F^{-1} is the exact one of
        sigma2 I + A_S^H A_S + D with ||D|| <= c (M + K) u (sigma2 + ||A_S||^2);
        q = b^H (F F^H)^{-1} b then moves by at most
        ||F^{-H} F^{-1} b||^2 ||D|| <= c (M + K) u (1 + rho^2) |y|^2, since
        sigma2 ||F^{-1}||^2 <= 1. Forming F^{-1} b, the squares and the
        difference add (2 K rho + K + M + 1) u |y|^2. `energies` is as close to
        the true form: its residual is formed explicitly, and a backward error
        dC of C = R R^H + sigma2 I moves w^H C^{-1} w by at most
        ||C^{-1} w||^2 ||dC|| <= c (M + K) u (1 + rho^2) |y|^2 / sigma2, because
        C and F F^H share their eigenvalues. Hence

            |screen - energies| <= SCREEN_ROUNDING (M + K) u (1 + rho)^2 |y|^2 / sigma2,

        summed per observation, which is the margin. Nearly collinear supports have a
        large rho and so widen their own margin; rho = inf (an F that fails
        `_whitener`) makes the margin inf, so such a support is always rescored.
        """
        L, K = self.rows.shape
        out = np.empty((L, AhY.shape[1] // T))
        step = max(1, SCORE_CHUNK_ELEMENTS // max(1, K * AhY.shape[1]))
        for start in range(0, L, step):
            stop = min(start + step, L)
            z = self.gram_inv[start:stop] @ AhY[self.rows[start:stop]]   # F^{-1} A_S^H y
            out[start:stop] = _column_energy(z.reshape(stop - start, K * T, -1))
        np.subtract(ysq, out, out=out)
        out /= self.sigma2
        M = self.Q.shape[1]
        factor = SCREEN_ROUNDING * (M + K) * np.finfo(np.float64).eps / self.sigma2
        return out, np.multiply.outer(factor * (1.0 + self.cond) ** 2, ysq)


def _column_energy(x: np.ndarray) -> np.ndarray:
    """Squared norm of each column of each matrix in a stack (c, m, n), as
    (c, n). The last axis must be contiguous."""
    if np.iscomplexobj(x):
        x = x.view(np.float64)                  # real and imaginary parts side by side
        return np.einsum("cnt->cn", np.einsum("cmj,cmj->cj", x, x).reshape(len(x), -1, 2))
    return np.einsum("cmj,cmj->cj", x, x)


def covariance_factors(A, rows, sigma2: float) -> CovarianceFactors:
    """Factors of Sigma_S for the supports of one matrix A (M, N) given as an
    (L, K) array of rows.

    One stacked QR and one `_whitener` of C serve all L supports (when K < M a
    second one factors F F^H for the screen); a support fails by the
    `_whitener` rule, for instance when A_S has duplicate columns and sigma2
    is below eps^2 |A_S|^2.
    """
    entries, _ = as_matrix(A)
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    M = entries.shape[0]
    rows = np.asarray(rows, dtype=np.intp)
    Q, R = np.linalg.qr(entries.T[rows].swapaxes(1, 2))
    p = Q.shape[2]
    C = _gram(R, sigma2)
    G, pivots, failed = _whitener(C)
    failures = {int(i): _factorization_failure(C[i]) for i in np.flatnonzero(failed)}
    logdet = (M - p) * np.log(sigma2) + np.sum(np.log(pivots), axis=1)
    logdet[failed] = np.inf
    G[failed] = np.eye(p)
    Q[failed] = 0.0
    Qh = Q.conj().swapaxes(1, 2)
    proj = np.concatenate([Qh, np.linalg.solve(G, Qh)], axis=1)
    gram_inv = cond = None
    if p < M:
        F, _, broken = _whitener(_gram(R.conj().swapaxes(1, 2), sigma2))     # sigma2 I + R^H R
        F[broken | failed] = np.eye(p)
        gram_inv = np.linalg.inv(F)
        gram_inv[failed] = 0.0
        cond = np.linalg.norm(R, axis=(1, 2)) * np.linalg.norm(gram_inv, axis=(1, 2))
        cond[broken] = np.inf
        cond[failed] = 0.0
    return CovarianceFactors(Q, proj, logdet, float(sigma2), failures, rows, gram_inv, cond)


def _pencil(R: np.ndarray, K1: int, K0: int, sigma2: float) -> np.ndarray:
    """W_r - I (n, p, p) for a stack of union R factors (n, p, r) whose leading
    K1 columns R_1 are S1's and trailing K0 columns R_0 are S0's
    (`_union_rows`), where W_r = L^{-1} C_0 L^{-H} is the reduced pencil
    (C_0, C_1), C_i = R_i R_i^H + sigma2 I, whitened by C_1 = L L^H.

    R_1 is zero below row q = min(K1, p), so L = G (+) sigma2^{1/2} I with
    G G^H = R_1[:q] R_1[:q]^H + sigma2 I_q (`_inverse_factor`): only that
    leading block is factored, and the trailing sigma2 I is scaled, never
    factored. For Z = L^{-1} R_0,

        W_r - I = L^{-1} (R_0 R_0^H + sigma2 I) L^{-H} - I
                = Z Z^H + (sigma2 G^{-1} G^{-H} - I) (+) 0

    (Hager, SIAM Rev. 1989; Golub & Van Loan, Matrix Computations, sec. 8.7).
    Only r <= 2K eigenvalues of H differ from 1, and this r x r form holds
    them. A leading block of C_1 that fails `_whitener`, or a non-finite
    W_r, is a `NumericFailure`.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    q = min(K1, R.shape[1])
    Gi = _inverse_factor(_gram(R[:, :q, :K1], sigma2))
    R0 = R[:, :, R.shape[2] - K0:]
    Z = np.concatenate([Gi @ R0[:, :q], R0[:, q:] / math.sqrt(sigma2)], axis=1)
    core = Z @ Z.conj().swapaxes(1, 2)
    core[:, :q, :q] += sigma2 * (Gi @ Gi.conj().swapaxes(1, 2)) - np.eye(q)
    if not np.isfinite(core).all():
        raise NumericFailure(_factorization_failure(core))
    return core


def h_spectra(entries: np.ndarray, S0: Support, S1: Support, sigma2: float) -> tuple:
    """(eigs, lower, upper) of D matrices (D, M, N): `eigs` (D, M), descending
    and positive, is H's spectrum; `lower` and `upper` (D, k0), descending, are
    the eigenvalues of I + R33 R33^H / sigma2 (R33 the trailing k0 x k0 block of
    the (S0, S1) union R, k0 = |S0 \\ S1|) and of
    I + A_{S0\\S1}^H A_{S0\\S1} / sigma2, which bracket its k0 eigenvalues above 1.

    `up` and `down` are the ascending `_reduced_spectra` of (S0, S1) and
    (S1, S0): H's r = |S0 cup S1| eigenvalues and their reciprocals, so entry i
    of `up` and of `down` reversed are one eigenvalue seen from each order.
    Each is read where it is larger, as `up` or 1 / `down`, since an
    `eigvalsh` rounds relative to its largest eigenvalue; the M - r others are
    exactly 1. Away from 1 this holds H's spectrum within 4.4e-15 relative of
    a 60-digit oracle at sigma2 = 1e-16 and 1e-18 too, where `up`'s rounding,
    ~eps lambda_max, exceeds 1. M < r is a ValueError; a non-finite union
    column, a `_pencil` failure, a non-positive chosen eigenvalue or a zero
    pivot of R33 is a `NumericFailure`.
    """
    D, M = entries.shape[:2]
    if M < S1.size + len(S0.difference(S1)):
        raise ValueError("need M >= k0 + k_i + k1 for the QR construction")
    orders = []
    for Sa, Sb in ((S0, S1), (S1, S0)):
        k_d, union = _union_rows(Sa.as_array()[None], Sb.as_array()[None])
        orders.extend(_reduced_spectra(entries, k_d.repeat(D), union.repeat(D, 0), Sa.size, sigma2))
    (_, k0, R, up), (*_, down) = orders
    down = down[:, ::-1]                             # entry i is 1 / up[:, i]
    below = up < down
    chosen = np.where(below, down, up)
    if chosen.min() <= 0:
        raise NumericFailure(f"pencil produced non-positive eigenvalue {chosen.min():.3e}")
    eigs = np.concatenate([np.where(below, 1.0 / chosen, chosen), np.ones((D, M - R.shape[2]))],
                          axis=1)
    eigs.sort(axis=1)
    R33 = _r33(R, k0)
    block = entries[:, :, list(S0.difference(S1))]
    return (eigs[:, ::-1], _shifted_eigs(R33 @ R33.conj().swapaxes(1, 2), sigma2),
            _shifted_eigs(block.conj().swapaxes(1, 2) @ block, sigma2))


def h_eigenvalues(A, S0: Support, S1: Support, sigma2: float) -> np.ndarray:
    """H's descending eigenvalues: the D = 1 view of `h_spectra`."""
    return h_spectra(as_matrix(A)[0][None], S0, S1, sigma2)[0][0]


def qr_lower_bound_eigs(A, S0: Support, S1: Support, sigma2: float) -> np.ndarray:
    """Lower bound on H's eigenvalues above 1: the D = 1 view of `h_spectra`."""
    return h_spectra(as_matrix(A)[0][None], S0, S1, sigma2)[1][0]


def upper_bound_eigs(A, S0: Support, S1: Support, sigma2: float) -> np.ndarray:
    """Upper bound on H's eigenvalues above 1: the D = 1 view of `h_spectra`."""
    return h_spectra(as_matrix(A)[0][None], S0, S1, sigma2)[2][0]


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


def _split_masks(eigs: np.ndarray, rel: float = 1e-8, tolerance=None) -> tuple:
    """(above, equal, below, tolerance) for one spectrum or a stack (..., n):
    masks of the eigenvalues around 1, where lambda equals 1 when
    |lambda - 1| <= tolerance, by default rel * max(1, largest) per spectrum."""
    if tolerance is None:
        tolerance = rel * np.maximum(1.0, eigs.max(axis=-1, keepdims=True))
    eq = np.abs(eigs - 1.0) <= tolerance
    return (eigs > 1.0) & ~eq, eq, (eigs < 1.0) & ~eq, tolerance


def spectrum_split(eigs, tolerance: float | None = None) -> SpectrumSplit:
    """Count eigenvalues greater than, equal to, and less than 1.

    Default tolerance is 1e-8 * max(1, largest eigenvalue); an eigenvalue
    counts as "equal" when |lambda - 1| <= tolerance (`_split_masks`).
    """
    arr = np.sort(np.asarray(eigs, dtype=np.float64))[::-1]
    if arr.size == 0 or arr[-1] <= 0:
        raise ValueError("all eigenvalues must be positive")
    gt, eq, lt, tolerance = _split_masks(arr, tolerance=tolerance)
    return SpectrumSplit(tuple(float(x) for x in arr), int(gt.sum()), int(eq.sum()),
                         int(lt.sum()), float(np.squeeze(tolerance)))


@dataclass(frozen=True)
class PairIncoherence:
    """Geometric mean of the greater-than-1 eigenvalues of H for one pair."""

    value: float
    pair: tuple
    k_d: int
    eigenvalues: tuple = ()      # H's eigenvalues above 1, descending


def _union_rows(rows0: np.ndarray, rows1: np.ndarray) -> tuple:
    """(k_d, union) for P ordered pairs of support rows, rows0 (P, K0) and
    rows1 (P, K1): k_d = |S0 \\ S1| per pair, and each pair's union columns
    first in the order [S1 \\ S0 | S0 cap S1 | S0 \\ S1], as a (P, K1 + max k_d)
    array whose leading K1 + k_d entries of row n are pair n's union."""
    shared = rows1[:, :, None] == rows0[:, None, :]          # (P, K1, K0)
    in0 = shared.any(axis=1)                                 # rows0's entries in S1
    k_d = rows0.shape[1] - in0.sum(axis=1)
    # Stable sort by [S1 \\ S0: 0, S0 cap S1 (from S1): 1, S0 \\ S1: 2, rest: 3].
    order = np.argsort(np.concatenate([shared.any(axis=2), 2 + in0], axis=1), axis=1, kind="stable")
    union = np.concatenate([rows1, rows0], axis=1)[np.arange(len(order))[:, None], order]
    return k_d, union[:, :rows1.shape[1] + k_d.max()]


def _union_r(entries: np.ndarray, k_d: np.ndarray, union: np.ndarray):
    """Yield (sel, kd, R) for each kd in k_d: the mask `sel` of the pairs with
    that kd and the R factors (n, p, K1 + kd) of their union columns (see
    `_union_rows`), from one stacked QR of one matrix (M, N) for all P pairs or
    of a stack (P, M, N) whose matrix n carries pair n; NaN or inf fails."""
    K1 = union.shape[1] - k_d.max()
    columns = entries.swapaxes(-1, -2)                       # (..., N, M)
    for kd in sorted(set(k_d.tolist())):
        sel = k_d == kd
        lead = (np.flatnonzero(sel)[:, None],) if entries.ndim == 3 else ()
        X = columns[lead + (union[sel, :K1 + kd],)]             # (n, K1 + kd, M)
        if not np.isfinite(X).all():
            raise NumericFailure(_factorization_failure(X))
        yield sel, kd, np.linalg.qr(X.swapaxes(1, 2), mode="r")


def _reduced_spectra(entries: np.ndarray, k_d, union, K0: int, sigma2: float):
    """`_union_r`'s (sel, kd, R) for each k_d group, with the ascending
    eigenvalues (n, p) of its reduced pencil I + (W_r - I) (`_pencil`, S0 the
    trailing K0 union columns) from one stacked `eigvalsh`."""
    for sel, kd, R in _union_r(entries, k_d, union):
        core = _pencil(R, R.shape[2] - kd, K0, sigma2)
        yield sel, kd, R, np.linalg.eigvalsh(core + np.eye(R.shape[1]))


def _pair_union(rows0, rows1, M: int) -> tuple:
    """`_union_rows` of P ordered pairs of support rows, after the pair rule:
    equal sizes, no pair of identical supports, and M >= 2 k_d for every pair,
    so that both k_d-dimensional differences fit beside each other."""
    rows0 = np.asarray(rows0, dtype=np.intp)
    rows1 = np.asarray(rows1, dtype=np.intp)
    if rows0.ndim != 2 or rows0.shape != rows1.shape:
        raise ValueError("pair incoherence requires equal-size supports")
    k_d, union = _union_rows(rows0, rows1)
    if k_d.min() == 0:
        raise ValueError("pair incoherence is undefined for identical supports")
    if M < 2 * k_d.max():
        raise ValueError(f"pair incoherence needs M >= 2*k_d = {2 * k_d.max()}, got M={M}")
    return k_d, union


def pair_incoherences(A, rows0, rows1, sigma2: float) -> tuple:
    """Incoherence of P ordered pairs (S0, S1) given as two (P, K) arrays of
    support rows, on one matrix A or on a stack A (P, M, N) whose matrix n
    carries pair n: (values, k_d, top), where `top` (P, K) holds each pair's
    eigenvalues of H above 1 (by `_split_masks`) descending, padded with 1.

    With A_U = Q R for a pair's union U, Sigma_i = Q C_i Q^H + sigma2 (I - Q Q^H)
    for C_i = R_i R_i^H + sigma2 I, where R_1 is the first K columns of R and
    R_0 the last K: H's spectrum is that of the pencil (C_0, C_1) plus unit
    eigenvalues, one `_reduced_spectra` step (`_pencil`, `eigvalsh`) per k_d.
    """
    entries, _ = as_matrix(A)
    k_d, union = _pair_union(rows0, rows1, entries.shape[-2])
    P, K = np.shape(rows0)
    if entries.ndim == 3 and len(entries) != P:
        raise ValueError(f"a stack of {len(entries)} matrices needs as many pairs, got {P}")
    values = np.empty(P)
    top = np.ones((P, K))
    for sel, kd, _, eigs in _reduced_spectra(entries, k_d, union, K, sigma2):
        above = _split_masks(eigs)[0]
        count = above.sum(axis=1)          # used eigenvalues exceed 1, so are positive
        if count.min() == 0:
            raise NumericFailure("no eigenvalue of H exceeds 1; matrix is degenerate on this pair")
        if count.max() > kd:
            raise NumericFailure(f"more than k_d = {kd} eigenvalues of H exceed 1")
        kept = np.where(above, eigs, 1.0)[:, :-kd - 1:-1]
        top[sel, :kd] = kept
        values[sel] = np.exp(np.log(kept).sum(axis=1) / count)
    return values, k_d, top


def pair_incoherence(A, Si: Support, Sj: Support, sigma2: float) -> PairIncoherence:
    """One pair's incoherence: the P = 1 call of `pair_incoherences`."""
    values, k_d, top = pair_incoherences(A, [Si.indices], [Sj.indices], sigma2)
    eigs = tuple(float(x) for x in top[0] if x > 1.0)
    return PairIncoherence(float(values[0]), (Si, Sj), int(k_d[0]), eigs)


def _check_pair_set(M: int, N: int, K: int) -> int:
    """The number L = C(N, K) of size-K supports, after the set rule of every
    walk over their ordered pairs: 1 <= K <= N, L >= 2, and M >= 2 min(K, N - K)
    for the largest difference-set size k_d, so no pair breaks `_pair_union`."""
    if not 1 <= K <= N:
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={N}")
    L = math.comb(N, K)
    if L < 2:
        raise ValueError("incoherence needs at least two candidate supports")
    if M < 2 * min(K, N - K):
        raise ValueError(f"incoherence needs M >= 2*min(K, {N}-K) = {2 * min(K, N - K)},"
                         f" got M={M}")
    return L


def _pair_walk(shape: tuple, K: int, score, mode: str = "exhaustive", sample_count=None,
               seed: int = 0, cap: int = PAIR_CAP, cap_hint: str = "; use sampled mode"):
    """(minimum, (row0, row1), mode string) of `score(rows0, rows1) -> (P,)`
    over ordered pairs of size-K supports of an (M, N) matrix: all pairs up to
    `cap`, or `sample_count` drawn without replacement. The flat index
    i (L - 1) + j' of a pair runs row-major over the off-diagonal of the L x L
    grid of lexicographic supports; `PAIR_BLOCK` pairs at a time are unranked
    and scored, and ties keep the first minimum in walk order."""
    M, N = shape
    L = _check_pair_set(M, N, K)
    n_pairs = L * (L - 1)
    if mode == "exhaustive":
        if n_pairs > cap:
            raise CapExceeded(f"{n_pairs} ordered pairs exceed cap {cap}{cap_hint}")
        flat, count = None, n_pairs
    elif mode == "sampled":
        if sample_count is None or sample_count < 1:
            raise ValueError("sampled mode requires a positive sample_count")
        if n_pairs > np.iinfo(np.int64).max:
            raise CapExceeded(f"C({N},{K}) = {L} supports give {n_pairs}"
                              " ordered pairs, beyond a 64-bit pair index")
        count = min(sample_count, n_pairs)
        flat = substream(seed, "incoherence-pair-sample").choice(n_pairs, count, replace=False)
        mode = f"sampled({count})"
    else:
        raise ValueError(f"unknown mode {mode!r}")

    best, best_pair = np.inf, None
    for start in range(0, count, PAIR_BLOCK):
        block = np.arange(start, min(start + PAIR_BLOCK, count), dtype=np.int64)
        i, j = np.divmod(block if flat is None else flat[block], L - 1)
        j += j >= i                     # skip the diagonal
        rows0, rows1 = unrank_supports(i, N, K), unrank_supports(j, N, K)
        values = score(rows0, rows1)
        b = int(np.argmin(values))
        if values[b] < best:
            best, best_pair = values[b], (rows0[b], rows1[b])
    return float(best), best_pair, mode


@dataclass(frozen=True)
class IncoherenceSummary:
    """Minimum pairwise incoherence over ordered size-K support pairs."""

    lambda_bar: float
    argmin_pair: tuple
    mode: str


def matrix_incoherence(A, K: int, sigma2: float, mode: str = "exhaustive",
                       sample_count: int | None = None, seed: int = 0,
                       cap: int = PAIR_CAP) -> IncoherenceSummary:
    """min over ordered pairs (Si, Sj), Si != Sj, of the pairwise incoherence,
    by `_pair_walk` over `pair_incoherences`; sampled mode only upper-estimates
    the true minimum (the mode string in the summary flags it)."""
    entries, _ = as_matrix(A)
    best, pair, mode = _pair_walk(entries.shape, K, lambda rows0, rows1: pair_incoherences(
        entries, rows0, rows1, sigma2)[0], mode, sample_count, seed, cap)
    N = entries.shape[1]
    return IncoherenceSummary(best, tuple(Support(tuple(row.tolist()), N) for row in pair), mode)


def _r33(R: np.ndarray, k0: int) -> np.ndarray:
    """R33 of the QR construction (see `h_spectra`) from a stack of square R
    factors (B, r, r) of columns ordered [S1 \\ S0 | S0 cap S1 | S0 \\ S1] with
    k0 = |S0 \\ S1|: the trailing k0 x k0 block of each R."""
    r = R.shape[2]
    R33 = R[:, r - k0:, r - k0:]
    if (np.diagonal(R33, axis1=1, axis2=2) == 0).any():
        raise NumericFailure("rank-deficient column stack; measurement matrix is degenerate on these supports")
    return R33


def _shifted_eigs(G: np.ndarray, sigma2: float) -> np.ndarray:
    """Descending eigenvalues of I + G / sigma2 for a stack of Hermitian G."""
    return np.linalg.eigvalsh(np.eye(G.shape[-1]) + G / sigma2)[:, ::-1]


def noise_constants(A, K: int, cap: int = PAIR_CAP) -> tuple:
    """Matrix-only constants (c1, c2) bracketing the incoherence as
    1 + c1/sigma^2 <= lambda_bar <= 1 + c2/sigma^2.

    c1 is the minimum over ordered support pairs (`_pair_walk`) of the
    geometric mean of the squared R33 diagonal, which needs M >= K + k_d, so
    M >= 2K. c2 is the maximum over supports of size <= K of the mean squared
    column mass: the largest squared column norm.
    """
    entries, _ = as_matrix(A)
    if entries.shape[0] < 2 * K:
        raise ValueError("noise constants require M >= 2K")

    def r33_means(rows0, rows1):
        values = np.empty(len(rows0))
        for sel, kd, R in _union_r(entries, *_union_rows(rows0, rows1)):
            diag = np.abs(np.diagonal(_r33(R, kd), axis1=1, axis2=2)) ** 2
            values[sel] = np.exp(np.mean(np.log(diag), axis=1))
        return values

    return (_pair_walk(entries.shape, K, r33_means, cap=cap, cap_hint="")[0],
            float(np.sum(np.abs(entries) ** 2, axis=0).max()))
