import numpy as np
import pytest
from scipy.linalg import solve_triangular

from suprec import (FieldTag, NumericFailure, covariance, field_gaussian, make_support,
                    sample_gaussian_matrix, substream)
from suprec.model import as_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_pair(N, K, overlap, seed=0):
    """Fixed support pair with the requested intersection size."""
    S0 = make_support(range(K), N)
    S1 = make_support(list(range(overlap)) + list(range(K, 2 * K - overlap)), N)
    return S0, S1


def gaussian_instance(M, N, field=FieldTag.REAL, seed=0, label="test-matrix"):
    return sample_gaussian_matrix(M, N, field, substream(seed, label))


def draw_observation(A, S, T, sigma2, x_rng, w_rng):
    """One M x T observation Y = A X + W under support S: the rows of X in S
    are unit field Gaussians from x_rng (X is zero elsewhere), and W is
    field-Gaussian noise of variance sigma2 from w_rng."""
    X = np.zeros((A.shape[1], T), dtype=A.field.dtype)
    X[S.as_array(), :] = field_gaussian(x_rng, (S.size, T), A.field)
    W = field_gaussian(w_rng, (A.shape[0], T), A.field) * np.sqrt(sigma2)
    return A.entries @ X + W


def dense_h_eigenvalues(A, S0, S1, sigma2):
    """Oracle: descending eigenvalues of the dense M x M pencil (Sigma_0, Sigma_1)
    of one matrix, from numpy's Cholesky factor and two triangular solves
    (none of the package's own factorization code)."""
    Sigma0 = covariance(A, S0, sigma2)
    Sigma1 = covariance(A, S1, sigma2)
    L = np.linalg.cholesky(Sigma1)
    # C = L^{-1} Sigma_0 L^{-H} shares the spectrum of H.
    W = solve_triangular(L, Sigma0, lower=True)
    C = solve_triangular(L, W.conj().T, lower=True).conj().T
    eigs = np.linalg.eigvalsh(C)
    if eigs[0] <= 0:
        raise NumericFailure(f"pencil produced non-positive eigenvalue {eigs[0]:.3e}")
    return eigs[::-1]


def r33(A, S0, S1):
    """Oracle: trailing k0 x k0 block R33 of R in the QR factorization of one
    matrix's [A_{S1\\S0} | A_{S1 cap S0} | A_{S0\\S1}], k0 = |S0 \\ S1| >= 1."""
    entries, _ = as_matrix(A)
    only0 = list(S0.difference(S1))
    stacked = entries[:, list(S1.difference(S0)) + list(S0.intersection(S1)) + only0]
    return np.linalg.qr(stacked, mode="r")[-len(only0):, -len(only0):]


def dense_sandwich(A, S0, S1, sigma2):
    """Oracle: descending eigenvalues (lower, upper) of I + R33 R33^H / sigma2
    and I + A_{S0\\S1}^H A_{S0\\S1} / sigma2 for one matrix."""
    entries, _ = as_matrix(A)
    only0 = list(S0.difference(S1))
    if not only0:
        return np.empty(0), np.empty(0)
    R = r33(entries, S0, S1)
    block = entries[:, only0]
    eye = np.eye(len(only0))
    return (np.linalg.eigvalsh(eye + R @ R.conj().T / sigma2)[::-1],
            np.linalg.eigvalsh(eye + block.conj().T @ block / sigma2)[::-1])


def mp_pencil_eigs(A, S0, S1, sigma2, dps=60):
    """High-precision oracle: descending eigenvalues of the pencil
    (Sigma_0, Sigma_1), from 60-digit Cholesky whitening in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    entries = A.entries
    with mpmath.workdps(dps):
        def cov(S):
            cols = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row]
                                  for row in entries[:, S.as_array()]])
            return cols * cols.H + mpmath.mpf(sigma2) * mpmath.eye(entries.shape[0])
        Li = mpmath.inverse(mpmath.cholesky(cov(S1)))
        W = Li * cov(S0) * Li.H
        eigs = mpmath.eighe((W + W.H) / 2, eigvals_only=True)
        return sorted((mpmath.re(x) for x in eigs), reverse=True)


def dense_scores(A, supports, sigma2, y):
    """Oracle: log p(y|S) for each support up to a shared constant, from
    slogdet and a dense solve (no Cholesky factor, no decoder)."""
    kappa = A.field.kappa
    scores = []
    for S in supports:
        Sigma = covariance(A, S, sigma2)
        _, logdet = np.linalg.slogdet(Sigma)
        quad = np.sum(y.conj() * np.linalg.solve(Sigma, y)).real
        scores.append(-kappa * y.shape[1] * logdet - kappa * quad)
    return np.array(scores)


def mp_log_likelihood(A, S, sigma2, Y, dps=60):
    """High-precision oracle: log p(Y|S) from a 60-digit Cholesky factor of
    Sigma_S in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    entries = A.entries
    kappa = A.field.kappa
    M, T = Y.shape
    with mpmath.workdps(dps):
        cols = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row]
                              for row in entries[:, S.as_array()]])
        Sigma = cols * cols.H + mpmath.mpf(sigma2) * mpmath.eye(M)
        L = mpmath.cholesky(Sigma)
        logdet = 2 * sum(mpmath.log(mpmath.re(L[i, i])) for i in range(M))
        Z = mpmath.inverse(L) * mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in Y])
        quad = sum(abs(Z[i, t]) ** 2 for i in range(M) for t in range(T))
        kappa = mpmath.mpf(kappa)
        return -kappa * M * T * mpmath.log(mpmath.pi / kappa) - kappa * T * logdet - kappa * quad
