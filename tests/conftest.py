import numpy as np
import pytest

from suprec import FieldTag, make_support, sample_gaussian_matrix, substream


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
