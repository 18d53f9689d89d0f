"""Acceptance suite.

Each test exercises one numbered criterion at its stated tolerance and prints
one PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see the
lines for passing criteria as well).

Criterion 6 has two clauses. The one-sided ceiling check (6a) passes. The
strict CI-separated decrease of the empirical tail between M=30 and M=60 (6b)
is not measurable at 1e4 draws: the event {lambda_bar <= gamma} has
probability far below 1e-4 at both sizes, so both empirical tails are exactly
zero and their confidence intervals coincide. 6b is implemented as stated and
fails honestly; see the repository notes.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from suprec import (
    FieldTag,
    binary_chernoff,
    chernoff_mu,
    covariance,
    enumerate_supports,
    estimate_binary_perr,
    estimate_expected_incoherence,
    estimate_incoherence_tail,
    estimate_multiple_perr,
    fano_beta_exact,
    fano_lower,
    h_eigenvalues,
    hypergeometric_mean_check,
    kl_divergence,
    make_support,
    ml_decode,
    multiple_bound_geometric,
    binary_lrt,
    log_likelihood,
    qr_lower_bound_eigs,
    sample_gaussian_matrix,
    spectrum_split,
    substream,
    upper_bound_eigs,
)

from conftest import draw_observation, random_pair


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2} [{name}]: {status} {detail}".rstrip())
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def _eig_grid_draws():
    """Shared draws for criteria 1 and 2: >= 1000 Gaussian instances over the
    (M, K, overlap) grid."""
    draws = []
    per_cell = 24
    for M in range(6, 13):
        for K in range(1, 4):
            for overlap in range(K):
                N = 2 * K + 2
                S0, S1 = random_pair(N, K, overlap)
                for d in range(per_cell):
                    rng = substream(1001, f"acc-eig-{M}-{K}-{overlap}", d)
                    A = sample_gaussian_matrix(M, N, FieldTag.REAL, rng)
                    draws.append((A, S0, S1, M, K, overlap))
    assert len(draws) >= 1000
    return draws


_EIG_DRAWS = None


def _get_eig_draws():
    global _EIG_DRAWS
    if _EIG_DRAWS is None:
        _EIG_DRAWS = _eig_grid_draws()
    return _EIG_DRAWS


def test_criterion_01_eigenvalue_counting():
    start = time.perf_counter()
    violations = 0
    for A, S0, S1, M, K, overlap in _get_eig_draws():
        k0 = k1 = K - overlap
        eigs = h_eigenvalues(A, S0, S1, 1.0)
        split = spectrum_split(eigs, tolerance=1e-8)
        if (split.count_gt, split.count_eq, split.count_lt) != (k0, M - k0 - k1, k1):
            violations += 1
    elapsed = time.perf_counter() - start
    _criterion(1, "eigenvalue counting", violations == 0 and elapsed < 60,
               f"violations={violations} over {len(_get_eig_draws())} draws, {elapsed:.1f}s")


def test_criterion_02_eigenvalue_sandwich():
    worst_low = worst_up = np.inf
    violations = 0
    for A, S0, S1, M, K, overlap in _get_eig_draws():
        eigs = h_eigenvalues(A, S0, S1, 1.0)
        split = spectrum_split(eigs, tolerance=1e-8)
        gt = np.asarray(split.eigenvalues[:split.count_gt])
        lower = qr_lower_bound_eigs(A, S0, S1, 1.0)
        upper = upper_bound_eigs(A, S0, S1, 1.0)
        if len(lower) != len(gt):
            violations += 1
            continue
        slack_low = float(np.min(gt - lower))
        slack_up = float(np.min(upper - gt))
        worst_low = min(worst_low, slack_low)
        worst_up = min(worst_up, slack_up)
        if slack_low < -1e-9 or slack_up < -1e-9:
            violations += 1
    _criterion(2, "eigenvalue sandwich", violations == 0,
               f"violations={violations}, worst slacks lower={worst_low:.2e} upper={worst_up:.2e}")


def test_criterion_03_chernoff_upper_sandwich():
    start = time.perf_counter()
    A = sample_gaussian_matrix(8, 10, FieldTag.REAL, substream(1003, "acc-chernoff-A"))
    S0 = make_support([0, 1], 10)
    S1 = make_support([2, 3], 10)
    failures = []
    for sigma2 in (0.05, 0.1, 0.5):
        for T in (1, 2, 4, 8):
            est = estimate_binary_perr(A, S0, S1, sigma2, T, trials=10_000, seed=1003)
            half = (est.ci_high - est.ci_low) / 2
            report = binary_chernoff(A, S0, S1, sigma2, T)
            mu_half = min(1.0, report.extras["mu_half_bound"])
            if est.p_hat > report.clamped + 3 * half:
                failures.append((sigma2, T, est.p_hat, report.clamped, "prop2"))
            if est.p_hat > mu_half + 3 * half:
                failures.append((sigma2, T, est.p_hat, mu_half, "mu_half"))
    elapsed = time.perf_counter() - start
    _criterion(3, "Chernoff upper sandwich", not failures and elapsed < 600,
               f"12 grid points x 1e4 trials, {elapsed:.1f}s" + (f" failures={failures}" if failures else ""))


def test_criterion_04_fano_lower_sandwich():
    A = sample_gaussian_matrix(2, 20, FieldTag.REAL, substream(1004, "acc-fano-A"))
    est = estimate_multiple_perr(A, 2, 5.0, 1, trials=10_000, seed=1004)
    beta = fano_beta_exact(A, 2, 5.0, 1)
    bound = fano_lower(beta, math.comb(20, 2))
    half = (est.ci_high - est.ci_low) / 2
    ok = est.p_hat >= bound.clamped - 3 * half
    _criterion(4, "Fano lower sandwich", ok,
               f"p_hat={est.p_hat:.4f} >= fano={bound.clamped:.4f} - 3*{half:.4f}")


def test_criterion_05_expected_incoherence_interval():
    first = estimate_expected_incoherence(10, 2, 2, 1.0, draws=500, seed=1005)
    ok1 = 7.0 - 3 * first.se <= first.mean <= 11.0 + 3 * first.se
    second = estimate_expected_incoherence(20, 2, 1, 1.0, draws=500, seed=1005)
    ok2 = 18.0 - 3 * second.se <= second.mean <= 21.0 + 3 * second.se
    _criterion(5, "expected incoherence interval", ok1 and ok2,
               f"mean(M=10,kd=2)={first.mean:.3f} in [7,11]; mean(M=20,kd=1)={second.mean:.3f} in [18,21]")


def test_criterion_06a_incoherence_tail_ceiling():
    est = estimate_incoherence_tail(40, 4, 2, 1.0, draws=10_000, seed=1006)
    ceiling = math.exp(-0.5 * (math.log(3) - 1) * (40 - 4))
    ok = est.p_hat <= ceiling
    _criterion("6a", "incoherence tail ceiling", ok,
               f"tail={est.p_hat:.5f} <= ceiling={ceiling:.3f} (gamma={est.extras['gamma']:.2f})")


def test_criterion_06b_incoherence_tail_strict_decrease():
    # Stated check: empirical tail strictly smaller at M=60 than at M=30,
    # beyond CI overlap. Not attainable at 1e4 draws (both tails are zero);
    # kept as stated rather than weakened. See module docstring.
    low = estimate_incoherence_tail(30, 4, 2, 1.0, draws=10_000, seed=1006)
    high = estimate_incoherence_tail(60, 4, 2, 1.0, draws=10_000, seed=1006)
    ok = high.ci_high < low.ci_low
    _criterion("6b", "incoherence tail strict decrease", ok,
               f"tail(M=60)={high.p_hat:.2e} CI=[{high.ci_low:.2e},{high.ci_high:.2e}] vs "
               f"tail(M=30)={low.p_hat:.2e} CI=[{low.ci_low:.2e},{low.ci_high:.2e}]")


def test_criterion_07_decoder_oracle_equivalence():
    candidates = enumerate_supports(6, 2)
    matches = 0
    for seed in range(200):
        A = sample_gaussian_matrix(6, 6, FieldTag.REAL, substream(1007, "acc-ml-A", seed))
        truth = candidates[seed % len(candidates)]
        Y = draw_observation(A, truth, 3, 0.5, substream(1007, "acc-ml-x", seed),
                             substream(1007, "acc-ml-w", seed))
        res = ml_decode(Y, A, candidates, 0.5, keep_scores=False)
        dense = []
        for S in candidates:
            Sigma = covariance(A, S, 0.5)
            inv = np.linalg.inv(Sigma)
            _, logdet = np.linalg.slogdet(Sigma)
            quad = np.trace(Y.conj().T @ inv @ Y).real
            dense.append(-0.5 * 6 * 3 * np.log(2 * np.pi) - 0.5 * 3 * logdet - 0.5 * quad)
        matches += res.chosen == candidates[int(np.argmax(dense))]

    max_gap = 0.0
    for seed in range(100):
        A = sample_gaussian_matrix(5, 8, FieldTag.REAL, substream(1007, "acc-lrt-A", seed))
        S0 = make_support([0, 1], 8)
        S1 = make_support([2, 3], 8)
        Y = draw_observation(A, S1, 2, 0.5, substream(1007, "acc-lrt-x", seed),
                             substream(1007, "acc-lrt-w", seed))
        stat = binary_lrt(Y, A, S0, S1, 0.5).statistic
        diff = (log_likelihood(Y, covariance(A, S1, 0.5), 0.5)
                - log_likelihood(Y, covariance(A, S0, 0.5), 0.5))
        max_gap = max(max_gap, abs(stat - diff))
    ok = matches == 200 and max_gap < 1e-9
    _criterion(7, "decoder oracle equivalence", ok,
               f"ml matches {matches}/200, max |stat - ll diff| = {max_gap:.2e}")


def test_criterion_08_noise_limit_recovery():
    A = sample_gaussian_matrix(8, 8, FieldTag.REAL, substream(1008, "acc-noise-A"))
    est = estimate_multiple_perr(A, 2, 1e-8, 4, trials=1000, seed=1008)
    _criterion(8, "noise-limit recovery", est.p_hat <= 0.01, f"p_hat={est.p_hat:.4f} <= 0.01")


def test_criterion_09_closed_form_spot_values():
    problems = []
    geo = multiple_bound_geometric(10.0, 3, 1, 2, 1.0)
    if abs(geo.clamped - 0.23529) > 1e-5:
        problems.append(f"geometric={geo.clamped}")
    kl = kl_divergence(np.array([[2.0]]), np.array([[1.0]]), 1, 0.5)
    if abs(kl - 0.07671) > 1e-5:
        problems.append(f"kl={kl}")
    for N in range(2, 31):
        for K in range(1, N):
            if abs(hypergeometric_mean_check(N, K) - K * (N - K) / N) > 1e-12:
                problems.append(f"hypergeometric({N},{K})")
    from suprec import MeasurementMatrix as MM
    beta = fano_beta_exact(MM(np.eye(2), FieldTag.REAL), 1, 1.0, 1)
    if abs(beta - 0.0625) > 1e-12:
        problems.append(f"beta={beta}")
    _criterion(9, "closed-form spot values", not problems, "; ".join(problems) or "4 families checked")


def test_criterion_10_cli_determinism(tmp_path):
    run = [sys.executable, "-m", "suprec.cli"]
    configs = {
        "bounds": {"queries": [
            {"formula": "multiple_geometric", "lambda_bar": 10, "N": 3, "K": 1, "T": 2, "kappa": 1},
            {"formula": "snet", "epsilon": 0.1, "N": 16, "K": 4, "sigma2": 1.0,
             "kappa": 0.5, "normalization": "unit_rows"}]},
        "simulate": {"mode": "binary", "N": 10, "M": 8, "K": 2, "T": [1, 2], "sigma2": 0.5,
                     "trials": 300, "S0": [0, 1], "S1": [2, 3]},
        "eig-check": {"grid": {"M": [6, 8], "K": [1, 2]}, "draws_per_cell": 6},
        "doa": {"epsilon": 0.1, "N": [360], "K": 2, "sigma2": 1.0,
                "ula_lambda": {"M": 6, "grid_size": 20, "K": 2, "pairs": 40}},
        "sweep": {"command": "simulate",
                  "base": {"mode": "multiple", "N": 6, "M": 6, "K": 2, "T": 1,
                           "sigma2": 0.5, "trials": 100},
                  "grid": {"T": [1, 2]}},
    }
    mismatches = []
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        bodies = []
        for fmt in ("csv", "json"):
            for threads in ("1", "3"):
                out = tmp_path / f"{command}-{fmt}-{threads}.out"
                result = subprocess.run(
                    run + [command, "--config", str(cfg_path), "--seed", "42",
                           "--format", fmt, "--threads", threads, "--out", str(out)],
                    capture_output=True, text=True)
                if result.returncode != 0:
                    mismatches.append(f"{command}/{fmt}: exit {result.returncode}: {result.stderr}")
                    continue
                bodies.append((fmt, out.read_bytes()))
        for fmt in ("csv", "json"):
            variants = {b for f, b in bodies if f == fmt}
            if len(variants) != 1:
                mismatches.append(f"{command}/{fmt}: outputs differ across reruns/threads")
    _criterion(10, "CLI determinism", not mismatches, "; ".join(mismatches) or
               "5 commands x 2 formats x 2 thread counts byte-identical")
