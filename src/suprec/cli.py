"""Batch command-line front end.

One JSON config document per run; subcommands `bounds`, `simulate`,
`eig-check`, `doa`, and `sweep`, each one entry of `COMMANDS`. A command
first validates its config into a plan, which holds every checked value the
run needs, and then runs the plan; nothing is validated while it runs, so a
`sweep` validates each grid point once, all of them before it runs any.
Each `simulate` mode is one entry of `_SIMULATE_MODES`: a plan function for
its own keys and rules and a run function for its one estimator call. The
plan builds the ULA matrix and reads and shape-checks a CSV one, so a bad CSV
point fails a `sweep` before any point runs; only the Gaussian matrix waits
for the seed. A closed form is its own validation, so the plans of `bounds`
and `doa` hold their formula records and threshold rows, evaluated by the
library under its own rules (`model._positive` for every sigma2 and kappa,
`bounds` for epsilon, delta and 1 <= K < N), and a value they reject is a
config error. The CLI's key checks (`_positive_int`, `_positive_float`) read
each config value as a positive number of its type and restate no formula's
rule.

Output is CSV or JSON with a fixed column order, reproducible byte for byte
from (config, seed); --threads is accepted and ignored. Config and JSON output
are strict JSON (RFC 8259): a config holding NaN or Infinity cannot be read,
and JSON output, like the JSON text in a cell, writes a non-finite number as
the text of its CSV cell.

A CLI process runs BLAS on one thread unless the user sets
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS: no BLAS call here
is large enough to gain from OpenBLAS's pool, whose idle threads busy-wait on
the other cores. `import suprec` as a library changes nothing.

Exit codes: 0 success, 2 config error, numeric failure (a covariance or
pencil that cannot be factorized at the configured noise) or unwritable
output, 3 resource-cap error: a `simulate` in multiple or ensemble mode whose
C(N, K) candidate supports exceed `model.DEFAULT_ENUMERATION_CAP`, or an
incoherence pair walk (`simulate` multiple, `doa` `ula_lambda`) over more
ordered pairs than `spectra.PAIR_CAP` (exhaustive) or a 64-bit pair index
(sampled). Both caps are module constants, read at call time; no config key
or argument overrides them. Each cap is checked in the plan, by the rule the
run uses, before anything runs. Nothing is written on error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import product

# One BLAS thread (see above). OpenBLAS reads its thread count only as it
# loads, so the variable is removed again once numpy is in: child processes
# see the user's environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import numpy as np

from . import bounds as bd
from . import montecarlo as mc
from .model import (
    CapExceeded,
    FieldTag,
    NumericFailure,
    _support_count,
    draw_matrices,
    load_matrix_csv,
    make_support,
    sample_gaussian_matrix,
    substream,
    support_rows,
    ula_angle_grid,
    ula_manifold_matrix,
)
from .spectra import (_check_pair_walk, _pair_union, _split_masks, covariance_factors,
                      h_spectra, matrix_incoherence)

SEED_ENV_VAR = "SUPREC_SEED"
# Entries of each (c, M, N) stack of draws that eig-check scores as one chunk
# of a cell: it bounds the working memory whatever the number of draws, to
# 512 KB per real stack (1 MB complex). At 2**16 each cell of up to 65,536 / (M N)
# draws (109 at M = 60, N = 10) is one `h_spectra` call.
EIG_CHUNK_ELEMENTS = 2**16

SIMULATE_COLUMNS = ("mode", "N", "M", "K", "T", "sigma2", "seed", "trials", "p_hat",
                    "ci_low", "ci_high", "chernoff_clamped", "fano_clamped", "lambda_bar")
EIGCHECK_COLUMNS = ("trial", "M", "N", "K", "k_i", "k0", "k1", "count_gt", "count_eq",
                    "count_lt", "min_slack_lower", "min_slack_upper")
BOUNDS_COLUMNS = ("formula_id", "inputs", "raw", "clamped", "applicable", "notes")
DOA_COLUMNS = ("formula_id", "quantity", "epsilon", "N", "K", "sigma2",
               "exact_binomial", "relaxed", "log2_corrected")


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _require(cfg: dict, key: str, types, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key '{key}'")
    value = cfg[key]
    if not isinstance(value, types):
        raise ConfigError(f"{where}: key '{key}' has invalid type {type(value).__name__}")
    return value


def _positive_int(cfg, key, where, default=None):
    if default is not None and key not in cfg:
        return default
    v = _require(cfg, key, int, where)
    if isinstance(v, bool) or v < 1:
        raise ConfigError(f"{where}: '{key}' must be a positive integer")
    return v


def _positive_float(cfg, key, where, default=None):
    if default is not None and key not in cfg:
        return default
    v = _require(cfg, key, (int, float), where)
    if isinstance(v, bool) or not 0 < v < math.inf:
        raise ConfigError(f"{where}: '{key}' must be a positive number")
    return float(v)


def _positive_list(cfg, key, where, check) -> list:
    """A scalar or non-empty list under `key`, each element checked by `check`
    (`_positive_int` or `_positive_float`)."""
    value = _require(cfg, key, (int, float, list), where)
    values = value if isinstance(value, list) else [value]
    if not values:
        raise ConfigError(f"{where}: '{key}' must be a non-empty list")
    return [check({key: v}, key, where) for v in values]


def _field_of(cfg: dict, where: str) -> FieldTag:
    name = cfg.get("field", "real")
    try:
        return FieldTag(name)
    except ValueError:
        raise ConfigError(f"{where}: unknown field {name!r}") from None


def _checked_call(where: str, fn, *args):
    """`fn(*args)` for a library call on config values, such as a bound formula,
    a rule like `spectra._check_pair_walk` or loading a CSV matrix; what it
    raises on bad values or an unreadable file becomes a config error."""
    try:
        return fn(*args)
    except (OSError, ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# bounds

def _report_fields(q, r) -> tuple:
    return r.raw_value, r.clamped, r.applicable, r.precondition_note


def _threshold_fields(q, t) -> tuple:
    return t.value, None, True, _json_text(t.forms)


def _ensemble_fano_fields(q, r) -> tuple:
    return r.raw_value, r.clamped, r.applicable, f"beta={r.extras['beta']!r}"


def _sufficiency_fields(q, s) -> tuple:
    notes = _json_text({"m_over_klognk": s.m_over_klognk,
                        "t_condition_ratio": s.t_condition_ratio,
                        "t_loglog_ratio": s.t_loglog_ratio,
                        "exponent_ceiling": s.exponent_ceiling,
                        "notes": list(s.notes)})
    return s.gamma, None, s.gamma is not None, notes


def _interval_fields(q, interval) -> tuple:
    low, high = interval
    return low, None, True, f"interval=[{low!r}, {high!r}]"


def _hypergeometric_fields(q, value) -> tuple:
    return value, None, True, f"closed_form={q['K'] * (q['N'] - q['K']) / q['N']!r}"


def _value_fields(q, value) -> tuple:
    return value, None, True, ""


# formula -> (function, its argument keys in call order, optional keys among
# them, record fields (raw, clamped, applicable, notes) from (query, result)).
_BOUND_FORMULAS = {
    "multiple_geometric": (bd.multiple_bound_geometric, ("lambda_bar", "N", "K", "T", "kappa"),
                           (), _report_fields),
    "multiple_union": (bd.multiple_bound_union, ("lambda_bar", "N", "K", "T", "kappa"),
                       (), _report_fields),
    "fano_lower": (bd.fano_lower, ("beta", "L"), (), _report_fields),
    "ensemble_fano": (bd.ensemble_fano_lower, ("M", "N", "K", "sigma2", "T", "kappa"),
                      (), _ensemble_fano_fields),
    "snet": (bd.snet_requirements, ("epsilon", "N", "K", "sigma2", "kappa", "normalization"),
             (), _threshold_fields),
    "doa": (bd.doa_requirements, ("epsilon", "N", "K", "sigma2"), (), _threshold_fields),
    "gaussian_necessary": (bd.gaussian_necessary, ("epsilon", "delta", "N", "K", "sigma2", "kappa"),
                           ("delta",), _threshold_fields),
    "sufficiency": (bd.gaussian_sufficiency_report, ("M", "N", "K", "T", "sigma2", "kappa"),
                    (), _sufficiency_fields),
    "expected_incoherence": (bd.expected_incoherence_bounds, ("M", "K", "k_d", "sigma2"),
                             (), _interval_fields),
    "hypergeometric_mean": (bd.hypergeometric_mean_check, ("N", "K"), (), _hypergeometric_fields),
    "chernoff_mu": (bd.chernoff_mu, ("eigenvalues", "s", "T", "kappa"), (), _value_fields),
}


# Check of each numeric key that the formulas above share, applied to every
# key a formula lists; any other key goes to the formula as given.
_BOUND_KEY_CHECKS = {**dict.fromkeys(("T", "N", "K", "L", "M", "k_d"), _positive_int),
                     **dict.fromkeys(("kappa", "sigma2"), _positive_float)}


def _validate_bounds(config: dict) -> list:
    """The plan of a `bounds` run: one record per query. A closed form is its
    own validation, so each formula is evaluated here, by `_checked_call`,
    under the library's rules."""
    queries = _require(config, "queries", list, "config")
    if not queries:
        raise ConfigError("config: 'queries' must be a non-empty list")
    records = []
    for i, q in enumerate(queries):
        where = f"queries[{i}]"
        if not isinstance(q, dict):
            raise ConfigError(f"{where}: each query must be an object")
        formula = _require(q, "formula", str, where)
        if formula not in _BOUND_FORMULAS:
            raise ConfigError(f"{where}: unknown formula {formula!r}")
        fn, keys, optional, fields = _BOUND_FORMULAS[formula]
        for key in keys:
            if key not in q and key not in optional:
                raise ConfigError(f"{where}: formula {formula!r} requires key '{key}'")
            if key in _BOUND_KEY_CHECKS:
                _BOUND_KEY_CHECKS[key](q, key, f"query {formula}")
        result = _checked_call(f"query {formula}", fn, *(q.get(k) for k in keys))
        raw, clamped, applicable, notes = fields(q, result)
        records.append({"formula_id": formula,
                        "inputs": {k: v for k, v in q.items() if k != "formula"},
                        "raw": raw, "clamped": clamped, "applicable": applicable,
                        "notes": notes})
    return records


def run_bounds(records: list, seed: int):
    return BOUNDS_COLUMNS, records, []


# ---------------------------------------------------------------------------
# simulate

def _validate_simulate(config: dict) -> dict:
    """The plan of a `simulate` run: the keys every mode shares, then the
    keys and rules of its mode's `_SIMULATE_MODES` entry."""
    where = "config"
    mode = _require(config, "mode", str, where)
    entry = _SIMULATE_MODES.get(mode)
    if entry is None:
        raise ConfigError(f"{where}: mode must be {'|'.join(_SIMULATE_MODES)}, got {mode!r}")
    N, M, K = (_positive_int(config, key, where) for key in ("N", "M", "K"))
    Ts = _positive_list(config, "T", where, _positive_int)
    sigma2s = _positive_list(config, "sigma2", where, _positive_float)
    field = _field_of(config, where)
    return {"mode": mode, "N": N, "M": M, "K": K, "Ts": Ts, "sigma2s": sigma2s, "field": field,
            **entry[0](config, where, N, M, K, field)}


def _plan_matrix(config: dict, where: str, N: int, M: int, field: FieldTag):
    """The `matrix` block of binary and multiple mode as `matrix(seed) -> A`.
    The plan builds the ULA and reads and shape-checks a CSV matrix; only the
    Gaussian, drawn from substream(seed, "cli-matrix"), waits for the seed."""
    mat = _require(config, "matrix", dict, where) if "matrix" in config else {}
    kind, mw = mat.get("kind", "gaussian"), f"{where}.matrix"
    if kind == "gaussian":
        return lambda seed: sample_gaussian_matrix(M, N, field, substream(seed, "cli-matrix"))
    if kind == "ula":
        A = ula_manifold_matrix(M, ula_angle_grid(N), _positive_float(mat, "spacing", mw, 0.5))
    elif kind == "csv":
        A = _checked_call(f"{mw}: cannot load CSV matrix", load_matrix_csv,
                          _require(mat, "path", str, mw))
        if A.shape != (M, N):
            raise ConfigError(f"{mw}: CSV matrix shape {A.shape} != ({M}, {N})")
    else:
        raise ConfigError(f"{mw}: unknown kind {kind!r}")
    return lambda seed: A


def _plan_binary(config: dict, where: str, N, M, K, field) -> dict:
    S0, S1 = (_checked_call(f"{where}: invalid support", make_support,
                            _require(config, key, list, where), N) for key in ("S0", "S1"))
    if S0.size != K or S1.size != K:
        raise ConfigError(f"{where}: supports must have size K={K}")
    _checked_call(where, _pair_union, [S0.indices], [S1.indices], M, N)
    return {"S0": S0, "S1": S1, "trials": _positive_int(config, "trials", where),
            "matrix": _plan_matrix(config, where, N, M, field)}


def _plan_multiple(config: dict, where: str, N, M, K, field) -> dict:
    _support_count(N, K)
    inc = _require(config, "incoherence", dict, where) if "incoherence" in config else {}
    inc_mode = inc.get("mode", "exhaustive")
    if inc_mode not in ("exhaustive", "sampled"):
        raise ConfigError(f"{where}.incoherence: mode must be exhaustive|sampled, got {inc_mode!r}")
    count = _positive_int(inc, "count", f"{where}.incoherence") if inc_mode == "sampled" else None
    _checked_call(where, _check_pair_walk, M, N, K, inc_mode, count)
    return {"incoherence": (inc_mode, count), "trials": _positive_int(config, "trials", where),
            "matrix": _plan_matrix(config, where, N, M, field)}


def _plan_ensemble(config: dict, where: str, N, M, K, field) -> dict:
    _support_count(N, K)
    if K >= N:
        raise ConfigError(f"{where}: ensemble mode needs two candidate supports (its Fano"
                          f" bound needs L = C(N,K) >= 2): K={K} must be below N={N}")
    return {"matrix_draws": _positive_int(config, "matrix_draws", where),
            "trials_per_matrix": _positive_int(config, "trials_per_matrix", where)}


def _run_binary(plan: dict, seed: int, points: list) -> tuple:
    A, S0, S1, Ts = plan["matrix"](seed), plan["S0"], plan["S1"], plan["Ts"]
    ests = mc.estimate_binary_perrs(A, S0, S1, plan["sigma2s"], Ts, plan["trials"], seed)
    reports = [bd.binary_chernoffs(A, S0, S1, sigma2, Ts) for sigma2 in plan["sigma2s"]]
    cells = [(r.clamped, bd.fano_lower(r.extras["fano_beta"], 2).clamped,
              min(r.extras["lambda_01"], r.extras["lambda_10"]))
             for r in (reports[i][t] for t, i in points)]
    return ests, cells, []


def _run_multiple(plan: dict, seed: int, points: list) -> tuple:
    A, N, K, Ts, sigma2s = plan["matrix"](seed), plan["N"], plan["K"], plan["Ts"], plan["sigma2s"]
    inc_mode, inc_count = plan["incoherence"]
    # Neither lambda_bar nor the covariance factors depend on T: each
    # sigma2 factors its supports once, for the decoder and for Fano beta.
    summaries = [matrix_incoherence(A, K, sigma2, mode=inc_mode, sample_count=inc_count,
                                    seed=seed) for sigma2 in sigma2s]
    supports = support_rows(N, K)
    factors = [covariance_factors(A, supports, sigma2) for sigma2 in sigma2s]
    betas = [bd.fano_betas(A, f, Ts) for f in factors]      # betas[i][t] is at Ts[t]
    ests = mc.estimate_multiple_perrs(A, factors, Ts, plan["trials"], seed)
    cells = [(bd.multiple_bound_geometric(summaries[i].lambda_bar, N, K, Ts[t],
                                          A.field.kappa).clamped,
              bd.fano_lower(betas[i][t], math.comb(N, K)).clamped, summaries[i].lambda_bar)
             for t, i in points]
    note = ("# chernoff_clamped not certified: lambda_bar is a minimum over sampled support"
            f" pairs (mode={summaries[0].mode}), so it only upper-estimates the true minimum"
            " and chernoff_clamped is not a certified bound")
    return ests, cells, [note] if inc_mode == "sampled" else []


def _run_ensemble(plan: dict, seed: int, points: list) -> tuple:
    M, N, K, Ts, sigma2s, field = (plan[k] for k in ("M", "N", "K", "Ts", "sigma2s", "field"))
    ests = mc.estimate_ensemble_perrs(M, N, K, sigma2s, Ts, plan["matrix_draws"],
                                      plan["trials_per_matrix"], seed, field=field)
    cells = [(None, bd.ensemble_fano_lower(M, N, K, sigma2s[i], Ts[t], field.kappa).clamped,
              None) for t, i in points]
    return ests, cells, []


# mode -> (plan(config, where, N, M, K, field) -> the mode's own plan keys,
#          run(plan, seed, points) -> (estimates, cells, comments))
_SIMULATE_MODES = {
    "binary": (_plan_binary, _run_binary),
    "multiple": (_plan_multiple, _run_multiple),
    "ensemble": (_plan_ensemble, _run_ensemble),
}


def _simulate_row(mode, point: tuple, est: mc.ErrorEstimate, cells=(None, None, None)) -> dict:
    """The row of `est` at `point`, (N, M, K, T, sigma2, seed), with its
    (chernoff_clamped, fano_clamped, lambda_bar) cells."""
    return dict(zip(SIMULATE_COLUMNS, (mode, *point, est.trials, est.p_hat, est.ci_low,
                                       est.ci_high, *cells)))


def run_simulate(plan: dict, seed: int):
    """Rows in `product(Ts, sigma2s)` order. The mode's run makes one
    estimator call over the whole grid (`montecarlo` builds each sigma2's
    decoder once and draws each trial block once per T for every sigma2) and
    lists one (chernoff_clamped, fano_clamped, lambda_bar) cell triple per
    point; what the bounds need and does not depend on T (H's spectrum,
    lambda_bar, the covariance factors) is built once per sigma2. One loop
    writes the rows, in ensemble mode each point's row followed by one row
    per matrix."""
    mode, Ts, sigma2s = plan["mode"], plan["Ts"], plan["sigma2s"]
    points = list(np.ndindex(len(Ts), len(sigma2s)))   # (t, i) in product(Ts, sigma2s) order
    ests, cells, comments = _SIMULATE_MODES[mode][1](plan, seed, points)
    rows = []
    for (t, i), est, cell in zip(points, ests, cells):
        point = (plan["N"], plan["M"], plan["K"], Ts[t], sigma2s[i], seed)
        rows.append(_simulate_row(mode, point, est, cell))
        for errors in est.extras.get("per_matrix_errors", ()):
            sub = mc._estimate(errors, plan["trials_per_matrix"], seed)
            rows.append(_simulate_row("ensemble-matrix", point, sub))
    return SIMULATE_COLUMNS, rows, comments


# ---------------------------------------------------------------------------
# eig-check

def _validate_eigcheck(config: dict) -> dict:
    where = "config"
    grid = _require(config, "grid", dict, where)
    Ms = _positive_list(grid, "M", f"{where}.grid", _positive_int)
    Ks = _positive_list(grid, "K", f"{where}.grid", _positive_int)
    draws = _positive_int(config, "draws_per_cell", where, default=24)
    sigma2 = _positive_float(config, "sigma2", where, default=1.0)
    for M in Ms:
        for K in Ks:
            if M < 2 * K:
                raise ConfigError(f"{where}: cell (M={M}, K={K}) violates M >= 2K")
    return {"Ms": Ms, "Ks": Ks, "draws": draws, "sigma2": sigma2,
            "field": _field_of(config, where),
            "tolerance": _positive_float(config, "tolerance", where, default=1e-8)}


def _eig_check_scores(A: np.ndarray, S0, S1, sigma2: float, tol: float, k0: int,
                      k1: int) -> tuple:
    """(count_gt, count_eq, count_lt, slack_lower, slack_upper, ok), one entry
    per draw, for a stack A (c, M, N) of one cell's draws."""
    eigs, lower, upper = h_spectra(A, S0, S1, sigma2)      # eigs (c, M) descending
    # "above 1" of H and of 1 / H, the (S1, S0) pencil, each with its own tolerance
    count_gt, count_lt = (_split_masks(x, rel=tol)[0].sum(axis=1) for x in (eigs, 1.0 / eigs))
    count_eq = eigs.shape[1] - count_gt - count_lt
    # with k0 eigenvalues above 1 they lead the descending spectrum
    matched = count_gt == k0
    top = eigs[:, :k0]
    low, up = top - lower, upper - top
    slack_low = np.where(matched, np.min(low, axis=1), np.nan)
    slack_up = np.where(matched, np.min(up, axis=1), np.nan)
    # a slack is a violation only beyond the rounding of its eigenvalue, which
    # grows as 1 / sigma2 at small noise
    floor = -1e-9 * np.maximum(1.0, top)
    ok = (matched & (count_lt == k1) & (count_eq == eigs.shape[1] - k0 - k1)
          & np.all(low >= floor, axis=1) & np.all(up >= floor, axis=1))
    return count_gt, count_eq, count_lt, slack_low, slack_up, ok


def run_eig_check(plan: dict, seed: int):
    """Each cell (M, K, overlap) scores its draws EIG_CHUNK_ELEMENTS // (M N)
    at a time as one stack from `draw_matrices`; draw d of a cell comes from
    its own stream, substream(seed, label, d), so the chunking never changes
    a matrix."""
    sigma2, tol, field, draws = plan["sigma2"], plan["tolerance"], plan["field"], plan["draws"]
    rows = []
    violations = 0
    for M in plan["Ms"]:
        for K in plan["Ks"]:
            N = 2 * K + 2
            step = max(1, EIG_CHUNK_ELEMENTS // (M * N))
            for overlap in range(K):
                S0 = make_support(range(K), N)
                S1 = make_support(list(range(overlap)) + list(range(K, 2 * K - overlap)), N)
                k0 = k1 = K - overlap
                label = f"eig-check-{M}-{K}-{overlap}"
                for start in range(0, draws, step):
                    # S0 and S1 lie in the first 2K columns; no other is read
                    A = draw_matrices(seed, label, range(start, min(start + step, draws)),
                                      (M, N), field, 2 * K)
                    *scores, ok = _eig_check_scores(A, S0, S1, sigma2, tol, k0, k1)
                    violations += int(np.count_nonzero(~ok))
                    for gt, eq, lt, low, up in zip(*(x.tolist() for x in scores)):
                        rows.append({"trial": len(rows), "M": M, "N": N, "K": K, "k_i": overlap,
                                     "k0": k0, "k1": k1, "count_gt": gt, "count_eq": eq,
                                     "count_lt": lt, "min_slack_lower": low,
                                     "min_slack_upper": up})
    return EIGCHECK_COLUMNS, rows, [f"# violations={violations}"]


# ---------------------------------------------------------------------------
# doa

def _validate_doa(config: dict) -> dict:
    """The plan of a `doa` run: its threshold rows, in `product(epsilon, N, K,
    sigma2)` order, each evaluated by `bounds.doa_requirements` under its rule
    (epsilon < 1, 1 <= K < N), after the optional ULA walk's caps are checked."""
    where = "config"
    eps = _positive_list(config, "epsilon", where, _positive_float)
    Ns = _positive_list(config, "N", where, _positive_int)
    Ks = _positive_list(config, "K", where, _positive_int)
    sig = _positive_list(config, "sigma2", where, _positive_float)
    plan = {"rows": []}
    if "ula_lambda" in config:
        uw = f"{where}.ula_lambda"
        u = _require(config, "ula_lambda", dict, where)
        ula = plan["ula"] = {"M": _positive_int(u, "M", uw),
                             "grid_size": _positive_int(u, "grid_size", uw),
                             "K": _positive_int(u, "K", uw),
                             "spacing": _positive_float(u, "spacing", uw, default=0.5),
                             "pairs": _positive_int(u, "pairs", uw, default=200),
                             "sigma2": _positive_float(u, "sigma2", uw, default=1.0)}
        # the run's sampled pair walk, checked now: its caps exit 3 before any threshold row
        _checked_call(uw, _check_pair_walk, ula["M"], ula["grid_size"], ula["K"], "sampled",
                      ula["pairs"])
    for e, N, K, sigma2 in product(eps, Ns, Ks, sig):
        t = _checked_call(f"{where}: epsilon={e!r}, N={N}, K={K}", bd.doa_requirements, e, N, K,
                          sigma2)
        plan["rows"].append({"formula_id": t.formula_id, "quantity": t.quantity, "epsilon": e,
                             "N": N, "K": K, "sigma2": sigma2, **t.forms})
    return plan


def run_doa(plan: dict, seed: int):
    comments = []
    if "ula" in plan:
        u = plan["ula"]
        A = ula_manifold_matrix(u["M"], ula_angle_grid(u["grid_size"]), u["spacing"])
        summary = matrix_incoherence(A, u["K"], u["sigma2"], mode="sampled",
                                     sample_count=u["pairs"], seed=seed)
        comments.append(f"# ula_lambda_bar={summary.lambda_bar!r} mode={summary.mode}"
                        f" M={u['M']} grid={u['grid_size']} K={u['K']} sigma2={u['sigma2']!r}")
    return DOA_COLUMNS, plan["rows"], comments


# ---------------------------------------------------------------------------
# sweep

def _validate_sweep(config: dict) -> tuple:
    """(run, plans) of the driven command, one plan per grid point in the
    order of the sorted grid keys; a bad point raises before any point runs."""
    where = "config"
    command = _require(config, "command", str, where)
    if command not in COMMANDS or command == "sweep":
        raise ConfigError(f"{where}: sweep cannot drive command {command!r}")
    base = _require(config, "base", dict, where)
    grid = _require(config, "grid", dict, where)
    if not grid:
        raise ConfigError(f"{where}: sweep grid must be non-empty")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{where}: grid entry {key!r} must be a non-empty list")
    _, validate, run = COMMANDS[command]
    keys = sorted(grid)
    return run, [validate({**base, **dict(zip(keys, combo))})
                 for combo in product(*(grid[k] for k in keys))]


def run_sweep(plan: tuple, seed: int):
    """Every point's rows in grid order, and each distinct comment line of the
    points once, in first-seen order."""
    run, plans = plan
    rows = []
    comments = {}
    for point in plans:
        columns, sub_rows, sub_comments = run(point, seed)
        rows.extend(sub_rows)
        comments.update(dict.fromkeys(sub_comments))
    return columns, rows, list(comments)


# ---------------------------------------------------------------------------
# dispatch and output

# command -> (help, validate(config) -> plan, run(plan, seed) -> (columns, rows, comments))
COMMANDS = {
    "bounds": ("evaluate closed-form bound/threshold queries", _validate_bounds, run_bounds),
    "simulate": ("Monte Carlo error-probability experiments", _validate_simulate, run_simulate),
    "eig-check": ("eigenvalue count and sandwich verification sweep", _validate_eigcheck,
                  run_eig_check),
    "doa": ("DOA sample-count thresholds (and optional ULA incoherence)", _validate_doa, run_doa),
    "sweep": ("generic grid driver over another subcommand", _validate_sweep, run_sweep),
}


def _write_output(out_path, fmt: str, columns, rows, comments, command: str, seed: int) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join([_PLAIN_CELLS.get(type(v), _csv_cell)(v)
                                   for v in map(row.get, columns)]))
        lines.extend(comments)
        body = "\n".join(lines) + "\n"
    else:
        payload = {"command": command, "seed": seed, "columns": list(columns),
                   "records": rows, "comments": [c.lstrip("# ") for c in comments]}
        body = _json_text(payload, indent=2) + "\n"
    if out_path is None:
        sys.stdout.write(body)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(body)


def _json_value(value):
    """`value` with numpy scalars as Python numbers and every non-finite float,
    at any depth, as the text of its CSV cell ("inf", "-inf", "nan"), which
    strict JSON (RFC 8259) can hold."""
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else _fmt(value)
    return value


def _json_text(value, indent=None) -> str:
    """Strict JSON text of `value` (`_json_value`), keys sorted."""
    return json.dumps(_json_value(value), sort_keys=True, indent=indent, allow_nan=False)


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


# Formatters of the cells that `_csv_cell` writes unquoted as `_fmt` does,
# keyed by exact type (a bool is not an int here), so most cells skip both.
_PLAIN_CELLS = {int: int.__repr__, float: float.__repr__}


def _csv_cell(value) -> str:
    if isinstance(value, dict):
        return '"' + _json_text(value).replace('"', '""') + '"'
    text = _fmt(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


@functools.cache                # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suprec",
        description="Support-recovery bounds and Monte Carlo experiments (batch, seeded).",
        epilog="Output schemas are fixed: simulate -> %s; eig-check -> %s; "
               "doa -> %s; bounds -> %s." % (",".join(SIMULATE_COLUMNS), ",".join(EIGCHECK_COLUMNS),
                                             ",".join(DOA_COLUMNS), ",".join(BOUNDS_COLUMNS)))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (overrides ${SEED_ENV_VAR} and the config)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; changes neither results nor speed")
    return parser


def _resolve_seed(args, config: dict) -> int:
    if args.seed is not None:
        seed = args.seed
    elif os.environ.get(SEED_ENV_VAR):
        try:
            seed = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(f"${SEED_ENV_VAR} must be an integer") from None
    else:
        seed = config.get("master_seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0 or seed >= 2**64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    return seed


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        print(f"suprec: cannot read config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("suprec: config must be a JSON object", file=sys.stderr)
        return 2
    try:
        seed = _resolve_seed(args, config)
        _, validate, run = COMMANDS[args.command]
        columns, rows, comments = run(validate(config), seed)
    except ConfigError as exc:
        print(f"suprec: config error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"suprec: resource cap: {exc}", file=sys.stderr)
        return 3
    except NumericFailure as exc:
        print(f"suprec: numeric failure: {exc}", file=sys.stderr)
        return 2
    try:
        _write_output(args.out, args.format, columns, rows, comments, args.command, seed)
    except OSError as exc:
        print(f"suprec: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
