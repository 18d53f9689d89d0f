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
config error. Every config key is read by one rule of `_Block`, the reader
of one JSON object: a positive int or float, a value or non-empty list of
them, one of a fixed set of strings, a nested object or a value of a given
type. A number is checked as positive of its type, with no formula's rule
restated. The reader records each key it reads, and once the plan is built
a key that no read took is a config error, so a misspelled or misplaced key
exits 2 before anything runs. Only the top-level object takes `master_seed`.

Output is CSV or JSON with a fixed column order, reproducible byte for byte
from (config, seed); --threads is accepted and ignored. Config and JSON output
are strict JSON (RFC 8259): a config holding NaN or Infinity cannot be read,
and JSON output, like the JSON text in a cell, writes a non-finite number as
the text of its CSV cell.

A CLI process runs BLAS on one thread unless the user sets
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS: no BLAS call here
is large enough to gain from OpenBLAS's pool, whose idle threads busy-wait on
the other cores. On glibc a CLI process also pins malloc's mmap threshold
at 32 MiB and its trim threshold at 64 MiB, so each trial block reuses the
heap that the previous one freed instead of faulting its buffers in again
from the OS (about 2,500 page faults per warm simulate-multiple call, now
none). Both are set because any mallopt call freezes glibc's own rising
threshold at 128 KiB. A malloc setting the user made (MALLOC_*_ or
GLIBC_TUNABLES) wins, and only where memory comes from changes, not a byte
of output. `import suprec` as a library changes nothing.

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

# glibc's malloc keeps freed heap (see above). Both thresholds are pinned:
# any mallopt call freezes glibc's dynamic mmap threshold at its 128 KiB start.
MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
               "MALLOC_MMAP_MAX_", "GLIBC_TUNABLES")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20   # glibc's ceiling for its dynamic threshold on 64-bit


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):   # no confstr, or no such name here
        return False


if _on_glibc() and not any(v in os.environ for v in MALLOC_VARS):
    import ctypes

    _libc = ctypes.CDLL(None)
    _libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    _libc.mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)   # twice it, as glibc's own rule
    del _libc

import numpy as np

from . import bounds as bd
from . import montecarlo as mc
from .decode import SupportDecoder
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
from .spectra import _check_pair_walk, _pair_union, _split_masks, h_spectra, matrix_incoherence

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


class _Block:
    """One JSON object of a config and its path in messages (`config`,
    `config.matrix`, `query gaussian_necessary`). Each method reads one key by
    one rule and records it; a `default` of None makes the key required.
    `close`, called once the plan is built, rejects a key that no read took,
    here or in a block nested in this one."""

    def __init__(self, data: dict, path: str):
        self.data, self.path, self.read, self.nested = data, path, set(), []

    def value(self, key: str, types, default=None):
        """The value under `key`, an instance of `types`."""
        self.read.add(key)
        if key not in self.data:
            if default is None:
                raise ConfigError(f"{self.path}: missing required key '{key}'")
            return default
        value = self.data[key]
        if not isinstance(value, types):
            raise ConfigError(f"{self.path}: key '{key}' has invalid type {type(value).__name__}")
        return value

    def number(self, key: str, kind, default=None):
        """The positive `kind` (int or float) under `key`."""
        value = self.value(key, (int, float) if kind is float else int, default)
        if isinstance(value, bool) or not 0 < value < math.inf:
            noun = "integer" if kind is int else "number"
            raise ConfigError(f"{self.path}: '{key}' must be a positive {noun}")
        return kind(value)

    def numbers(self, key: str, kind) -> list:
        """A positive `kind` or a non-empty list of them under `key`, as a list."""
        value = self.value(key, object)
        values = value if isinstance(value, list) else [value]
        if not values:
            raise ConfigError(f"{self.path}: '{key}' must be a non-empty list")
        return [_Block({key: v}, self.path).number(key, kind) for v in values]

    def choice(self, key: str, choices, default=None) -> str:
        """The one of the strings `choices` under `key`."""
        name = self.value(key, str, default)
        if name not in choices:
            raise ConfigError(f"{self.path}: unknown {key} {name!r}: {key} must be"
                              f" {'|'.join(choices)}")
        return name

    def block(self, key: str) -> "_Block":
        """The object under `key`, an empty one when absent, as a block that
        closes with this one."""
        block = _Block(self.value(key, dict, {}), f"{self.path}.{key}")
        self.nested.append(block)
        return block

    def close(self) -> None:
        for key in self.data:
            if key not in self.read:
                raise ConfigError(f"{self.path}: unknown key '{key}' (this block reads"
                                  f" {', '.join(sorted(self.read))})")
        for block in self.nested:
            block.close()


_FIELDS = {field.value: field for field in FieldTag}


def _checked_call(path: str, fn, *args):
    """`fn(*args)` for a library call on config values, such as a bound formula,
    a rule like `spectra._check_pair_walk` or loading a CSV matrix; what it
    raises on bad values or an unreadable file becomes a config error."""
    try:
        return fn(*args)
    except (OSError, ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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


# Kind of each positive numeric key that the formulas above share, checked for
# every key a formula lists; any other key goes to the formula as given.
_BOUND_KEY_KINDS = {**dict.fromkeys(("T", "N", "K", "L", "M", "k_d"), int),
                    **dict.fromkeys(("kappa", "sigma2"), float)}


def _validate_bounds(config: _Block) -> list:
    """The plan of a `bounds` run: one record per query. A closed form is its
    own validation, so each formula is evaluated here, by `_checked_call`,
    under the library's rules."""
    queries = config.value("queries", list)
    if not queries:
        raise ConfigError(f"{config.path}: 'queries' must be a non-empty list")
    records = []
    for i, query in enumerate(queries):
        if not isinstance(query, dict):
            raise ConfigError(f"queries[{i}]: each query must be an object")
        q = _Block(query, f"queries[{i}]")
        config.nested.append(q)
        formula = q.choice("formula", _BOUND_FORMULAS)
        q.path = f"query {formula}"
        fn, keys, optional, fields = _BOUND_FORMULAS[formula]
        for key in keys:
            if key in _BOUND_KEY_KINDS:
                q.number(key, _BOUND_KEY_KINDS[key])
            elif key in query or key not in optional:
                q.value(key, object)
        result = _checked_call(q.path, fn, *map(query.get, keys))
        raw, clamped, applicable, notes = fields(query, result)
        records.append({"formula_id": formula,
                        "inputs": {k: v for k, v in query.items() if k != "formula"},
                        "raw": raw, "clamped": clamped, "applicable": applicable,
                        "notes": notes})
    return records


def run_bounds(records: list, seed: int):
    return BOUNDS_COLUMNS, records, []


# ---------------------------------------------------------------------------
# simulate

def _validate_simulate(config: _Block) -> dict:
    """The plan of a `simulate` run: the keys every mode shares, then the
    keys and rules of its mode's `_SIMULATE_MODES` entry."""
    mode = config.choice("mode", _SIMULATE_MODES)
    N, M, K = (config.number(key, int) for key in ("N", "M", "K"))
    Ts, sigma2s = config.numbers("T", int), config.numbers("sigma2", float)
    field = _FIELDS[config.choice("field", _FIELDS, "real")]
    return {"mode": mode, "N": N, "M": M, "K": K, "Ts": Ts, "sigma2s": sigma2s, "field": field,
            **_SIMULATE_MODES[mode][0](config, N, M, K, field)}


def _plan_matrix(config: _Block, N: int, M: int, field: FieldTag):
    """The `matrix` block of binary and multiple mode as `matrix(seed) -> A`.
    The plan builds the ULA and reads and shape-checks a CSV matrix; only the
    Gaussian, drawn from substream(seed, "cli-matrix"), waits for the seed."""
    mat = config.block("matrix")
    kind = mat.choice("kind", ("gaussian", "ula", "csv"), "gaussian")
    if kind == "gaussian":
        return lambda seed: sample_gaussian_matrix(M, N, field, substream(seed, "cli-matrix"))
    if kind == "ula":
        A = ula_manifold_matrix(M, ula_angle_grid(N), mat.number("spacing", float, 0.5))
    else:
        A = _checked_call(f"{mat.path}: cannot load CSV matrix", load_matrix_csv,
                          mat.value("path", str))
        if A.shape != (M, N):
            raise ConfigError(f"{mat.path}: CSV matrix shape {A.shape} != ({M}, {N})")
    return lambda seed: A


def _plan_binary(config: _Block, N, M, K, field) -> dict:
    S0, S1 = (_checked_call(f"{config.path}: invalid support", make_support,
                            config.value(key, list), N) for key in ("S0", "S1"))
    if S0.size != K or S1.size != K:
        raise ConfigError(f"{config.path}: supports must have size K={K}")
    _checked_call(config.path, _pair_union, [S0.indices], [S1.indices], M, N)
    return {"S0": S0, "S1": S1, "trials": config.number("trials", int),
            "matrix": _plan_matrix(config, N, M, field)}


def _plan_multiple(config: _Block, N, M, K, field) -> dict:
    _support_count(N, K)
    inc = config.block("incoherence")
    sampled = inc.choice("mode", ("exhaustive", "sampled"), "exhaustive") == "sampled"
    pairs = inc.number("count", int) if sampled else None
    _checked_call(config.path, _check_pair_walk, M, N, K, pairs)
    return {"pairs": pairs, "trials": config.number("trials", int),
            "matrix": _plan_matrix(config, N, M, field)}


def _plan_ensemble(config: _Block, N, M, K, field) -> dict:
    _support_count(N, K)
    if K >= N:
        raise ConfigError(f"{config.path}: ensemble mode needs two candidate supports (its Fano"
                          f" bound needs L = C(N,K) >= 2): K={K} must be below N={N}")
    # matrix_draws and trials_per_matrix count the trials; `trials` is checked, unused
    config.number("trials", int, 1)
    return {"matrix_draws": config.number("matrix_draws", int),
            "trials_per_matrix": config.number("trials_per_matrix", int)}


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
    # Neither lambda_bar nor a decoder depends on T: each sigma2's decoder
    # factors the supports once, for the decodes and for Fano beta.
    summaries = [matrix_incoherence(A, K, sigma2, plan["pairs"], seed) for sigma2 in sigma2s]
    supports = support_rows(N, K)
    decoders = [SupportDecoder(A, supports, sigma2) for sigma2 in sigma2s]
    betas = [bd.fano_betas(A, d.factors, Ts) for d in decoders]      # betas[i][t] is at Ts[t]
    ests = mc.estimate_multiple_perrs(A, decoders, Ts, plan["trials"], seed)
    cells = [(bd.multiple_bound_geometric(summaries[i].lambda_bar, N, K, Ts[t],
                                          A.field.kappa).clamped,
              bd.fano_lower(betas[i][t], math.comb(N, K)).clamped, summaries[i].lambda_bar)
             for t, i in points]
    note = ("# chernoff_clamped not certified: lambda_bar is a minimum over sampled support"
            f" pairs (mode={summaries[0].mode}), so it only upper-estimates the true minimum"
            " and chernoff_clamped is not a certified bound")
    return ests, cells, [] if plan["pairs"] is None else [note]


def _run_ensemble(plan: dict, seed: int, points: list) -> tuple:
    M, N, K, Ts, sigma2s, field = (plan[k] for k in ("M", "N", "K", "Ts", "sigma2s", "field"))
    ests = mc.estimate_ensemble_perrs(M, N, K, sigma2s, Ts, plan["matrix_draws"],
                                      plan["trials_per_matrix"], seed, field=field)
    cells = [(None, bd.ensemble_fano_lower(M, N, K, sigma2s[i], Ts[t], field.kappa).clamped,
              None) for t, i in points]
    return ests, cells, []


# mode -> (plan(config, N, M, K, field) -> the mode's own plan keys,
#          run(plan, seed, points) -> (estimates, cells, comments))
_SIMULATE_MODES = {
    "binary": (_plan_binary, _run_binary),
    "multiple": (_plan_multiple, _run_multiple),
    "ensemble": (_plan_ensemble, _run_ensemble),
}


def _simulate_row(mode, point: tuple, est: mc.ErrorEstimate, cells: tuple) -> dict:
    """The row of `est` at `point`, (N, M, K, T, sigma2, seed), with its
    (chernoff_clamped, fano_clamped, lambda_bar) cells."""
    return dict(zip(SIMULATE_COLUMNS, (mode, *point, est.trials, est.p_hat, est.ci_low,
                                       est.ci_high, *cells)))


def run_simulate(plan: dict, seed: int):
    """Rows in `product(Ts, sigma2s)` order. The mode's run makes one
    estimator call over the whole grid (each sigma2's decoder is built once,
    in multiple mode by the run, and each trial block is drawn once for every
    T and sigma2) and lists one (chernoff_clamped, fano_clamped, lambda_bar)
    cell triple per point; what the bounds need and does not depend on T
    (H's spectrum, lambda_bar, a decoder's covariance factors) is built once
    per sigma2. One loop
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
            rows.append(_simulate_row("ensemble-matrix", point, sub, (None, None, None)))
    return SIMULATE_COLUMNS, rows, comments


# ---------------------------------------------------------------------------
# eig-check

def _validate_eigcheck(config: _Block) -> dict:
    grid = config.block("grid")
    Ms, Ks = grid.numbers("M", int), grid.numbers("K", int)
    draws = config.number("draws_per_cell", int, 24)
    sigma2 = config.number("sigma2", float, 1.0)
    for M, K in product(Ms, Ks):
        if M < 2 * K:
            raise ConfigError(f"{config.path}: cell (M={M}, K={K}) violates M >= 2K")
    return {"Ms": Ms, "Ks": Ks, "draws": draws, "sigma2": sigma2,
            "field": _FIELDS[config.choice("field", _FIELDS, "real")],
            "tolerance": config.number("tolerance", float, 1e-8)}


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

def _validate_doa(config: _Block) -> dict:
    """The plan of a `doa` run: its threshold rows, in `product(epsilon, N, K,
    sigma2)` order, each evaluated by `bounds.doa_requirements` under its rule
    (epsilon < 1, 1 <= K < N), after the optional ULA walk's caps are checked."""
    eps = config.numbers("epsilon", float)
    Ns, Ks = config.numbers("N", int), config.numbers("K", int)
    sig = config.numbers("sigma2", float)
    plan = {"rows": []}
    if "ula_lambda" in config.data:
        u = config.block("ula_lambda")
        ula = plan["ula"] = {"M": u.number("M", int), "grid_size": u.number("grid_size", int),
                             "K": u.number("K", int), "spacing": u.number("spacing", float, 0.5),
                             "pairs": u.number("pairs", int, 200),
                             "sigma2": u.number("sigma2", float, 1.0)}
        # the run's sampled pair walk, checked now: its caps exit 3 before any threshold row
        _checked_call(u.path, _check_pair_walk, ula["M"], ula["grid_size"], ula["K"], ula["pairs"])
    for e, N, K, sigma2 in product(eps, Ns, Ks, sig):
        t = _checked_call(f"{config.path}: epsilon={e!r}, N={N}, K={K}", bd.doa_requirements, e,
                          N, K, sigma2)
        plan["rows"].append({"formula_id": t.formula_id, "quantity": t.quantity, "epsilon": e,
                             "N": N, "K": K, "sigma2": sigma2, **t.forms})
    return plan


def run_doa(plan: dict, seed: int):
    comments = []
    if "ula" in plan:
        u = plan["ula"]
        A = ula_manifold_matrix(u["M"], ula_angle_grid(u["grid_size"]), u["spacing"])
        summary = matrix_incoherence(A, u["K"], u["sigma2"], u["pairs"], seed)
        comments.append(f"# ula_lambda_bar={summary.lambda_bar!r} mode={summary.mode}"
                        f" M={u['M']} grid={u['grid_size']} K={u['K']} sigma2={u['sigma2']!r}")
    return DOA_COLUMNS, plan["rows"], comments


# ---------------------------------------------------------------------------
# sweep

def _validate_sweep(config: _Block) -> tuple:
    """(run, plans) of the driven command, one plan per grid point in the
    order of the sorted grid keys; a bad point raises before any point runs.
    A key of `base` or `grid` is read when any point's plan reads it, and a
    block nested in a point closes with `base`."""
    command = config.choice("command", [name for name in COMMANDS if name != "sweep"])
    base, grid = config.block("base"), config.block("grid")
    if not grid.data:
        raise ConfigError(f"{grid.path}: sweep grid must be non-empty")
    for key, values in grid.data.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{grid.path}: grid entry {key!r} must be a non-empty list")
    _, validate, run = COMMANDS[command]
    keys = sorted(grid.data)
    plans = []
    for combo in product(*(grid.data[k] for k in keys)):
        point = _Block({**base.data, **dict(zip(keys, combo))}, base.path)
        plans.append(validate(point))
        base.read |= point.read
        grid.read |= point.read
        base.nested += point.nested
    return run, plans


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

# command -> (help, validate(config _Block) -> plan, run(plan, seed) -> (columns, rows, comments))
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


def _resolve_seed(args, config: _Block) -> int:
    """--seed, else $SUPREC_SEED, else the config's `master_seed`, else 0; a
    `master_seed` is read and checked whichever seed wins."""
    seeds = [(f"{config.path}: 'master_seed'", config.value("master_seed", int, 0))]
    if args.seed is not None:
        seeds.append(("--seed", args.seed))
    elif os.environ.get(SEED_ENV_VAR):
        try:
            seeds.append((f"${SEED_ENV_VAR}", int(os.environ[SEED_ENV_VAR])))
        except ValueError:
            raise ConfigError(f"${SEED_ENV_VAR} must be an integer") from None
    for name, seed in seeds:
        if isinstance(seed, bool) or not 0 <= seed < 2**64:
            raise ConfigError(f"{name} must be an unsigned 64-bit integer")
    return seeds[-1][1]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        print(f"suprec: cannot read config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("suprec: config must be a JSON object", file=sys.stderr)
        return 2
    try:
        config = _Block(config, "config")
        seed = _resolve_seed(args, config)
        _, validate, run = COMMANDS[args.command]
        plan = validate(config)
        config.close()
        columns, rows, comments = run(plan, seed)
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
