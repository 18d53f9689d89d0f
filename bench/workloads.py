"""Benchmark workloads: one `suprec` CLI call each, its config made from a seed.

Every workload names the subcommand, builds the JSON config from the
workload seed, counts the work items its throughput metric divides by, and
checks the CLI's output text. Sizes are fixed, so a call costs the same for
every seed; they are chosen so that one warm call takes about 0.5 s on a
2-core x86 box, which leaves room for several repeats in one timed window
while keeping each workload's cost profile (BENCHMARK.json says why each
workload is there).
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    item: str                                   # what items_per_s counts
    make_config: Callable[[random.Random], dict]
    work_items: Callable[[dict], int]
    check: Callable[[str, dict], list]          # output text, config -> problems


def _csv_rows(text: str) -> tuple:
    """Data rows as dicts, plus the trailing '#' comment lines."""
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    comments = [ln for ln in lines if ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body)))), comments


def _check_rows(rows: list, expected: int) -> list:
    return [] if len(rows) == expected else [f"expected {expected} rows, got {len(rows)}"]


def _check_simulate(text: str, cfg: dict) -> list:
    rows, _ = _csv_rows(text)
    problems = _check_rows(rows, len(cfg["T"]) * len(cfg["sigma2"]))
    for i, row in enumerate(rows):
        if int(row["trials"]) != cfg["trials"]:
            problems.append(f"row {i}: trials={row['trials']}")
        ci_low, ci_high = float(row["ci_low"]), float(row["ci_high"])
        if not ci_low <= float(row["chernoff_clamped"]):
            problems.append(f"row {i}: ci_low {ci_low} > Chernoff {row['chernoff_clamped']}")
        if not float(row["fano_clamped"]) <= ci_high:
            problems.append(f"row {i}: Fano {row['fano_clamped']} > ci_high {ci_high}")
    return problems


def _eig_draws(cfg: dict) -> int:
    grid = cfg["grid"]
    return sum(grid["K"]) * len(grid["M"]) * cfg["draws_per_cell"]   # a cell per overlap < K


def _check_eig(text: str, cfg: dict) -> list:
    rows, comments = _csv_rows(text)
    problems = _check_rows(rows, _eig_draws(cfg))
    if comments[-1:] != ["# violations=0"]:
        problems.append(f"eig-check summary is {comments[-1:]}, not '# violations=0'")
    return problems


def _check_doa(text: str, cfg: dict) -> list:
    rows, comments = _csv_rows(text)
    problems = _check_rows(rows, math.prod(len(cfg[k]) for k in ("epsilon", "N", "K", "sigma2")))
    if not any(c.startswith("# ula_lambda_bar=") for c in comments):
        problems.append("doa output lacks its ula_lambda_bar comment")
    return problems


def _sim_multiple(rng: random.Random) -> dict:
    return {"mode": "multiple", "M": 16, "N": 24, "K": 2, "T": [1, 4], "sigma2": [0.1, 0.5],
            "trials": 500, "field": "real",
            "incoherence": {"mode": "sampled", "count": 125}}


def _sim_binary(rng: random.Random) -> dict:
    N, K = 10, 2
    S0 = sorted(rng.sample(range(N), K))
    S1 = sorted(rng.sample([i for i in range(N) if i not in S0], K))
    return {"mode": "binary", "M": 8, "N": N, "K": K, "T": [1, 2, 4, 8],
            "sigma2": [0.05, 0.5], "trials": 1000, "field": "complex", "S0": S0, "S1": S1}


def _eig_sweep(rng: random.Random) -> dict:
    return {"grid": {"M": [30, 60], "K": [2, 4]}, "draws_per_cell": 80, "sigma2": 1.0}


def _doa_ula(rng: random.Random) -> dict:
    return {"epsilon": [0.01, 0.05, 0.1], "N": [90, 180, 360], "K": [1, 2, 3],
            "sigma2": [0.1, 1.0],
            "ula_lambda": {"M": 16, "grid_size": 360, "K": 2, "pairs": 2000, "sigma2": 1.0}}


def _sim_trials(cfg: dict) -> int:
    return cfg["trials"] * len(cfg["T"]) * len(cfg["sigma2"])


WORKLOADS = {w.name: w for w in (
    Workload("sim-multiple", "simulate", "trials", _sim_multiple, _sim_trials, _check_simulate),
    Workload("sim-binary", "simulate", "trials", _sim_binary, _sim_trials, _check_simulate),
    Workload("eig-sweep", "eig-check", "draws", _eig_sweep, _eig_draws, _check_eig),
    Workload("doa-ula", "doa", "pairs", _doa_ula, lambda c: c["ula_lambda"]["pairs"],
             _check_doa),
)}
