"""Golden CLI outputs: small configs run through `python -m suprec.cli`, whose
stdout must equal the files under `tests/golden/` byte for byte.

Each case covers one command, `simulate` mode or output format. When an
output is meant to change, rewrite the files of the named cases (all of them
when none is named) with

    PYTHONPATH=src python tests/test_golden.py [case ...]

and review their diff: it should show exactly the intended change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

BINARY = {"mode": "binary", "N": 10, "M": 8, "K": 2, "T": [1, 2], "sigma2": [0.05, 0.5],
          "trials": 200, "field": "complex", "S0": [0, 1], "S1": [2, 5]}
MULTIPLE = {"mode": "multiple", "N": 8, "M": 6, "K": 2, "T": [1, 4], "sigma2": [0.1, 0.5],
            "trials": 60}
# the sim-multiple config of bench/workloads.py
BENCH_MULTIPLE = {"mode": "multiple", "M": 16, "N": 24, "K": 2, "T": [1, 4], "sigma2": [0.1, 0.5],
                  "trials": 500, "field": "real", "incoherence": {"mode": "sampled", "count": 125}}
# the sim-binary, eig-sweep and doa-ula configs of bench/workloads.py at seed 1
BENCH_BINARY = {"mode": "binary", "M": 8, "N": 10, "K": 2, "T": [1, 2, 4, 8], "sigma2": [0.05, 0.5],
                "trials": 1000, "field": "complex", "S0": [1, 2], "S1": [0, 6]}
BENCH_EIG = {"grid": {"M": [30, 60], "K": [2, 4]}, "draws_per_cell": 80, "sigma2": 1.0}
BENCH_DOA = {"epsilon": [0.01, 0.05, 0.1], "N": [90, 180, 360], "K": [1, 2, 3], "sigma2": [0.1, 1.0],
             "ula_lambda": {"M": 16, "grid_size": 360, "K": 2, "pairs": 2000, "sigma2": 1.0}}
ENSEMBLE = {"mode": "ensemble", "N": 6, "M": 4, "K": 2, "T": [1, 2], "sigma2": 0.5,
            "matrix_draws": 3, "trials_per_matrix": 40, "trials": 1}
ULA = {"M": 8, "grid_size": 30, "K": 2, "pairs": 40, "sigma2": 0.5}

# name -> (command, config, seed, format); the output file is <name>.<format>
CASES = {
    "bounds": ("bounds", {"queries": [
        {"formula": "multiple_geometric", "lambda_bar": 10, "N": 3, "K": 1, "T": 2, "kappa": 1},
        {"formula": "multiple_union", "lambda_bar": 10, "N": 30, "K": 2, "T": 3, "kappa": 0.5},
        {"formula": "fano_lower", "beta": 0.1, "L": 4},
        {"formula": "ensemble_fano", "M": 8, "N": 10, "K": 2, "sigma2": 1.0, "T": 2,
         "kappa": 0.5},
        {"formula": "snet", "epsilon": 0.1, "N": 16, "K": 4, "sigma2": 1.0, "kappa": 0.5,
         "normalization": "unit_rows"},
        {"formula": "gaussian_necessary", "epsilon": 0.1, "N": 16, "K": 2, "sigma2": 1.0,
         "kappa": 0.5},
        {"formula": "sufficiency", "M": 20, "N": 40, "K": 2, "T": 4, "sigma2": 1.0,
         "kappa": 0.5},
        {"formula": "expected_incoherence", "M": 10, "K": 2, "k_d": 2, "sigma2": 1.0},
        {"formula": "hypergeometric_mean", "N": 10, "K": 3},
        {"formula": "chernoff_mu", "eigenvalues": [2.0, 1.0, 0.5], "s": 0.5, "T": 2,
         "kappa": 0.5}]}, 0, "csv"),
    # the threshold formulas that `doa` and the probability form of `gaussian_necessary` give
    "bounds-thresholds": ("bounds", {"queries": [
        {"formula": "doa", "epsilon": 0.1, "N": 360, "K": 2, "sigma2": 1.0},
        {"formula": "gaussian_necessary", "epsilon": 0.1, "delta": 0.05, "N": 16, "K": 2,
         "sigma2": 0.5, "kappa": 1}]}, 0, "csv"),
    # every row of the Fano threshold table: both snet gains at kappa 1/2 and
    # 1, both gaussian_necessary factors, doa; N up to 1e6 (log C(N, K) by
    # its exact integer and by Stirling), sigma2 from 1e-8 to 7.5
    "bounds-fano-thresholds": ("bounds", {"queries": [
        {"formula": "snet", "epsilon": 0.05, "N": 10**6, "K": 3, "sigma2": 1e-8, "kappa": 0.5,
         "normalization": "unit_rows"},
        {"formula": "snet", "epsilon": 0.0, "N": 90, "K": 45, "sigma2": 7.5, "kappa": 1,
         "normalization": "unit_rows"},
        {"formula": "snet", "epsilon": 0.2, "N": 1000, "K": 10, "sigma2": 0.01, "kappa": 0.5,
         "normalization": "unit_columns"},
        {"formula": "snet", "epsilon": 0.1, "N": 10**6, "K": 50, "sigma2": 7.5, "kappa": 1,
         "normalization": "unit_columns"},
        {"formula": "gaussian_necessary", "epsilon": 0.1, "N": 10**6, "K": 1, "sigma2": 1e-8,
         "kappa": 0.5},
        {"formula": "gaussian_necessary", "epsilon": 0.0, "N": 360, "K": 180, "sigma2": 2.5,
         "kappa": 1},
        {"formula": "gaussian_necessary", "epsilon": 0.05, "delta": 0.2, "N": 500, "K": 7,
         "sigma2": 7.5, "kappa": 0.5},
        {"formula": "gaussian_necessary", "epsilon": 0.3, "delta": 0.01, "N": 10**6, "K": 999,
         "sigma2": 1e-3, "kappa": 1},
        {"formula": "doa", "epsilon": 0.0, "N": 10**6, "K": 2, "sigma2": 1e-8},
        {"formula": "doa", "epsilon": 0.25, "N": 37, "K": 36, "sigma2": 7.5},
        {"formula": "doa", "epsilon": 0.1, "N": 2, "K": 1, "sigma2": 0.3}]}, 0, "csv"),
    "bounds-json": ("bounds", {"queries": [
        {"formula": "multiple_geometric", "lambda_bar": 2, "N": 10, "K": 2, "T": 1,
         "kappa": 0.5}]}, 0, "json"),
    "simulate-binary": ("simulate", BINARY, 3, "csv"),
    "simulate-binary-json": ("simulate", BINARY, 3, "json"),
    "simulate-multiple-exhaustive": ("simulate", MULTIPLE, 5, "csv"),
    "simulate-multiple-sampled": ("simulate", {**MULTIPLE, "incoherence": {"mode": "sampled",
                                                                           "count": 30}},
                                  5, "csv"),
    "simulate-multiple-bench": ("simulate", BENCH_MULTIPLE, 7, "csv"),
    "simulate-binary-bench": ("simulate", BENCH_BINARY, 1, "csv"),
    "simulate-multiple-complex": ("simulate", {**MULTIPLE, "N": 10, "T": [1, 3],
                                               "sigma2": [1e-3, 0.05, 0.5], "trials": 200,
                                               "field": "complex"}, 11, "csv"),
    # the two matrix kinds other than the default Gaussian: the DOA grid and a
    # matrix read from CSV, a fixture written once by `model.save_matrix_csv`
    "simulate-multiple-ula": ("simulate", {**MULTIPLE, "N": 12, "T": [1, 2], "sigma2": [0.1, 1.0],
                                           "trials": 100,
                                           "matrix": {"kind": "ula", "spacing": 0.5}}, 5, "csv"),
    "simulate-binary-csv": ("simulate", {**BINARY, "field": "real", "matrix": {
        "kind": "csv", "path": str(GOLDEN / "matrix-real-8x10.csv")}}, 3, "csv"),
    "simulate-ensemble": ("simulate", ENSEMBLE, 7, "csv"),
    "simulate-ensemble-json": ("simulate", ENSEMBLE, 7, "json"),
    # K > M: at sigma2 = 1e-8 the Gram screen's margins leave every candidate
    # near, so the exact rescoring decides every trial
    "simulate-ensemble-k-above-m": ("simulate", {**ENSEMBLE, "N": 7, "M": 3, "K": 4,
                                                 "sigma2": [1e-8, 0.5], "trials_per_matrix": 100,
                                                 "field": "real"}, 5, "csv"),
    "eig-check": ("eig-check", {"grid": {"M": [6, 8], "K": [1, 2]}, "draws_per_cell": 3,
                                "sigma2": 0.8, "field": "complex"}, 2, "csv"),
    "eig-check-tiny-noise": ("eig-check", {"grid": {"M": 6, "K": 2}, "draws_per_cell": 2,
                                           "sigma2": 1e-16}, 1, "csv"),
    "eig-check-bench": ("eig-check", BENCH_EIG, 1, "csv"),
    "doa": ("doa", {"epsilon": [0.05, 0.1], "N": [90, 360], "K": [1, 2], "sigma2": 1.0,
                    "ula_lambda": ULA}, 1, "csv"),
    "doa-json": ("doa", {"epsilon": 0.1, "N": [90, 180], "K": 2, "sigma2": [0.1, 1.0],
                         "ula_lambda": ULA}, 4, "json"),
    "doa-bench": ("doa", BENCH_DOA, 1, "csv"),
    "sweep": ("sweep", {"command": "simulate", "base": {**BINARY, "T": 1},
                        "grid": {"T": [1, 4], "sigma2": [0.1, 1.0]}}, 2, "csv"),
    "sweep-doa": ("sweep", {"command": "doa",
                            "base": {"epsilon": [0.05, 0.1], "N": 90, "K": [1, 2],
                                     "ula_lambda": ULA},
                            "grid": {"N": [30, 120], "sigma2": [0.5, 2.0]}}, 3, "csv"),
}


def run_case(name: str, tmp_dir: Path, **env) -> str:
    """stdout of the CLI on case `name`, run on the source tree of this repo
    with `env` added to its environment."""
    command, config, seed, fmt = CASES[name]
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(config))
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("SUPREC_SEED", None)
    result = subprocess.run([sys.executable, "-m", "suprec.cli", command, "--config", str(path),
                             "--seed", str(seed), "--format", fmt],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, tmp_path):
    want = (GOLDEN / f"{name}.{CASES[name][3]}").read_text()
    assert run_case(name, tmp_path) == want


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][3] == "json"))
def test_json_golden_is_strict_json(name):
    # RFC 8259 has no NaN or Infinity; a non-finite number is written as text
    json.loads((GOLDEN / f"{name}.json").read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("name", sorted(CASES))
def test_two_blas_threads_change_no_byte(name, tmp_path):
    # a CLI process runs BLAS on one thread unless the user sets a count
    want = (GOLDEN / f"{name}.{CASES[name][3]}").read_text()
    assert run_case(name, tmp_path, OPENBLAS_NUM_THREADS="2") == want


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden case(s) {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            (GOLDEN / f"{name}.{CASES[name][3]}").write_text(run_case(name, Path(tmp)))
