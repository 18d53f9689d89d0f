import csv
import importlib
import json
import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

import suprec
import suprec.cli as cli
import suprec.spectra as spectra
from suprec import FieldTag, sample_gaussian_matrix, spectrum_split, substream

from conftest import dense_h_eigenvalues, dense_sandwich, random_pair
from test_golden import CASES as GOLDEN_CASES

RUN = [sys.executable, "-m", "suprec.cli"]


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def read_rows(path):
    with open(path) as fh:
        return read_rows_text(fh.read())


def read_rows_text(text):
    return list(csv.DictReader(l for l in text.splitlines() if not l.startswith("#")))


BINARY_SIM = {"mode": "binary", "N": 10, "M": 8, "K": 2, "T": [1, 2], "sigma2": 0.5,
              "trials": 200, "S0": [0, 1], "S1": [2, 3]}
MULTIPLE_SIM = {"mode": "multiple", "N": 8, "M": 6, "K": 2, "T": 1, "sigma2": 0.5,
                "trials": 50}
EIG_CHECK = {"grid": {"M": 8, "K": 2}, "draws_per_cell": 2}
DOA_ULA = {"epsilon": 0.1, "N": 90, "K": 1, "sigma2": 1.0,
           "ula_lambda": {"M": 8, "grid_size": 20, "K": 2, "pairs": 10}}

# One query per formula that `bounds` evaluates.
ALL_BOUND_QUERIES = [
    {"formula": "multiple_geometric", "lambda_bar": 10, "N": 3, "K": 1, "T": 2, "kappa": 1},
    {"formula": "multiple_union", "lambda_bar": 10, "N": 3, "K": 1, "T": 2, "kappa": 1},
    {"formula": "fano_lower", "beta": 0.1, "L": 4},
    {"formula": "ensemble_fano", "M": 8, "N": 10, "K": 2, "sigma2": 1.0, "T": 2, "kappa": 0.5},
    {"formula": "snet", "epsilon": 0.1, "N": 16, "K": 4, "sigma2": 1.0, "kappa": 0.5,
     "normalization": "unit_rows"},
    {"formula": "doa", "epsilon": 0.1, "N": 360, "K": 2, "sigma2": 1.0},
    {"formula": "gaussian_necessary", "epsilon": 0.1, "N": 16, "K": 2, "sigma2": 1.0,
     "kappa": 0.5},
    {"formula": "sufficiency", "M": 20, "N": 40, "K": 2, "T": 4, "sigma2": 1.0, "kappa": 0.5},
    {"formula": "expected_incoherence", "M": 10, "K": 2, "k_d": 2, "sigma2": 1.0},
    {"formula": "hypergeometric_mean", "N": 10, "K": 3},
    {"formula": "chernoff_mu", "eigenvalues": [2.0, 1.0, 0.5], "s": 0.5, "T": 2, "kappa": 0.5},
]


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        cfg = write_config(tmp_path, {"queries": [{"formula": "fano_lower", "beta": 0.1, "L": 4}]})
        assert run_cli("bounds", "--config", cfg).returncode == 0

    def test_config_error_is_two_and_writes_nothing(self, tmp_path):
        cfg = write_config(tmp_path, {"queries": [{"formula": "nope"}]})
        out = tmp_path / "out.csv"
        result = run_cli("bounds", "--config", cfg, "--out", str(out))
        assert result.returncode == 2
        assert "queries[0]" in result.stderr
        assert not out.exists()

    def test_missing_key_diagnostic(self, tmp_path):
        cfg = write_config(tmp_path, {"mode": "binary", "N": 10})
        result = run_cli("simulate", "--config", cfg)
        assert result.returncode == 2
        assert "missing required key" in result.stderr

    def test_cap_error_is_three(self, tmp_path):
        cfg = write_config(tmp_path, {"mode": "multiple", "N": 60, "M": 8, "K": 12,
                                      "T": 1, "sigma2": 1.0, "trials": 10})
        result = run_cli("simulate", "--config", cfg)
        assert result.returncode == 3
        assert "cap" in result.stderr

    @pytest.mark.parametrize("command,payload,spied,message", [
        ("sweep", {"command": "simulate", "grid": {"N": [8, 30]},
                   "base": {"mode": "multiple", "M": 8, "K": 3, "T": 1, "sigma2": 0.5,
                            "trials": 50}},
         (cli.mc, "estimate_multiple_perrs"), "16479540 ordered pairs exceed cap 10000000"),
        ("doa", {**DOA_ULA, "ula_lambda": {"M": 16, "grid_size": 360, "K": 6, "pairs": 50}},
         (cli.bd, "doa_requirements"), "ordered pairs, beyond a 64-bit pair index"),
    ], ids=["sweep-exhaustive", "doa-sampled"])
    def test_pair_cap_is_three_before_running(self, tmp_path, monkeypatch, capsys, command,
                                              payload, spied, message):
        # the plan checks the pair walk's caps: no point, estimator or threshold runs first
        module, name = spied
        calls, real = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out.csv"
        assert cli.main([command, "--config", cfg, "--seed", "1", "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command,payload", [
        ("simulate", {"mode": "ensemble", "N": 60, "M": 8, "K": 12, "T": 1, "sigma2": 1.0,
                      "trials": 1, "matrix_draws": 1, "trials_per_matrix": 10}),
        ("sweep", {"command": "simulate", "grid": {"N": [20, 60]},
                   "base": {"mode": "ensemble", "M": 8, "K": 12, "T": 1, "sigma2": 1.0,
                            "trials": 1, "matrix_draws": 1, "trials_per_matrix": 10}}),
    ], ids=["simulate", "sweep"])
    def test_ensemble_over_cap_is_three_before_running(self, tmp_path, command, payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out.csv"
        result = run_cli(command, "--config", cfg, "--out", str(out))
        assert result.returncode == 3, result.stderr
        assert f"C(60,12) = {math.comb(60, 12)} candidate supports exceed cap 1000000" in result.stderr
        assert not out.exists()

    def test_csv_matrix_of_wrong_shape_is_config_error(self, tmp_path):
        matrix = tmp_path / "a.csv"
        matrix.write_text("# 8 9 real\n" + "1.0,0.5,0.25,2.0,1.5,0.75,3.0,1.25,0.125\n" * 8)
        cfg = write_config(tmp_path, {**BINARY_SIM, "matrix": {"kind": "csv", "path": str(matrix)}})
        out = tmp_path / "out.csv"
        result = run_cli("simulate", "--config", cfg, "--out", str(out))
        assert result.returncode == 2, result.stderr
        assert "CSV matrix shape (8, 9) != (8, 10)" in result.stderr
        assert not out.exists()

    def test_unreadable_config(self, tmp_path):
        assert run_cli("bounds", "--config", str(tmp_path / "missing.json")).returncode == 2

    @pytest.mark.parametrize("out", ["missing/out.csv", "."], ids=["missing-directory",
                                                                  "a-directory"])
    def test_unwritable_output_is_exit_two(self, tmp_path, out):
        cfg = write_config(tmp_path, {"queries": ALL_BOUND_QUERIES[:1]})
        result = run_cli("bounds", "--config", cfg, "--out", str(tmp_path / out))
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("suprec: cannot write output: ")
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command,payload,message", [
        ("simulate", {"mode": "multiple", "M": 2, "N": 20, "K": 2, "T": 1, "sigma2": 5.0,
                      "trials": 200}, "incoherence needs"),
        ("simulate", {**BINARY_SIM, "M": 2}, "incoherence needs"),
        ("simulate", {**BINARY_SIM, "S1": [1, 0]}, "identical"),
        ("simulate", {**BINARY_SIM, "S0": [0, None]}, "invalid support"),
        ("simulate", {**BINARY_SIM, "S0": [0.9, "1"]}, "invalid support: support index"),
        ("simulate", {**BINARY_SIM, "S0": [0, "1"]}, "invalid support: support index"),
        ("simulate", {**BINARY_SIM, "S0": [False, 1]}, "invalid support: support index"),
        ("simulate", {"mode": "multiple", "M": 4, "N": 2, "K": 2, "T": 1, "sigma2": 1.0,
                      "trials": 20}, "incoherence needs"),
        ("doa", {"epsilon": 0.1, "N": 90, "K": 1, "sigma2": 1.0,
                 "ula_lambda": {"M": 2, "grid_size": 20, "K": 2}}, "incoherence needs"),
        ("doa", {**DOA_ULA, "ula_lambda": {**DOA_ULA["ula_lambda"], "sigma2": -1.0}},
         "'sigma2' must be a positive number"),
        ("doa", {**DOA_ULA, "ula_lambda": {**DOA_ULA["ula_lambda"], "spacing": "abc"}},
         "key 'spacing' has invalid type"),
        ("doa", {**DOA_ULA, "epsilon": ["a"]}, "key 'epsilon' has invalid type"),
        ("eig-check", {**EIG_CHECK, "sigma2": "x"}, "key 'sigma2' has invalid type"),
        ("eig-check", {**EIG_CHECK, "tolerance": "x"}, "key 'tolerance' has invalid type"),
        ("simulate", {**BINARY_SIM, "matrix": {"kind": "ula", "spacing": "z"}},
         "key 'spacing' has invalid type"),
        ("simulate", {**MULTIPLE_SIM, "incoherence": {"mode": "bogus"}},
         "mode must be exhaustive|sampled"),
        ("simulate", {**MULTIPLE_SIM, "incoherence": {"mode": "sampled"}},
         "missing required key 'count'"),
        ("simulate", {**MULTIPLE_SIM, "incoherence": {"mode": "sampled", "count": 0}},
         "'count' must be a positive integer"),
        ("simulate", {**MULTIPLE_SIM, "matrix": "gaussian"}, "key 'matrix' has invalid type"),
        ("simulate", {**BINARY_SIM, "matrix": {"kind": "bogus"}}, "unknown kind 'bogus'"),
        ("simulate", {**BINARY_SIM, "matrix": {"kind": "csv", "path": "/nonexistent.csv"}},
         "cannot load CSV matrix"),
        ("sweep", {"command": "simulate", "grid": {"sigma2": [0.5, 1.0]},
                   "base": {**MULTIPLE_SIM, "incoherence": {"mode": "bogus"}}},
         "mode must be exhaustive|sampled"),
        ("eig-check", {"grid": {"M": 6, "K": 2}, "draws_per_cell": 3, "sigma2": 1e-310,
                       "master_seed": 1}, "covariance factorization failed (non-finite)"),
        ("simulate", {"mode": "ensemble", "N": 4, "M": 2, "K": 4, "T": [1], "sigma2": [0.5],
                      "trials": 20, "matrix_draws": 3, "trials_per_matrix": 10},
         "ensemble mode needs two candidate supports"),
        ("doa", {**DOA_ULA, "N": ["x"]}, "key 'N' has invalid type str"),
        ("doa", {**DOA_ULA, "N": [90.5], "K": [1.5]}, "key 'N' has invalid type float"),
        ("doa", {**DOA_ULA, "K": [True]}, "'K' must be a positive integer"),
        ("doa", {**DOA_ULA, "epsilon": []}, "'epsilon' must be a non-empty list"),
        ("eig-check", {**EIG_CHECK, "grid": {"M": [], "K": [2]}},
         "'M' must be a non-empty list"),
        ("simulate", {**BINARY_SIM, "T": []}, "'T' must be a non-empty list"),
        ("bounds", {"queries": [{**ALL_BOUND_QUERIES[0], "T": 0}]}, "query multiple_geometric"),
        ("bounds", {"queries": [{**ALL_BOUND_QUERIES[0], "T": 1e-300}]},
         "query multiple_geometric"),
        ("bounds", {"queries": [{"formula": "multiple_union", "lambda_bar": 10, "N": 30, "K": 2,
                                 "T": 0, "kappa": 1}]},
         "query multiple_union: 'T' must be a positive integer"),
        ("bounds", {"queries": [{**ALL_BOUND_QUERIES[1], "kappa": -1}]},
         "query multiple_union: 'kappa' must be a positive number"),
        ("bounds", {"queries": [{"formula": "fano_lower", "beta": math.nan, "L": 4}]},
         "cannot read config: non-standard JSON constant NaN"),
        ("simulate", {**BINARY_SIM, "sigma2": math.inf},
         "cannot read config: non-standard JSON constant Infinity"),
        ("doa", {**DOA_ULA, "N": [90, 2], "K": [1, 2]},
         "config: epsilon=0.1, N=2, K=2: need 1 <= K < N"),
        ("doa", {**DOA_ULA, "epsilon": [0.1, 1]},
         "config: epsilon=1.0, N=90, K=1: epsilon must lie in [0, 1)"),
    ], ids=["multiple-M-below-2K", "binary-M-below-2kd", "binary-identical-supports",
            "binary-support-null-entry", "binary-support-float-entry",
            "binary-support-string-entry", "binary-support-bool-entry",
            "multiple-K-equals-N",
            "doa-ula-M-below-2K", "doa-ula-sigma2-negative", "doa-ula-spacing-string",
            "doa-epsilon-string", "eig-check-sigma2-string", "eig-check-tolerance-string",
            "simulate-ula-spacing-string", "simulate-incoherence-mode-unknown",
            "simulate-sampled-count-missing", "simulate-sampled-count-zero",
            "simulate-matrix-not-object", "simulate-matrix-kind-unknown",
            "simulate-csv-matrix-missing",
            "sweep-incoherence-mode-unknown", "eig-check-numeric-failure",
            "ensemble-K-equals-N", "doa-N-string", "doa-N-K-float", "doa-K-bool",
            "doa-epsilon-empty", "eig-check-grid-M-empty", "simulate-T-empty",
            "bounds-geometric-T-zero", "bounds-geometric-T-tiny", "bounds-union-T-zero",
            "bounds-union-kappa-negative", "bounds-beta-nan", "simulate-sigma2-infinity",
            "doa-K-not-below-N", "doa-epsilon-one"])
    def test_incoherence_shape_is_config_error(self, tmp_path, command, payload, message):
        # bad shapes and bad config values alike are rejected up front (exit 2)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out.csv"
        result = run_cli(command, "--config", cfg, "--out", str(out))
        assert result.returncode == 2, result.stderr
        assert message in result.stderr
        assert not out.exists()


ENSEMBLE_SIM = {"mode": "ensemble", "N": 6, "M": 4, "K": 2, "T": 1, "sigma2": 0.5,
                "matrix_draws": 2, "trials_per_matrix": 20}


class TestUnreadKeys:
    @pytest.mark.parametrize("command,payload,message", [
        ("sweep", {"command": "simulate", "base": BINARY_SIM, "grid": {"sigma": [0.1, 0.5, 1.0]}},
         "config.grid: unknown key 'sigma'"),
        ("bounds", {"queries": [{"formula": "gaussian_necessary", "epsilon": 0.1, "delt": 0.05,
                                 "N": 16, "K": 2, "sigma2": 1.0, "kappa": 0.5}]},
         "query gaussian_necessary: unknown key 'delt'"),
        ("doa", {**DOA_ULA, "ula_lambda": {"M": 8, "grid_size": 20, "K": 2, "pair": 10}},
         "config.ula_lambda: unknown key 'pair'"),
        ("simulate", {**BINARY_SIM, "feild": "complex"}, "config: unknown key 'feild'"),
        ("simulate", {**ENSEMBLE_SIM, "matrix": {"kind": "csv", "path": "/nonexistent.csv"}},
         "config: unknown key 'matrix'"),
        ("sweep", {"command": "simulate", "base": {**BINARY_SIM, "master_seed": 5},
                   "grid": {"T": [1, 2]}}, "config.base: unknown key 'master_seed'"),
        ("simulate", {**MULTIPLE_SIM, "bogus": 1}, "config: unknown key 'bogus'"),
        ("simulate", {**MULTIPLE_SIM, "incoherence": {"mode": "exhaustive", "count": 5}},
         "config.incoherence: unknown key 'count'"),
        ("simulate", {**BINARY_SIM, "master_seed": "x"},
         "config: key 'master_seed' has invalid type str"),
        ("simulate", {**BINARY_SIM, "master_seed": -1},
         "config: 'master_seed' must be an unsigned 64-bit integer"),
    ], ids=["sweep-grid-misspelled", "bounds-delta-misspelled", "doa-ula-pairs-misspelled",
            "simulate-field-misspelled", "ensemble-matrix-block", "sweep-base-master-seed",
            "multiple-bogus", "exhaustive-count", "overridden-master-seed-string",
            "overridden-master-seed-negative"])
    def test_key_no_plan_reads_is_config_error(self, tmp_path, command, payload, message):
        # each of these ran to exit 0 while ignoring the key; --seed overrides
        # any master_seed, which is still read and checked
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out.csv"
        result = run_cli(command, "--config", cfg, "--seed", "1", "--out", str(out))
        assert result.returncode == 2, result.stderr
        assert message in result.stderr
        assert not out.exists()

    def test_every_object_of_every_golden_config_rejects_an_unread_key(self, tmp_path, capsys):
        # one unknown key added at the top level and inside each nested object
        # (matrix, incoherence, grid, ula_lambda, a bounds query, a sweep base)
        def objects(value, path):
            """(object, its path in messages) for `value` and every object in it."""
            if isinstance(value, dict):
                yield value, path
                for key, item in value.items():
                    yield from objects(item, f"{path}.{key}")
            elif isinstance(value, list):
                for item in value:
                    yield from objects(item, f"query {item['formula']}"
                                       if isinstance(item, dict) else path)

        paths = set()
        for name, (command, config, seed, _) in sorted(GOLDEN_CASES.items()):
            for n, (_, path) in enumerate(objects(config, "config")):
                bad = json.loads(json.dumps(config))
                target, _ = list(objects(bad, "config"))[n]
                target["zz_unread"] = [1]
                out = tmp_path / f"{name}-{n}.out"
                argv = [command, "--config", write_config(tmp_path, bad), "--seed", str(seed),
                        "--out", str(out)]
                assert cli.main(argv) == 2, (name, path)
                assert f"{path}: unknown key 'zz_unread'" in capsys.readouterr().err, (name, path)
                assert not out.exists()
                paths.add(path)
        assert {"config", "config.matrix", "config.incoherence", "config.grid", "config.ula_lambda",
                "config.base", "config.base.ula_lambda", "query gaussian_necessary"} <= paths


class TestCsvCells:
    def test_plain_cells_format_as_csv_cell(self):
        # the fast path of `_write_output` writes what `_csv_cell` would
        values = (0, -3, 2**70, 0.1, -0.0, 1e-300, 1e22, 2.5e-8, math.inf, -math.inf, math.nan)
        for value in values:
            assert cli._PLAIN_CELLS[type(value)](value) == cli._csv_cell(value)
        assert bool not in cli._PLAIN_CELLS and np.float64 not in cli._PLAIN_CELLS


class TestJsonOutput:
    def test_non_finite_values_are_written_as_csv_text(self, tmp_path):
        # strict JSON (RFC 8259) has no NaN or Infinity tokens; an unmatched
        # eig-check slack is NaN, and numpy scalars may sit at any depth
        out = tmp_path / "out.json"
        rows = [{"a": math.nan, "b": -math.inf,
                 "c": {"d": [np.float64(math.inf), np.float32(0.5), np.int64(3)]}}]
        cli._write_output(out, "json", ("a", "b", "c"), rows, [], "eig-check", 0)
        got = json.loads(out.read_text(), parse_constant=reject_constant)["records"]
        assert got == [{"a": "nan", "b": "-inf", "c": {"d": ["inf", 0.5, 3]}}]
        # so do the JSON texts in a cell: a threshold's forms overflow here
        query = {"formula": "snet", "epsilon": 0.1, "N": 16, "K": 4, "sigma2": 1e308,
                 "kappa": 0.5, "normalization": "unit_rows"}
        plan = cli._validate_bounds(cli._Block({"queries": [query]}, "config"))
        _, rows, _ = cli.run_bounds(plan, 0)
        forms = json.loads(rows[0]["notes"], parse_constant=reject_constant)
        assert forms == dict.fromkeys(("exact_binomial", "log2_corrected", "relaxed"), "inf")
        assert [cli._csv_cell(v) for v in (math.nan, -math.inf, math.inf)] == ["nan", "-inf", "inf"]


class TestBoundsCommand:
    def test_geometric_query_value(self, tmp_path):
        cfg = write_config(tmp_path, {"queries": [
            {"formula": "multiple_geometric", "lambda_bar": 10, "N": 3, "K": 1, "T": 2, "kappa": 1}]})
        result = run_cli("bounds", "--config", cfg, "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["records"][0]["clamped"] == pytest.approx(0.23529, abs=1e-5)

    def test_every_formula_evaluates(self, tmp_path):
        cfg = write_config(tmp_path, {"queries": ALL_BOUND_QUERIES})
        result = run_cli("bounds", "--config", cfg, "--format", "json")
        assert result.returncode == 0, result.stderr
        records = json.loads(result.stdout)["records"]
        assert [r["formula_id"] for r in records] == [q["formula"] for q in ALL_BOUND_QUERIES]

    def test_inapplicable_is_data_not_error(self, tmp_path):
        cfg = write_config(tmp_path, {"queries": [
            {"formula": "multiple_geometric", "lambda_bar": 4.0, "N": 3, "K": 1, "T": 2, "kappa": 1}]})
        result = run_cli("bounds", "--config", cfg, "--format", "json")
        assert result.returncode == 0
        assert json.loads(result.stdout)["records"][0]["applicable"] is False


class TestSimulateCommand:
    def test_schema_and_trend_over_T(self, tmp_path):
        cfg = write_config(tmp_path, {**BINARY_SIM, "T": [1, 2, 4, 8]})
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--config", cfg, "--seed", "3", "--out", str(out)).returncode == 0
        rows = read_rows(out)
        assert len(rows) == 4
        header = out.read_text().splitlines()[0]
        assert header == ("mode,N,M,K,T,sigma2,seed,trials,p_hat,ci_low,ci_high,"
                          "chernoff_clamped,fano_clamped,lambda_bar")
        p_hats = [float(r["p_hat"]) for r in rows]
        assert all(a >= b for a, b in zip(p_hats, p_hats[1:]))
        assert all(r["seed"] == "3" for r in rows)

    def test_noise_sweep_trend(self, tmp_path):
        cfg = write_config(tmp_path, {**BINARY_SIM, "T": 2, "sigma2": [0.01, 0.1, 1.0],
                                      "trials": 400})
        out = tmp_path / "sim.csv"
        run_cli("simulate", "--config", cfg, "--seed", "4", "--out", str(out))
        p_hats = [float(r["p_hat"]) for r in read_rows(out)]
        assert all(a <= b for a, b in zip(p_hats, p_hats[1:]))

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BINARY_SIM)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--config", cfg, "--seed", "5", "--out", str(a))
        run_cli("simulate", "--config", cfg, "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_threads_never_change_output(self, tmp_path):
        cfg = write_config(tmp_path, BINARY_SIM)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--config", cfg, "--seed", "5", "--threads", "1", "--out", str(a))
        run_cli("simulate", "--config", cfg, "--seed", "5", "--threads", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_multiple_mode_row(self, tmp_path):
        cfg = write_config(tmp_path, {"mode": "multiple", "N": 6, "M": 6, "K": 2,
                                      "T": 2, "sigma2": 0.5, "trials": 200})
        out = tmp_path / "m.csv"
        assert run_cli("simulate", "--config", cfg, "--seed", "6", "--out", str(out)).returncode == 0
        rows = read_rows(out)
        assert rows[0]["mode"] == "multiple"
        assert float(rows[0]["lambda_bar"]) > 1.0

    def test_multiple_mode_takes_kappa_from_the_matrix(self, tmp_path):
        # a ULA matrix is complex whatever the config's `field` says, and so is
        # the kappa of its Chernoff bound
        outs = []
        for field in ("real", "complex"):
            cfg = write_config(tmp_path, {"mode": "multiple", "M": 16, "N": 6, "K": 1, "T": 4,
                                          "sigma2": 0.05, "trials": 200, "field": field,
                                          "matrix": {"kind": "ula"}}, name=f"{field}.json")
            out = tmp_path / f"{field}.csv"
            result = run_cli("simulate", "--config", cfg, "--seed", "1", "--out", str(out))
            assert result.returncode == 0, result.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert float(read_rows(tmp_path / "real.csv")[0]["chernoff_clamped"]) < 1e-6

    def test_binary_at_small_noise_brackets(self, tmp_path):
        # the dense M x M pencil used to fail here with a non-positive eigenvalue
        cfg = write_config(tmp_path, {"mode": "binary", "M": 6, "N": 8, "K": 2, "S0": [0, 1],
                                      "S1": [2, 5], "T": [2], "sigma2": [1e-8], "trials": 200})
        out = tmp_path / "small.csv"
        result = run_cli("simulate", "--config", cfg, "--seed", "1", "--out", str(out))
        assert result.returncode == 0, result.stderr
        [row] = read_rows(out)
        assert float(row["fano_clamped"]) <= float(row["ci_high"])
        assert float(row["ci_low"]) <= float(row["chernoff_clamped"])

    def test_ensemble_mode_rows(self, tmp_path):
        cfg = write_config(tmp_path, {"mode": "ensemble", "N": 6, "M": 4, "K": 1, "T": 1,
                                      "sigma2": 1.0, "trials": 1, "matrix_draws": 3,
                                      "trials_per_matrix": 50})
        out = tmp_path / "e.csv"
        assert run_cli("simulate", "--config", cfg, "--seed", "7", "--out", str(out)).returncode == 0
        rows = read_rows(out)
        assert [r["mode"] for r in rows] == ["ensemble"] + ["ensemble-matrix"] * 3


    def test_ensemble_mode_needs_no_trials(self, tmp_path):
        # ensemble mode counts its trials with matrix_draws and trials_per_matrix
        config = {"mode": "ensemble", "N": 6, "M": 4, "K": 2, "T": [1, 2], "sigma2": 0.5,
                  "matrix_draws": 2, "trials_per_matrix": 30}
        outs = []
        for name, payload in (("without", config), ("with", {**config, "trials": 1})):
            out = tmp_path / f"{name}.csv"
            result = run_cli("simulate", "--config", write_config(tmp_path, payload, f"{name}.json"),
                             "--seed", "3", "--out", str(out))
            assert result.returncode == 0, result.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("payload", [
        {"mode": "binary", "N": 8, "M": 6, "K": 2, "T": [1, 3], "trials": 300,
         "S0": [0, 1], "S1": [1, 5], "field": "complex"},
        {"mode": "multiple", "N": 6, "M": 4, "K": 2, "T": [1, 2], "trials": 300,
         "incoherence": {"mode": "sampled", "count": 5}},
        {"mode": "ensemble", "N": 6, "M": 4, "K": 2, "T": [1, 2], "matrix_draws": 2,
         "trials_per_matrix": 300},
    ], ids=["binary", "multiple", "ensemble"])
    def test_sigma2_grid_writes_the_one_level_runs_interleaved(self, tmp_path, payload):
        # the points of a (T, sigma2) grid share one estimator call, yet the grid
        # writes exactly the rows of one run per point, in product(Ts, sigma2s) order
        def run(Ts, sigma2s, name):
            out = tmp_path / f"{name}.csv"
            cfg = write_config(tmp_path, {**payload, "T": Ts, "sigma2": sigma2s}, f"{name}.json")
            assert cli.main(["simulate", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
            header, *lines = out.read_text().splitlines()
            points = []         # a point's row, then its per-matrix rows in ensemble mode
            for line in lines:
                if line.startswith("ensemble-matrix,"):
                    points[-1].append(line)
                elif not line.startswith("#"):
                    points.append([line])
            return header, points, [line for line in lines if line.startswith("#")]

        levels = (0.5, 1e-8)
        header, points, comments = run(payload["T"], list(levels), "grid")
        singles = [run([T], [sigma2], f"point-{T}-{i}")
                   for T, (i, sigma2) in product(payload["T"], enumerate(levels))]
        assert all((h, c) == (header, comments) for h, _, c in singles)
        assert points == [point for _, [point], _ in singles]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sampled_chernoff_is_flagged_uncertified(self, tmp_path, fmt):
        # a lambda_bar over sampled pairs only upper-estimates the minimum, so
        # its Chernoff value is no bound; the exhaustive minimum is
        note = "chernoff_clamped not certified:"
        for inc, flagged in (({"mode": "sampled", "count": 20}, True),
                             ({"mode": "exhaustive"}, False)):
            cfg = write_config(tmp_path, {**MULTIPLE_SIM, "incoherence": inc})
            result = run_cli("simulate", "--config", cfg, "--seed", "2", "--format", fmt)
            assert result.returncode == 0, result.stderr
            if fmt == "csv":
                comments = [l[2:] for l in result.stdout.splitlines() if l.startswith("# ")]
                assert float(read_rows_text(result.stdout)[0]["chernoff_clamped"]) <= 1.0
            else:
                comments = json.loads(result.stdout)["comments"]
            assert [c for c in comments if c.startswith(note)] == (
                [f"{note} lambda_bar is a minimum over sampled support pairs (mode=sampled(20)),"
                 " so it only upper-estimates the true minimum and chernoff_clamped is not a"
                 " certified bound"] if flagged else [])


class TestEigCheckCommand:
    def test_zero_violations_and_slack_column(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": {"M": [6, 8], "K": [1, 2]},
                                      "draws_per_cell": 10})
        out = tmp_path / "eig.csv"
        assert run_cli("eig-check", "--config", cfg, "--seed", "8", "--out", str(out)).returncode == 0
        text = out.read_text()
        assert text.rstrip().endswith("# violations=0")
        rows = read_rows(out)
        assert len(rows) == 10 * (1 + 2) * 2
        assert all(float(r["min_slack_lower"]) >= -1e-9 for r in rows)
        assert all(float(r["min_slack_upper"]) >= -1e-9 for r in rows)

    def test_deterministic_under_seed(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": {"M": 6, "K": 2}, "draws_per_cell": 5})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("eig-check", "--config", cfg, "--seed", "9", "--out", str(a)).returncode == 0
        assert run_cli("eig-check", "--config", cfg, "--seed", "9", "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_never_change_output(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": {"M": [6, 9], "K": [1, 3]}, "draws_per_cell": 7,
                                      "field": "complex"})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out, threads in ((a, "1"), (b, "2")):
            result = run_cli("eig-check", "--config", cfg, "--seed", "4", "--threads", threads,
                             "--out", str(out))
            assert result.returncode == 0, result.stderr
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_rows_match_per_draw_oracle(self, tmp_path, field):
        # one dense oracle call per draw, from the same per-draw substreams
        payload = {"grid": {"M": [6, 9], "K": [1, 3]}, "draws_per_cell": 7, "sigma2": 0.8,
                   "field": field}
        out = tmp_path / "eig.csv"
        result = run_cli("eig-check", "--config", write_config(tmp_path, payload), "--seed", "3",
                         "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert out.read_text().rstrip().endswith("# violations=0")
        rows = read_rows(out)
        want = eig_check_oracle_rows(payload, seed=3)
        assert len(rows) == len(want) == 7 * 2 * (1 + 3)
        for row, (counts, slacks) in zip(rows, want):
            assert tuple(int(row[k]) for k in ("count_gt", "count_eq", "count_lt")) == counts
            for key, slack in zip(("min_slack_lower", "min_slack_upper"), slacks):
                assert abs(float(row[key]) - slack) <= 1e-10 * max(1.0, abs(slack))

    def test_chunks_never_change_rows(self, monkeypatch):
        # M = 8: the default budget takes all 10 draws of a cell in one stack,
        # 3 * 64 elements takes them 4, 4 and 2 at a time at K = 2 (N = 6) and
        # 3, 3, 3 and 1 at K = 3 (N = 8)
        config = {"grid": {"M": 8, "K": [2, 3]}, "draws_per_cell": 10, "field": "complex"}
        whole = cli.run_eig_check(cli._validate_eigcheck(cli._Block(config, "config")), 5)
        assert cli.EIG_CHUNK_ELEMENTS // 64 >= 10
        monkeypatch.setattr(cli, "EIG_CHUNK_ELEMENTS", 3 * 64)
        assert cli.run_eig_check(cli._validate_eigcheck(cli._Block(config, "config")), 5) == whole
        assert whole[2] == ["# violations=0"] and len(whole[1]) == 10 * (2 + 3)
        # M = 60, K = 4 (N = 10), 30 draws: 2**16 elements take a cell in one
        # stack, 2**14 take it 27 and 3 at a time
        config = {"grid": {"M": 60, "K": 4}, "draws_per_cell": 30}
        runs = []
        for budget in (2**16, 2**14):
            monkeypatch.setattr(cli, "EIG_CHUNK_ELEMENTS", budget)
            runs.append(cli.run_eig_check(cli._validate_eigcheck(cli._Block(config, "config")), 6))
        assert runs[0] == runs[1]
        assert runs[0][2] == ["# violations=0"] and len(runs[0][1]) == 30 * 4

    def test_one_qr_per_chunk(self, monkeypatch):
        # each order of the pair takes one union QR and one reduced pencil,
        # and the sandwich bounds share the (S0, S1) one: 2 cells at K = 2
        # of 10 draws taken 4, 4 and 2 at a time and 3 cells at K = 3 taken
        # 3, 3, 3 and 1 at a time make 18 chunks
        calls, pencils = [], []
        qr, pencil = np.linalg.qr, spectra._pencil
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
        monkeypatch.setattr(spectra, "_pencil", lambda *a: pencils.append(1) or pencil(*a))
        monkeypatch.setattr(cli, "EIG_CHUNK_ELEMENTS", 3 * 64)
        config = {"grid": {"M": 8, "K": [2, 3]}, "draws_per_cell": 10}
        plan = cli._validate_eigcheck(cli._Block(config, "config"))
        _, rows, comments = cli.run_eig_check(plan, 5)
        assert comments == ["# violations=0"] and len(rows) == 50
        assert len(calls) == len(pencils) == 2 * (2 * 3 + 3 * 4)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_small_noise_has_no_violations(self, tmp_path, field):
        # at sigma2 = 1e-8 H's smallest eigenvalues, ~1e-9, lie below the
        # rounding of its largest, ~1e9; they are read from the (S1, S0) pencil
        cfg = write_config(tmp_path, {"grid": {"M": 8, "K": 3}, "draws_per_cell": 4,
                                      "sigma2": 1e-8, "field": field})
        result = run_cli("eig-check", "--config", cfg, "--seed", "1")
        assert result.returncode == 0, result.stderr
        assert result.stdout.rstrip().endswith("# violations=0")

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("grid,draws,sigma2", [
        ({"M": 6, "K": 2}, 2, 1e-16),
        ({"M": [6, 12], "K": [2, 3]}, 20, 1e-16),
        ({"M": [6, 12], "K": [2, 3]}, 20, 1e-18),
        ({"M": [6, 12], "K": [2, 3]}, 20, 1e-20),
    ], ids=["small-1e-16", "grid-1e-16", "grid-1e-18", "grid-1e-20"])
    def test_tiny_noise_has_no_violations(self, field, grid, draws, sigma2):
        # below sigma2 ~ 1e-16 an eigenvalue below 1 rounds to ~eps lambda_max,
        # above 1, in the (S0, S1) pencil; it is read from the (S1, S0) one
        config = {"grid": grid, "draws_per_cell": draws, "sigma2": sigma2, "field": field}
        plan = cli._validate_eigcheck(cli._Block(config, "config"))
        _, rows, comments = cli.run_eig_check(plan, 1)
        assert comments == ["# violations=0"]
        assert all(r["count_gt"] == r["count_lt"] == r["k0"] for r in rows)

    def test_slack_within_rounding_of_its_eigenvalue_is_no_violation(self):
        # at sigma2 = 1e-14 the top eigenvalues are ~1e14, whose rounding is
        # ~0.02, and one draw's lower slack reads -0.5
        config = {"grid": {"M": 6, "K": 2}, "draws_per_cell": 2, "sigma2": 1e-14}
        plan = cli._validate_eigcheck(cli._Block(config, "config"))
        _, rows, comments = cli.run_eig_check(plan, 1)
        assert comments == ["# violations=0"]
        assert min(r["min_slack_lower"] for r in rows) < -1e-9

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("sigma2", [1.0, 1e-8])
    def test_slack_beyond_rounding_is_a_violation(self, monkeypatch, side, sigma2):
        # one bound of draw 0 moved 1e-6 relative past its eigenvalue
        h_spectra = cli.h_spectra

        def pushed(A, S0, S1, sigma2):
            eigs, lower, upper = h_spectra(A, S0, S1, sigma2)
            bound = lower if side == "lower" else upper
            bound[0, 0] = eigs[0, 0] * (1 + 1e-6 if side == "lower" else 1 - 1e-6)
            return eigs, lower, upper

        monkeypatch.setattr(cli, "h_spectra", pushed)
        S0, S1 = random_pair(6, 2, 0)
        A = np.stack([sample_gaussian_matrix(8, 6, FieldTag.REAL, substream(4, "push", d)).entries
                      for d in range(3)])
        *_, ok = cli._eig_check_scores(A, S0, S1, sigma2, 1e-8, 2, 2)
        assert ok.tolist() == [False, True, True]

    def test_swapping_the_pair_swaps_the_counts(self):
        S0, S1 = random_pair(8, 3, 1)
        A = np.stack([sample_gaussian_matrix(8, 8, FieldTag.COMPLEX, substream(2, "swap", d)).entries
                      for d in range(6)])
        forward = cli._eig_check_scores(A, S0, S1, 1e-8, 1e-8, 2, 2)
        backward = cli._eig_check_scores(A, S1, S0, 1e-8, 1e-8, 2, 2)
        np.testing.assert_array_equal(forward[0], backward[2])
        np.testing.assert_array_equal(forward[1], backward[1])
        np.testing.assert_array_equal(forward[2], backward[0])
        assert forward[5].all() and backward[5].all()


def eig_check_oracle_rows(config, seed):
    """Per-draw (counts, slacks) of an eig-check config from the conftest
    oracles, in the CLI's row order."""
    field = FieldTag(config.get("field", "real"))
    sigma2, tol = config.get("sigma2", 1.0), config.get("tolerance", 1e-8)
    out = []
    for M in config["grid"]["M"]:
        for K in config["grid"]["K"]:
            N = 2 * K + 2
            for overlap in range(K):
                S0, S1 = random_pair(N, K, overlap)
                for d in range(config["draws_per_cell"]):
                    rng = substream(seed, f"eig-check-{M}-{K}-{overlap}", d)
                    A = sample_gaussian_matrix(M, N, field, rng)
                    eigs = dense_h_eigenvalues(A, S0, S1, sigma2)
                    split = spectrum_split(eigs, tolerance=tol * max(1.0, float(eigs[0])))
                    gt = np.asarray(split.eigenvalues[:split.count_gt])
                    lower, upper = dense_sandwich(A, S0, S1, sigma2)
                    out.append(((split.count_gt, split.count_eq, split.count_lt),
                                (float(np.min(gt - lower)), float(np.min(upper - gt)))))
    return out


class TestDoaCommand:
    def test_threshold_row_and_grid_cardinality(self, tmp_path):
        cfg = write_config(tmp_path, {"epsilon": [0.1, 0.2], "N": [360, 720], "K": 2,
                                      "sigma2": 1.0})
        out = tmp_path / "doa.csv"
        assert run_cli("doa", "--config", cfg, "--seed", "1", "--out", str(out)).returncode == 0
        rows = read_rows(out)
        assert len(rows) == 4
        first = next(r for r in rows if r["N"] == "360" and r["epsilon"] == "0.1")
        assert float(first["relaxed"]) == pytest.approx(9.345, abs=5e-3)

    def test_log_growth_ratio(self, tmp_path):
        cfg = write_config(tmp_path, {"epsilon": 0.1, "N": [100, 200, 400], "K": 1,
                                      "sigma2": 1.0})
        out = tmp_path / "doa.csv"
        run_cli("doa", "--config", cfg, "--seed", "1", "--out", str(out))
        relaxed = [float(r["relaxed"]) for r in read_rows(out)]
        gaps = [b - a for a, b in zip(relaxed, relaxed[1:])]
        assert gaps[0] == pytest.approx(gaps[1], rel=1e-9)  # log-spaced increments

    def test_sampled_ula_incoherence_on_a_360_grid(self, tmp_path):
        # 50 of the C(360,3) * (C(360,3) - 1) ordered pairs, no support enumeration
        cfg = write_config(tmp_path, {**DOA_ULA, "ula_lambda": {"M": 16, "grid_size": 360,
                                                                "K": 3, "pairs": 50}})
        outs = [tmp_path / f"doa{n}.csv" for n in range(3)]
        for out, threads in zip(outs, ("1", "1", "2")):
            result = run_cli("doa", "--config", cfg, "--seed", "1", "--threads", threads,
                             "--out", str(out))
            assert result.returncode == 0, result.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        assert "mode=sampled(50) M=16 grid=360 K=3" in outs[0].read_text()

    def test_pair_index_overflow_is_cap(self, tmp_path):
        cfg = write_config(tmp_path, {**DOA_ULA, "ula_lambda": {"M": 16, "grid_size": 360,
                                                                "K": 6, "pairs": 50}})
        out = tmp_path / "doa.csv"
        result = run_cli("doa", "--config", cfg, "--seed", "1", "--out", str(out))
        assert result.returncode == 3
        assert "64-bit" in result.stderr
        assert not out.exists()


class TestSweepCommand:
    def test_grid_expansion_over_T(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "simulate",
                                      "base": {**BINARY_SIM, "T": 1},
                                      "grid": {"T": [1, 2, 4]}})
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", cfg, "--seed", "2", "--out", str(out)).returncode == 0
        rows = read_rows(out)
        assert [r["T"] for r in rows] == ["1", "2", "4"]

    def test_repeated_comment_is_written_once(self, tmp_path):
        # every sampled point writes the same note; the sweep keeps one copy,
        # and distinct notes (here the doa lambda_bar per sigma2) each once in
        # grid order
        cfg = write_config(tmp_path, {"command": "simulate",
                                      "base": {**MULTIPLE_SIM, "trials": 20,
                                               "incoherence": {"mode": "sampled", "count": 10}},
                                      "grid": {"T": [1, 2, 4]}})
        result = run_cli("sweep", "--config", cfg, "--seed", "2")
        assert result.returncode == 0, result.stderr
        comments = [l for l in result.stdout.splitlines() if l.startswith("#")]
        assert len(read_rows_text(result.stdout)) == 3
        assert len(comments) == 1 and comments[0].startswith("# chernoff_clamped not certified:")

        cfg = write_config(tmp_path, {"command": "doa", "base": DOA_ULA,
                                      "grid": {"epsilon": [0.1, 0.2],
                                               "ula_lambda": [DOA_ULA["ula_lambda"],
                                                              {**DOA_ULA["ula_lambda"],
                                                               "sigma2": 0.5}]}})
        result = run_cli("sweep", "--config", cfg, "--seed", "2")
        assert result.returncode == 0, result.stderr
        comments = [l for l in result.stdout.splitlines() if l.startswith("#")]
        assert len(comments) == 2
        assert "sigma2=1.0" in comments[0] and "sigma2=0.5" in comments[1]

    def test_sweep_validates_every_point_first(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "simulate",
                                      "base": {**BINARY_SIM, "T": 1},
                                      "grid": {"K": [2, 30]}})
        result = run_cli("sweep", "--config", cfg)
        assert result.returncode == 2

    def test_each_point_validated_once_and_none_run_after_a_bad_one(self, tmp_path, monkeypatch):
        help_text, validate, run = cli.COMMANDS["simulate"]
        validated, ran = [], []

        def counting_validate(config):
            validated.append(config.data["T"])
            return validate(config)

        def counting_run(plan, seed):
            ran.append(plan["Ts"])
            return run(plan, seed)

        monkeypatch.setitem(cli.COMMANDS, "simulate", (help_text, counting_validate, counting_run))
        base = {**BINARY_SIM, "trials": 20}
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, {"command": "simulate", "base": base,
                                      "grid": {"T": [1, 2, 4, 8]}})
        assert cli.main(["sweep", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
        assert validated == [1, 2, 4, 8]
        assert ran == [[1], [2], [4], [8]]
        assert [r["T"] for r in read_rows(out)] == ["1", "2", "4", "8"]

        validated.clear()
        ran.clear()
        out.unlink()
        cfg = write_config(tmp_path, {"command": "simulate", "base": base,
                                      "grid": {"T": [1, 2, 4, 0]}})
        assert cli.main(["sweep", "--config", cfg, "--seed", "2", "--out", str(out)]) == 2
        assert validated == [1, 2, 4, 0]
        assert ran == []
        assert not out.exists()

    @pytest.mark.parametrize("shape,message", [(None, "cannot load CSV matrix"),
                                               ((8, 9), "CSV matrix shape (8, 9) != (8, 10)")],
                             ids=["missing", "wrong-shape"])
    def test_bad_csv_point_stops_the_sweep_before_any_point_runs(self, tmp_path, monkeypatch,
                                                                 capsys, shape, message):
        # the plan reads and shape-checks a CSV matrix, so the later point's
        # file fails the sweep before the first point's Monte Carlo runs
        help_text, validate, run = cli.COMMANDS["simulate"]
        ran = []

        def counting_run(plan, seed):
            ran.append(plan)
            return run(plan, seed)

        monkeypatch.setitem(cli.COMMANDS, "simulate", (help_text, validate, counting_run))
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        suprec.save_matrix_csv(good, sample_gaussian_matrix(8, 10, FieldTag.REAL, substream(1, "g")))
        if shape is not None:
            suprec.save_matrix_csv(bad, sample_gaussian_matrix(*shape, FieldTag.REAL,
                                                               substream(1, "b")))
        matrices = [{"kind": "csv", "path": str(path)} for path in (good, bad)]
        cfg = write_config(tmp_path, {"command": "simulate", "base": {**BINARY_SIM, "trials": 20},
                                      "grid": {"matrix": matrices}})
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--seed", "2", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert ran == []
        assert not out.exists()


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_in_process_calls_write_what_separate_processes_write(self, tmp_path):
        calls = [("simulate", write_config(tmp_path, BINARY_SIM, "sim.json")),
                 ("bounds", write_config(tmp_path, {"queries": ALL_BOUND_QUERIES}, "bounds.json")),
                 ("simulate", write_config(tmp_path, MULTIPLE_SIM, "multiple.json"))]
        for n, (command, cfg) in enumerate(calls):
            out = tmp_path / f"in-process-{n}.csv"
            assert cli.main([command, "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
            result = run_cli(command, "--config", cfg, "--seed", "5")
            assert result.returncode == 0, result.stderr
            assert out.read_bytes() == result.stdout.encode()


class TestSeedResolution:
    def test_env_var_seed(self, tmp_path):
        cfg = write_config(tmp_path, BINARY_SIM)
        result = subprocess.run(RUN + ["simulate", "--config", cfg],
                                capture_output=True, text=True,
                                env={**os.environ, "SUPREC_SEED": "123"})
        assert result.returncode == 0, result.stderr
        assert ",123," in result.stdout.splitlines()[1]

    def test_flag_overrides_env(self, tmp_path):
        cfg = write_config(tmp_path, BINARY_SIM)
        result = subprocess.run(RUN + ["simulate", "--config", cfg, "--seed", "77"],
                                capture_output=True, text=True,
                                env={**os.environ, "SUPREC_SEED": "123"})
        assert result.returncode == 0, result.stderr
        assert ",77," in result.stdout.splitlines()[1]


def run_child(code, *args, env=None):
    """Run `code` in a fresh interpreter that imports suprec from this tree,
    in `env` (default: this process's environment); return its last stdout
    line after checking its exit code."""
    env = os.environ if env is None else env
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code, *args],
                            capture_output=True, text=True, env={**env, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


# Blocks scipy, so that any import of it raises ImportError, then runs
# `suprec.cli.main` on the argv given as JSON (none: import only), prints the
# scipy modules loaded and exits with main's exit code.
SCIPY_BLOCK = 'import sys\nsys.modules["scipy"] = None\n'
SCIPY_PROBE = SCIPY_BLOCK + """
import json
import suprec.cli
argv = json.loads(sys.argv[1])
code = suprec.cli.main(argv) if argv else 0
print(json.dumps(sorted(m for m, mod in sys.modules.items()
                        if m.split(".")[0] == "scipy" and mod is not None)))
sys.exit(code)
"""

# Library calls outside the CLI, from fixed inputs, as statements that set
# `result`: the dense and stacked covariance paths, the decoders, the pencil
# kernel, the union-QR paths (stacked incoherence draws, sandwich bounds,
# noise constants) and the interval.
LIBRARY_CALLS = """
rng = np.random.default_rng(5)
A = suprec.sample_gaussian_matrix(6, 8, suprec.FieldTag.COMPLEX, rng)
S0, S1 = suprec.make_support([0, 1], 8), suprec.make_support([2, 5], 8)
Y = A.entries[:, [2, 5]] @ rng.standard_normal((2, 3)) + rng.standard_normal((6, 3))
result = [suprec.log_likelihood(Y, suprec.covariance(A, S0, 0.5), 1.0),
          suprec.binary_lrt(Y, A, S0, S1, 0.5).statistic,
          suprec.ml_decode(Y, A, suprec.enumerate_supports(8, 2), 0.5).chosen.indices,
          suprec.h_eigenvalues(A, S0, S1, 0.5).tolist(),
          suprec.pair_incoherence(A, S0, S1, 0.5).value,
          suprec.estimate_expected_incoherence(8, 2, 1, 0.5, 40, seed=3).mean,
          [b.tolist() for b in suprec.h_spectra(A.entries[None], S0, S1, 0.5)[1:]],
          suprec.noise_constants(A, 2),
          suprec.clopper_pearson(3, 40)]
"""


class TestColdStart:
    def scipy_loaded(self, tmp_path, command=None, payload=None):
        argv = []
        if command is not None:
            argv = [command, "--config", write_config(tmp_path, payload),
                    "--out", str(tmp_path / "out.csv")]
        return json.loads(run_child(SCIPY_PROBE, json.dumps(argv)))

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats alone costs most of a cold start; nothing in suprec needs it
        assert run_child("import suprec.cli, sys; print('scipy.stats' in sys.modules)") == "False"

    def test_cli_import_leaves_numpy_random_unloaded(self):
        # `model.draw_matrices` builds its seed-word class on first use, so
        # no CLI process pays for numpy.random before it draws
        assert run_child("import suprec.cli, sys; print('numpy.random' in sys.modules)") == "False"

    def test_cli_import_leaves_fractions_and_decimal_unloaded(self):
        code = "import suprec.cli, sys; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        assert run_child(code) == "[]"

    def test_cli_import_loads_no_scipy(self, tmp_path):
        assert self.scipy_loaded(tmp_path) == []

    @pytest.mark.parametrize("command,payload", [
        ("eig-check", {"grid": {"M": [30, 60], "K": [2, 4]}, "draws_per_cell": 80, "sigma2": 1.0}),
        ("doa", {"epsilon": [0.01, 0.05, 0.1], "N": [90, 180, 360], "K": [1, 2, 3],
                 "sigma2": [0.1, 1.0],
                 "ula_lambda": {"M": 16, "grid_size": 360, "K": 2, "pairs": 2000, "sigma2": 1.0}}),
        ("bounds", {"queries": [q for q in ALL_BOUND_QUERIES if q["formula"] != "multiple_union"]}),
        ("bounds", {"queries": [q for q in ALL_BOUND_QUERIES if q["formula"] == "multiple_union"]}),
    ], ids=["eig-sweep", "doa-ula", "bounds-without-union", "bounds-with-union"])
    def test_run_loads_no_scipy(self, tmp_path, command, payload):
        assert self.scipy_loaded(tmp_path, command, payload) == []

    @pytest.mark.parametrize("payload", [
        BINARY_SIM, MULTIPLE_SIM,
        {"mode": "ensemble", "N": 6, "M": 4, "K": 2, "T": 1, "sigma2": 0.5, "trials": 40,
         "matrix_draws": 3, "trials_per_matrix": 40},
    ], ids=["binary", "multiple", "ensemble"])
    def test_simulate_loads_no_scipy(self, tmp_path, payload):
        assert self.scipy_loaded(tmp_path, "simulate", payload) == []

    def test_library_calls_need_no_scipy(self):
        # the same calls with scipy blocked in a fresh interpreter and here
        cold = run_child(f"{SCIPY_BLOCK}import json, suprec, numpy as np\n{LIBRARY_CALLS}"
                         "print(json.dumps(result))")
        warm = {"suprec": suprec, "np": np}
        exec(LIBRARY_CALLS, warm)
        assert json.loads(cold) == json.loads(json.dumps(warm["result"]))

    # the thread tests run without the runner's own BLAS thread settings
    needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                    reason="counts threads in /proc")
    THREADS = "import json, os\nprint(json.dumps([len(os.listdir('/proc/self/task')), " \
              "os.environ.get('OPENBLAS_NUM_THREADS')]))"

    @staticmethod
    def threads_after(imports, **env):
        """[thread count, $OPENBLAS_NUM_THREADS] of a fresh process after `imports`."""
        base = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
        return json.loads(run_child(f"{imports}\n{TestColdStart.THREADS}", env={**base, **env}))

    @needs_proc
    def test_cli_process_runs_blas_on_one_thread(self):
        assert self.threads_after("import suprec.cli") == [1, None]

    @needs_proc
    def test_user_set_blas_threads_are_kept(self):
        bare = self.threads_after("import numpy", OPENBLAS_NUM_THREADS="2")
        assert self.threads_after("import suprec.cli", OPENBLAS_NUM_THREADS="2") == bare
        assert bare[1] == "2"

    @needs_proc
    def test_library_import_keeps_the_default_blas_pool(self):
        bare = self.threads_after("import numpy")
        if bare[0] == 1:
            pytest.skip("numpy's default BLAS pool has one thread here")
        assert self.threads_after("import suprec, numpy") == bare


class TestLazyNamespace:
    def test_import_loads_no_numpy(self):
        assert run_child("import suprec, sys; print('numpy' in sys.modules)") == "False"

    def test_names_resolve_to_their_home_objects(self):
        for name, home in suprec._HOME.items():
            assert getattr(suprec, name) is getattr(importlib.import_module(f"suprec.{home}"), name)

    def test_dir_lists_names_and_submodules(self):
        assert set(suprec.__all__) | {"cli", "spectra"} <= set(dir(suprec))

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            suprec.no_such_name
        assert not hasattr(suprec, "numpy")

    def test_submodule_by_attribute(self):
        code = "import suprec; print(suprec.spectra.h_spectra is suprec.h_spectra)"
        assert run_child(code) == "True"
