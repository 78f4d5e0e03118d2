import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qms
from qms.channels import (SuperOperator, depolarizing_channel,
                          depolarizing_generator, from_stochastic,
                          identity_channel)
from qms.cli import main
from qms.linalg import vec
from qms.serialize import channel_to_dict, dumps_json, loads_strict


def _write_maps(root):
    paths = {}
    for name, obj in [("depol05", depolarizing_channel(0.5)),
                      ("depol06", depolarizing_channel(0.6)),
                      ("id2", identity_channel(2)),
                      ("swap2", from_stochastic([[0.0, 1.0], [1.0, 0.0]])),
                      ("gen10", depolarizing_generator(1.0)),
                      ("gen11", depolarizing_generator(1.1))]:
        p = root / f"{name}.json"
        p.write_text(dumps_json(channel_to_dict(obj)))
        paths[name] = str(p)
    return paths


@pytest.fixture
def files(tmp_path):
    paths = _write_maps(tmp_path)
    paths["dir"] = tmp_path
    return paths


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(files, capsys):
    code, out = run(["validate", files["depol05"], "--samples", "50"], capsys)
    assert code == 0
    assert "trace_preserving: True" in out


@pytest.mark.parametrize("doc", [
    # sum A^dag A = (1 + 0.9e-10) I and rows summing to 1 + 0.9e-10: inside
    # each constructor's input check, outside the 1e-10 TP rule
    {"dim": 2, "representation": "kraus",
     "data": [[[[math.sqrt(1 + 0.9e-10), 0.0], [0.0, 0.0]],
               [[0.0, 0.0], [math.sqrt(1 + 0.9e-10), 0.0]]]]},
    {"dim": 3, "representation": "kraus",
     "data": [[[[math.sqrt(1 + 0.6e-10) if i == j else 0.0, 0.0]
                for j in range(3)] for i in range(3)]]},
    {"dim": 2, "representation": "stochastic",
     "data": [[0.5 + 0.9e-10, 0.5], [0.5, 0.5 + 0.9e-10]]},
], ids=["kraus_d2", "kraus_d3", "stochastic"])
def test_validate_edge_files_match_their_superoperator_form(tmp_path, capsys, doc):
    from qms.serialize import channel_from_dict
    native = tmp_path / "native.json"
    native.write_text(dumps_json(doc))
    superop = tmp_path / "superop.json"
    superop.write_text(dumps_json(channel_to_dict(channel_from_dict(doc))))
    code, out = run(["validate", str(native), "--samples", "20"], capsys)
    assert code == 1
    assert "  trace_preserving: False" in out.splitlines()
    code_s, out_s = run(["validate", str(superop), "--samples", "20"], capsys)
    assert code_s == 1
    # the same report, tp_residual line included, past the header line
    assert out.splitlines()[1:] == out_s.splitlines()[1:]


def test_validate_json_format(files, capsys):
    code, out = run(["validate", files["depol05"], "--samples", "50",
                     "--format", "json"], capsys)
    assert code == 0
    doc = loads_strict(out)
    assert doc["validation"]["completely_positive"] is True


def test_analyze_depolarizing(files, capsys):
    code, out = run(["analyze", files["depol05"], "--format", "json"], capsys)
    assert code == 0
    doc = loads_strict(out)
    assert doc["condition_numbers"]["kappa_tau_z"]["value"] == pytest.approx(2.0, abs=1e-9)
    assert doc["condition_numbers"]["spectral_lower"] == pytest.approx(2.0)
    assert doc["spectrum"]["min_dist_to_one"] == pytest.approx(0.5)
    assert doc["violations"] == 0


def test_analyze_json_roundtrip_identity(files, capsys):
    code, out = run(["analyze", files["depol05"], "--format", "json"], capsys)
    assert code == 0
    assert dumps_json(loads_strict(out)) == out


def test_analyze_text_and_json_values_agree(files, capsys):
    _, text = run(["analyze", files["depol05"]], capsys)
    _, js = run(["analyze", files["depol05"], "--format", "json"], capsys)
    doc = loads_strict(js)
    kappa = doc["condition_numbers"]["kappa_tau_z"]["value"]
    line = next(l for l in text.splitlines() if "kappa = tau(Z)" in l)
    printed = float(line.split(":")[1])
    assert printed == pytest.approx(kappa, rel=1e-12)


ANALYZE_TEXT = {
    "id2": """analysis of {path} (dim 2)
  eigenvalues: 1+0j, 1+0j, 1+0j, 1+0j
  min_dist_to_one: inf
  spectral_gap: inf
  subdominant_modulus: 0
  tau(T): 1
  kappa = tau(Z): 1
  (1 - tau(T))^-1: -  [stationary state is not unique]
  spectral lower: 0
  spectral upper: inf
  violations: 0
""",
    "swap2": """analysis of {path} (dim 2)
  eigenvalues: -1+0j, 1+0j, 0+0j, 0+0j
  min_dist_to_one: 1
  spectral_gap: 1.11022302463e-16
  subdominant_modulus: 1
  tau(T): 1
  kappa = tau(Z): 1
  (1 - tau(T))^-1: inf
  spectral lower: 1
  spectral upper: 129.030638092
  violations: 0
""",
}


def test_analyze_infinite_bounds_text_and_json(files, capsys):
    # identity: spectral_upper = inf; swap chain: (1 - tau(T))^-1 = inf
    for name, text in ANALYZE_TEXT.items():
        code, out = run(["analyze", files[name]], capsys)
        assert code == 0
        assert out == text.format(path=files[name])
        code, out = run(["analyze", files[name], "--format", "json"], capsys)
        assert code == 0
        assert out == dumps_json(loads_strict(out))
    assert '"spectral_upper": "inf",' in run(
        ["analyze", files["id2"], "--format", "json"], capsys)[1]
    assert '"kappa_contraction": "inf",' in run(
        ["analyze", files["swap2"], "--format", "json"], capsys)[1]


def test_restarts_zero_is_usage_error(files, capsys):
    code = main(["compare", files["depol05"], files["depol06"], "--restarts", "0"])
    assert code == 2
    assert "argument --restarts: must be >= 1" in capsys.readouterr().err


def test_negative_steps_is_usage_error(files, capsys):
    for args in (["trajectory", files["depol05"], files["depol06"], "--steps", "-1"],
                 ["pairs", files["depol05"], "--steps", "-3"]):
        code, out = run(args, capsys)
        assert code == 2
        assert out == ""


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", [
    ["validate", "{depol05}"], ["analyze", "{depol05}"],
    ["compare", "{depol05}", "{depol06}"],
    ["trajectory", "{depol05}", "{depol06}"], ["pairs", "{depol05}"],
    ["ensemble"]])
def test_tol_outside_its_domain_is_usage_error(files, capsys, command, tol):
    code = main([arg.format(**files) for arg in command] + [f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    # validate and pairs check no slack, so they take no --tol at all
    assert ("unrecognized arguments: --tol" if command[0] in ("validate", "pairs")
            else "argument --tol: must be finite and >= 0") in captured.err


def test_each_command_takes_only_the_options_it_reads():
    from qms.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    common = ["-h", "--help", "--format", "--seed", "--out"]
    estimates = ["--tol", "--restarts"]
    expected = {
        "validate": (["--samples"] + common, ["text", "json"]),
        "analyze": (common + estimates, ["text", "json"]),
        "compare": (["--state"] + common + estimates, ["text", "json"]),
        "trajectory": (["--steps", "--t-max", "--pair", "--state"] + common
                       + estimates, ["text", "json", "csv"]),
        "pairs": (["--steps", "--mu"] + common, ["text", "json"]),
        "ensemble": (["--dim", "--count", "--eps", "--kraus-rank", "--mode",
                      "--steps", "--t-max"] + common + estimates,
                     ["text", "json", "csv"]),
    }
    assert sorted(sub.choices) == sorted(expected)
    for name, parser in sub.choices.items():
        options, formats = expected[name]
        got = [s for a in parser._actions for s in a.option_strings]
        assert sorted(got) == sorted(options), name
        fmt = next(a for a in parser._actions if a.dest == "format")
        assert fmt.choices == formats, name


@pytest.mark.parametrize("command", [
    ["validate", "{depol05}"], ["analyze", "{depol05}"],
    ["compare", "{depol05}", "{depol06}"], ["pairs", "{depol05}"]])
def test_csv_on_document_commands_is_refused_before_loading(files, capsys,
                                                            count_calls, command):
    from qms import serialize
    loads = count_calls(serialize, "load_channel")
    code = main([arg.format(**files) for arg in command] + ["--format", "csv"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "argument --format: invalid choice: 'csv'" in captured.err
    assert loads == []


def test_malformed_state_file_error_names_the_file(files, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text('{"dim": 2, "data": ')
    code = main(["compare", files["depol05"], files["depol06"], "--state",
                 f"file:{state}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {state}: invalid JSON at line 1")


@pytest.mark.parametrize("mu", ["2", "1", "0", "nan", "-0.5"])
def test_pairs_mu_outside_unit_interval_is_usage_error(files, capsys, mu):
    code = main(["pairs", files["depol05"], f"--mu={mu}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "argument --mu: must lie in (0, 1)" in captured.err


@pytest.mark.parametrize("extra, message", [
    (["--steps", "0"], "need at least 2 time samples"),
    (["--steps", "1"], "need at least 2 time samples"),
    (["--t-max", "-1"], "t_max must be finite and nonnegative"),
    (["--t-max", "nan"], "t_max must be finite and nonnegative")])
def test_continuous_ensemble_bad_grid_is_usage_error(capsys, extra, message):
    code = main(["ensemble", "--mode", "continuous", "--count", "3"] + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("dim", [2, 3])
def test_discrete_ensemble_of_kraus_rank_one_is_usage_error(capsys, dim):
    # a Kraus-rank-1 channel is unitary, so no instance has a unique
    # stationary state; a continuous sweep ignores the Kraus rank
    argv = ["ensemble", "--dim", str(dim), "--count", "2", "--steps", "2",
            "--kraus-rank", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error: kraus_rank 1 gives a unitary channel, "
                            "which has no unique stationary state\n")
    assert main(argv + ["--mode", "continuous"]) == 0


def test_compare_depolarizing_pair(files, capsys):
    code, out = run(["compare", files["depol05"], files["depol06"],
                     "--state", "maximally-mixed", "--restarts", "8",
                     "--format", "json"], capsys)
    assert code == 0
    doc = loads_strict(out)
    assert doc["result"]["bound_value"] == pytest.approx(0.2, abs=1e-6)
    assert doc["result"]["identity_residual"] <= 1e-8


def test_compare_of_a_qudit_channel_with_itself(tmp_path, capsys):
    # T1 - T2 = 0: both norms of the difference take the ascent on the
    # d = 3 zero map
    from qms.ensembles import random_channel
    p = tmp_path / "t.json"
    p.write_text(dumps_json(channel_to_dict(random_channel(3, 4, seed=41))))
    code = main(["compare", str(p), str(p)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""


def test_trajectory_csv(files, capsys):
    code, out = run(["trajectory", files["depol05"], files["depol06"],
                     "--steps", "10", "--pair", "auto-chi2", "--state",
                     "maximally-mixed", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("instance,n_or_t,exact,bound,slack")
    assert len(lines) == 12  # header + n = 0..10


def test_trajectory_user_pair_and_eq10(files, capsys):
    code, _ = run(["trajectory", files["depol05"], files["depol06"],
                   "--steps", "5", "--pair", "1.0:0.5", "--format", "csv"], capsys)
    assert code == 0
    code, _ = run(["trajectory", files["depol05"], files["depol06"],
                   "--steps", "5", "--pair", "auto-eq10:0.6", "--format", "csv"],
                  capsys)
    assert code == 0


def test_trajectory_continuous(files, capsys):
    code, out = run(["trajectory", files["gen10"], files["gen11"],
                     "--steps", "20", "--t-max", "5", "--format", "csv"], capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 21


@pytest.mark.parametrize("t, e, horizon", [
    ("gen10", "gen11", ["--steps", "2", "--t-max", "0"]),
    ("depol05", "depol06", ["--steps", "0"])], ids=["continuous", "discrete"])
def test_trajectory_zero_horizon_validates_user_pair(files, capsys, t, e, horizon):
    # K = 0.01 fails validation at t = 0 (n = 0), so it never reaches a bound
    code = main(["trajectory", files[t], files[e], *horizon, "--pair", "0.01:0.5",
                 "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "failed empirical validation" in captured.err


def test_continuous_trajectory_without_unique_stationary_state(files, capsys):
    # refused before the user pair is validated (K = 2 would fail there)
    from qms.channels import from_lindblad
    p = files["dir"] / "rotation.json"
    p.write_text(dumps_json(channel_to_dict(from_lindblad(np.diag([1.0, -1.0]), []))))
    code = main(["trajectory", str(p), files["gen10"], "--steps", "10",
                 "--t-max", "5", "--pair", "2:1.0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error: continuous trajectory bound requires a "
                            "unique stationary state (eigenvalue-1 "
                            "multiplicity 2)\n")


@pytest.mark.parametrize("pair", ["auto-chi2", "auto-db"])
def test_continuous_trajectory_without_samples_is_usage_error(files, capsys, pair):
    # the recipe refuses an empty validation grid before the trajectory runs
    code = main(["trajectory", files["gen10"], files["gen11"], "--steps", "0",
                 "--pair", pair])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: samples must be at least 1, got 0")


def test_trajectory_mixed_inputs_is_usage_error(files, capsys):
    code, _ = run(["trajectory", files["depol05"], files["gen10"]], capsys)
    assert code == 2


def test_pairs_command(files, capsys):
    code, out = run(["pairs", files["depol05"], "--format", "json"], capsys)
    assert code == 0
    doc = loads_strict(out)
    assert doc["pairs"]["chi2"]["K"] == pytest.approx(1.0, abs=1e-9)
    assert doc["pairs"]["detailed_balance"]["K"] == pytest.approx(
        2 * np.sqrt(2), abs=1e-9)
    assert doc["pairs"]["spectral_eq10"]["valid"] is True


def test_pairs_reports_inapplicable_recipes(files, capsys):
    code, out = run(["pairs", files["id2"], "--format", "json"], capsys)
    assert code == 0
    doc = loads_strict(out)
    assert "error" in doc["pairs"]["chi2"]


def test_ensemble_determinism(files, capsys, tmp_path):
    args = ["ensemble", "--dim", "2", "--count", "3", "--eps", "1e-2",
            "--seed", "11", "--steps", "10", "--restarts", "4",
            "--format", "csv"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_determinism_json_commands(files, capsys):
    _, a = run(["analyze", files["depol06"], "--format", "json",
                "--seed", "3"], capsys)
    _, b = run(["analyze", files["depol06"], "--format", "json",
                "--seed", "3"], capsys)
    assert a == b


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "representation": "superoperator", "data": []}')
    code = main(["analyze", str(bad)])
    capsys.readouterr()
    assert code == 2


def test_exit_code_missing_file(capsys):
    code = main(["analyze", "/nonexistent/channel.json"])
    capsys.readouterr()
    assert code == 2


def test_exit_code_usage(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("name, doc", [
    ("channel", {"dim": 2, "representation": "superoperator",
                 "data": [[[True, False] if i == j else [0.0, 0.0]
                           for j in range(4)] for i in range(4)]}),
    ("state", {"dim": True, "data": [[[1.0, 0.0]]]}),
])
def test_json_booleans_are_usage_errors(files, tmp_path, capsys, name, doc):
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(doc))
    argv = (["validate", str(p)] if name == "channel" else
            ["compare", files["depol05"], files["depol05"], "--state", f"file:{p}"])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {p}: ")


def test_exit_code_violation_from_noncp_input(tmp_path, capsys):
    # transpose map: TP but not CP -> validate reports and exits 1
    d = 2
    m = np.zeros((4, 4))
    for i in range(d):
        for j in range(d):
            m[j * d + i, i * d + j] = 1.0
    doc = {"dim": 2, "representation": "superoperator",
           "data": [[[float(x), 0.0] for x in row] for row in m]}
    p = tmp_path / "transpose.json"
    p.write_text(json.dumps(doc))
    code = main(["validate", str(p), "--samples", "50"])
    capsys.readouterr()
    assert code == 1


def test_exit_code_numeric_failure(tmp_path, capsys):
    # an anti-dissipative "generator" blows up under exponentiation
    m = -200.0 * (np.outer([0.5, 0, 0, 0.5], [1, 0, 0, 1]) - np.eye(4))
    doc = {"dim": 2, "representation": "generator",
           "data": [[[float(x), 0.0] for x in row] for row in m]}
    p1 = tmp_path / "blowup.json"
    p1.write_text(json.dumps(doc))
    p2 = tmp_path / "blowup2.json"
    doc2 = {"dim": 2, "representation": "generator",
            "data": [[[float(x) * 1.01, 0.0] for x in row] for row in m]}
    p2.write_text(json.dumps(doc2))
    code = main(["trajectory", str(p1), str(p2), "--steps", "10",
                 "--t-max", "50", "--pair", "2.0:0.1"])
    capsys.readouterr()
    assert code == 3


def test_state_file_flag(files, tmp_path, capsys):
    from qms.channels import basis_state
    from qms.serialize import state_to_dict
    sp = tmp_path / "ground.json"
    sp.write_text(dumps_json(state_to_dict(basis_state(2, 0))))
    code, out = run(["trajectory", files["depol05"], files["depol06"],
                     "--steps", "5", "--state", f"file:{sp}",
                     "--format", "json"], capsys)
    assert code == 0
    doc = loads_strict(out)
    assert doc["rows"][1]["exact"] == pytest.approx(0.1, abs=1e-9)


def test_out_flag_writes_file(files, tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["analyze", files["depol05"], "--format", "json",
                 "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = loads_strict(target.read_text())
    assert doc["dim"] == 2


# ---------------------------------------------------------------------------
# one spectral analysis per map


@pytest.mark.parametrize("argv, expected", [
    (["analyze", "{depol05}", "--restarts", "2"], 1),
    (["compare", "{depol05}", "{depol06}", "--restarts", "2"], 2),
    (["trajectory", "{depol05}", "{depol06}", "--steps", "5",
      "--restarts", "2"], 1),
    (["pairs", "{depol05}", "--steps", "5"], 1),
    (["ensemble", "--dim", "2", "--count", "2", "--steps", "5",
      "--restarts", "2"], 4),
    (["ensemble", "--dim", "2", "--count", "2", "--steps", "5",
      "--mode", "continuous", "--restarts", "2"], 2),
])
def test_one_eigendecomposition_per_map(files, capsys, count_calls, argv,
                                        expected):
    from qms import spectral
    eigs = count_calls(spectral, "_spectral_data")
    assert main([a.format(**files) for a in argv]) == 0
    capsys.readouterr()
    assert len(eigs) == expected


def test_continuous_trajectory_exponentiates_generator_once(files, capsys,
                                                            count_calls):
    from qms import linalg, spectral
    eigs = count_calls(spectral, "_spectral_data")
    exps = count_calls(linalg, "matrix_exp")
    code = main(["trajectory", files["gen10"], files["gen11"], "--steps", "5",
                 "--restarts", "2"])
    capsys.readouterr()
    assert code == 0
    assert len(eigs) == 1
    assert len([args for args in exps if args[1:] == (1.0,)]) == 1


# ---------------------------------------------------------------------------
# exit-code contract


@pytest.fixture
def dim1(tmp_path):
    p = tmp_path / "dim1.json"
    p.write_text(json.dumps({"dim": 1, "representation": "superoperator",
                             "data": [[[1.0, 0.0]]]}))
    return str(p)


@pytest.mark.parametrize("command", [["analyze", "{0}"],
                                     ["compare", "{0}", "{0}"],
                                     ["pairs", "{0}"],
                                     ["trajectory", "{0}", "{0}"]])
def test_dim_one_file_is_usage_error(dim1, capsys, command):
    code = main([a.format(dim1) for a in command])
    err = capsys.readouterr().err
    assert code == 2
    assert "dim must be >= 2, got 1" in err


@pytest.mark.parametrize("dim", ["1", "0"])
def test_ensemble_dim_below_two_is_usage_error(capsys, dim):
    code = main(["ensemble", "--dim", dim, "--count", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"dim must be >= 2, got {dim}" in err


def test_internal_error_exits_3(files, capsys, monkeypatch):
    from qms import cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_analyze", boom)
    code = main(["analyze", files["depol05"]])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal error: RuntimeError: boom" in err


def test_pairs_without_fixed_point_is_domain_error(tmp_path, capsys):
    # 0.5 id has no eigenvalue at 1, an input outside the domain: the shared
    # analysis fails once, as in analyze, instead of once per recipe
    p = tmp_path / "half.json"
    p.write_text(dumps_json({"dim": 2, "representation": "superoperator",
                             "data": [[[0.5 if i == j else 0.0, 0.0]
                                       for j in range(4)] for i in range(4)]}))
    for command in (["pairs", str(p)], ["analyze", str(p)],
                    ["compare", str(p), str(p)]):
        code = main(command)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: no eigenvalue within 1e-09 of 1")


def _traceless_projection_file(tmp_path):
    # X -> X - tr(X) I/2, not trace-preserving: its fixed space is the
    # traceless matrices, so it holds no state and every state projects to
    # trace 0
    vi = vec(np.eye(2))
    p = tmp_path / "traceless.json"
    p.write_text(dumps_json(channel_to_dict(
        SuperOperator(2, np.eye(4) - np.outer(vi, vi) / 2))))
    return str(p)


def test_pairs_checks_uniqueness_before_building_a_state(tmp_path, capsys):
    code, out = run(["pairs", _traceless_projection_file(tmp_path)], capsys)
    assert code == 0
    for recipe in ("chi2", "detailed_balance"):
        assert (f"  {recipe}: HypothesisError: recipe requires a unique "
                "stationary state") in out.splitlines()


def test_compare_on_a_vanishing_projected_trace_is_domain_error(tmp_path, capsys):
    p = _traceless_projection_file(tmp_path)
    code = main(["compare", p, p])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("error: projected state has trace 0, not above "
                            "1e-8; is the map trace-preserving?\n")


def _non_hermiticity_preserving_file(tmp_path, d):
    # a channel plus 0.05 |vec(E01)><vec(Z)|, Z = diag(1, -1, 0, ...)
    from qms.ensembles import random_channel
    e01, z = np.zeros((d, d)), np.zeros((d, d))
    e01[0, 1], z[0, 0], z[1, 1] = 1.0, 1.0, -1.0
    m = random_channel(d, d * d, 5).matrix + 0.05 * np.outer(vec(e01), vec(z))
    p = tmp_path / "nonhp.json"
    p.write_text(dumps_json(channel_to_dict(SuperOperator(d, m))))
    return str(p)


@pytest.mark.parametrize("d", [2, 3])
def test_analyze_accepts_maps_that_do_not_preserve_hermiticity(tmp_path, capsys, d):
    # the qubit closed form of tau needs a Hermiticity-preserving map, so a
    # qubit map without it takes the ascent, as at d = 3
    p = _non_hermiticity_preserving_file(tmp_path, d)
    code, out = run(["analyze", p, "--format", "json"], capsys)
    assert code == 0
    doc = loads_strict(out)
    assert doc["violations"] == 0
    assert doc["tau"]["method"] == "multistart_manifold"
    assert doc["condition_numbers"]["kappa_tau_z"]["method"] == "multistart_manifold"


@pytest.mark.parametrize("d", [2, 3])
def test_validate_rejects_maps_that_do_not_preserve_hermiticity(tmp_path, capsys, d):
    # some state goes to a non-Hermitian image, so the map is neither CP
    # nor positive, and the sampled positivity search finds such a state
    p = _non_hermiticity_preserving_file(tmp_path, d)
    code, out = run(["validate", p, "--format", "json"], capsys)
    assert code == 1
    report = loads_strict(out)["validation"]
    assert report["hermiticity_preserving"] is False
    assert report["completely_positive"] is False
    assert report["positivity"] == "counterexample"
    assert len(report["positivity_witness"]) == d


def test_analyze_runs_the_tight_checks_only_on_closed_forms(tmp_path, capsys,
                                                           monkeypatch):
    # an ascent's kappa is a lower bound, so one below the spectral lower
    # bound or above (1 - tau)^-1 proves nothing and is not a violation
    import dataclasses
    from qms import stability
    real = stability.condition_numbers

    def ascent_below_spectral_lower(t, **kwargs):
        report = real(t, **kwargs)
        report.kappa_tau_z = dataclasses.replace(report.kappa_tau_z, value=0.0)
        return report

    monkeypatch.setattr(stability, "condition_numbers", ascent_below_spectral_lower)
    code, out = run(["analyze", _non_hermiticity_preserving_file(tmp_path, 2)],
                    capsys)
    assert code == 0
    assert "  violations: 0" in out.splitlines()


_NON_HERMITIAN_FIXED_POINT = ("the map's fixed point is not Hermitian "
                              "(anti-Hermitian part ")


def test_pairs_on_a_non_hermitian_fixed_point_is_domain_error(tmp_path, capsys):
    # the qubit map's fixed point has an anti-Hermitian part, so no
    # stationary state exists to derive chi2 or detailed balance from
    code, out = run(["pairs", _non_hermiticity_preserving_file(tmp_path, 2)],
                    capsys)
    assert code == 0
    lines = out.splitlines()
    for recipe in ("chi2", "detailed_balance"):
        assert any(line.startswith(f"  {recipe}: DomainError: "
                                   + _NON_HERMITIAN_FIXED_POINT)
                   for line in lines)
    assert any(line.startswith("  spectral_eq10: K=") for line in lines)


def test_compare_on_a_non_hermitian_fixed_point_is_domain_error(tmp_path, capsys):
    p = _non_hermiticity_preserving_file(tmp_path, 2)
    code = main(["compare", p, p])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: " + _NON_HERMITIAN_FIXED_POINT)
    assert captured.err.endswith("does the map preserve Hermiticity?\n")


# ---------------------------------------------------------------------------
# exit-code contract as a property: codes stay in {0, 1, 2, 3}, 1 comes
# with a reported violation, and nothing escapes outside the QmsError family

_small = st.integers(min_value=-1, max_value=2)
_real = st.one_of(st.floats(min_value=-1, max_value=3),
                  st.sampled_from([0.0, math.inf, -math.inf, math.nan, 1e308]))


def _check_contract(argv, reports_violation=lambda out: "violations: 0" not in out):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "internal error" not in err.getvalue()
    if code == 1:
        assert reports_violation(out.getvalue())
    return code


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(min_value=-1, max_value=3), count=_small,
       steps=_small, restarts=_small, continuous=st.booleans(), t_max=_real)
def test_ensemble_exit_code_contract(dim, count, steps, restarts, continuous,
                                     t_max):
    code = _check_contract(["ensemble", "--dim", str(dim), "--count", str(count),
                            "--steps", str(steps), "--restarts", str(restarts),
                            f"--t-max={t_max!r}"]
                           + (["--mode", "continuous"] if continuous else []))
    if restarts < 1 or (continuous and not (steps >= 2 and 0.0 <= t_max < math.inf)):
        assert code == 2


_pair = st.lists(st.floats(min_value=-2, max_value=2), min_size=2, max_size=2)
_entry = st.one_of(_pair, st.floats(min_value=0, max_value=1),
                   st.lists(st.integers(-1, 1), max_size=3), st.text(max_size=2),
                   st.none())


def _matrix(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n,
                    max_size=n)


def _doc(dim, rep, entry):
    if rep == "kraus":
        data = st.lists(_matrix(dim, entry), min_size=1, max_size=2)
    else:
        data = _matrix(dim if rep == "stochastic" else dim * dim, entry)
    return st.fixed_dictionaries({"dim": st.just(dim),
                                  "representation": st.just(rep), "data": data})


# shaped documents reach the numerics; loose ones exercise the schema checks
_shaped = st.tuples(st.sampled_from([1, 2]),
                    st.sampled_from(["kraus", "superoperator", "stochastic",
                                     "generator"])).flatmap(
    lambda dr: _doc(*dr, st.floats(min_value=0, max_value=1)
                    if dr[1] == "stochastic" else _pair))
_loose = st.fixed_dictionaries({
    "dim": st.one_of(st.integers(min_value=-1, max_value=2), st.text(max_size=1)),
    "representation": st.sampled_from(["kraus", "superoperator", "other"]),
    "data": st.one_of(_matrix(2, _entry), _matrix(4, _entry), st.none()),
})
_channel_doc = st.one_of(_shaped, _loose)


@settings(max_examples=25, deadline=None)
@given(text=st.one_of(_channel_doc.map(json.dumps), st.text(max_size=20)))
def test_analyze_malformed_channel_exit_code_contract(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("fuzz") / "channel.json"
    p.write_text(text)
    _check_contract(["analyze", str(p), "--restarts", "2"])


@pytest.mark.parametrize("pair", ["nan:0.5", "inf:0.5"])
def test_non_finite_user_pair_is_usage_error(files, capsys, pair):
    code = main(["trajectory", files["depol05"], files["depol06"],
                 "--steps", "3", f"--pair={pair}"])
    err = capsys.readouterr().err
    assert code == 2
    assert "K must be finite and nonnegative" in err


_EXPECTED_PAIR = "expected auto-chi2 | auto-db | auto-eq10:MU | K:MU, got"


@pytest.mark.parametrize("t, e", [("depol05", "depol06"), ("gen10", "gen11")],
                         ids=["discrete", "continuous"])
@pytest.mark.parametrize("spec, message", [
    ("auto-eq10:x", "--pair: cannot parse mu in 'auto-eq10:x'"),
    ("auto-eq10:", "--pair: cannot parse mu in 'auto-eq10:'"),
    ("auto-eq10", f"--pair: {_EXPECTED_PAIR} 'auto-eq10'"),
    ("auto-eq10:0.9", "--pair auto-eq10 applies to discrete chains only"),
    ("1:2:3", f"--pair: {_EXPECTED_PAIR} '1:2:3'"),
    ("abc", f"--pair: {_EXPECTED_PAIR} 'abc'"),
    ("0.5", f"--pair: {_EXPECTED_PAIR} '0.5'"),
    (":", f"--pair: {_EXPECTED_PAIR} ':'"),
    ("auto-chi2:1", f"--pair: {_EXPECTED_PAIR} 'auto-chi2:1'")])
def test_malformed_pair_spec_messages(files, capsys, t, e, spec, message):
    # mu is parsed before the kind of time is checked, so a malformed
    # auto-eq10 reads the same for channels and generators
    code = main(["trajectory", files[t], files[e], "--steps", "3",
                 f"--pair={spec}"])
    captured = capsys.readouterr()
    if t == "depol05" and spec == "auto-eq10:0.9":
        assert (code, captured.err) == (0, "")
    else:
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("t_max", ["-1", "inf", "nan"])
def test_bad_time_horizon_is_usage_error(files, capsys, t_max):
    code = main(["trajectory", files["gen10"], files["gen11"], "--steps", "5",
                 f"--t-max={t_max}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: t_max must be finite and nonnegative")


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    # module-scoped, as hypothesis reruns a test body within one fixture call
    root = tmp_path_factory.mktemp("contract")
    paths = _write_maps(root)
    paths["nonhp"] = _non_hermiticity_preserving_file(root, 2)
    return paths


_pair_spec = st.one_of(
    st.sampled_from(["auto-chi2", "auto-db", "auto-eq10:x", "0.5"]),
    _real.map(lambda mu: f"auto-eq10:{mu!r}"),
    st.tuples(_real, _real).map(lambda km: f"{km[0]!r}:{km[1]!r}"))


@settings(max_examples=25, deadline=None)
@given(continuous=st.booleans(), steps=st.integers(min_value=-1, max_value=4),
       pair=_pair_spec, t_max=_real, tol=_real, restarts=_small)
@example(continuous=False, steps=0, pair="1e+308:0.5", t_max=1.0, tol=1e-3,
         restarts=1)
@example(continuous=True, steps=2, pair="1e+308:0.5", t_max=1.0, tol=1e-3,
         restarts=1)
@example(continuous=True, steps=3, pair="1:inf", t_max=10.0, tol=1e-3,
         restarts=1)
@example(continuous=True, steps=3, pair="0:1e308", t_max=10.0, tol=1e-3,
         restarts=1)
def test_trajectory_exit_code_contract(contract_files, continuous, steps, pair,
                                       t_max, tol, restarts):
    t, e = ("gen10", "gen11") if continuous else ("depol05", "depol06")
    code = _check_contract(["trajectory", contract_files[t], contract_files[e],
                            "--steps", str(steps), f"--pair={pair}",
                            f"--t-max={t_max!r}", f"--tol={tol!r}",
                            "--restarts", str(restarts)])
    if restarts < 1 or not 0.0 <= tol < math.inf:
        assert code == 2


@pytest.mark.parametrize("t, e, pair", [
    ("depol05", "depol06", "1e+308:0.5"), ("gen10", "gen11", "1e+308:0.5"),
    ("gen10", "gen11", "1e+308:1e-300")])
def test_trajectory_with_a_huge_K_evaluates_only_the_regime_in_use(
        files, capsys, t, e, pair):
    # the post-threshold formula overflows at such a K, but every point
    # here lies before the threshold
    code = main(["trajectory", files[t], files[e], "--steps", "2",
                 f"--pair={pair}"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert "pre_threshold" in out and "post_threshold" not in out


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["depol05", "id2", "swap2"]),
       steps=st.integers(min_value=-1, max_value=4),
       mu=st.one_of(st.none(), _real))
def test_pairs_exit_code_contract(contract_files, name, steps, mu):
    _check_contract(["pairs", contract_files[name], "--steps", str(steps)]
                    + ([] if mu is None else [f"--mu={mu!r}"]),
                    lambda out: "valid=False" in out)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["depol05", "id2", "swap2", "nonhp"]),
       samples=st.integers(min_value=-2, max_value=20))
def test_validate_exit_code_contract(contract_files, name, samples):
    code = _check_contract(["validate", contract_files[name], "--samples",
                            str(samples)],
                           lambda out: ": False" in out
                           or "positivity: no_counterexample" not in out)
    if name == "nonhp" and samples >= 1:
        assert code == 1


# ---------------------------------------------------------------------------
# shared stationary state; what each command loads


def test_pairs_builds_stationary_state_once(files, capsys, count_calls):
    from qms import spectral
    builds = count_calls(spectral, "_spectral_data")
    assert main(["pairs", files["depol05"], "--steps", "5"]) == 0
    capsys.readouterr()
    assert len(builds) == 1


def _run_isolated(code):
    src = str(Path(qms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_discrete_commands_do_not_load_scipy(files):
    # every command, generator paths included: qms depends on numpy alone
    few = ["--restarts", "2"]
    commands = [
        ["validate", files["depol05"], "--samples", "20"],
        ["analyze", files["depol05"], *few],
        ["compare", files["depol05"], files["depol06"], *few],
        ["trajectory", files["depol05"], files["depol06"], "--steps", "5", *few],
        ["trajectory", files["gen10"], files["gen11"], "--steps", "5", *few],
        ["pairs", files["depol05"], "--steps", "5"],
        ["ensemble", "--count", "2", "--steps", "5", *few],
        ["ensemble", "--count", "2", "--steps", "5", "--mode", "continuous", *few],
    ]
    proc = _run_isolated(
        "import sys\n"
        "from qms.cli import main\n"
        "assert 'scipy' not in sys.modules\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'scipy' not in sys.modules, argv[0] + ' loaded scipy'\n")
    assert proc.returncode == 0, proc.stderr
    assert "analysis of" in proc.stdout


def test_json_commands_do_not_load_csv(files):
    # only --format csv serializes rows through the csv module
    proc = _run_isolated(
        "import contextlib, io, sys\n"
        "from qms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['trajectory', {files['depol05']!r}, {files['depol06']!r},"
        " '--steps', '5', '--restarts', '2', '--format', 'json']) == 0\n"
        "assert 'csv' not in sys.modules\n")
    assert proc.returncode == 0, proc.stderr


def test_qubit_commands_never_search_the_dual_sphere(tmp_path, capsys,
                                                     count_calls):
    # every norm that compare and trajectory take at d = 2 is of a channel
    # or generator difference, which has the Hermitian closed form, so no
    # search runs
    from qms import contraction
    from qms.ensembles import (perturb_channel, perturb_generator,
                               random_channel, random_generator)
    ascents = count_calls(contraction, "_power_ascent")
    closed = count_calls(contraction, "_hermitian_norm_qubit")
    t = random_channel(2, 3, seed=31)
    g = random_generator(2, 2, seed=32)
    paths = {}
    for name, obj in [("t1", t), ("t2", perturb_channel(t, 0.05, 33)),
                      ("g1", g), ("g2", perturb_generator(g, 0.05, 34))]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(dumps_json(channel_to_dict(obj)))
    few = ["--restarts", "2", "--format", "json"]
    for argv in (["compare", paths["t1"], paths["t2"], *few],
                 ["trajectory", paths["t1"], paths["t2"], "--steps", "5", *few],
                 ["trajectory", paths["g1"], paths["g2"], "--steps", "5", *few]):
        assert main([str(a) for a in argv]) == 0
        capsys.readouterr()
    assert len(ascents) == 0 and len(closed) >= 3


_VALIDATE_MODULES = ["qms", "qms.channels", "qms.cli", "qms.errors",
                     "qms.linalg", "qms.rng", "qms.serialize"]


@pytest.mark.parametrize("argv, extra", [
    (["validate", "{depol05}", "--samples", "20"], []),
    (["analyze", "{depol05}", "--restarts", "2"],
     ["contraction", "spectral", "stability"]),
    (["compare", "{depol05}", "{depol06}", "--restarts", "2"],
     ["contraction", "spectral", "stability"]),
    (["trajectory", "{depol05}", "{depol06}", "--steps", "5", "--restarts", "2"],
     ["contraction", "finite_time", "spectral"]),
    (["pairs", "{depol05}", "--steps", "5"],
     ["contraction", "finite_time", "spectral"]),
    (["ensemble", "--count", "1", "--steps", "5", "--restarts", "2"],
     ["contraction", "ensembles", "finite_time", "spectral", "stability"]),
], ids=["validate", "analyze", "compare", "trajectory", "pairs", "ensemble"])
def test_each_command_loads_only_the_modules_it_runs(files, argv, extra):
    argv = [a.format(**files) for a in argv]
    proc = _run_isolated(
        "import contextlib, io, sys\n"
        "from qms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'qms'))\n")
    assert proc.returncode == 0, proc.stderr
    expected = sorted(_VALIDATE_MODULES + [f"qms.{m}" for m in extra])
    assert proc.stdout == f"{expected!r}\n"


def test_import_qms_loads_no_submodule():
    proc = _run_isolated(
        "import sys\n"
        "import qms\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'qms'))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['qms']\n"


def test_restarts_default_is_the_estimators_default():
    from qms import contraction
    from qms.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name in ("analyze", "compare", "trajectory", "ensemble"):
        restarts = next(a for a in sub.choices[name]._actions
                        if a.dest == "restarts")
        assert restarts.default == contraction.DEFAULT_RESTARTS == 64, name


def test_continuous_trajectory_still_exponentiates(files):
    proc = _run_isolated(
        "import sys\n"
        "from qms.cli import main\n"
        f"sys.exit(main(['trajectory', {files['gen10']!r}, {files['gen11']!r},"
        " '--steps', '5', '--restarts', '2']))\n")
    assert proc.returncode == 0, proc.stderr


# malformed --state file: documents for compare: a usage error or a clean
# comparison, never an internal error; diagonal qubit states reach the numerics
_state_doc = st.one_of(
    st.floats(min_value=0, max_value=1).map(
        lambda p: {"dim": 2, "data": [[[p, 0.0], [0.0, 0.0]],
                                      [[0.0, 0.0], [1.0 - p, 0.0]]]}),
    st.fixed_dictionaries({"dim": st.sampled_from([1, 2, 3]),
                           "data": _matrix(2, _entry)}),
    st.fixed_dictionaries({"dim": st.one_of(st.integers(-1, 3), st.text(max_size=1),
                                            st.none()),
                           "data": st.one_of(_matrix(2, _pair), _matrix(1, _pair),
                                             st.none())}),
    st.lists(_pair, max_size=2))


@settings(max_examples=25, deadline=None)
@given(text=st.one_of(_state_doc.map(json.dumps), st.text(max_size=20)))
def test_compare_malformed_state_file_exit_code_contract(tmp_path_factory, text):
    d = tmp_path_factory.mktemp("state")
    channel = d / "depol.json"
    channel.write_text(dumps_json(channel_to_dict(depolarizing_channel(0.5))))
    state = d / "state.json"
    state.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compare", str(channel), str(channel), "--state",
                     f"file:{state}", "--restarts", "2"])
    assert code in (0, 2), err.getvalue()
    assert "internal error" not in err.getvalue()
