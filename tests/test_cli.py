import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import turbobalance
from conftest import same_name_manifest
from turbobalance import Assignment, decode, generate, imbalance
from turbobalance.bench import BENCH_SOLVERS
from turbobalance.cli import _build_parser, main
from turbobalance.datasets import write_manifest
from turbobalance.solvers import PARAMETER_CHECKS, SOLVERS, check_count


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


def test_generate_single_instance(tmp_path, capsys):
    code = run_cli(["generate", "--family", "NORM", "--n", "8", "--seed", "3",
                    "--out-dir", str(tmp_path)])
    assert code == 0
    path = tmp_path / "NORM8_0000.json"
    assert path.exists()
    assert str(path) in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--seed", "--serial"])
def test_generate_refuses_a_negative_seed_or_serial_at_parse_time(tmp_path, capsys, flag):
    assert run_cli(["generate", "--family", "NORM", "--n", "5", flag, "-1",
                    "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: turbobalance generate [-h]")
    assert f"argument {flag}: must be an integer of at least 0, got '-1'" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    # a value out of the library's bounds, found when parsed
    (["--family", "NORM", "--n", "1"], "argument --n: must be an integer of at least 2, got '1'"),
    (["--family", "NORM", "--n", "5", "--m0", "-5"],
     "argument --m0: imbalance magnitude must be finite and >= 0, got -5.0"),
    (["--family", "NORM", "--n", "5", "--m0", "nan"],
     "argument --m0: imbalance magnitude must be finite and >= 0, got nan"),
    (["--family", "NORM", "--n", "5", "--phi0", "inf"],
     "argument --phi0: imbalance angle must be finite, got inf"),
    # a flag the chosen mode does not use, or neither mode or both
    (["--standard-corpus", "--family", "NORM", "--n", "5", "--serial", "2", "--m0", "3"],
     "argument --family: not allowed with argument --standard-corpus"),
    (["--standard-corpus", "--n", "5"], "--n is not used by --standard-corpus"),
    (["--standard-corpus", "--serial", "0"], "--serial is not used by --standard-corpus"),
    (["--standard-corpus", "--m0", "3"], "--m0 is not used by --standard-corpus"),
    (["--standard-corpus", "--with-imbalance", "--phi0", "1"],
     "--phi0 is not used by --standard-corpus"),
    (["--family", "NORM", "--n", "5", "--with-imbalance"], "--with-imbalance is not used by --family"),
    (["--family", "NORM", "--n", "5", "--phi0", "1.2"], "--phi0 is not used without an --m0 above 0"),
    (["--family", "NORM", "--n", "5", "--m0", "0", "--phi0", "1.2"],
     "--phi0 is not used without an --m0 above 0"),
    ([], "one of the arguments --standard-corpus --family is required"),
])
def test_generate_refuses_a_flag_out_of_bounds_or_unused_by_its_mode(tmp_path, capsys, args,
                                                                     message):
    out = tmp_path / "out"
    assert run_cli(["generate", *args, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: turbobalance generate [-h]")
    assert f"turbobalance generate: error: {message}\n" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [["--family", "F22SYN", "--n", "5"], ["--family", "NORM"]])
def test_generate_data_error_exits_two_and_makes_no_directory(tmp_path, capsys, args):
    out = tmp_path / "out"
    code = run_cli(["generate", *args, "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("turbobalance: error: ")
    assert not out.exists()


def test_generate_standard_corpus(tmp_path, capsys):
    code = run_cli(["generate", "--standard-corpus", "--out-dir", str(tmp_path), "--seed", "1"])
    assert code == 0
    assert (tmp_path / "manifest.json").exists()
    assert len(list(tmp_path.glob("*.json"))) == 10  # nine instances + manifest
    assert "manifest.json" in capsys.readouterr().out
    # the names' serial is the seed
    assert (tmp_path / "BETA20_0001.json").exists()
    assert '"name": "BETA20_0001"' in (tmp_path / "manifest.json").read_text()


def test_solve_outputs_json_report(tmp_path, capsys):
    generate("NORM", 6, seed=2).save(tmp_path)
    code = run_cli(["solve", str(tmp_path / "NORM6_0000.json"),
                    "--solver", "imbalance-sa", "--seed", "4", "--sweeps", "200"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["instance"] == "NORM6_0000"
    assert report["solver"] == "imbalance-sa"
    assert report["valid"] is True
    assert sorted(report["assignment"]) == list(range(1, 7))
    assert report["imbalance"] >= 0.0


def test_solve_decompose_writes_trace(tmp_path, capsys):
    generate("NORM", 12, seed=2).save(tmp_path)
    trace_path = tmp_path / "trace.json"
    code = run_cli(["solve", str(tmp_path / "NORM12_0000.json"), "--solver", "decompose",
                    "--sub-solver", "brute-force", "--merge-solver", "brute-force",
                    "--trace", str(trace_path)])
    assert code == 0
    text = trace_path.read_text()
    assert text.endswith("}\n")
    doc = json.loads(text)
    assert "tree" in doc and "merge" in doc
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True


def test_solve_heuristic_reports_the_imbalance_bench_records(tmp_path, capsys):
    # the heuristic ignores the disk when it places; its reported imbalance must not
    instance = generate("NORM", 20, seed=0, m0=500.0, phi0=1.0)
    path = instance.save(tmp_path)
    assert run_cli(["solve", str(path), "--solver", "heuristic"]) == 0
    solved = json.loads(capsys.readouterr().out)
    out = tmp_path / "runs.json"
    manifest = write_manifest(tmp_path, [instance.name])
    assert run_cli(["bench", "--manifest", str(manifest), "--solvers", "heuristic",
                    "--repetitions", "1", "--format", "json", "--out", str(out)]) == 0
    (record,) = json.loads(out.read_text())
    assert solved["imbalance"] == record["imbalance"]


def test_bench_and_summarize_roundtrip(tmp_path):
    generate("NORM", 5, seed=9).save(tmp_path)
    generate("BETA", 6, seed=9).save(tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"instances": [
        {"name": "NORM5_0000", "file": "NORM5_0000.json"},
        {"name": "BETA6_0000", "file": "BETA6_0000.json"},
    ]}))
    runs = tmp_path / "runs.csv"
    summary = tmp_path / "summary.csv"
    code = run_cli(["bench", "--manifest", str(manifest),
                    "--solvers", "heuristic,imbalance-sa", "--repetitions", "3",
                    "--sa-sweeps", "150", "--out", str(runs), "--summary", str(summary)])
    assert code == 0
    lines = runs.read_text().splitlines()
    assert lines[0].startswith("instance,solver,repetition")
    assert len(lines) == 1 + 2 * 2 * 3
    assert summary.read_text().count("\n") == 1 + 4

    out2 = tmp_path / "summary2.csv"
    code = run_cli(["summarize", str(runs), "--out", str(out2)])
    assert code == 0
    assert out2.read_text() == summary.read_text()


def test_bench_json_format(tmp_path):
    generate("NORM", 5, seed=9).save(tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"instances": [{"name": "NORM5_0000", "file": "NORM5_0000.json"}]}))
    out = tmp_path / "runs.json"
    summary = tmp_path / "summary.json"
    code = run_cli(["bench", "--manifest", str(manifest), "--solvers", "heuristic,imbalance-sa",
                    "--repetitions", "2", "--sa-sweeps", "20", "--format", "json",
                    "--out", str(out), "--summary", str(summary)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 4
    assert payload[0]["solver"] == "heuristic"
    rows = json.loads(summary.read_text())
    assert [(row["instance"], row["solver"], row["valid_count"]) for row in rows] == [
        ("NORM5_0000", "heuristic", 2), ("NORM5_0000", "imbalance-sa", 2)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_summarize_to_stdout_equals_its_out_file(tmp_path, capsys, fmt):
    runs = tmp_path / "runs.csv"
    runs.write_text("instance,solver,repetition,seed,valid,imbalance,wall_time_ms,meets_threshold\n"
                    "I,s,0,1,true,2.5,3.25,true\n"
                    "I,s,1,2,false,,4.0,false\n"
                    "J,s,0,3,true,1.0,2.0,true\n")
    out = tmp_path / f"summary.{fmt}"
    assert run_cli(["summarize", str(runs), "--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run_cli(["summarize", str(runs), "--format", fmt]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_export_qubo_writes_sparse_file(tmp_path):
    generate("NORM", 4, seed=5).save(tmp_path)
    out = tmp_path / "problem.qubo"
    code = run_cli(["export-qubo", str(tmp_path / "NORM4_0000.json"), "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0].split()
    assert header[:3] == ["#", "dim", "16"]


def test_solve_rejects_zero_penalty_factor(tmp_path, capsys):
    generate("NORM", 4, seed=2).save(tmp_path)
    code = run_cli(["solve", str(tmp_path / "NORM4_0000.json"), "--solver", "tabu",
                    "--penalty-factor", "0"])
    assert code == 1
    assert "finite and > 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, solver, value", [
    ("bench", "qubo-sa", "1"),
    ("bench", "tabu", "nan"),
    ("solve", "qubo-sa", "inf"),
    ("export-qubo", None, "1"),
])
def test_penalty_factor_not_finite_above_one_exits_one_before_any_output(tmp_path, capsys,
                                                                         command, solver, value):
    path = generate("NORM", 5, seed=0).save(tmp_path)
    manifest = write_manifest(tmp_path, ["NORM5_0000"])
    out = tmp_path / "out.txt"
    argv = {
        "bench": ["bench", "--manifest", str(manifest), "--solvers", solver,
                  "--repetitions", "1", "--out", str(out)],
        "solve": ["solve", str(path), "--solver", solver, "--output", str(out)],
        "export-qubo": ["export-qubo", str(path), "--out", str(out)],
    }[command]
    assert run_cli([*argv, "--penalty-factor", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: turbobalance {command} [-h]")
    assert "argument --penalty-factor: penalty_factor must be finite and > 1" in err
    assert not out.exists()


@pytest.mark.parametrize("solver", sorted(BENCH_SOLVERS))
def test_solve_json_names_the_chosen_solver_and_seed(tmp_path, capsys, solver):
    instance = generate("NORM", 6, seed=2)
    path = instance.save(tmp_path)
    assert run_cli(["solve", str(path), "--solver", solver, "--seed", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solver"] == solver
    assert report["seed"] == 7
    # the report is of a permutation, with the imbalance the library computes for it
    assert report["valid"] and sorted(report["assignment"]) == list(range(1, 7))
    assignment = Assignment(report["assignment"])
    assert report["imbalance"] == imbalance(instance.blade_set(), instance.disk(), assignment).d
    if solver == "brute-force":  # it counts every order
        assert report["iterations"] == math.factorial(6)


@pytest.mark.parametrize("solver", sorted(BENCH_SOLVERS))
def test_solve_refuses_a_negative_seed_at_parse_time(tmp_path, capsys, solver):
    path = generate("NORM", 6, seed=2).save(tmp_path)
    out = tmp_path / "out.json"
    assert run_cli(["solve", str(path), "--solver", solver, "--seed", "-1",
                    "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: turbobalance solve [-h]")
    assert "argument --seed: must be an integer of at least 0, got '-1'" in err
    assert not out.exists()


def test_bench_refuses_an_oversized_brute_force_merge_before_any_output(tmp_path, capsys):
    generate("BETA", 40, seed=0).save(tmp_path)
    manifest = write_manifest(tmp_path, ["BETA40_0000"])
    out = tmp_path / "runs.csv"
    code = run_cli(["bench", "--manifest", str(manifest), "--solvers", "decompose",
                    "--merge-solver", "brute-force", "--sub-solver", "imbalance-sa",
                    "--max-subproblem", "3", "--repetitions", "1", "--out", str(out)])
    assert code == 2
    assert "16 groups" in capsys.readouterr().err
    assert not out.exists()
    code = run_cli(["solve", str(tmp_path / "BETA40_0000.json"), "--solver", "decompose",
                    "--merge-solver", "brute-force", "--sub-solver", "imbalance-sa",
                    "--max-subproblem", "3", "--output", str(out)])
    assert code == 2
    assert "16 groups" in capsys.readouterr().err
    assert not out.exists()


def test_bench_refuses_brute_force_above_its_cap_before_any_output(tmp_path, capsys):
    generate("NORM", 20, seed=0).save(tmp_path)
    manifest = write_manifest(tmp_path, ["NORM20_0000"])
    out = tmp_path / "runs.csv"
    code = run_cli(["bench", "--manifest", str(manifest), "--solvers", "heuristic,brute-force",
                    "--repetitions", "1", "--out", str(out)])
    assert code == 2
    assert "instance 'NORM20_0000': solver 'brute-force' takes at most N=10" in capsys.readouterr().err
    assert not out.exists()


def test_solve_reports_violation_counts_of_an_invalid_output(tmp_path, capsys):
    instance = generate("NORM", 6, seed=2)
    instance.save(tmp_path)
    path = str(tmp_path / "NORM6_0000.json")
    # one tabu iteration from a random start leaves the bits far from one-hot
    assert run_cli(["solve", path, "--solver", "tabu", "--max-iterations", "1",
                    "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    raw = SOLVERS["tabu"](instance.blade_set(), instance.disk(), 3, max_iterations=1)
    violations = decode(raw.configuration)
    assert report["violated_rows"] == len(violations.row_violations)
    assert report["violated_columns"] == len(violations.col_violations)
    assert report["violated_rows"] + report["violated_columns"] > 0

    assert run_cli(["solve", path, "--solver", "tabu", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True
    assert "violated_rows" not in report and "violated_columns" not in report


@pytest.mark.parametrize("solver, flag", [
    ("imbalance-sa", "--tenure"),
    ("imbalance-sa", "--max-iterations"),
    ("imbalance-sa", "--penalty-factor"),
    ("qubo-sa", "--tenure"),
    ("tabu", "--sweeps"),
    ("decompose", "--sweeps"),
    ("decompose", "--penalty-factor"),
    ("heuristic", "--max-iterations"),
    ("brute-force", "--sweeps"),
    ("tabu", "--trace"),
    ("imbalance-sa", "--trace"),
    ("tabu", "--sub-solver"),
    ("qubo-sa", "--merge-solver"),
    ("imbalance-sa", "--max-subproblem"),
])
def test_solve_rejects_a_flag_the_solver_drops(tmp_path, capsys, solver, flag):
    generate("NORM", 4, seed=2).save(tmp_path)
    trace = tmp_path / "trace.json"
    value = {"--trace": str(trace), "--sub-solver": "brute-force",
             "--merge-solver": "brute-force"}.get(flag, "5")
    # decompose uses the flags of its sub-solver and merge solver; these use none
    leaves = ["--sub-solver", "brute-force", "--merge-solver", "heuristic"] if solver == "decompose" else []
    code = run_cli(["solve", str(tmp_path / "NORM4_0000.json"), "--solver", solver, flag, value,
                    *leaves])
    assert code == 1
    err = capsys.readouterr().err
    assert flag in err and solver in err
    assert not trace.exists()


@pytest.mark.parametrize("solvers, flags", [
    ("heuristic", ["--tenure", "5"]),
    ("heuristic,imbalance-sa", ["--qubo-sweeps", "5"]),
    ("qubo-sa", ["--sa-sweeps", "5"]),
    ("tabu", ["--max-subproblem", "3"]),
    ("imbalance-sa", ["--sub-solver", "brute-force"]),
    ("decompose", ["--sa-sweeps", "5"]),
    ("decompose", ["--tenure", "5"]),
    ("decompose", ["--sub-solver", "imbalance-sa", "--merge-solver", "imbalance-sa",
                   "--penalty-factor", "5"]),
])
def test_bench_rejects_a_flag_no_selected_solver_uses(tmp_path, capsys, solvers, flags):
    generate("NORM", 5, seed=9).save(tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"instances": [{"name": "NORM5_0000", "file": "NORM5_0000.json"}]}))
    out = tmp_path / "runs.csv"
    code = run_cli(["bench", "--manifest", str(manifest), "--solvers", solvers,
                    "--repetitions", "1", "--out", str(out), *flags])
    assert code == 1
    assert flags[-2] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--sweeps", "5", "--penalty-factor", "4"],
    ["--sub-solver", "tabu", "--tenure", "3", "--max-iterations", "50"],
    ["--merge-solver", "imbalance-sa", "--max-subproblem", "3"],
])
def test_solve_decompose_takes_its_leaf_solvers_flags(tmp_path, capsys, flags):
    generate("NORM", 6, seed=2).save(tmp_path)
    code = run_cli(["solve", str(tmp_path / "NORM6_0000.json"), "--solver", "decompose", *flags])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_bench_qubo_sweeps_reach_decompose_leaves(tmp_path):
    generate("NORM", 20, seed=0).save(tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"instances": [{"name": "NORM20_0000", "file": "NORM20_0000.json"}]}))
    records = {}
    for sweeps in ("1", "400"):
        out = tmp_path / f"runs{sweeps}.json"
        assert run_cli(["bench", "--manifest", str(manifest), "--solvers", "decompose",
                        "--repetitions", "1", "--qubo-sweeps", sweeps,
                        "--format", "json", "--out", str(out)]) == 0
        (records[sweeps],) = json.loads(out.read_text())
    assert records["1"]["seed"] == records["400"]["seed"]
    assert records["1"]["imbalance"] != records["400"]["imbalance"]


def test_usage_error_exits_one(tmp_path, capsys):
    assert run_cli(["solve", "x.json", "--solver", "warp-drive"]) == 1
    assert run_cli(["no-such-command"]) == 1
    assert run_cli([]) == 1
    generate("NORM", 5, seed=0).save(tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"instances": [{"name": "NORM5_0000", "file": "NORM5_0000.json"}]}))
    out = tmp_path / "runs.csv"
    for flag, value in (("--repetitions", "0"), ("--jobs", "-4")):
        capsys.readouterr()
        assert run_cli(["bench", "--manifest", str(manifest), "--solvers", "heuristic", flag, value,
                        "--out", str(out), "--summary", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert flag in err
        assert err.startswith("usage: turbobalance bench [-h]")
        assert not out.exists()
    # an unused flag is found after parsing, and still prints the subcommand's usage
    assert run_cli(["bench", "--manifest", str(manifest), "--solvers", "heuristic",
                    "--tenure", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("usage: turbobalance bench [-h]")
    assert not out.exists()
    assert run_cli(["solve", str(tmp_path / "NORM5_0000.json"), "--solver", "heuristic",
                    "--sweeps", "5"]) == 1
    assert capsys.readouterr().err.startswith("usage: turbobalance solve [-h]")


@pytest.mark.parametrize("command, solver, flag, value", [
    ("bench", "tabu", "--tenure", "0"),
    ("bench", "tabu", "--max-iterations", "-1"),
    ("bench", "imbalance-sa", "--sa-sweeps", "0"),
    ("bench", "qubo-sa", "--qubo-sweeps", "0"),
    ("bench", "heuristic", "--jobs", "two"),
    ("bench", "heuristic", "--jobs", "0"),
    ("bench", "heuristic", "--base-seed", "-1"),  # a seed may be 0
    ("solve", "tabu", "--tenure", "0"),
    ("solve", "imbalance-sa", "--sweeps", "0"),
])
def test_count_flag_below_one_exits_one_before_any_output(tmp_path, capsys, command, solver,
                                                          flag, value):
    generate("NORM", 5, seed=0).save(tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"instances": [{"name": "NORM5_0000", "file": "NORM5_0000.json"}]}))
    out = tmp_path / "out.txt"
    if command == "bench":
        argv = ["bench", "--manifest", str(manifest), "--solvers", solver, "--repetitions", "1",
                "--out", str(out)]
    else:
        argv = ["solve", str(tmp_path / "NORM5_0000.json"), "--solver", solver, "--output", str(out)]
    assert run_cli([*argv, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: turbobalance {command} [-h]")
    least = 0 if flag == "--base-seed" else 1
    assert f"argument {flag}: must be an integer of at least {least}" in err
    assert not out.exists()


def test_data_error_exits_two(tmp_path, capsys):
    assert run_cli(["solve", str(tmp_path / "missing.json"), "--solver", "heuristic"]) == 2
    assert run_cli(["generate", "--family", "F22SYN", "--n", "5",
                    "--out-dir", str(tmp_path)]) == 2
    assert run_cli(["summarize", str(tmp_path / "missing.csv")]) == 2
    assert run_cli(["bench", "--manifest", str(same_name_manifest(tmp_path)),
                    "--solvers", "heuristic", "--repetitions", "1"]) == 2
    (tmp_path / "short.csv").write_text("instance,solver,repetition\nI,s,0\n")
    assert run_cli(["summarize", str(tmp_path / "short.csv")]) == 2
    doc = generate("NORM", 5, seed=0).to_dict()
    doc["masses"][0] = 10 ** 400  # past the range of a float
    (tmp_path / "huge.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["solve", str(tmp_path / "huge.json"), "--solver", "heuristic"]) == 2
    assert "huge.json" in capsys.readouterr().err
    # 10,000 blades make a 10^8 x 10^8 QUBO matrix (71 PiB): the allocation fails at once;
    # masses of 1e154 make a QUBO whose constant offset overflows float64
    big = generate("NORM", 10_000, seed=0).save(tmp_path)
    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps({"name": "OVERFLOW", "masses": [1e154, 2e154, 3e154],
                                    "bare_imbalance": {"m0": 0.0, "phi0": 0.0}}))
    out = tmp_path / "out.qubo"
    for path in (big, overflow):
        assert run_cli(["export-qubo", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()
    assert run_cli(["solve", str(overflow), "--solver", "tabu", "--max-iterations", "10"]) == 2


def test_corpus_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TURBOBALANCE_CORPUS", str(tmp_path / "corpus"))
    assert run_cli(["generate", "--family", "NORM", "--n", "5", "--seed", "1"]) == 0
    generated = tmp_path / "corpus" / "NORM5_0000.json"
    assert generated.exists()

    manifest = tmp_path / "corpus" / "manifest.json"
    manifest.write_text(json.dumps({"instances": [{"name": "NORM5_0000", "file": "NORM5_0000.json"}]}))
    out = tmp_path / "runs.csv"
    code = run_cli(["bench", "--solvers", "heuristic", "--repetitions", "1", "--out", str(out)])
    assert code == 0
    assert "NORM5_0000" in out.read_text()


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "generate" in capsys.readouterr().out


def test_the_module_entry_point_exits_with_the_cli_codes(tmp_path):
    # the real process entry, `python -m turbobalance.cli`, through the interpreter
    src = str(Path(turbobalance.__file__).parents[1])

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "turbobalance.cli", *argv], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True)

    assert run("--help").returncode == 0
    jobs = run("bench", "--jobs", "0")
    assert jobs.returncode == 1
    assert jobs.stderr.startswith("usage: turbobalance bench [-h]")
    missing = run("solve", "missing.json", "--solver", "heuristic")
    assert missing.returncode == 2
    assert missing.stderr.startswith("turbobalance: error: ")
    assert missing.stderr.count("\n") == 1


@pytest.mark.parametrize("solvers, message", [
    ("", "no solver given"),
    ("heuristic,heuristic", "solver 'heuristic' is given twice"),
])
def test_bench_refuses_an_empty_or_repeated_solver_list_before_any_output(tmp_path, capsys,
                                                                          solvers, message):
    generate("NORM", 5, seed=0).save(tmp_path)
    manifest = write_manifest(tmp_path, ["NORM5_0000"])
    out, summary = tmp_path / "runs.csv", tmp_path / "summary.csv"
    code = run_cli(["bench", "--manifest", str(manifest), "--solvers", solvers,
                    "--repetitions", "1", "--out", str(out), "--summary", str(summary)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not summary.exists()


@pytest.mark.parametrize("solver, flag, value", [
    ("decompose", "--max-subproblem", "2.5"),
    ("decompose", "--max-subproblem", "x"),
    ("decompose", "--max-subproblem", "1"),  # an integer below the cap's bound of 2
    ("imbalance-sa", "--sweeps", "2.5"),
    ("tabu", "--max-iterations", "1e3"),
    ("decompose", "--sub-solver", "decompose"),  # decompose is not its own sub-solver
    ("decompose", "--merge-solver", "x"),
    ("decompose", "--penalty-factor", "1"),
])
def test_a_non_integer_count_flag_fails_at_parse_time_with_the_library_message(
        tmp_path, capsys, solver, flag, value):
    path = generate("NORM", 5, seed=0).save(tmp_path)
    out = tmp_path / "out.json"
    assert run_cli(["solve", str(path), "--solver", solver, flag, value,
                    "--output", str(out)]) == 1
    with pytest.raises(ValueError) as library_error:  # the check the flag takes its type from
        PARAMETER_CHECKS[flag[2:].replace("-", "_")](value)
    assert f"argument {flag}: {library_error.value}\n" in capsys.readouterr().err
    assert not out.exists()


def _options(command) -> list:
    """The option strings of the CLI's ``command`` parser, but the help flags."""
    (commands,) = [action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return [flag for action in commands.choices[command]._actions
            for flag in action.option_strings if flag not in ("-h", "--help")]


SHARED_SOLVER_FLAGS = ["--penalty-factor", "--tenure", "--max-iterations", "--max-subproblem",
                       "--sub-solver", "--merge-solver"]


@pytest.mark.parametrize("command, sweeps, others", [
    ("solve", ["--sweeps"], ["--solver", "--seed", "--trace", "--output"]),
    ("bench", ["--sa-sweeps", "--qubo-sweeps"],
     ["--manifest", "--solvers", "--repetitions", "--base-seed", "--jobs", "--format", "--out",
      "--summary"]),
])
def test_solve_and_bench_have_one_solver_flag_per_parameter_check(command, sweeps, others):
    table = [flag for name in PARAMETER_CHECKS
             for flag in (sweeps if name == "sweeps" else ["--" + name.replace("_", "-")])]
    assert sorted(table) == sorted(sweeps + SHARED_SOLVER_FLAGS)
    assert sorted(_options(command)) == sorted(others + table)


def test_a_new_parameter_check_is_a_new_solver_flag(monkeypatch):
    monkeypatch.setitem(PARAMETER_CHECKS, "restart_count", check_count)
    for command in ("solve", "bench"):
        assert _options(command).count("--restart-count") == 1
    args = _build_parser().parse_args(["solve", "x.json", "--solver", "tabu",
                                       "--restart-count", "3"])
    assert args.restart_count == 3
