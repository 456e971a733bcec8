import json

import pytest

from turbobalance import decode, generate
from turbobalance.cli import main
from turbobalance.solvers import SOLVERS


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


def test_generate_standard_corpus(tmp_path, capsys):
    code = run_cli(["generate", "--standard-corpus", "--out-dir", str(tmp_path), "--seed", "1"])
    assert code == 0
    assert (tmp_path / "manifest.json").exists()
    assert len(list(tmp_path.glob("*.json"))) == 10  # nine instances + manifest
    assert "manifest.json" in capsys.readouterr().out


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
    doc = json.loads(trace_path.read_text())
    assert "tree" in doc and "merge" in doc
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True


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
    assert code == 2
    assert "penalty_factor" in capsys.readouterr().err


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


def test_usage_error_exits_one():
    assert run_cli(["solve", "x.json", "--solver", "warp-drive"]) == 1
    assert run_cli(["no-such-command"]) == 1
    assert run_cli([]) == 1


def test_data_error_exits_two(tmp_path):
    assert run_cli(["solve", str(tmp_path / "missing.json"), "--solver", "heuristic"]) == 2
    assert run_cli(["generate", "--family", "NORM", "--n", "1",
                    "--out-dir", str(tmp_path)]) == 2
    assert run_cli(["summarize", str(tmp_path / "missing.csv")]) == 2


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
