import json

from turbobalance import generate
from turbobalance.cli import main


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
    code = run_cli(["bench", "--manifest", str(manifest), "--solvers", "heuristic",
                    "--repetitions", "2", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 2
    assert payload[0]["solver"] == "heuristic"


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
