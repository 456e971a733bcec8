"""Tests of the benchmark itself, on tiny versions of its workloads.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from turbobalance import bench, qubo  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Small instances and budgets; at least three ops and three valid outputs
# each, enough for the tail rule once it needs only two samples beyond.
TINY = {
    "anneal": wl.Workload("anneal", ("NORM20", "BETA20"), "imbalance-sa", cycles=2,
                          params={"sweeps": 100}, ladder=True),
    "qubo-tabu": wl.Workload("qubo-tabu", ("NORM20", "BETA20", "F22SYN22"), "tabu", cycles=2,
                             params={"max_iterations": 2000}),
    "decompose": wl.Workload("decompose", ("NORM20", "BETA20"), "decompose", cycles=2,
                             params={"sub_solver_params": {"sweeps": 50},
                                     "merge_solver_params": {"sweeps": 50}}),
    "qubo-export": wl.Workload("qubo-export", ("NORM20",), None, cycles=3),
}

# Every metric the benchmark promises: end-to-end (with the workloads they
# apply to) and per layer.
QUALITY = {
    "anneal": ("d_median", "d_tail", "valid_rate", "threshold_rate", "error_rate",
               "ttt_ms", "ttt_never"),
    "qubo-tabu": ("d_median", "d_tail", "valid_rate", "threshold_rate", "error_rate"),
    "decompose": ("d_median", "d_tail", "valid_rate", "threshold_rate", "error_rate"),
    "qubo-export": ("error_rate",),
}


@pytest.fixture(autouse=True)
def small_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_RUNS", 2)
    monkeypatch.setattr(run, "TAIL_BEYOND", 2)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return run.load_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_run_reports_every_metric_with_a_unit(name):
    result = run.measure(name, seed=3, seconds=0, trace=0, workloads=TINY)
    assert result["correct"] and result["failed"] == 0, result["errors"]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    line = json.loads(run.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"].keys() == units.keys()
    for metric, unit in units.items():
        assert line["metrics"][metric]["unit"] == unit
        assert line["metrics"][metric]["value"] > 0
    for metric in ("setup_s_raw", "ops_per_s_raw", "op_ms_p50_raw", "op_ms_tail_raw", "calibration_ms"):
        assert result["report"][metric]["value"] > 0, metric
    for metric in QUALITY[name]:
        assert result["report"][metric]["unit"], metric
    assert result["report"]["error_rate"]["value"] == 0.0
    assert len(result["digest"]) == 64


def test_traced_run_reports_every_layer_metric_with_its_unit():
    result = run.measure("decompose", seed=3, seconds=0, trace=1, workloads=TINY)
    assert result["correct"], result["errors"]
    line = json.loads(run.contract_line(result))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    report = result["report"]
    assert report["trace.overhead"]["value"] > 0
    assert report["decompose.leaves"]["value"] >= 2 * len(TINY["decompose"].instances)
    assert report["qubo.export_qubo.peak_mb"]["value"] > 0
    spans = result["spans"]["decompose"]
    assert all(s["end"] >= s["start"] for s in spans)
    assert any(s["parent"] is not None for s in spans)


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "d", "start": 5.0, "end": 6.0, "parent": 0},
    ]
    import tracing

    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_same_seed_same_quality_and_digest():
    first = run.measure("qubo-tabu", seed=5, seconds=0, trace=0, workloads=TINY)
    second = run.measure("qubo-tabu", seed=5, seconds=0, trace=0, workloads=TINY)
    other = run.measure("qubo-tabu", seed=6, seconds=0, trace=0, workloads=TINY)
    assert first["digest"] == second["digest"] != other["digest"]
    for metric in ("d_median", "d_tail", "valid_rate", "threshold_rate"):
        assert first["report"][metric]["value"] == second["report"][metric]["value"]


def _report(solver, instance, **params):
    _name, blades, disk = instance
    return bench.BENCH_SOLVERS[solver](blades, disk, 11, **params), blades, disk


def test_check_catches_a_wrong_imbalance(corpus):
    instance = TINY["anneal"].select(corpus)[0]
    report, blades, disk = _report("imbalance-sa", instance, sweeps=50)
    assert wl.check_report(report, blades, disk) == report.imbalance
    with pytest.raises(wl.CheckFailed, match="imbalance"):
        wl.check_report(dataclasses.replace(report, imbalance=report.imbalance * 1.01), blades, disk)


def test_check_catches_a_valid_flag_that_disagrees_with_decode(corpus):
    instance = TINY["qubo-tabu"].select(corpus)[0]
    valid, blades, disk = _report("tabu", instance, max_iterations=2000)
    invalid, _, _ = _report("tabu", instance, max_iterations=5)
    assert valid.valid and not invalid.valid
    assert wl.check_report(valid, blades, disk) == valid.imbalance
    assert wl.check_report(invalid, blades, disk) is None
    with pytest.raises(wl.CheckFailed, match="decode"):
        wl.check_report(dataclasses.replace(valid, valid=False, assignment=None, imbalance=None),
                        blades, disk)
    with pytest.raises(wl.CheckFailed, match="decode"):
        wl.check_report(dataclasses.replace(invalid, valid=True), blades, disk)


def test_check_catches_a_corrupted_export(corpus):
    _, blades, disk = TINY["qubo-export"].select(corpus)[0]
    problem = qubo.build_qubo(blades, disk, materialize=True)
    wl.check_export(problem, problem.matrix.copy(), problem.constant_offset)
    bad = problem.matrix.copy()
    bad[0, 1] = np.nextafter(bad[0, 1], np.inf)
    with pytest.raises(wl.CheckFailed, match="matrix"):
        wl.check_export(problem, bad, problem.constant_offset)
    with pytest.raises(wl.CheckFailed, match="offset"):
        wl.check_export(problem, problem.matrix, problem.constant_offset + 1.0)


def test_a_crash_is_an_error_not_an_invalid_output(monkeypatch):
    def crash(blades, disk, seed, **params):
        raise RuntimeError("solver exploded")

    monkeypatch.setitem(bench.BENCH_SOLVERS, "tabu", crash)
    result = run.measure("qubo-tabu", seed=1, seconds=0, trace=0, workloads=TINY)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 6
    assert "solver exploded" in result["errors"][0]["error"]
    assert "RuntimeError" in result["errors"][0]["traceback"]
    assert result["report"]["error_rate"]["value"] == 1.0
    assert "valid_rate" not in result["report"]  # no output, so nothing to call invalid


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "anneal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
