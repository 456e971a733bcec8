import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_instance
import turbobalance
from turbobalance import BladeSet, DiskImbalance, run_benchmark, standard_corpus, summarize
from turbobalance.bench import (
    BENCH_SOLVERS,
    IMBALANCE_THRESHOLD,
    RunRecord,
    SummaryRow,
    iter_benchmark,
    load_corpus,
    read_records_csv,
    run_seed,
    to_json,
    write_csv,
)


def _tiny_corpus(sizes=(5, 6), with_disk=True):
    rng = np.random.default_rng(99)
    corpus = []
    for n in sizes:
        blades, disk = random_instance(rng, n, with_disk=with_disk)
        corpus.append((f"T{n}", blades, disk))
    return corpus


FAST_PARAMS = {
    "imbalance-sa": {"sweeps": 200},
    "qubo-sa": {"sweeps": 60},
    "tabu": {"max_iterations": 400},
    "decompose": {"max_subproblem": 5, "sub_solver": "brute-force",
                  "merge_solver": "brute-force"},
}


def test_record_count_is_reps_times_solvers_times_instances():
    corpus = _tiny_corpus(sizes=(5,))
    records = run_benchmark(corpus, ["heuristic", "imbalance-sa"], repetitions=10,
                            base_seed=0, solver_params=FAST_PARAMS)
    assert len(records) == 20
    assert [r.repetition for r in records] == list(range(10)) * 2


def test_rerun_is_identical_modulo_wall_time():
    corpus = _tiny_corpus()
    kwargs = dict(repetitions=3, base_seed=7, solver_params=FAST_PARAMS)
    first = run_benchmark(corpus, ["heuristic", "imbalance-sa", "qubo-sa"], **kwargs)
    second = run_benchmark(corpus, ["heuristic", "imbalance-sa", "qubo-sa"], **kwargs)
    for a, b in zip(first, second):
        assert (a.instance, a.solver, a.repetition, a.seed) == (b.instance, b.solver, b.repetition, b.seed)
        assert a.valid == b.valid
        assert a.imbalance == b.imbalance
        assert a.meets_threshold == b.meets_threshold


def test_unknown_solver_rejected_before_any_run():
    with pytest.raises(ValueError, match="annealer-9000"):
        iter_benchmark(_tiny_corpus(), ["heuristic", "annealer-9000"], repetitions=1)


def test_run_seed_is_stable_and_distinguishes_runs():
    assert run_seed(0, "A", "heuristic", 0) == run_seed(0, "A", "heuristic", 0)
    seeds = {run_seed(0, inst, solver, rep)
             for inst in ("A", "B") for solver in ("x", "y") for rep in range(5)}
    assert len(seeds) == 20


@pytest.mark.parametrize("base_seed, golden", [
    (0, [2518226031186472168, 6342967496513789617, 3796549466928020060]),
    (1, [2518226031186472169, 6342967496513789616, 3796549466928020061]),
    (12345, [2518226031186468049, 6342967496513793672, 3796549466928007781]),
    (2 ** 62 + 7, [7129912049613860079, 1731281478086401718, 8408235485355407963]),
    (2 ** 63, [2518226031186472168, 6342967496513789617, 3796549466928020060]),
    (2 ** 64 - 1, [6705146005668303639, 2880404540340986190, 5426822569926755747]),
])
def test_run_seed_golden_values(base_seed, golden):
    runs = [("NORM20_0000", "imbalance-sa", 0), ("BETA40_0000", "decompose", 9),
            ("STG1SYN84_0000", "tabu", 3)]
    assert [run_seed(base_seed, *run) for run in runs] == golden


def test_meets_threshold_consistency():
    corpus = _tiny_corpus()
    records = run_benchmark(corpus, ["imbalance-sa", "qubo-sa"], repetitions=3,
                            solver_params=FAST_PARAMS)
    for record in records:
        if record.meets_threshold:
            assert record.valid
        if record.valid:
            assert record.meets_threshold == (record.imbalance <= IMBALANCE_THRESHOLD)
        else:
            assert record.imbalance is None
            assert not record.meets_threshold


def test_summarize_constant_cell():
    records = [RunRecord("I", "s", rep, rep, True, 2.0, 1.0, True) for rep in range(10)]
    row = summarize(records)[0]
    assert row.valid_count == 10
    assert row.mean_imbalance == 2.0
    assert row.std_imbalance == 0.0
    assert row.min_imbalance == 2.0
    assert row.max_imbalance == 2.0


def test_summarize_all_invalid_cell():
    records = [RunRecord("I", "s", rep, rep, False, None, 1.0, False) for rep in range(10)]
    row = summarize(records)[0]
    assert row.valid_count == 0
    assert row.mean_imbalance is None
    assert row.std_imbalance is None
    assert row.min_imbalance is None
    assert row.max_imbalance is None
    assert row.mean_wall_time_ms == 1.0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_csv_roundtrip_preserves_records_and_summaries(tmp_path):
    corpus = _tiny_corpus()
    records = run_benchmark(corpus, ["heuristic", "qubo-sa"], repetitions=4,
                            solver_params=FAST_PARAMS)
    path = tmp_path / "runs.csv"
    with open(path, "w", newline="") as fh:
        write_csv(records, RunRecord, fh)
    reloaded = read_records_csv(path)
    assert reloaded == records
    assert summarize(reloaded) == summarize(records)


def test_csv_uses_plain_decimal_and_empty_absent_fields(tmp_path):
    records = [
        RunRecord("I", "s", 0, 1, True, 2.5, 3.25, True),
        RunRecord("I", "s", 1, 2, False, None, 4.0, False),
    ]
    buffer = io.StringIO()
    write_csv(records, RunRecord, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "instance,solver,repetition,seed,valid,imbalance,wall_time_ms,meets_threshold"
    assert lines[1] == "I,s,0,1,true,2.5,3.25,true"
    assert lines[2] == "I,s,1,2,false,,4.0,false"


def test_json_exports_parse():
    records = [RunRecord("I", "s", 0, 1, True, 2.5, 3.25, True)]
    parsed = json.loads(to_json(records))
    assert parsed[0]["imbalance"] == 2.5
    rows = summarize(records)
    parsed_summary = json.loads(to_json(rows))
    assert parsed_summary[0]["valid_count"] == 1


def test_summary_csv_layout():
    records = [RunRecord("I", "s", rep, rep, rep > 0, 2.0 if rep else None, 1.5, rep > 0)
               for rep in range(3)]
    buffer = io.StringIO()
    write_csv(summarize(records), SummaryRow, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0].startswith("instance,solver,valid_count,mean_imbalance")
    assert lines[1].split(",")[2] == "2"


def test_load_corpus_skips_unreadable_instances(tmp_path, caplog):
    manifest, _ = standard_corpus(tmp_path, base_seed=0)
    # corrupt one member
    (tmp_path / "BETA20_0000.json").write_text("{broken")
    with caplog.at_level(logging.ERROR):
        corpus = load_corpus(manifest)
    assert len(corpus) == 8
    assert any("BETA20_0000" in message for message in caplog.text.splitlines())


def test_crashing_run_still_yields_a_record(caplog):
    blades, disk = random_instance(np.random.default_rng(1), 12)
    with caplog.at_level(logging.ERROR):
        records = run_benchmark([("BIG", blades, disk)], ["brute-force"], repetitions=2)
    assert len(records) == 2  # brute force is capped at N=10 and raises
    assert all(not r.valid and r.imbalance is None for r in records)
    assert "BIG" in caplog.text


def test_parallel_jobs_match_serial_records():
    corpus = _tiny_corpus()
    serial = run_benchmark(corpus, ["heuristic", "imbalance-sa"], repetitions=3,
                           base_seed=5, solver_params=FAST_PARAMS, jobs=1)
    parallel = run_benchmark(corpus, ["heuristic", "imbalance-sa"], repetitions=3,
                             base_seed=5, solver_params=FAST_PARAMS, jobs=2)
    for a, b in zip(serial, parallel):
        assert (a.instance, a.solver, a.repetition, a.seed, a.valid, a.imbalance) == \
               (b.instance, b.solver, b.repetition, b.seed, b.valid, b.imbalance)


def test_heuristic_records_account_for_the_bare_disk():
    # the solver ignores the disk; the harness must not
    blades = BladeSet([5.0, 5.0])
    disk = DiskImbalance(2.0, 0.3)
    record = run_benchmark([("D", blades, disk)], ["heuristic"], repetitions=1)[0]
    assert record.imbalance == pytest.approx(2.0, abs=1e-9)


def test_full_portfolio_over_synthetic_corpus(tmp_path):
    manifest, _ = standard_corpus(tmp_path, base_seed=1)
    corpus = [entry for entry in load_corpus(manifest) if entry[1].n <= 40]
    assert len(corpus) == 7  # the six BETA/NORM instances plus the n=22 stand-in
    solvers = ["heuristic", "imbalance-sa", "qubo-sa", "tabu", "decompose"]
    records = run_benchmark(corpus, solvers, repetitions=2, base_seed=3,
                            solver_params={
                                "qubo-sa": {"sweeps": 60},
                                "tabu": {"max_iterations": 1500},
                            })
    assert len(records) == len(corpus) * len(solvers) * 2
    sa_records = [r for r in records if r.solver == "imbalance-sa"]
    assert all(r.valid and r.meets_threshold for r in sa_records)
    decompose_records = [r for r in records if r.solver == "decompose"]
    assert all(r.valid for r in decompose_records)


#: per registry entry, a parameter that belongs to some other solver
FOREIGN_PARAMS = {
    "heuristic": "sweeps",
    "imbalance-sa": "max_iterations",
    "qubo-sa": "tenure",
    "tabu": "sweeps",
    "brute-force": "penalty_factor",
    "decompose": "sweeps",
}


@pytest.mark.parametrize("solver", sorted(BENCH_SOLVERS))
def test_registry_entry_rejects_a_foreign_parameter(solver):
    blades, disk = random_instance(np.random.default_rng(40), 4)
    name = FOREIGN_PARAMS[solver]
    with pytest.raises(TypeError, match=name):
        BENCH_SOLVERS[solver](blades, disk, 0, **{name: 7})


def test_import_does_not_load_the_process_pool():
    # the pool module is imported only when a benchmark runs with jobs > 1
    src = str(Path(turbobalance.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, turbobalance; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
