import functools
import io
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_instance
import turbobalance
from turbobalance import (
    AnnealSchedule,
    BladeSet,
    DiskImbalance,
    build_qubo,
    run_benchmark,
    standard_corpus,
    summarize,
    tabu_solve,
)
from turbobalance.bench import (
    BENCH_SOLVERS,
    IMBALANCE_THRESHOLD,
    RunRecord,
    SummaryRow,
    iter_benchmark,
    load_corpus,
    read_records_csv,
    run_seed,
    solver_parameters,
    to_json,
    write_csv,
)
from turbobalance.solvers import PARAMETER_CHECKS, SOLVERS, keyword_parameters


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


@pytest.mark.parametrize("solver, params, name", [
    ("tabu", {"sweeps": 3}, "sweeps"),
    ("decompose", {"sub_solver_params": {"sweepz": 3}}, "sweepz"),
    ("decompose", {"max_subproblems": 3}, "max_subproblems"),
    ("decompose", {"sub_solver": "brute-force", "max_subproblem": 12}, "max_subproblem"),
])
def test_misspelled_parameter_rejected_before_any_run(monkeypatch, solver, params, name):
    # a typo is the caller's error, not an invalid solver output
    monkeypatch.setattr(turbobalance.bench, "_execute_run", lambda task: pytest.fail("a run started"))
    with pytest.raises(ValueError, match=f"'{solver}'.*'{name}'"):
        run_benchmark(_tiny_corpus(), ["heuristic", solver], repetitions=1,
                      solver_params={solver: params})


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


def test_records_csv_without_a_column_names_the_file_and_column(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("instance,solver,repetition,valid,imbalance,wall_time_ms,meets_threshold\n"
                    "I,s,0,true,2.5,3.25,true\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: no column 'seed'"):
        read_records_csv(path)


@pytest.mark.parametrize("row, column", [
    ("I,s,zero,1,true,2.5,3.25,true", "repetition"),
    ("I,s,0,1,yes,2.5,3.25,true", "valid"),
    ("I,s,0,1,true,2.5", "wall_time_ms"),
])
def test_records_csv_bad_cell_names_the_file_line_and_column(tmp_path, row, column):
    path = tmp_path / "runs.csv"
    path.write_text("instance,solver,repetition,seed,valid,imbalance,wall_time_ms,meets_threshold\n"
                    "I,s,0,1,true,2.5,3.25,true\n" + row + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line 3, column '{column}'"):
        read_records_csv(path)


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
    # corrupt one member, and give another a mass past the range of a float
    (tmp_path / "BETA20_0000.json").write_text("{broken")
    huge = json.loads((tmp_path / "NORM20_0000.json").read_text())
    huge["masses"][0] = 10 ** 400
    (tmp_path / "NORM20_0000.json").write_text(json.dumps(huge))
    with caplog.at_level(logging.ERROR):
        corpus = load_corpus(manifest)
    assert len(corpus) == 7
    for name in ("BETA20_0000", "NORM20_0000"):
        assert any(name in message for message in caplog.text.splitlines())


def test_oversized_brute_force_merge_is_refused_before_any_run(monkeypatch):
    calls = []
    brute_force = SOLVERS["brute-force"]

    def counting(blades, disk, seed):
        calls.append(seed)
        return brute_force(blades, disk, seed)

    monkeypatch.setitem(SOLVERS, "counting", counting)
    rng = np.random.default_rng(57)
    corpus = [("T5", *random_instance(rng, 5)), ("T40", *random_instance(rng, 40))]
    params = {"decompose": {"max_subproblem": 3, "sub_solver": "counting",
                            "merge_solver": "brute-force"}}
    with pytest.raises(ValueError, match=r"'decompose'.*N=10\b.*\b16\b"):  # 40 blades, 16 groups
        iter_benchmark(corpus, ["decompose"], repetitions=1, solver_params=params)
    assert calls == []


def test_brute_force_above_its_cap_is_refused_before_any_run(monkeypatch):
    monkeypatch.setattr(turbobalance.bench, "_execute_run", lambda task: pytest.fail("a run started"))
    rng = np.random.default_rng(12)
    corpus = [("T10", *random_instance(rng, 10)), ("T12", *random_instance(rng, 12))]
    bound = "instance 'T12': solver 'brute-force' takes at most N=10 blades, got 12"
    with pytest.raises(ValueError, match=re.escape(bound)):
        run_benchmark(corpus, ["heuristic", "brute-force"], repetitions=1)


@pytest.mark.parametrize("name, value", [
    ("repetitions", 0), ("repetitions", True), ("repetitions", 2.5), ("repetitions", "x"),
    ("jobs", 0), ("jobs", -3), ("jobs", False), ("jobs", 1.0),
    ("base_seed", 1.5), ("base_seed", True), ("base_seed", -1),
])
def test_repetitions_and_jobs_below_one_fail_before_any_run(monkeypatch, name, value):
    # the bounds of the --repetitions, --jobs and --base-seed flags, for library
    # callers; a base seed may be 0, and one that is not an integer is not truncated
    monkeypatch.setattr(turbobalance.bench, "_execute_run", lambda task: pytest.fail("a run started"))
    counts = {"repetitions": 1, "jobs": 1, name: value}
    least = 0 if name == "base_seed" else 1
    prefix = "base_seed: " if name == "base_seed" else ""
    with pytest.raises(ValueError, match=re.escape(f"{prefix}must be an integer of at least {least}, "
                                                   f"got {value!r}")):
        run_benchmark(_tiny_corpus(), ["heuristic"], **counts)


def test_repetitions_and_jobs_take_decimal_text_as_the_flags_do():
    records = run_benchmark(_tiny_corpus(sizes=(5,)), ["heuristic"], repetitions="2", jobs="1")
    assert [r.repetition for r in records] == [0, 1]


def test_crashing_run_still_yields_a_record(monkeypatch, caplog):
    def crashing(blades, disk, seed):
        raise RuntimeError("solver crashed")

    monkeypatch.setitem(BENCH_SOLVERS, "crashing", crashing)
    blades, disk = random_instance(np.random.default_rng(1), 12)
    with caplog.at_level(logging.ERROR):
        records = run_benchmark([("BIG", blades, disk)], ["crashing"], repetitions=2)
    assert len(records) == 2  # every run raises
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


def _count_calls(monkeypatch, solver):
    """Replace ``solver``'s registry entry, for the harness and for decompose,
    by one with the same signature that records each call's seed; returns
    the list of seeds."""
    calls, entry = [], SOLVERS[solver]

    @functools.wraps(entry)
    def counting(blades, disk, seed, **params):
        calls.append(seed)
        return entry(blades, disk, seed, **params)

    monkeypatch.setitem(SOLVERS, solver, counting)
    monkeypatch.setitem(BENCH_SOLVERS, solver, counting)
    return calls


def test_every_registry_parameter_has_a_check():
    # a new solver parameter without a bound would reach the runs unchecked;
    # decompose's per-role parameter dicts are checked against their solvers
    taken = set().union(*map(solver_parameters, BENCH_SOLVERS))
    assert set(PARAMETER_CHECKS) == taken - {"sub_solver_params", "merge_solver_params"}


@pytest.mark.parametrize("name, value, message", [
    ("max_subproblem", 0, "must be an integer of at least 2, got 0"),
    ("max_subproblem", 1, "must be an integer of at least 2, got 1"),
    ("max_subproblem", "x", "must be an integer of at least 2, got 'x'"),
    ("sub_solver", "x", "unknown solver 'x'; available: "),
    ("merge_solver", "decompose", "unknown solver 'decompose'; available: "),
])
def test_a_decompose_field_outside_its_bound_fails_before_any_run(monkeypatch, name, value,
                                                                   message):
    monkeypatch.setattr(turbobalance.bench, "_execute_run", lambda task: pytest.fail("a run started"))
    bound = f"solver 'decompose', parameter {name!r}: {message}"
    with pytest.raises(ValueError, match=re.escape(bound)):
        run_benchmark(_tiny_corpus(), ["decompose"], repetitions=1,
                      solver_params={"decompose": {name: value}})


@pytest.mark.parametrize("solver, params, message", [
    ("qubo-sa", {"penalty_factor": None}, "solver 'qubo-sa', parameter 'penalty_factor': "),
    ("decompose", {"sub_solver": ["x"]}, "solver 'decompose', parameter 'sub_solver': "),
    ("decompose", {"sub_solver_params": None},
     "solver 'decompose': sub_solver_params: solver 'qubo-sa' takes its parameters as a dict, "
     "got None"),
    ("decompose", {"merge_solver_params": [1]},
     "solver 'decompose': merge_solver_params: solver 'qubo-sa' takes its parameters as a dict, "
     "got [1]"),
], ids=["penalty-none", "sub-solver-list", "sub-params-none", "merge-params-list"])
def test_a_parameter_of_the_wrong_type_fails_with_the_bound_error_before_any_run(
        monkeypatch, solver, params, message):
    monkeypatch.setattr(turbobalance.bench, "_execute_run", lambda task: pytest.fail("a run started"))
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        run_benchmark(_tiny_corpus(), [solver], repetitions=1, solver_params={solver: params})


@pytest.mark.parametrize("solver_params", [[1], [], "heuristic"])
def test_solver_params_that_is_not_a_dict_fails_before_any_run(monkeypatch, solver_params):
    calls = _count_calls(monkeypatch, "heuristic")
    with pytest.raises(ValueError, match=re.escape(f"got {solver_params!r}")):
        run_benchmark(_tiny_corpus(), ["heuristic"], repetitions=1, solver_params=solver_params)
    assert calls == []


def _library_call(name, value):
    """Call the library function that checks parameter ``name`` with ``value``."""
    blades, disk = random_instance(np.random.default_rng(3), 4)
    if name == "sweeps":
        return AnnealSchedule(1.0, 0.5, value)
    if name == "penalty_factor":
        return build_qubo(blades, disk, penalty_factor=value)
    return tabu_solve(build_qubo(blades, disk, materialize=False), **{name: value})


#: every (solver, parameter) of the registry, with each value outside its bound
BAD_PARAMETERS = [
    (solver, name, value)
    for solver, entry in sorted(SOLVERS.items())
    for name in keyword_parameters(entry)
    for value in ((1, float("nan"), float("inf")) if name == "penalty_factor"
                  else (0, -1, 2.5, True, "x"))
]


@pytest.mark.parametrize("solver, name, value", BAD_PARAMETERS)
def test_a_parameter_outside_its_bound_fails_before_any_run(monkeypatch, solver, name, value):
    with pytest.raises(ValueError) as library_error:
        _library_call(name, value)
    message = str(library_error.value)
    assert message.startswith(("must be an integer of at least 1, got ",
                               "penalty_factor must be finite and > 1"))
    calls = _count_calls(monkeypatch, solver)
    corpus = _tiny_corpus(sizes=(5,))
    bound = f"solver {solver!r}, parameter {name!r}: {message}"
    with pytest.raises(ValueError, match=re.escape(bound)):
        run_benchmark(corpus, [solver], repetitions=1, solver_params={solver: {name: value}})
    for role in ("sub_solver", "merge_solver"):
        config = {role: solver, f"{role}_params": {name: value}}
        with pytest.raises(ValueError, match=re.escape(f"solver 'decompose': {role}_params: {bound}")):
            run_benchmark(corpus, ["decompose"], repetitions=1,
                          solver_params={"decompose": config})
    assert calls == []


@pytest.mark.parametrize("solvers, message", [
    ([], "no solver given"),
    (["heuristic", "imbalance-sa", "heuristic"], "solver 'heuristic' is given twice"),
])
def test_an_empty_or_repeated_solver_list_fails_before_any_run(monkeypatch, solvers, message):
    calls = _count_calls(monkeypatch, "heuristic")
    with pytest.raises(ValueError, match=message):
        run_benchmark(_tiny_corpus(), solvers, repetitions=1, solver_params=FAST_PARAMS)
    assert calls == []


def test_two_instances_with_one_name_fail_before_any_run(monkeypatch):
    # they would get one seed per run and be merged into one summary cell
    (_name, a, disk), (_other, b, _disk) = _tiny_corpus()
    calls = _count_calls(monkeypatch, "heuristic")
    with pytest.raises(ValueError, match="instance 'X' is given twice"):
        run_benchmark([("X", a, disk), ("Y", b, disk), ("X", b, disk)], ["heuristic"],
                      repetitions=1)
    assert calls == []


def test_instances_given_as_an_iterator_all_run():
    # the checks before any run read the instances too; they must not use them up
    corpus = _tiny_corpus()
    expected = run_benchmark(corpus, ["heuristic"], repetitions=2)
    records = run_benchmark(iter(corpus), ["heuristic"], repetitions=2)
    assert [(r.instance, r.repetition, r.seed, r.imbalance) for r in records] == \
        [(r.instance, r.repetition, r.seed, r.imbalance) for r in expected]
    assert len(records) == 4
