"""Benchmark harness: run the solver portfolio over a corpus, with
repetitions, and reduce the per-run records to summary statistics.

Each scheduled (instance, solver, repetition) run gets its own seed derived
from the base seed and a stable hash of the triple, so any single run can be
reproduced in isolation. For every valid output the recorded imbalance is
re-evaluated on the full objective (blades plus bare disk), which keeps the
numbers comparable across solvers that do or do not look at the disk.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import time
from dataclasses import dataclass

import numpy as np

from .datasets import InstanceFormatError, load_instance, load_manifest
from .decompose import DecompositionConfig, decompose_solve
from .model import derive_seed, imbalance
from .solvers import SOLVERS, get_solver

logger = logging.getLogger(__name__)

#: industrial acceptance threshold on the total imbalance, in dataset units
IMBALANCE_THRESHOLD = 3.0


@dataclass(frozen=True)
class RunRecord:
    """One scheduled run. Its fields, in order, are the CSV columns and the
    JSON keys of a records file."""

    instance: str
    solver: str
    repetition: int
    seed: int
    valid: bool
    imbalance: float | None
    wall_time_ms: float
    meets_threshold: bool


@dataclass(frozen=True)
class SummaryRow:
    """Statistics of one (instance, solver) cell; fields as for RunRecord."""

    instance: str
    solver: str
    valid_count: int
    mean_imbalance: float | None
    std_imbalance: float | None
    min_imbalance: float | None
    max_imbalance: float | None
    mean_wall_time_ms: float


def _run_decompose(blades, disk, seed, **config):
    """Registry entry of the pipeline; ``config`` holds DecompositionConfig fields."""
    report, _trace = decompose_solve(blades, disk, DecompositionConfig(**config), seed)
    return report


#: everything the harness can run: the atomic solvers plus the pipeline
BENCH_SOLVERS = {**SOLVERS, "decompose": _run_decompose}


def run_seed(base_seed: int, instance: str, solver: str, repetition: int) -> int:
    """Per-run seed: base_seed XOR a stable 63-bit hash of the run triple."""
    digest = derive_seed(instance, solver, repetition, sep="\x1f")
    return (int(base_seed) ^ digest) & (2 ** 63 - 1)


def load_corpus(manifest_path):
    """Manifest -> [(name, BladeSet, DiskImbalance)]; unreadable instances are
    skipped with a logged error."""
    loaded = []
    for path in load_manifest(manifest_path):
        try:
            instance = load_instance(path)
        except InstanceFormatError as err:
            logger.error("skipping instance %s: %s", path, err)
            continue
        loaded.append((instance.name, instance.blade_set(), instance.disk()))
    return loaded


def _execute_run(task):
    name, blades, disk, solver, params, seed, repetition = task
    fn = BENCH_SOLVERS[solver]
    t0 = time.perf_counter()
    try:
        report = fn(blades, disk, seed, **params)
    except Exception as err:  # a crashed run still yields its record
        logger.error("%s/%s rep %d failed: %s", name, solver, repetition, err)
        report = None
    wall_ms = (time.perf_counter() - t0) * 1e3
    valid = report is not None and report.valid
    d = imbalance(blades, disk, report.assignment).d if valid else None
    return RunRecord(name, solver, repetition, seed, valid, d, wall_ms,
                     valid and d <= IMBALANCE_THRESHOLD)


def iter_benchmark(instances, solvers, repetitions: int = 10, base_seed: int = 0,
                   solver_params=None, jobs: int = 1):
    """Yield one RunRecord per scheduled run, in schedule order.

    ``instances`` is a list of (name, BladeSet, DiskImbalance). Unknown
    solver names are rejected before anything runs. With ``jobs`` > 1 the
    runs execute in a process pool; the record order stays deterministic.
    """
    solvers = list(solvers)
    for solver in solvers:
        get_solver(solver, BENCH_SOLVERS)
    params = solver_params or {}
    tasks = [
        (name, blades, disk, solver, params.get(solver, {}),
         run_seed(base_seed, name, solver, repetition), repetition)
        for name, blades, disk in instances
        for solver in solvers
        for repetition in range(repetitions)
    ]
    return _iter_tasks(tasks, jobs)


def _iter_tasks(tasks, jobs):
    if jobs <= 1:
        for task in tasks:
            yield _execute_run(task)
    else:
        # deferred: the process pool module is a sizable share of import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(_execute_run, tasks)


def run_benchmark(instances, solvers, repetitions: int = 10, base_seed: int = 0,
                  solver_params=None, jobs: int = 1) -> list:
    return list(iter_benchmark(instances, solvers, repetitions, base_seed,
                               solver_params, jobs))


def summarize(records) -> list:
    """Per (instance, solver) statistics over the valid runs.

    Imbalance statistics cover valid runs only (absent when there are none;
    std absent below two valid runs); the wall-time mean covers every run of
    the cell. Pure function of the records, so rerunning it on a saved CSV
    reproduces the same rows.
    """
    records = list(records)
    if not records:
        raise ValueError("cannot summarize an empty record set")
    order = []
    groups = {}
    for record in records:
        key = (record.instance, record.solver)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(record)

    rows = []
    for key in order:
        cell = groups[key]
        values = [r.imbalance for r in cell if r.valid]
        wall = sum(r.wall_time_ms for r in cell) / len(cell)
        if values:
            arr = np.asarray(values)
            row = SummaryRow(
                instance=key[0],
                solver=key[1],
                valid_count=len(values),
                mean_imbalance=float(arr.mean()),
                std_imbalance=float(arr.std(ddof=1)) if len(values) >= 2 else None,
                min_imbalance=float(arr.min()),
                max_imbalance=float(arr.max()),
                mean_wall_time_ms=wall,
            )
        else:
            row = SummaryRow(key[0], key[1], 0, None, None, None, None, wall)
        rows.append(row)
    return rows


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(rows, row_type, file) -> None:
    """Stream ``rows`` (instances of the dataclass ``row_type``) to ``file``
    as CSV: a header of ``row_type``'s field names in declaration order, then
    one line per row as it arrives ('.' decimals, lowercase booleans, empty
    field = absent)."""
    names = [f.name for f in dataclasses.fields(row_type)]
    writer = csv.writer(file, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow([_format_field(getattr(row, name)) for name in names])


def read_records_csv(path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        records = []
        for row in reader:
            records.append(RunRecord(
                instance=row["instance"],
                solver=row["solver"],
                repetition=int(row["repetition"]),
                seed=int(row["seed"]),
                valid=row["valid"] == "true",
                imbalance=float(row["imbalance"]) if row["imbalance"] else None,
                wall_time_ms=float(row["wall_time_ms"]),
                meets_threshold=row["meets_threshold"] == "true",
            ))
    return records


def to_json(rows) -> str:
    """``rows`` (dataclass instances) as a JSON array of objects keyed by
    field name, in field order."""
    return json.dumps([dataclasses.asdict(row) for row in rows], indent=2) + "\n"
