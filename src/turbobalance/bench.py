"""Benchmark harness: run the solver portfolio over a corpus, with
repetitions, and reduce the per-run records to summary statistics.

Each scheduled (instance, solver, repetition) run gets its own seed derived
from the base seed and a stable hash of the triple, so any single run can be
reproduced in isolation. A record's imbalance is its report's: every entry
of :data:`BENCH_SOLVERS` measures it on the full objective (blades plus
bare disk), so the numbers stay comparable across solvers that do or do not
look at the disk. The whole schedule is checked before any run.
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
from .decompose import DecompositionConfig, check_merge_size, decompose_solve
from .model import derive_seed
from .solvers import (SOLVERS, check_blade_count, check_count, check_parameters, get_solver,
                      keyword_parameters, prefixed)

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


def solver_parameters(solver: str) -> list:
    """Names of the parameters ``solver`` takes: its registry entry's, or the
    :class:`DecompositionConfig` fields for ``decompose``."""
    entry = get_solver(solver, BENCH_SOLVERS)
    return keyword_parameters(DecompositionConfig if solver == "decompose" else entry)


def run_seed(base_seed: int, instance: str, solver: str, repetition: int) -> int:
    """Per-run seed: base_seed XOR a stable 63-bit hash of the run triple."""
    digest = derive_seed(instance, solver, repetition, sep="\x1f")
    return (int(base_seed) ^ digest) & (2 ** 63 - 1)


def load_corpus(manifest_path):
    """Manifest -> [(name, BladeSet, DiskImbalance)]; unreadable instances are
    skipped with a logged error. Runs are seeded and summarized by name, so
    two files carrying one name raise :class:`InstanceFormatError` naming
    both."""
    loaded = []
    paths = {}
    for path in load_manifest(manifest_path):
        try:
            instance = load_instance(path)
        except InstanceFormatError as err:
            logger.error("skipping instance %s: %s", path, err)
            continue
        if instance.name in paths:
            raise InstanceFormatError(
                f"{path}: instance name {instance.name!r} is already used by {paths[instance.name]}"
            )
        paths[instance.name] = path
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
    d = report.imbalance if valid else None
    return RunRecord(name, solver, repetition, seed, valid, d, wall_ms,
                     valid and d <= IMBALANCE_THRESHOLD)


def iter_benchmark(instances, solvers, repetitions: int = 10, base_seed: int = 0,
                   solver_params=None, jobs: int = 1):
    """Yield one RunRecord per scheduled run, in schedule order.

    ``instances`` is an iterable of (name, BladeSet, DiskImbalance). Bad input
    raises ``ValueError`` before anything runs: ``repetitions`` or ``jobs``
    below 1, a ``base_seed`` below 0 (each checked by
    :func:`~turbobalance.solvers.check_count`, so a float or a bool is
    refused, not truncated), an empty or repeated solver list, an instance
    name given twice, an unknown solver, ``solver_params`` that is not a
    dict, parameters
    (``solver_params[solver]``) that a solver does not take or whose value
    fails its bound (:data:`~turbobalance.solvers.PARAMETER_CHECKS`), and an
    instance with more blades, or decompose groups, than a solver takes
    (:func:`~turbobalance.solvers.check_blade_count`). With ``jobs`` > 1 the
    runs execute in a process pool; the record order stays deterministic.
    """
    instances, solvers = list(instances), list(solvers)
    params = {} if solver_params is None else solver_params
    if not isinstance(params, dict):
        raise ValueError(f"solver_params maps each solver to its parameters; got {params!r}")
    repetitions, jobs = check_count(repetitions), check_count(jobs)
    with prefixed("base_seed"):
        base_seed = check_count(base_seed, least=0)
    if not solvers:
        raise ValueError("no solver given")
    names = [name for name, _blades, _disk in instances]
    for i, name in enumerate(names):
        if name in names[:i]:  # the runs would share seeds and summary cells
            raise ValueError(f"instance {name!r} is given twice")
    for i, solver in enumerate(solvers):
        if solver in solvers[:i]:
            raise ValueError(f"solver {solver!r} is given twice")
        given = params.get(solver, {})
        check_parameters(solver, solver_parameters(solver), given)
        for name, blades, _disk in instances:
            with prefixed(f"instance {name!r}"):
                check_blade_count(solver, blades.n)
        if solver == "decompose":  # checks its sub- and merge-solver parameters too
            with prefixed("solver 'decompose'"):
                config = DecompositionConfig(**given)
                for _name, blades, _disk in instances:
                    check_merge_size(blades.n, config)
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
    groups = {}  # insertion order is the cell order
    for record in records:
        groups.setdefault((record.instance, record.solver), []).append(record)

    rows = []
    for (instance, solver), cell in groups.items():
        arr = np.asarray([r.imbalance for r in cell if r.valid], dtype=float)
        rows.append(SummaryRow(
            instance=instance,
            solver=solver,
            valid_count=arr.size,
            mean_imbalance=float(arr.mean()) if arr.size else None,
            std_imbalance=float(arr.std(ddof=1)) if arr.size >= 2 else None,
            min_imbalance=float(arr.min()) if arr.size else None,
            max_imbalance=float(arr.max()) if arr.size else None,
            mean_wall_time_ms=sum(r.wall_time_ms for r in cell) / len(cell),
        ))
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


#: a CSV field's text -> its value, by the field's declared type; inverts _format_field
_PARSERS = {"str": str, "int": int, "float": float,
            "bool": {"true": True, "false": False}.__getitem__,
            "float | None": lambda text: float(text) if text else None}


def _parse_cell(path, line, field, text):
    # a short row's cells are None from the first missing one on; the last
    # column's bool parser rejects None, so every short row fails
    try:
        return _PARSERS[field.type](text)
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: line {line}, column {field.name!r}: "
                         f"cannot read {text!r} ({err})") from None


def read_records_csv(path) -> list:
    """Records of a file that ``write_csv(..., RunRecord, ...)`` wrote; the
    columns and their conversions come from RunRecord's fields. A missing
    column, or a cell that does not convert, raises ``ValueError`` naming the
    file and the column (and the cell's line)."""
    fields = dataclasses.fields(RunRecord)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for f in fields:
            if f.name not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: no column {f.name!r}")
        return [RunRecord(*(_parse_cell(path, reader.line_num, f, row[f.name]) for f in fields))
                for row in reader]


def to_json(rows) -> str:
    """``rows`` (dataclass instances) as a JSON array of objects keyed by
    field name, in field order."""
    return json.dumps([dataclasses.asdict(row) for row in rows], indent=2) + "\n"
