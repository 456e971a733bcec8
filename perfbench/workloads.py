"""Workload definitions, the per-op correctness check and the op loop.

Every op drives turbobalance through its public functions only:
``bench.BENCH_SOLVERS[name](blades, disk, bench.run_seed(...), **params)``
for the solver workloads, and ``qubo.build_qubo`` -> ``qubo.export_qubo`` ->
``qubo.load_qubo_export`` for the export workload. The ops look these up
through their module attributes at call time, so a traced run can wrap them
there. The correctness check binds its own references at import time and is
never traced.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from turbobalance import bench, qubo
from turbobalance.model import Assignment, imbalance, imbalance_squared_cosform
from turbobalance.qubo import build_qubo as _check_build_qubo
from turbobalance.qubo import decode as _check_decode
from turbobalance.qubo import qubo_energy as _check_qubo_energy

#: industrial acceptance threshold on the total imbalance
THRESHOLD = bench.IMBALANCE_THRESHOLD
#: relative tolerance of the cross-checks, against m0^2 + sum(m_i^2): both
#: objective forms sum terms of that size, so d^2 itself (often < 1e-2 after
#: annealing) cannot serve as the scale
CROSS_CHECK_RTOL = 1e-9
#: sweep ladder of the time-to-threshold runs: 1, 2, 4, ..., 2048
LADDER = tuple(2 ** k for k in range(12))
#: op times are reported at the machine speed where calibration_ms() reads
#: this; it is about its reading on the first machine measured (README)
CALIBRATION_REF_MS = 1.6
_CAL_FLOATS = [float(i) for i in range(256)]
_CAL_VECTOR = np.linspace(0.0, 1.0, 1024)


@dataclass(frozen=True)
class Workload:
    """One op mix. ``instances`` are corpus name prefixes (``NORM40`` for
    ``NORM40_0000``). A cycle runs one op per instance in order; every run
    completes at least ``cycles`` cycles, and the quality metrics and the
    digest cover exactly those, so they repeat for a fixed seed."""

    name: str
    instances: tuple
    solver: str | None  # None: the build/export/load op
    cycles: int
    params: dict = field(default_factory=dict)
    ladder: bool = False

    def select(self, corpus):
        """This workload's instances, in its order, from the loaded corpus."""
        by_prefix = {name.split("_")[0]: (name, blades, disk) for name, blades, disk in corpus}
        return [by_prefix[key] for key in self.instances]


ALL_INSTANCES = ("BETA20", "BETA39", "BETA40", "NORM20", "NORM39", "NORM40",
                 "F22SYN22", "STG1SYN84", "STG2SYN86")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("anneal", ALL_INSTANCES, "imbalance-sa", cycles=10, ladder=True),
        Workload("qubo-tabu",
                 ("BETA20", "NORM20", "F22SYN22", "BETA39", "NORM39", "BETA40", "NORM40"),
                 "tabu", cycles=5, params={"max_iterations": 2000}),
        Workload("decompose", ("NORM40", "STG1SYN84", "STG2SYN86"), "decompose", cycles=5),
        # seven cycles: 21 ops, so the tail percentile lies above the median
        Workload("qubo-export", ("NORM20", "F22SYN22", "BETA40"), None, cycles=7),
    )
}


class CheckFailed(Exception):
    """An op returned an output that disagrees with an independent recomputation."""


@dataclass
class OpRecord:
    instance: str
    solver: str
    rep: int
    seed: int
    wall_ms: float = 0.0
    valid: bool | None = None  # None: no output (the op raised)
    d: float | None = None
    digest_value: str = ""  # what the reproducibility digest hashes besides valid
    error: str | None = None
    traceback: str | None = None
    ttt_ms: float | None = None
    ttt_sweeps: int | None = None
    ladder: list = field(default_factory=list)  # [(sweeps, valid, d)]
    calib_ms: float = CALIBRATION_REF_MS
    started: float = 0.0  # perf_counter() at the calibration
    ended: float = 0.0  # perf_counter() when the op returned


def _cross_scale(blades, disk) -> float:
    return disk.m0 ** 2 + float(blades.masses @ blades.masses)


def check_report(report, blades, disk):
    """Validate one SolveReport against independent recomputation.

    Returns the recomputed d for valid outputs and None for invalid ones;
    raises CheckFailed on any disagreement.
    """
    config = getattr(report, "configuration", None)
    if config is not None:
        decoded = _check_decode(config)
        if bool(report.valid) != isinstance(decoded, Assignment):
            raise CheckFailed(f"valid={report.valid} but decode gives {type(decoded).__name__}")
        if report.valid and decoded != report.assignment:
            raise CheckFailed("reported assignment differs from the decoded configuration")
    if not report.valid:
        if report.assignment is not None or report.imbalance is not None:
            raise CheckFailed("invalid output carries an assignment or an imbalance")
        return None
    if not isinstance(report.assignment, Assignment) or report.imbalance is None:
        raise CheckFailed("valid output without an assignment and an imbalance")
    d = imbalance(blades, disk, report.assignment).d
    if not math.isclose(report.imbalance, d, rel_tol=1e-12, abs_tol=1e-9):
        raise CheckFailed(f"reported imbalance {report.imbalance!r} != recomputed {d!r}")
    scale = _cross_scale(blades, disk)
    cos_d2 = imbalance_squared_cosform(blades, disk, report.assignment)
    if abs(cos_d2 - d * d) > CROSS_CHECK_RTOL * scale:
        raise CheckFailed(f"cosine form {cos_d2!r} != d^2 {d * d!r}")
    if config is not None:
        problem = _check_build_qubo(blades, disk, materialize=False)
        energy = _check_qubo_energy(problem, config) + problem.constant_offset
        if abs(energy - d * d) > CROSS_CHECK_RTOL * scale:
            raise CheckFailed(f"energy + offset {energy!r} != d^2 {d * d!r}")
    return d


def check_export(problem, matrix, offset):
    if offset != problem.constant_offset:
        raise CheckFailed(f"loaded offset {offset!r} != built {problem.constant_offset!r}")
    if matrix.shape != problem.matrix.shape or not np.array_equal(matrix, problem.matrix):
        raise CheckFailed("loaded matrix differs from the built one")


def calibration_ms() -> float:
    """Time a fixed mix of the kinds of work the program does (an interpreted
    float loop, small numpy vector ops, float reprs): the machine's speed
    right now, measured without the program."""
    t0 = time.perf_counter()
    x = 0.0
    for k in range(4096):
        a = _CAL_FLOATS[k & 255]
        x = x * 0.5 + a * a if a > x else x - a
    v = _CAL_VECTOR
    for _ in range(64):
        v = (v * 1.0001 + 0.5) % 1.0
    "".join(repr(a * 1.1) for a in _CAL_FLOATS)
    return (time.perf_counter() - t0) * 1e3


def _solve(workload, blades, disk, seed, **params):
    t0 = time.perf_counter()
    report = bench.BENCH_SOLVERS[workload.solver](blades, disk, seed, **{**workload.params, **params})
    return report, (time.perf_counter() - t0) * 1e3


def run_op(workload, instance, rep, base_seed, workdir, span=None):
    """One op, preceded by a calibration and followed by its check.
    Exceptions from the program are recorded, never raised."""
    name, blades, disk = instance
    solver = workload.solver or "qubo-export"
    seed = bench.run_seed(base_seed, name, solver, rep)
    started = time.perf_counter()
    record = OpRecord(name, solver, rep, seed, calib_ms=calibration_ms(), started=started)
    try:
        with span("op") if span else nullcontext():
            if workload.solver is None:
                t0 = time.perf_counter()
                problem = qubo.build_qubo(blades, disk, materialize=True)
                path = Path(workdir) / "op.qubo"
                qubo.export_qubo(problem, path)
                matrix, offset = qubo.load_qubo_export(path)
                record.wall_ms = (time.perf_counter() - t0) * 1e3
                record.ended = time.perf_counter()
            else:
                report, record.wall_ms = _solve(workload, blades, disk, seed)
                record.ended = time.perf_counter()
        if workload.solver is None:
            check_export(problem, matrix, offset)
            record.valid = True
            record.digest_value = hashlib.sha256(path.read_bytes()).hexdigest()
            path.unlink()
        else:
            record.d = check_report(report, blades, disk)
            record.valid = bool(report.valid)
            record.digest_value = repr(record.d)
        if workload.ladder:
            _ladder(workload, record, blades, disk, span)
    except CheckFailed as err:
        record.valid = None
        record.error = f"check: {err}"
    except Exception as err:  # a crashed op is an error, never an invalid output
        record.valid = None
        record.error = f"{type(err).__name__}: {err}"
        record.traceback = traceback.format_exc()
    return record


def _ladder(workload, record, blades, disk, span):
    """Time-to-threshold: doubling sweep budgets with the op's seed; the time
    of the first rung whose output reaches d <= THRESHOLD."""
    for sweeps in LADDER:
        with span("ladder") if span else nullcontext():
            report, wall_ms = _solve(workload, blades, disk, record.seed, sweeps=sweeps)
        d = check_report(report, blades, disk)
        record.ladder.append((sweeps, bool(report.valid), d))
        if d is not None and d <= THRESHOLD:
            record.ttt_ms, record.ttt_sweeps = wall_ms, sweeps
            break


def run_cycle(workload, instances, rep, base_seed, workdir, span=None):
    """One op per instance."""
    return [run_op(workload, instance, rep, base_seed, workdir, span) for instance in instances]


def digest(records) -> str:
    """Reproducibility digest over (instance, solver, rep, seed, valid, repr(d))
    of every op and ladder rung, in schedule order."""
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.instance}\t{r.solver}\t{r.rep}\t{r.seed}\t{r.valid}\t{r.digest_value}\n".encode())
        for sweeps, valid, d in r.ladder:
            h.update(f"{r.instance}\t{r.solver}@{sweeps}\t{r.rep}\t{r.seed}\t{valid}\t{d!r}\n".encode())
    return h.hexdigest()
