"""The traced run: spans around turbobalance's public functions, and the
per-layer metrics computed from them.

Functions are wrapped at the module attributes their callers look them up
through (``solvers.SOLVERS[...]``, ``solvers.build_qubo``,
``decompose.heuristic_solve``, ...), so the program itself is unmodified.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from turbobalance import bench, datasets, decompose, qubo, solvers
from turbobalance.model import SlotGeometry

MIB = 2.0 ** 20
#: steps of the seeded evaluator walks
VECTOR_STEPS = 400
SCALAR_STEPS = 40000


class Tracer:
    """Spans (name, start, end, parent, attrs) for one traced pass."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._undo = []

    @contextmanager
    def span(self, name):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None, "attrs": {}}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def patch(self, owner, key, name, note=None):
        """Wrap ``owner.key`` (or ``owner[key]`` for a dict) in a span;
        ``note(attrs, args, result)`` records counters after the call."""
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else getattr(owner, key)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if note is not None:
                note(record["attrs"], args, result)
            return result

        if is_dict:
            owner[key] = traced
            self._undo.append(lambda: owner.__setitem__(key, original))
        else:
            setattr(owner, key, traced)
            self._undo.append(lambda: setattr(owner, key, original))

    def restore(self):
        while self._undo:
            self._undo.pop()()


def _note_solve(attrs, args, report):
    attrs["iterations"] = report.iterations
    attrs["valid"] = bool(report.valid)


def _note_role(attrs, args, report):
    # decompose names the merge problem's pseudo-blade set "<instance>[merge]"
    attrs["role"] = "merge" if args[0].name.endswith("[merge]") else "leaf"


def _note_decompose(attrs, args, result):
    report, trace = result
    disk = args[1]
    leaves = trace.leaves()
    attrs["leaves"] = len(leaves)
    attrs["fallbacks"] = sum(leaf.fallback for leaf in leaves) + int(trace.merge_fallback)
    if trace.merge_report is not None:
        psi = SlotGeometry(len(leaves)).angles()[trace.merge_report.assignment.slots0]
        mass = np.asarray(trace.pseudo_masses)
        intended = disk.vector + np.array([mass @ np.cos(psi), mass @ np.sin(psi)])
        attrs["realization_loss"] = report.imbalance - float(np.hypot(*intended))


def _note_export(attrs, args, result):
    attrs["bytes"] = Path(args[1]).stat().st_size


def instrument(tracer):
    """Wrap every layer boundary the benchmark reports on."""
    p = tracer.patch
    for name in list(solvers.SOLVERS):  # what decompose's leaf and merge solves call
        p(solvers.SOLVERS, name, f"solvers.run.{name}", _note_role)
    p(solvers, "imbalance_sa_solve", "solvers.imbalance_sa", _note_solve)
    p(solvers, "qubo_sa_solve", "solvers.qubo_sa", _note_solve)
    p(solvers, "tabu_solve", "solvers.tabu", _note_solve)
    for owner in (solvers, decompose):
        p(owner, "heuristic_solve", "solvers.heuristic")
        p(owner, "imbalance", "model.imbalance")
    for owner in (solvers, qubo):
        p(owner, "build_qubo", "qubo.build_qubo")
    p(solvers, "decode", "qubo.decode")
    p(qubo, "export_qubo", "qubo.export_qubo", _note_export)
    p(qubo, "load_qubo_export", "qubo.load_qubo_export")
    p(bench, "decompose_solve", "decompose.decompose_solve", _note_decompose)
    p(datasets, "standard_corpus", "datasets.standard_corpus")
    p(bench, "load_instance", "datasets.load_instance")
    p(bench, "load_corpus", "bench.load_corpus")


@contextmanager
def traced(tracer):
    """Instrument the program while the block runs; spans go to ``tracer``."""
    instrument(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()


def _duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    own = [_duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    return own


def _root(spans, i):
    while spans[i]["parent"] is not None:
        i = spans[i]["parent"]
    return spans[i]["name"]


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def _ms(spans):
    return 1e3 * sum(_duration(s) for s in spans)


def _per_unit(spans, scale):
    """Wall time per reported iteration, in 1/scale seconds."""
    work = sum(s["attrs"].get("iterations", 0) for s in spans)
    return scale * sum(_duration(s) for s in spans) / work if work else 0.0


def _valid_ratio(spans):
    return sum(s["attrs"].get("valid", False) for s in spans) / len(spans) if spans else 0.0


def anneal_metrics(spans):
    moves = [s for i, s in enumerate(spans)
             if s["name"] == "solvers.imbalance_sa" and _root(spans, i) == "op"]
    heuristic = _named(spans, "solvers.heuristic")
    return {
        "solvers.imbalance_sa.ns_per_move": (_per_unit(moves, 1e9), "ns"),
        "solvers.imbalance_sa.valid_ratio": (_valid_ratio(_named(spans, "solvers.imbalance_sa")), "ratio"),
        "solvers.heuristic.calls": (len(heuristic), "count"),
        "solvers.heuristic.ms": (_ms(heuristic), "ms"),
    }


def tabu_metrics(spans):
    tabu = _named(spans, "solvers.tabu")
    return {
        "solvers.tabu.us_per_iter": (_per_unit(tabu, 1e6), "us"),
        "solvers.tabu.valid_ratio": (_valid_ratio(tabu), "ratio"),
    }


def decompose_metrics(spans):
    qsa = _named(spans, "solvers.qubo_sa")
    runs = [s for s in spans if s["name"].startswith("solvers.run.")]
    leaf = [s for s in runs if s["attrs"].get("role") == "leaf"]
    merge = [s for s in runs if s["attrs"].get("role") == "merge"]
    pipeline = _named(spans, "decompose.decompose_solve")
    own = self_times(spans)
    losses = [s["attrs"]["realization_loss"] for s in pipeline if "realization_loss" in s["attrs"]]
    return {
        "model.imbalance.calls": (len(_named(spans, "model.imbalance")), "count"),
        "model.imbalance.ms": (_ms(_named(spans, "model.imbalance")), "ms"),
        "solvers.qubo_sa.ns_per_flip": (_per_unit(qsa, 1e9), "ns"),
        "solvers.qubo_sa.calls": (len(qsa), "count"),
        "solvers.qubo_sa.valid_ratio": (_valid_ratio(qsa), "ratio"),
        "qubo.build_qubo.calls": (len(_named(spans, "qubo.build_qubo")), "count"),
        "qubo.build_qubo.ms": (_ms(_named(spans, "qubo.build_qubo")), "ms"),
        "qubo.decode.ms": (_ms(_named(spans, "qubo.decode")), "ms"),
        "decompose.leaves": (sum(s["attrs"].get("leaves", 0) for s in pipeline), "count"),
        "decompose.leaf_attempts": (len(leaf), "count"),
        "decompose.fallbacks": (sum(s["attrs"].get("fallbacks", 0) for s in pipeline), "count"),
        "decompose.merge_attempts": (len(merge), "count"),
        "decompose.leaf_solve_ms": (_ms(leaf), "ms"),
        "decompose.merge_solve_ms": (_ms(merge), "ms"),
        "decompose.self_ms": (1e3 * sum(own[i] for i, s in enumerate(spans)
                                        if s["name"] == "decompose.decompose_solve"), "ms"),
        "decompose.realization_loss": (statistics.median(losses) if losses else 0.0, "mass"),
    }


def export_metrics(spans):
    exports = _named(spans, "qubo.export_qubo")
    return {
        "qubo.build_qubo.materialized_ms": (_ms(_named(spans, "qubo.build_qubo")), "ms"),
        "qubo.export_qubo.ms": (_ms(exports), "ms"),
        "qubo.export_qubo.mb": (sum(s["attrs"].get("bytes", 0) for s in exports) / MIB, "MiB"),
        "qubo.load_qubo_export.ms": (_ms(_named(spans, "qubo.load_qubo_export")), "ms"),
    }


def setup_metrics(spans):
    return {
        "datasets.standard_corpus.ms": (_ms(_named(spans, "datasets.standard_corpus")), "ms"),
        "datasets.load_instance.ms": (_ms(_named(spans, "datasets.load_instance")), "ms"),
        "bench.load_corpus.ms": (_ms(_named(spans, "bench.load_corpus")), "ms"),
    }


#: which workload's traced cycle each group of layer metrics is read from
CYCLE_METRICS = {
    "anneal": anneal_metrics,
    "qubo-tabu": tabu_metrics,
    "decompose": decompose_metrics,
    "qubo-export": export_metrics,
}


def peak_memory(instances, workdir):
    """Worst instance's tracemalloc peaks of a materialized build and of its
    export, each counting only what the call itself allocates. An untimed
    pass of its own: tracemalloc slows the export about tenfold."""
    build_peak = export_peak = 0
    path = Path(workdir) / "peak.qubo"
    for _name, blades, disk in instances:
        tracemalloc.start()
        try:
            problem = qubo.build_qubo(blades, disk, materialize=True)
            build_peak = max(build_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            qubo.export_qubo(problem, path)
            export_peak = max(export_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            path.unlink(missing_ok=True)
    return {
        "qubo.build_qubo.peak_mb": (build_peak / MIB, "MiB"),
        "qubo.export_qubo.peak_mb": (export_peak / MIB, "MiB"),
    }


def evaluator_walks(corpus, seed, workloads):
    """Seeded walks that call the evaluator's public methods directly:
    ``all_flip_deltas`` on the qubo-tabu instances, scalar ``flip_delta`` and
    ``flip`` on the decompose instances."""
    rng = np.random.default_rng(seed)
    vector_s = 0.0
    vector_calls = 0
    for _name, blades, disk in workloads["qubo-tabu"].select(corpus):
        ev = qubo.build_qubo(blades, disk, materialize=False).evaluator()
        ev.reset(rng.integers(0, 2, size=ev.dimension, dtype=np.int8))
        for a in rng.integers(0, ev.dimension, size=VECTOR_STEPS).tolist():
            t0 = time.perf_counter()
            ev.all_flip_deltas()
            vector_s += time.perf_counter() - t0
            ev.flip(a)
        vector_calls += VECTOR_STEPS
    delta_s = flip_s = 0.0
    scalar_calls = 0
    for _name, blades, disk in workloads["decompose"].select(corpus):
        ev = qubo.build_qubo(blades, disk, materialize=False).evaluator()
        ev.reset(rng.integers(0, 2, size=ev.dimension, dtype=np.int8))
        moves = rng.integers(0, ev.dimension, size=SCALAR_STEPS).tolist()
        flip_delta, flip = ev.flip_delta, ev.flip
        t0 = time.perf_counter()
        for a in moves:
            flip_delta(a)
        t1 = time.perf_counter()
        for a in moves:
            flip(a)
        t2 = time.perf_counter()
        delta_s += t1 - t0
        flip_s += t2 - t1
        scalar_calls += SCALAR_STEPS
    return {
        "qubo.evaluator.all_flip_deltas_us": (1e6 * vector_s / vector_calls, "us"),
        "qubo.evaluator.flip_delta_ns": (1e9 * delta_s / scalar_calls, "ns"),
        "qubo.evaluator.flip_ns": (1e9 * flip_s / scalar_calls, "ns"),
    }

