"""Benchmark of turbobalance: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload anneal --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same checkout and driven one op at a time through its public functions; no
process pool. ``--trace 0`` measures the end-to-end metrics with the program
untouched; ``--trace 1`` is the separate traced run that gives the per-layer
metrics. Every metric is printed with its unit, and the last line of stdout
is a JSON object: {"correct", "attempted", "failed", "metrics"}. Details
(environment, quality metrics, errors, digest, spans) go to
``.perfbench/<workload>-seed<seed>-trace<t>.json``. The exit code is 0 when
every output passed its check, 1 when one did not, 2 when the benchmark
cannot run at all.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
#: the standard corpus is the fixed evaluation set, generated as by
#: ``turbobalance generate --standard-corpus --with-imbalance --seed 0``;
#: --seed is the base seed of the per-run solver seeds, as in ``bench``
CORPUS_SEED = 0
#: fresh-process set-ups per run; setup_s is their median
SETUP_RUNS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: the end_to_end metrics of BENCHMARK.json, in the --trace 0 result
END_TO_END = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb")
#: timings need this many samples beyond the reported tail percentile
TAIL_BEYOND = 10
#: calibrations this close in time to an op set its speed (see timed_run)
CALIBRATION_WINDOW_S = 2.0

# Runs in a fresh interpreter: the clock starts before the package import;
# the calibration comes after it, so that numpy's import is part of set-up.
SETUP_CODE = """
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from turbobalance import bench, datasets
manifest, _ = datasets.standard_corpus(sys.argv[2], base_seed=int(sys.argv[3]), with_imbalance=True)
bench.load_corpus(manifest)
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[4])
from workloads import calibration_ms
print(elapsed, statistics.median(calibration_ms() for _ in range(9)))
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Cap BLAS threads at nproc (keeping a lower cap already set); must run
    before numpy is imported."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        os.environ[var] = str(min(int(value), cap)) if value.isdigit() and int(value) > 0 else str(cap)


def tail(values):
    """(value, percentile, samples): the highest percentile with at least
    TAIL_BEYOND samples above it; None when there are too few samples."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return None
    i = len(ordered) - TAIL_BEYOND - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered)


def load_corpus(directory):
    from turbobalance import bench, datasets

    manifest, _ = datasets.standard_corpus(directory, base_seed=CORPUS_SEED, with_imbalance=True)
    return bench.load_corpus(manifest)


def fresh_setups(tmp):
    """[(set-up seconds, calibration ms)] of SETUP_RUNS fresh interpreters."""
    samples = []
    for k in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(tmp / f"setup{k}"), str(CORPUS_SEED),
             str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, calib = map(float, out.stdout.split()[-2:])
        samples.append((elapsed, calib))
    return samples


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def environment(corpus, workloads):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind != "Instruction":
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = _read(index / "size")
    exports = {
        name: {"dim": blades.n ** 2, "dense_matrix_mib": blades.n ** 4 * 8 / 2 ** 20}
        for name, blades, _ in workloads["qubo-export"].select(corpus)
    } if "qubo-export" in workloads else {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc(),
        "cpu": model,
        "caches": caches,
        "qubo_export_matrices": exports,
    }


def _metric(report, name, value, unit, note=""):
    if value is not None:
        report[name] = {"value": value, "unit": unit, "note": note}


def timed_run(workload, corpus, seed, seconds, workdir):
    """Closed loop, one op at a time, whole cycles, until the next cycle
    would end past ``seconds`` (at least ``workload.cycles`` cycles)."""
    import workloads as wl

    instances = workload.select(corpus)
    records, cycle = [], 0
    t0 = time.perf_counter()
    while True:
        records += wl.run_cycle(workload, instances, cycle, seed, workdir)
        cycle += 1
        elapsed = time.perf_counter() - t0
        if cycle >= workload.cycles and elapsed * (cycle + 1) / cycle > seconds:
            break

    # The machine's speed swings by up to 1.6x for seconds to minutes at a
    # time, so op times are scaled to the reference speed by the median of
    # the calibrations taken from CALIBRATION_WINDOW_S before the op to as
    # long after it; the raw wall times are printed too. Each instance's
    # median is taken first, which keeps swings within a run from moving the
    # median op into the next instance's cluster.
    starts = [r.started for r in records]
    speed = [statistics.median(c.calib_ms for c in records[
                 bisect.bisect_left(starts, r.started - CALIBRATION_WINDOW_S):
                 bisect.bisect_right(starts, max(r.ended, r.started) + CALIBRATION_WINDOW_S)])
             / wl.CALIBRATION_REF_MS for r in records]
    report = {}
    pairs = [(r, r.wall_ms / s) for r, s in zip(records, speed) if r.error is None]
    done = [r for r, _ in pairs]
    for suffix, times in (("", [ms for _, ms in pairs]), ("_raw", [r.wall_ms for r in done])):
        note = "wall time" if suffix else "at the reference speed"
        _metric(report, "ops_per_s" + suffix, 1e3 * len(times) / sum(times) if times else None,
                "1/s", f"{note}; {len(times)} ops in {cycle} cycles, over their total op time")
        per_instance = {}
        for r, ms in zip(done, times):
            per_instance.setdefault(r.instance, []).append(ms)
        if per_instance:
            _metric(report, "op_ms_p50" + suffix,
                    statistics.median(map(statistics.median, per_instance.values())), "ms",
                    f"{note}; median over {len(per_instance)} instances of their median op")
        t = tail(times)
        if t:
            _metric(report, "op_ms_tail" + suffix, t[0], "ms", f"{note}; p{t[1]:.1f} of n={t[2]}")
    _metric(report, "calibration_ms", statistics.median(r.calib_ms for r in records), "ms",
            f"median; the reference speed is {wl.CALIBRATION_REF_MS} ms")

    quality = [r for r in records if r.rep < workload.cycles]
    outputs = [r for r in quality if r.error is None]
    note = f"first {workload.cycles} cycles, {len(quality)} ops"
    if workload.solver is not None:
        ds = [r.d for r in outputs if r.valid]
        _metric(report, "valid_rate", sum(r.valid for r in outputs) / len(outputs) if outputs else None,
                "ratio", note + "; crashed ops excluded")
        _metric(report, "threshold_rate",
                sum(r.valid and r.d <= wl.THRESHOLD for r in outputs) / len(quality), "ratio", note)
        if ds:
            _metric(report, "d_median", statistics.median(ds), "mass", f"{len(ds)} valid outputs")
        t = tail(ds)
        _metric(report, "d_tail", t and t[0], "mass", t and f"p{t[1]:.1f} of n={t[2]}")
    if workload.ladder:
        ttt = [r.ttt_ms for r in outputs if r.ttt_ms is not None]
        never = sum(r.ttt_ms is None for r in outputs)
        if ttt:
            _metric(report, "ttt_ms", statistics.median(ttt), "ms",
                    f"{len(ttt)} (instance, rep) reached d <= {wl.THRESHOLD:g}, {never} never")
            _metric(report, "ttt_sweeps_p50",
                    statistics.median([r.ttt_sweeps for r in outputs if r.ttt_sweeps]), "sweeps")
        _metric(report, "ttt_never", never, "count", note)
    _metric(report, "error_rate", (len(records) - len(done)) / len(records), "ratio",
            f"{len(records) - len(done)} of {len(records)} ops")
    return records, quality, report


def trace_run(workload, workloads, seed, tmp):
    """The separate traced run: the corpus set-up and one cycle of every
    workload with spans, each op of ``workload`` preceded by its untraced
    twin for the overhead; then the tracemalloc peaks and evaluator walks."""
    import tracing as tr
    import workloads as wl

    spans, report = {}, {}
    tracer = tr.Tracer()
    with tr.traced(tracer):
        corpus = load_corpus(tmp / "corpus")
    spans["setup"] = tracer.spans
    metrics = tr.setup_metrics(tracer.spans)
    records, twins = [], []
    for name, w in workloads.items():
        tracer, batch = tr.Tracer(), []
        for instance in w.select(corpus):
            if name == workload.name:  # adjacent in time, so the machine's speed swings mostly cancel
                twins.append(wl.run_op(w, instance, 0, seed, tmp))
            with tr.traced(tracer):
                record = wl.run_op(w, instance, 0, seed, tmp, span=tracer.span)
            batch.append(record)
        records += batch
        spans[name] = tracer.spans
        metrics.update(tr.CYCLE_METRICS[name](tracer.spans))
        if name == workload.name:
            metrics["trace.overhead"] = (sum(r.wall_ms for r in batch) / sum(r.wall_ms for r in twins),
                                         "ratio")
    metrics.update(tr.peak_memory(workloads["qubo-export"].select(corpus), tmp))
    metrics.update(tr.evaluator_walks(corpus, seed, workloads))
    for name, (value, unit) in metrics.items():
        _metric(report, name, value, unit)
    return corpus, records + twins, report, spans


def measure(workload_name, seed, seconds, trace, workloads=None):
    """Run one benchmark invocation in-process; returns the result document."""
    import workloads as wl

    workloads = workloads or wl.WORKLOADS
    workload = workloads[workload_name]
    WORKDIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORKDIR))
    try:
        if trace:
            corpus, records, report, spans = trace_run(workload, workloads, seed, tmp)
            quality = []
        else:
            setups = fresh_setups(tmp)
            corpus = load_corpus(tmp / "corpus")
            records, quality, report = timed_run(workload, corpus, seed, seconds, tmp)
            ref = wl.CALIBRATION_REF_MS
            _metric(report, "setup_s", statistics.median(t * ref / c for t, c in setups), "s",
                    f"at the reference speed; median of {len(setups)} fresh-process set-ups")
            _metric(report, "setup_s_raw", statistics.median(t for t, _ in setups), "s", "wall time")
            _metric(report, "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "MiB", "ru_maxrss of this process")
            spans = None
        env = environment(corpus, workloads)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [r for r in records if r.error is not None]
    return {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "errors": [{"op": f"{r.instance} rep {r.rep}", "error": r.error, "traceback": r.traceback}
                   for r in failed],
        "digest": wl.digest(quality) if quality else None,
        "report": report,
        "ops": [{"instance": r.instance, "rep": r.rep, "seed": r.seed, "wall_ms": r.wall_ms,
                 "calib_ms": r.calib_ms, "valid": r.valid, "d": r.d, "ttt_ms": r.ttt_ms}
                for r in records],
        "environment": env,
        "spans": spans,
    }


def contract_line(result):
    """The last stdout line: exactly the metrics of BENCHMARK.json, which are
    END_TO_END untraced and every reported (per-layer) metric traced."""
    report = result["report"]
    names = list(report) if result["trace"] else END_TO_END
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": report[n]["value"], "unit": report[n]["unit"]}
                    for n in names if n in report},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "turbobalance" / "__init__.py").is_file():
        print(f"perfbench: no turbobalance sources under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; available: {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    out = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} -> {out.relative_to(ROOT)}")
    print("# environment " + json.dumps(result["environment"]))
    for name, m in result["report"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']:<6s} {m['note']}")
    if result["digest"]:
        print(f"{'digest':40s} {result['digest']}")
    for error in result["errors"]:
        print(f"error: {error['op']}: {error['error']}")
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
