"""Command-line interface.

Subcommands: ``generate`` (instance files and the standard corpus),
``solve`` (one instance, one solver), ``bench`` (run a manifest), ``summarize``
(records CSV -> summary) and ``export-qubo``. Exit codes: 0 success, 1 usage
error, 2 data error. The default corpus directory is ``./corpus`` unless the
``TURBOBALANCE_CORPUS`` environment variable overrides it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from . import datasets
from .datasets import InstanceFormatError, load_instance
from .decompose import DecompositionConfig, decompose_solve
from .qubo import DEFAULT_PENALTY_FACTOR, build_qubo, decode, export_qubo
from .solvers import get_solver, keyword_parameters

ENV_CORPUS = "TURBOBALANCE_CORPUS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _corpus_dir() -> Path:
    return Path(os.environ.get(ENV_CORPUS, "corpus"))


def _build_parser() -> _Parser:
    parser = _Parser(prog="turbobalance", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="generate instance files")
    gen.add_argument("--out-dir", type=Path, default=None,
                     help="target directory (default: the corpus directory)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--standard-corpus", action="store_true",
                     help="emit the full nine-instance corpus plus manifest")
    gen.add_argument("--with-imbalance", action="store_true",
                     help="give corpus instances a bare-disk imbalance (m0=500)")
    gen.add_argument("--family", choices=sorted(datasets.FAMILIES))
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--serial", type=int, default=0)
    gen.add_argument("--m0", type=float, default=0.0)
    gen.add_argument("--phi0", type=float, default=0.0)

    solve = sub.add_parser("solve", help="run one solver on one instance")
    solve.add_argument("instance", type=Path)
    solve.add_argument("--solver", required=True, choices=sorted(bench_mod.BENCH_SOLVERS))
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--sweeps", type=int, default=None,
                       help="annealing sweeps (imbalance-sa / qubo-sa)")
    solve.add_argument("--penalty-factor", type=float, default=None)
    solve.add_argument("--tenure", type=int, default=None)
    solve.add_argument("--max-iterations", type=int, default=None)
    solve.add_argument("--max-subproblem", type=int, default=None)
    solve.add_argument("--sub-solver", default=None, choices=sorted(bench_mod.SOLVERS))
    solve.add_argument("--merge-solver", default=None, choices=sorted(bench_mod.SOLVERS))
    solve.add_argument("--trace", type=Path, default=None,
                       help="write the decomposition trace JSON here")
    solve.add_argument("--output", type=Path, default=None, help="report file (default: stdout)")

    run = sub.add_parser("bench", help="run solvers over a corpus manifest")
    run.add_argument("--manifest", type=Path, default=None,
                     help="corpus manifest (default: <corpus dir>/manifest.json)")
    run.add_argument("--solvers", default="heuristic,imbalance-sa",
                     type=lambda text: [name.strip() for name in text.split(",") if name.strip()],
                     help="comma-separated solver names")
    run.add_argument("--repetitions", type=int, default=10)
    run.add_argument("--base-seed", type=int, default=0)
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--out", type=Path, default=None, help="records file (default: stdout)")
    run.add_argument("--summary", type=Path, default=None, help="also write summary here")
    run.add_argument("--sa-sweeps", type=int, default=None)
    run.add_argument("--qubo-sweeps", type=int, default=None)
    run.add_argument("--penalty-factor", type=float, default=None)
    run.add_argument("--tenure", type=int, default=None)
    run.add_argument("--max-iterations", type=int, default=None)
    run.add_argument("--max-subproblem", type=int, default=None)
    run.add_argument("--sub-solver", default=None, choices=sorted(bench_mod.SOLVERS))
    run.add_argument("--merge-solver", default=None, choices=sorted(bench_mod.SOLVERS))

    summ = sub.add_parser("summarize", help="summarize a records CSV")
    summ.add_argument("records", type=Path)
    summ.add_argument("--format", choices=("csv", "json"), default="csv")
    summ.add_argument("--out", type=Path, default=None)

    export = sub.add_parser("export-qubo", help="write an instance's QUBO in sparse text form")
    export.add_argument("instance", type=Path)
    export.add_argument("--penalty-factor", type=float, default=DEFAULT_PENALTY_FACTOR)
    export.add_argument("--out", type=Path, default=None, help="target file (default: stdout)")

    return parser


#: the ``bench`` flag that sets ``sweeps``, per solver
_BENCH_SWEEPS = {"imbalance-sa": "sa_sweeps", "qubo-sa": "qubo_sweeps"}


def _params(args, solver) -> tuple:
    """``(params, used)``: the parameters of ``solver`` that flags in ``args``
    set, and the ``args`` attributes of every flag ``solver`` uses.

    A parameter's flag has its name, except that ``bench`` sets ``sweeps``
    by ``--sa-sweeps`` and ``--qubo-sweeps``. Decompose's parameters are the
    fields of :class:`DecompositionConfig`; it also uses the flags of its
    sub-solver and merge solver, which set ``sub_solver_params`` and
    ``merge_solver_params``.
    """
    entry = DecompositionConfig if solver == "decompose" else get_solver(solver, bench_mod.BENCH_SOLVERS)
    params, used = {}, set()
    for name in keyword_parameters(entry):
        dest = _BENCH_SWEEPS.get(solver, name) if args.command == "bench" and name == "sweeps" else name
        if hasattr(args, dest):
            used.add(dest)
            if getattr(args, dest) is not None:
                params[name] = getattr(args, dest)
    if solver == "decompose":
        for role in ("sub_solver", "merge_solver"):
            inner = params.get(role, getattr(DecompositionConfig, role))
            params[f"{role}_params"], inner_used = _params(args, inner)
            used |= inner_used
    return params, used


def _unused_flag(args, solvers) -> str | None:
    """The first solver flag given in ``args`` that none of ``solvers`` uses."""
    def flags(names):
        return set().union(*(_params(args, name)[1] for name in names))

    for dest in sorted(flags(bench_mod.BENCH_SOLVERS) - flags(solvers)):
        if getattr(args, dest) is not None:
            return "--" + dest.replace("_", "-")
    if getattr(args, "trace", None) is not None and "decompose" not in solvers:
        return "--trace"
    return None


def _output(path: Path | None):
    """``path`` opened for writing text, or stdout, left open, when it is None."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_rows(rows, row_type, fmt: str, path: Path | None) -> list:
    """Write ``rows`` (``row_type`` dataclasses) to ``path`` or stdout, as CSV,
    each row as it arrives, or as JSON (``fmt``); returns them as a list."""
    rows, kept = itertools.tee(rows)
    with _output(path) as fh:
        if fmt == "csv":
            bench_mod.write_csv(rows, row_type, fh)
        else:
            fh.write(bench_mod.to_json(rows))
    return list(kept)


def _cmd_generate(args) -> int:
    out_dir = args.out_dir if args.out_dir is not None else _corpus_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.standard_corpus:
        manifest, instances = datasets.standard_corpus(
            out_dir, base_seed=args.seed, with_imbalance=args.with_imbalance
        )
        for instance in instances:
            print(out_dir / f"{instance.name}.json")
        print(manifest)
        return EXIT_OK
    if args.family is None:
        raise InstanceFormatError("either --standard-corpus or --family is required")
    instance = datasets.generate(
        args.family, args.n, seed=args.seed, m0=args.m0, phi0=args.phi0, serial=args.serial
    )
    print(instance.save(out_dir))
    return EXIT_OK


def _report_dict(name: str, report) -> dict:
    out = {
        "instance": name,
        "solver": report.solver_name,
        "seed": report.seed,
        "valid": report.valid,
        "imbalance": report.imbalance,
        "assignment": report.assignment.sigma.tolist() if report.valid else None,
        "iterations": report.iterations,
        "wall_time_ms": report.wall_time * 1e3,
    }
    if not report.valid and report.configuration is not None:
        # how far the output is from one-hot: rows / columns with popcount != 1
        violations = decode(report.configuration)
        out["violated_rows"] = len(violations.row_violations)
        out["violated_columns"] = len(violations.col_violations)
    return out


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    blades, disk = instance.blade_set(), instance.disk()
    params, _ = _params(args, args.solver)
    if args.solver == "decompose":
        report, trace = decompose_solve(blades, disk, DecompositionConfig(**params), args.seed)
        if args.trace is not None:
            trace.to_json(args.trace)
    else:
        report = bench_mod.BENCH_SOLVERS[args.solver](blades, disk, args.seed, **params)
    with _output(args.output) as fh:
        fh.write(json.dumps(_report_dict(instance.name, report), indent=2) + "\n")
    return EXIT_OK


def _cmd_bench(args) -> int:
    manifest = args.manifest if args.manifest is not None else _corpus_dir() / datasets.MANIFEST_NAME
    instances = bench_mod.load_corpus(manifest)
    records = bench_mod.iter_benchmark(
        instances,
        args.solvers,
        repetitions=args.repetitions,
        base_seed=args.base_seed,
        solver_params={solver: _params(args, solver)[0] for solver in args.solvers},
        jobs=args.jobs,
    )
    records = _write_rows(records, bench_mod.RunRecord, args.format, args.out)
    if args.summary is not None:
        _write_rows(bench_mod.summarize(records), bench_mod.SummaryRow, args.format, args.summary)
    return EXIT_OK


def _cmd_summarize(args) -> int:
    rows = bench_mod.summarize(bench_mod.read_records_csv(args.records))
    _write_rows(rows, bench_mod.SummaryRow, args.format, args.out)
    return EXIT_OK


def _cmd_export_qubo(args) -> int:
    instance = load_instance(args.instance)
    problem = build_qubo(instance.blade_set(), instance.disk(), penalty_factor=args.penalty_factor)
    with _output(args.out) as fh:
        export_qubo(problem, fh)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "summarize": _cmd_summarize,
    "export-qubo": _cmd_export_qubo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("solve", "bench"):
            solvers = [args.solver] if args.command == "solve" else args.solvers
            flag = _unused_flag(args, solvers)
            if flag is not None:
                parser.error(f"{flag} is not used by solver {', '.join(map(repr, solvers))}")
        return _COMMANDS[args.command](args)
    except (InstanceFormatError, ValueError, OSError) as err:
        print(f"turbobalance: error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
