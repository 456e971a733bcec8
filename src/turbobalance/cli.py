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
import time
from pathlib import Path

from . import bench as bench_mod
from . import datasets
from .datasets import InstanceFormatError, load_instance
from .decompose import DecompositionConfig, decompose_solve
from .model import DiskImbalance
from .qubo import DEFAULT_PENALTY_FACTOR, build_qubo, decode, export_qubo
from .solvers import PARAMETER_CHECKS, check_count

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


def _checked(check):
    """``check`` (a library bound, such as :func:`check_count`) as an argparse
    type. argparse prints an ``ArgumentTypeError``'s text, but for a
    ``ValueError`` only the type's name, so the check's error is re-raised
    as the former."""
    def parse(text):
        try:
            return check(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    return parse


_COUNT = _checked(check_count)
_SEED = _checked(lambda text: check_count(text, least=0))


def _disk_field(name):
    """An argparse type for the :class:`DiskImbalance` field ``name``: the
    flag's float, if a disk with that value passes its checks."""
    def check(text):
        value = float(text)
        DiskImbalance(**{name: value})
        return value
    return _checked(check)


def _add_solver_flags(parser, sweeps: dict) -> None:
    """Add one flag per :data:`~turbobalance.solvers.PARAMETER_CHECKS` entry,
    typed by its check: ``--`` and the parameter's name, ``_`` written ``-``,
    except that the flags in ``sweeps`` (flag -> help text) set ``sweeps``.
    Each defaults to None, so :func:`_params` passes only the flags given."""
    for name, check in PARAMETER_CHECKS.items():
        flags = sweeps if name == "sweeps" else {"--" + name.replace("_", "-"): None}
        for flag, text in flags.items():
            parser.add_argument(flag, type=_checked(check), default=None, help=text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="turbobalance", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # each subcommand's parser stays on the parsed args, so errors found after
    # parsing print that subcommand's usage line
    gen = sub.add_parser("generate", help="generate instance files")
    gen.set_defaults(parser=gen)
    gen.add_argument("--out-dir", type=Path, default=None,
                     help="target directory (default: the corpus directory)")
    gen.add_argument("--seed", type=_SEED, default=0)
    mode = gen.add_mutually_exclusive_group(required=True)
    mode.add_argument("--standard-corpus", action="store_true",
                      help="emit the full nine-instance corpus plus manifest")
    mode.add_argument("--family", choices=sorted(datasets.FAMILIES), help="emit one instance")
    # the flags of one mode default to None, so that the other mode can refuse them
    gen.add_argument("--with-imbalance", action="store_true", default=None,
                     help="give corpus instances a bare-disk imbalance (m0=500)")
    gen.add_argument("--n", type=_checked(lambda text: check_count(text, least=2)), default=None,
                     help="blade count (default: the family's fixed size)")
    gen.add_argument("--serial", type=_SEED, default=None, help="the name's suffix (default: 0)")
    gen.add_argument("--m0", type=_disk_field("m0"), default=None,
                     help="bare-disk imbalance magnitude (default: 0)")
    gen.add_argument("--phi0", type=_disk_field("phi0"), default=None,
                     help="bare-disk imbalance angle (default: 0)")

    solve = sub.add_parser("solve", help="run one solver on one instance")
    solve.set_defaults(parser=solve)
    solve.add_argument("instance", type=Path)
    solve.add_argument("--solver", required=True, choices=sorted(bench_mod.BENCH_SOLVERS))
    solve.add_argument("--seed", type=_SEED, default=0)
    _add_solver_flags(solve, {"--sweeps": "annealing sweeps (imbalance-sa / qubo-sa)"})
    solve.add_argument("--trace", type=Path, default=None,
                       help="write the decomposition trace JSON here")
    solve.add_argument("--output", type=Path, default=None, help="report file (default: stdout)")

    run = sub.add_parser("bench", help="run solvers over a corpus manifest")
    run.set_defaults(parser=run)
    run.add_argument("--manifest", type=Path, default=None,
                     help="corpus manifest (default: <corpus dir>/manifest.json)")
    run.add_argument("--solvers", default="heuristic,imbalance-sa",
                     type=lambda text: [name.strip() for name in text.split(",") if name.strip()],
                     help="comma-separated solver names")
    run.add_argument("--repetitions", type=_COUNT, default=10)
    run.add_argument("--base-seed", type=_SEED, default=0)
    run.add_argument("--jobs", type=_COUNT, default=1)
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--out", type=Path, default=None, help="records file (default: stdout)")
    run.add_argument("--summary", type=Path, default=None, help="also write summary here")
    _add_solver_flags(run, {"--sa-sweeps": None, "--qubo-sweeps": None})

    summ = sub.add_parser("summarize", help="summarize a records CSV")
    summ.add_argument("records", type=Path)
    summ.add_argument("--format", choices=("csv", "json"), default="csv")
    summ.add_argument("--out", type=Path, default=None)

    export = sub.add_parser("export-qubo", help="write an instance's QUBO in sparse text form")
    export.add_argument("instance", type=Path)
    export.add_argument("--penalty-factor", type=_checked(PARAMETER_CHECKS["penalty_factor"]),
                        default=DEFAULT_PENALTY_FACTOR)
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
    params, used = {}, set()
    for name in bench_mod.solver_parameters(solver):
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


#: the ``generate`` flags that only ``--family`` uses
_FAMILY_FLAGS = ("n", "serial", "m0", "phi0")


def _cmd_generate(args) -> int:
    mode, unused = (("--standard-corpus", _FAMILY_FLAGS) if args.standard_corpus
                    else ("--family", ("with_imbalance",)))
    for dest in unused:
        if getattr(args, dest) is not None:
            args.parser.error(f"--{dest.replace('_', '-')} is not used by {mode}")
    if args.phi0 is not None and not args.m0:  # a balanced disk's angle is 0
        args.parser.error("--phi0 is not used without an --m0 above 0")
    out_dir = args.out_dir if args.out_dir is not None else _corpus_dir()
    if args.standard_corpus:
        manifest, instances = datasets.standard_corpus(
            out_dir, base_seed=args.seed, with_imbalance=bool(args.with_imbalance)
        )
        for instance in instances:
            print(out_dir / f"{instance.name}.json")
        print(manifest)
        return EXIT_OK
    given = {dest: getattr(args, dest) for dest in _FAMILY_FLAGS if getattr(args, dest) is not None}
    instance = datasets.generate(args.family, seed=args.seed, **given)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(instance.save(out_dir))
    return EXIT_OK


def _report_dict(name: str, solver: str, seed: int, report, wall_time: float) -> dict:
    out = {
        "instance": name,
        "solver": solver,
        "seed": seed,
        "valid": report.valid,
        "imbalance": report.imbalance,
        "assignment": report.assignment.sigma.tolist() if report.valid else None,
        "iterations": report.iterations,
        "wall_time_ms": wall_time * 1e3,
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
    t_start = time.perf_counter()
    if args.solver == "decompose":
        report, trace = decompose_solve(blades, disk, DecompositionConfig(**params), args.seed)
    else:
        report = bench_mod.BENCH_SOLVERS[args.solver](blades, disk, args.seed, **params)
    wall_time = time.perf_counter() - t_start
    if args.trace is not None:  # only decompose takes --trace
        with _output(args.trace) as fh:
            fh.write(trace.to_json())
    doc = _report_dict(instance.name, args.solver, args.seed, report, wall_time)
    with _output(args.output) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
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
                args.parser.error(f"{flag} is not used by solver {', '.join(map(repr, solvers))}")
        return _COMMANDS[args.command](args)
    except (InstanceFormatError, ValueError, OSError) as err:
        print(f"turbobalance: error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
