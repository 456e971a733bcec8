"""Solvers and benchmark tooling for the turbine blade balancing problem:
assign N blades of unequal mass to N equidistant slots so the assembly's
center of mass stays as close to the rotation axis as possible."""

from .model import (
    Assignment,
    BladeSet,
    DiskImbalance,
    ImbalanceResult,
    SlotGeometry,
    imbalance,
    imbalance_squared_cosform,
)
from .qubo import (
    BinaryConfiguration,
    QuboProblem,
    ValidityReport,
    build_qubo,
    decode,
    encode,
    export_qubo,
    min_penalties,
    qubo_energy,
)
from .solvers import (
    AnnealSchedule,
    SolveReport,
    brute_force_solve,
    heuristic_solve,
    imbalance_sa_solve,
    qubo_sa_solve,
    tabu_solve,
)
from .decompose import DecompositionConfig, DecompositionTrace, decompose_solve, split
from .datasets import InstanceFile, generate, load_instance, standard_corpus
from .bench import RunRecord, SummaryRow, run_benchmark, summarize

__version__ = "0.1.0"

__all__ = [
    "AnnealSchedule",
    "Assignment",
    "BinaryConfiguration",
    "BladeSet",
    "DecompositionConfig",
    "DecompositionTrace",
    "DiskImbalance",
    "ImbalanceResult",
    "InstanceFile",
    "QuboProblem",
    "RunRecord",
    "SlotGeometry",
    "SolveReport",
    "SummaryRow",
    "ValidityReport",
    "brute_force_solve",
    "build_qubo",
    "decode",
    "decompose_solve",
    "encode",
    "export_qubo",
    "generate",
    "heuristic_solve",
    "imbalance",
    "imbalance_sa_solve",
    "imbalance_squared_cosform",
    "load_instance",
    "min_penalties",
    "qubo_energy",
    "qubo_sa_solve",
    "run_benchmark",
    "split",
    "standard_corpus",
    "summarize",
    "tabu_solve",
]
