"""Size-capped decomposition pipeline.

Large instances are cut down for solvers that only handle a few blades at a
time: the blade list (in heuristic placement order) is split recursively into
even- and odd-position groups until every group is at or below the cap, each
group is solved as a standalone balancing problem on its own equidistant
slots with a balanced disk (:func:`_solve_leaf`; an instance already under
the cap is a single group, solved on its real disk), and the group
residuals are then balanced against each other (and against the real
bare-disk imbalance) as one more balancing problem. The final physical
placement rotates every group onto its assigned merge direction and rounds
it to the slot grid as a rigid unit, choosing the grid shift that best
cancels the rounding drift accumulated so far (see :func:`_realize`; every
blade is rounded by :func:`_nearest_free`). The reported imbalance is always
recomputed exactly on the composed assignment, never summed from residuals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    TWO_PI,
    Assignment,
    BladeSet,
    DiskImbalance,
    SlotGeometry,
    derive_seed,
    imbalance,
)
from .solvers import (PARAMETER_CHECKS, SolveReport, check_blade_count, check_count,
                      check_parameters, get_solver, heuristic_solve, keyword_parameters,
                      prefixed)

#: Pseudo-mass given to a perfectly balanced group so the merge problem stays
#: well-formed; placement of such a group is irrelevant to the objective.
RESIDUAL_FLOOR = 1e-30

_MAX_RETRIES = 3


@dataclass(frozen=True)
class DecompositionConfig:
    """Cap and solver selection for the pipeline.

    ``sub_solver`` runs on every group of at most ``max_subproblem`` blades;
    ``merge_solver`` runs on the residual-balancing problem (one pseudo-blade
    per group, so it can be larger than the cap), and each must take the
    blades it gets (:func:`check_blade_count`). ``sub_solver_params`` and
    ``merge_solver_params`` may hold only parameters of that solver's
    registry entry, each within its bound (:func:`check_parameters`). The
    scalar fields are checked first (:data:`PARAMETER_CHECKS`); a
    ``ValueError`` names the field that fails.
    """

    max_subproblem: int = 5
    sub_solver: str = "qubo-sa"
    merge_solver: str = "qubo-sa"
    sub_solver_params: dict = field(default_factory=dict)
    merge_solver_params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("max_subproblem", "sub_solver", "merge_solver"):
            with prefixed(name):
                object.__setattr__(self, name, PARAMETER_CHECKS[name](getattr(self, name)))
        with prefixed("'max_subproblem' is too large for the sub-solver"):
            check_blade_count(self.sub_solver, self.max_subproblem)
        for role in ("sub_solver", "merge_solver"):
            name = getattr(self, role)
            accepted = keyword_parameters(get_solver(name))
            with prefixed(f"{role}_params"):
                check_parameters(name, accepted, getattr(self, f"{role}_params"))


@dataclass
class TraceNode:
    """One node of the decomposition tree; leaves carry their solve results.

    ``equidistant_exact`` records whether solving this group on its own
    equidistant disk is exact: it is, as long as every split on the path
    here had even length (the even-position half of a 2n-slot ring is an
    n-slot ring up to rotation); odd splits make it an approximation.
    """

    blades: tuple  # original 1-based blade ids, in group order
    children: list = field(default_factory=list)
    equidistant_exact: bool = True
    solver: str | None = None
    report: SolveReport | None = None
    residual: tuple | None = None  # (x, y) in the group's own frame
    residual_magnitude: float | None = None
    residual_angle: float | None = None
    rotation: float | None = None  # applied during realization
    fallback: bool = False
    attempts: int = 0

    def leaves(self) -> list:
        """The leaves under this node, left to right."""
        if not self.children:
            return [self]
        return [leaf for child in self.children for leaf in child.leaves()]

    def to_dict(self) -> dict:
        if self.children:
            return {
                "blades": list(self.blades),
                "children": [c.to_dict() for c in self.children],
            }
        return {
            "blades": list(self.blades),
            "solver": self.solver,
            "residual": list(self.residual) if self.residual is not None else None,
            "d": self.residual_magnitude,
            "rotation": self.rotation,
            "equidistant_exact": self.equidistant_exact,
            "fallback": self.fallback,
            "attempts": self.attempts,
        }


@dataclass
class DecompositionTrace:
    """Full record of one pipeline run: the tree plus the merge-level solve."""

    root: TraceNode
    merge_solver: str | None = None
    merge_report: SolveReport | None = None
    pseudo_masses: tuple | None = None
    merge_fallback: bool = False

    def leaves(self) -> list:
        return self.root.leaves()

    def to_dict(self) -> dict:
        doc = {"tree": self.root.to_dict()}
        if self.merge_report is not None:
            doc["merge"] = {
                "solver": self.merge_solver,
                "pseudo_masses": list(self.pseudo_masses),
                "assignment": self.merge_report.assignment.sigma.tolist(),
                "fallback": self.merge_fallback,
            }
        return doc

    def to_json(self) -> str:
        """The trace document as indented JSON text, ending in a newline."""
        return json.dumps(self.to_dict(), indent=2) + "\n"


def split(order):
    """Stable even/odd split by 0-based position: ([o0, o2, ...], [o1, o3, ...])."""
    items = list(order)
    if len(items) < 2:
        raise ValueError(f"cannot split a list of length {len(items)}")
    return items[0::2], items[1::2]


def _solve_valid(solver_name, params, blades, disk, seed, key, first_seed=None):
    """Run a solver, retrying invalid outputs with fresh seeds, then falling
    back to the heuristic placement, reported on ``disk``. Returns (report,
    solver_used, fallback, attempts)."""
    fn = get_solver(solver_name)
    for attempt in range(1 + _MAX_RETRIES):
        if attempt == 0 and first_seed is not None:
            report = fn(blades, disk, first_seed, **params)
        else:
            report = fn(blades, disk, derive_seed(seed, *key, attempt), **params)
        if report.valid:
            return report, solver_name, False, attempt + 1
    report = SolveReport.of_assignment(blades, disk, heuristic_solve(blades), blades.n)
    return report, "heuristic", True, 2 + _MAX_RETRIES


def _solve_leaf(leaf, group, disk, config, seed, key, first_seed=None):
    """Solve ``group`` (the blades of ``leaf``, in leaf order) on ``disk`` with
    the sub-solver, as :func:`_solve_valid` does, and record on ``leaf`` the
    outcome and the group's residual vector, magnitude and angle."""
    leaf.report, leaf.solver, leaf.fallback, leaf.attempts = _solve_valid(
        config.sub_solver, config.sub_solver_params, group, disk, seed, key, first_seed
    )
    vec = imbalance(group, disk, leaf.report.assignment).vector
    mag = float(np.hypot(vec[0], vec[1]))
    leaf.residual = (float(vec[0]), float(vec[1]))
    leaf.residual_magnitude = mag
    leaf.residual_angle = math.atan2(vec[1], vec[0]) % TWO_PI if mag > RESIDUAL_FLOOR else 0.0


def check_merge_size(n: int, config: DecompositionConfig) -> None:
    """``ValueError`` if ``n`` blades make more groups than ``config``'s merge
    solver takes (:func:`check_blade_count`). The count depends only on ``n``
    and the cap: it is the leaf count of the tree :func:`_build_tree` cuts."""
    count = len(_build_tree(range(1, n + 1), config.max_subproblem).leaves())
    with prefixed(f"{n} blades at max_subproblem {config.max_subproblem} make "
                  f"{count} groups to merge"):
        check_blade_count(config.merge_solver, count)


def _build_tree(ids, cap, exact=True) -> TraceNode:
    node = TraceNode(blades=tuple(ids), equidistant_exact=exact)
    if len(ids) > cap:
        left, right = split(ids)
        child_exact = exact and len(ids) % 2 == 0
        node.children = [_build_tree(left, cap, child_exact), _build_tree(right, cap, child_exact)]
    return node


def _nearest_free(targets, order, phi, free) -> np.ndarray:
    """Grid slot of each angle in ``targets``, taken in ``order``: the slot
    whose angle in ``phi`` is nearest among those that ``free`` marks and no
    earlier target took, ties to the lower index. ``free`` is not changed."""
    free = free.copy()
    slots = np.empty(len(targets), dtype=np.int64)
    for b in order:
        distance = np.abs((targets[b] - phi + math.pi) % TWO_PI - math.pi)
        distance[~free] = np.inf
        slots[b] = s = int(np.argmin(distance))
        free[s] = False
    return slots


def _realize(masses, disk, leaves, merge_report, n) -> np.ndarray:
    """Map the rotated group solutions onto the physical N-slot grid.

    Groups are placed one at a time, largest residual first, as rigid units:
    a group's internal placement is rounded to the grid once by
    :func:`_nearest_free` (heaviest blade first; pattern-internal clashes go
    to the nearest still-open slot), and the whole pattern is then
    shifted by the grid step that keeps all its slots free and leaves the
    running composed vector smallest, ties to the smallest shift. Every
    shift is scored in one pass. Anchoring the shift search on the
    composed vector keeps the group pointing near its assigned merge
    direction while letting later groups cancel the rounding error earlier
    ones picked up. If no collision-free rigid shift exists the group falls
    back to the same nearest-free rounding among the slots still free.
    Slot angles and vectors are those of :class:`SlotGeometry`: ``n`` slots
    for the blades, one slot per group for the merge directions.
    """
    grid, ring = SlotGeometry(n), SlotGeometry(len(leaves))
    phi, z = grid.angles(), grid.unit_vectors()
    merge_slots = merge_report.assignment.slots0
    psi = ring.angles()[merge_slots]
    magnitudes = np.array([leaf.residual_magnitude for leaf in leaves])
    intended = magnitudes[:, None] * ring.unit_vectors()[merge_slots]
    acc = disk.vector + intended.sum(axis=0)  # the merge-intended composed vector
    free = np.ones(n, dtype=bool)
    sigma0 = np.full(n, -1, dtype=np.int64)
    shifts = np.arange(n)[:, None]

    for li in np.argsort(-magnitudes, kind="stable"):
        leaf = leaves[li]
        ids0 = np.asarray(leaf.blades) - 1
        rho = (psi[li] - leaf.residual_angle) % TWO_PI
        targets = (SlotGeometry(len(ids0)).angles()[leaf.report.assignment.slots0] + rho) % TWO_PI
        heavy = np.argsort(-masses[ids0], kind="stable")
        acc = acc - intended[li]

        pattern = _nearest_free(targets, heavy, phi, np.ones(n, dtype=bool))
        candidates = (pattern + shifts) % n  # row j: the pattern shifted by j slots
        realized = masses[ids0] @ z[candidates]
        norms = np.linalg.norm(acc + realized, axis=1)
        norms[~free[candidates].all(axis=1)] = np.inf
        j = int(np.argmin(norms))

        if np.isfinite(norms[j]):
            slots, realized = candidates[j], realized[j]
            leaf.rotation = float((rho + phi[j]) % TWO_PI)
        else:
            # the free slots cannot host the pattern rigidly
            leaf.rotation = float(rho)
            slots = _nearest_free(targets, heavy, phi, free)
            realized = masses[ids0] @ z[slots]
        acc = acc + realized
        sigma0[ids0] = slots
        free[slots] = False
    return sigma0


def decompose_solve(
    blades: BladeSet,
    disk: DiskImbalance,
    config: DecompositionConfig | None = None,
    seed: int = 0,
):
    """Run the full pipeline; returns (SolveReport, DecompositionTrace).

    When the instance already fits under the cap no split happens: the root
    is the one leaf, solved on ``disk`` with its first attempt run on
    ``seed`` itself, and its report is returned as it is: the sub-solver's
    answer on the full problem, so the two calls are interchangeable; this
    includes N = 1.
    Otherwise a merge solver that cannot take the tree's leaf count raises
    ``ValueError`` (:func:`check_merge_size`) before any leaf is solved.
    A ``seed`` that is not an integer of at least 0
    (:func:`~turbobalance.solvers.check_count`) is a ``ValueError`` naming
    ``seed``, raised before any seed is derived.
    """
    with prefixed("seed"):
        seed = check_count(seed, least=0)
    if config is None:
        config = DecompositionConfig()
    n = blades.n
    check_merge_size(n, config)
    masses = blades.masses

    if n <= config.max_subproblem:
        root = TraceNode(blades=tuple(range(1, n + 1)), rotation=0.0)
        _solve_leaf(root, blades, disk, config, seed, ("root",), first_seed=seed)
        return root.report, DecompositionTrace(root)

    # group blades by their heuristic slot, then cut by position parity
    ordered_ids = (np.argsort(heuristic_solve(blades).slots0) + 1).tolist()
    root = _build_tree(ordered_ids, config.max_subproblem)
    leaves = root.leaves()
    for k, leaf in enumerate(leaves):
        group = BladeSet(masses[np.asarray(leaf.blades) - 1],
                         name=f"{blades.name or 'instance'}[group{k}]")
        _solve_leaf(leaf, group, DiskImbalance(), config, seed, ("leaf", k))

    pseudo = tuple(max(leaf.residual_magnitude, RESIDUAL_FLOOR) for leaf in leaves)
    merge_blades = BladeSet(np.asarray(pseudo), name=f"{blades.name or 'instance'}[merge]")
    merge_report, merge_used, merge_fb, _ = _solve_valid(
        config.merge_solver, config.merge_solver_params, merge_blades, disk, seed, ("merge",)
    )
    trace = DecompositionTrace(root, merge_used, merge_report, pseudo, merge_fb)

    sigma0 = _realize(masses, disk, leaves, merge_report, n)
    iterations = sum(leaf.report.iterations for leaf in leaves) + merge_report.iterations
    return SolveReport.of_assignment(blades, disk, Assignment(sigma0 + 1), iterations), trace
