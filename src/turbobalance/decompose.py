"""Size-capped decomposition pipeline.

Large instances are cut down for solvers that only handle a few blades at a
time: the blade list (in heuristic placement order) is split recursively into
even- and odd-position groups until every group is at or below the cap, each
group is solved as a standalone balancing problem on its own equidistant
slots with a balanced disk, and the group residuals are then balanced against
each other (and against the real bare-disk imbalance) as one more balancing
problem. The final physical placement rotates every group onto its assigned
merge direction and rounds it to the slot grid as a rigid unit, choosing the
grid shift that best cancels the rounding drift accumulated so far (see
:func:`_realize`). The reported imbalance is always recomputed exactly on
the composed assignment, never summed from residuals.
"""

from __future__ import annotations

import json
import math
import time
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
from .solvers import SolveReport, get_solver, heuristic_solve, keyword_parameters

#: Pseudo-mass given to a perfectly balanced group so the merge problem stays
#: well-formed; placement of such a group is irrelevant to the objective.
RESIDUAL_FLOOR = 1e-30

_MAX_RETRIES = 3


@dataclass(frozen=True)
class DecompositionConfig:
    """Cap and solver selection for the pipeline.

    ``sub_solver`` runs on every group of at most ``max_subproblem`` blades;
    ``merge_solver`` runs on the residual-balancing problem (one pseudo-blade
    per group, so it can be larger than the cap). ``sub_solver_params`` and
    ``merge_solver_params`` may hold only parameters of that solver's
    registry entry.
    """

    max_subproblem: int = 5
    sub_solver: str = "qubo-sa"
    merge_solver: str = "qubo-sa"
    sub_solver_params: dict = field(default_factory=dict)
    merge_solver_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if int(self.max_subproblem) < 2:
            raise ValueError(f"max_subproblem must be >= 2, got {self.max_subproblem}")
        for role in ("sub_solver", "merge_solver"):
            name = getattr(self, role)
            accepted = keyword_parameters(get_solver(name))
            for param in getattr(self, f"{role}_params"):
                if param not in accepted:
                    raise ValueError(f"{role}_params: solver {name!r} takes no parameter "
                                     f"{param!r}; it takes {accepted}")


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

    @property
    def is_leaf(self) -> bool:
        return not self.children

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
        out = []

        def walk(node):
            if node.is_leaf:
                out.append(node)
            else:
                for child in node.children:
                    walk(child)

        walk(self.root)
        return out

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

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text


def split(order):
    """Stable even/odd split by 0-based position: ([o0, o2, ...], [o1, o3, ...])."""
    items = list(order)
    if len(items) < 2:
        raise ValueError(f"cannot split a list of length {len(items)}")
    return items[0::2], items[1::2]


def _solve_valid(solver_name, params, blades, disk, seed, key, first_seed=None):
    """Run a solver, retrying invalid outputs with fresh seeds, then falling
    back to the heuristic. Returns (report, solver_used, fallback, attempts)."""
    fn = get_solver(solver_name)
    attempts = 0
    for attempt in range(1 + _MAX_RETRIES):
        if attempt == 0 and first_seed is not None:
            attempt_seed = first_seed
        else:
            attempt_seed = derive_seed(seed, *key, attempt)
        report = fn(blades, disk, attempt_seed, **params)
        attempts += 1
        if report.valid:
            return report, solver_name, False, attempts
    return heuristic_solve(blades), "heuristic", True, attempts + 1


def _build_tree(ids, cap, exact=True) -> TraceNode:
    node = TraceNode(blades=tuple(ids), equidistant_exact=exact)
    if len(ids) > cap:
        left, right = split(ids)
        child_exact = exact and len(ids) % 2 == 0
        node.children = [_build_tree(left, cap, child_exact), _build_tree(right, cap, child_exact)]
    return node


def _realize(masses, disk, leaves, merge_report, n) -> np.ndarray:
    """Map the rotated group solutions onto the physical N-slot grid.

    Groups are placed one at a time, largest residual first, as rigid units:
    a group's internal placement is rounded to the grid once (heaviest blade
    to its nearest slot first; pattern-internal clashes go to the nearest
    still-open slot, ties to the lower index), and the whole pattern is then
    shifted by the grid step that keeps all its slots free and leaves the
    running composed vector smallest. Anchoring the shift search on the
    composed vector keeps the group pointing near its assigned merge
    direction while letting later groups cancel the rounding error earlier
    ones picked up. If no collision-free rigid shift exists the group falls
    back to per-blade nearest-free rounding.
    """
    step = TWO_PI / n
    psi = SlotGeometry(len(leaves)).angles()[merge_report.assignment.slots0]
    intended = [
        leaf.residual_magnitude * np.array([math.cos(p), math.sin(p)])
        for leaf, p in zip(leaves, psi)
    ]
    acc = disk.vector + sum(intended)  # the merge-intended composed vector
    free = np.ones(n, dtype=bool)
    sigma0 = np.full(n, -1, dtype=np.int64)

    for li in np.argsort([-leaf.residual_magnitude for leaf in leaves], kind="stable"):
        leaf = leaves[li]
        ids0 = np.asarray(leaf.blades) - 1
        size = len(ids0)
        rho = (psi[li] - leaf.residual_angle) % TWO_PI
        targets = (SlotGeometry(size).angles()[leaf.report.assignment.slots0] + rho) % TWO_PI
        heavy = np.argsort(-masses[ids0], kind="stable")
        acc = acc - intended[li]

        pattern = np.full(size, -1, dtype=np.int64)
        taken = np.zeros(n, dtype=bool)
        for b in heavy:
            distance = np.abs((targets[b] - step * np.arange(n) + math.pi) % TWO_PI - math.pi)
            distance[taken] = np.inf
            s = int(np.argmin(distance))
            pattern[b] = s
            taken[s] = True
        r0 = masses[ids0] @ np.column_stack(
            [np.cos(step * pattern), np.sin(step * pattern)]
        )

        best = None
        for j in range(n):
            slots = (pattern + j) % n
            if not free[slots].all():
                continue
            cos_j, sin_j = math.cos(step * j), math.sin(step * j)
            realized = np.array(
                [cos_j * r0[0] - sin_j * r0[1], sin_j * r0[0] + cos_j * r0[1]]
            )
            value = float(np.linalg.norm(acc + realized))
            if best is None or value < best[0]:
                best = (value, j, realized, slots)

        if best is not None:
            _, j, realized, slots = best
            leaf.rotation = float((rho + step * j) % TWO_PI)
            acc = acc + realized
            sigma0[ids0] = slots
            free[slots] = False
        else:
            # the free slots cannot host the pattern rigidly
            leaf.rotation = float(rho)
            phi = step * np.arange(n)
            realized = np.zeros(2)
            for b in heavy:
                distance = np.abs((targets[b] - phi + math.pi) % TWO_PI - math.pi)
                distance[~free] = np.inf
                s = int(np.argmin(distance))
                sigma0[ids0[b]] = s
                free[s] = False
                realized += masses[ids0[b]] * np.array([math.cos(phi[s]), math.sin(phi[s])])
            acc = acc + realized
    return sigma0


def decompose_solve(
    blades: BladeSet,
    disk: DiskImbalance,
    config: DecompositionConfig | None = None,
    seed: int = 0,
):
    """Run the full pipeline; returns (SolveReport, DecompositionTrace).

    When the instance already fits under the cap no split happens and the
    result is the sub-solver's answer on the full problem (first attempt run
    with the given seed, so the two calls are interchangeable).
    """
    t_start = time.perf_counter()
    if config is None:
        config = DecompositionConfig()
    n = blades.n
    if n < 2:
        raise ValueError(f"decomposition needs at least 2 blades, got {n}")
    masses = blades.masses

    if n <= config.max_subproblem:
        report, used, fb, attempts = _solve_valid(
            config.sub_solver, config.sub_solver_params, blades, disk, seed,
            ("root",), first_seed=seed,
        )
        result = imbalance(blades, disk, report.assignment)
        root = TraceNode(
            blades=tuple(range(1, n + 1)),
            solver=used,
            report=report,
            residual=(float(result.vector[0]), float(result.vector[1])),
            residual_magnitude=result.d,
            residual_angle=0.0,
            rotation=0.0,
            fallback=fb,
            attempts=attempts,
        )
        final = SolveReport.of_assignment(
            "decompose", blades, disk, report.assignment, seed, t_start, report.iterations
        )
        return final, DecompositionTrace(root=root)

    # group blades by their heuristic slot, then cut by position parity
    slots0 = heuristic_solve(blades).assignment.slots0
    ordered_ids = (np.argsort(slots0) + 1).tolist()
    root = _build_tree(ordered_ids, config.max_subproblem)

    trace = DecompositionTrace(root=root)
    leaves = trace.leaves()
    for k, leaf in enumerate(leaves):
        ids0 = np.asarray(leaf.blades) - 1
        group = BladeSet(masses[ids0], name=f"{blades.name or 'instance'}[group{k}]")
        report, used, fb, attempts = _solve_valid(
            config.sub_solver, config.sub_solver_params, group, DiskImbalance(), seed,
            ("leaf", k),
        )
        vec = imbalance(group, DiskImbalance(), report.assignment).vector
        mag = float(np.hypot(vec[0], vec[1]))
        leaf.solver = used
        leaf.report = report
        leaf.fallback = fb
        leaf.attempts = attempts
        leaf.residual = (float(vec[0]), float(vec[1]))
        leaf.residual_magnitude = mag
        leaf.residual_angle = math.atan2(vec[1], vec[0]) % TWO_PI if mag > RESIDUAL_FLOOR else 0.0

    pseudo = [max(leaf.residual_magnitude, RESIDUAL_FLOOR) for leaf in leaves]
    merge_blades = BladeSet(np.asarray(pseudo), name=f"{blades.name or 'instance'}[merge]")
    merge_report, merge_used, merge_fb, _ = _solve_valid(
        config.merge_solver, config.merge_solver_params, merge_blades, disk, seed,
        ("merge",),
    )
    trace.merge_solver = merge_used
    trace.merge_report = merge_report
    trace.pseudo_masses = tuple(pseudo)
    trace.merge_fallback = merge_fb

    sigma0 = _realize(masses, disk, leaves, merge_report, n)
    iterations = sum(leaf.report.iterations for leaf in leaves) + merge_report.iterations
    final = SolveReport.of_assignment(
        "decompose", blades, disk, Assignment(sigma0 + 1), seed, t_start, iterations
    )
    return final, trace
