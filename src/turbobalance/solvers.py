"""Solver portfolio: industrial heuristic, permutation-space simulated
annealing, QUBO-space simulated annealing, tabu search, and an exact
brute-force oracle.

The heuristic is a placement rule: :func:`heuristic_solve` returns the
:class:`~turbobalance.model.Assignment` it builds, which also starts
imbalance-sa. Every other solver, and every :data:`SOLVERS` entry (the
heuristic's included), returns a :class:`SolveReport`. Permutation-space
solvers are valid by construction; QUBO-space solvers may end on a
configuration that violates the one-hot constraints, in which case the
report carries the raw bits and ``valid=False``. Validity is always
established by independently decoding the output, never by trusting the
search. A report holds only what the search found; the caller already knows
the solver, the seed and how long the call took. All randomness is local to
the call (seeded ``numpy`` generators), so identical inputs and seed give
identical reports.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import Assignment, BladeSet, DiskImbalance, SlotGeometry, imbalance
from .qubo import (
    DEFAULT_PENALTY_FACTOR,
    BinaryConfiguration,
    QuboProblem,
    build_qubo,
    check_penalty_factor,
    decode,
)

BRUTE_FORCE_LIMIT = 10
#: blades brute force orders in one numpy pass per prefix of the others (7! = 5,040 rows)
BRUTE_FORCE_TAIL = 7
#: moves per block of random draws in imbalance-sa; part of its seed contract.
#: A block is four 2,048-element numpy arrays, about 64 KiB (as three lists
#: plus the arrays they came from, 0.14 MiB). At N = 40 (2,040 moves a block;
#: 2-core VM, numpy 2.4) drawing a block and its mass differences takes about
#: 95 us, against 165 us with three ``.tolist()`` calls; the draws are some
#: 12% of a 2,000-sweep solve. The loop reads each array through a memoryview,
#: which makes one number at a time, so the mass differences cost one numpy
#: subtraction per block and no list: 1-5% of a solve less than taking
#: ``m[a] - m[b]`` per move from three streams.
IMBALANCE_SA_BLOCK_MOVES = 2048
#: t_final / t_initial of both default annealing schedules
_COOLING_RATIO = 1e-8


def check_count(value, least: int = 1) -> int:
    """``value`` as an int if it is an integer of at least ``least``: a
    Python or numpy integer (not a bool, not a float) or its decimal text;
    ``ValueError`` otherwise. The bound of every count: the sweeps, tenure
    and iteration budgets, and at least 2 for decompose's ``max_subproblem``."""
    integral = isinstance(value, (str, int, np.integer)) and not isinstance(value, bool)
    try:
        if integral and int(value) >= least:
            return int(value)
    except ValueError:  # text that is not an integer
        pass
    raise ValueError(f"must be an integer of at least {least}, got {value!r}")


@dataclass
class SolveReport:
    """What one solver run found.

    ``valid`` is true iff ``assignment`` is a permutation iff ``imbalance``
    is present. Invalid outcomes keep the raw bits in ``configuration`` so
    violation types can be counted downstream. The solver's name, its seed
    and the run's wall time are the caller's to record.
    """

    valid: bool
    assignment: Assignment | None
    imbalance: float | None
    iterations: int
    configuration: BinaryConfiguration | None = None

    @classmethod
    def of_assignment(cls, blades, disk, assignment, iterations,
                      configuration=None) -> "SolveReport":
        """Valid report of ``assignment``: d recomputed exactly on ``blades``
        and ``disk``."""
        return cls(True, assignment, imbalance(blades, disk, assignment).d, iterations,
                   configuration)


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling from ``t_initial`` to ``t_final`` over ``sweeps``
    sweeps: sweep k runs at t_initial * alpha**k, where alpha is the ratio
    that lands the last sweep on ``t_final``. Both temperatures are finite,
    and their ratio is a normal float in (0, 1), so it does not round to 0."""

    t_initial: float
    t_final: float
    sweeps: int

    def __post_init__(self):
        if not 0.0 < self.t_final < self.t_initial < math.inf:
            raise ValueError(f"temperatures must be finite, with 0 < t_final < t_initial, "
                             f"got t_final {self.t_final} and t_initial {self.t_initial}")
        if self.t_final / self.t_initial < np.finfo(np.float64).tiny:
            raise ValueError(f"t_final / t_initial underflows float64, "
                             f"got {self.t_final} / {self.t_initial}")
        object.__setattr__(self, "sweeps", check_count(self.sweeps))

    def temperatures(self) -> np.ndarray:
        alpha = (self.t_final / self.t_initial) ** (1.0 / max(self.sweeps - 1, 1))
        return self.t_initial * alpha ** np.arange(self.sweeps)


def heuristic_solve(blades: BladeSet) -> Assignment:
    """Industrial placement rule: fill opposite slot pairs, heaviest pair
    first, alternating with the lightest pair; returns the placement.

    Blades are sorted by mass (descending, ties by blade index); pairs are
    taken alternately from the heavy and light end of that order. Pair k
    occupies slot k and the slot opposite it, k + floor(N/2); the heavier
    partner takes slot k. An odd leftover blade takes slot N - 1.
    Deterministic, O(N log N), and blind to the bare-disk imbalance; the
    ``heuristic`` registry entry reports the placement's imbalance on the
    instance's disk.
    """
    n, half = blades.n, blades.n // 2
    order = np.argsort(-blades.masses, kind="stable")
    k = np.arange(half)
    heavier = np.where(k % 2 == 0, k, n - 1 - k)  # pair k's heavier blade, by position in order
    sigma0 = np.full(n, n - 1)  # an odd leftover, the median blade, keeps slot N - 1
    sigma0[order[heavier]] = k
    sigma0[order[heavier + 1]] = k + half
    return Assignment(sigma0 + 1)


def default_imbalance_schedule(
    blades: BladeSet, disk: DiskImbalance, sweeps: int = 2000, start: Assignment | None = None
) -> AnnealSchedule:
    """Instance-scaled schedule for the permutation annealer.

    The start temperature must sit at the swap-move energy scale, not at the
    starting objective: one swap can move the residual vector by up to twice
    the mass spread, so d^2 changes by up to about (2*spread + d_start)^2.
    Starting there lets the walk hop between basins early; cooling by
    ``_COOLING_RATIO`` (1e-8) overall freezes it well below the gaps between
    distinct placements. The floor only matters for exactly equal masses,
    where any start is optimal.
    ``start`` is the walk's first placement (default: the heuristic's).
    """
    if start is None:
        start = heuristic_solve(blades)
    d_start = imbalance(blades, disk, start).d
    spread = float(blades.masses.max() - blades.masses.min())
    try:
        t_initial = max((2.0 * spread + d_start) ** 2, 1e-12)
    except OverflowError:  # a scale past 1e154: AnnealSchedule refuses the inf
        t_initial = math.inf
    return AnnealSchedule(t_initial, _COOLING_RATIO * t_initial, sweeps)


def _generator(seed) -> np.random.Generator:
    """A fresh generator on ``seed``, an integer of at least 0
    (:func:`check_count`); ``ValueError`` naming ``seed`` otherwise."""
    with prefixed("seed"):
        return np.random.default_rng(check_count(seed, least=0))


def _swap_draws(rng, n, temperatures):
    """Per block of sweeps, as three flat arrays: every move's first blade, its
    second (distinct from the first) and its acceptance threshold -t*log(u),
    t being its sweep's temperature. Only one block is held at once."""
    block = max(1, IMBALANCE_SA_BLOCK_MOVES // n)
    for done in range(0, len(temperatures), block):
        t = temperatures[done:done + block, None]
        first = rng.integers(0, n, size=(len(t), n))
        second = rng.integers(0, n - 1, size=(len(t), n))
        second += second >= first  # uniform over distinct pairs
        with np.errstate(divide="ignore"):  # u = 0 gives an infinite threshold
            threshold = -t * np.log(rng.random((len(t), n)))
        yield first.ravel(), second.ravel(), threshold.ravel()


def imbalance_sa_solve(
    blades: BladeSet,
    disk: DiskImbalance,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
    start: Assignment | None = None,
) -> SolveReport:
    """Simulated annealing directly in permutation space.

    The state is always a permutation (start: ``start``, by default the
    heuristic placement; move: swap the slots of two distinct uniformly
    random blades), so every output is valid by construction. Acceptance is
    Metropolis on the change of d^2, from the running residual vector, in one
    comparison: delta < -t*log(u), a positive threshold, so no move that
    keeps or lowers d^2 is refused. The best visited permutation is returned.

    The test looks at the x component first: a move whose nx*nx - d^2
    already reaches the threshold is refused before ny is computed (on the
    standard corpus, 59-64% of all moves). That refuses no move the full
    test accepts: ny*ny >= 0 and IEEE rounding is monotone, so
    fl(nx*nx + ny*ny) >= nx*nx and fl(nd2 - d^2) >= fl(nx*nx - d^2). Every
    other move takes the full test with the same float operations, in the
    same order, so the walk is the one the full test alone gives.

    Random numbers are drawn per block of sweeps: three generator calls of
    shape (sweeps in block, N) give the first blade, the second blade and
    the uniform u (hence the threshold) of every move in the block. A block
    holds ``max(1, IMBALANCE_SA_BLOCK_MOVES // N)`` sweeps (the last one may
    be shorter), so the block size is part of what a seed reproduces. Each
    move's mass difference m[a] - m[b] comes with the block, from one numpy
    subtraction: the same IEEE operation as per move, so the same walk.
    """
    rng = _generator(seed)
    n = blades.n
    if start is None:
        start = heuristic_solve(blades)
    if start.n != n:
        raise ValueError(f"start places {start.n} blades, instance has {n}")
    if n < 2:
        return SolveReport.of_assignment(blades, disk, Assignment.identity(n), 0)
    if schedule is None:
        schedule = default_imbalance_schedule(blades, disk, start=start)

    sigma = start.slots0.tolist()
    z = SlotGeometry(n).unit_vectors()
    zx = z[:, 0].tolist()
    zy = z[:, 1].tolist()
    masses = blades.masses
    m = masses.tolist()
    ux = float(disk.vector[0]) + sum(m[i] * zx[sigma[i]] for i in range(n))
    uy = float(disk.vector[1]) + sum(m[i] * zy[sigma[i]] for i in range(n))
    d2 = ux * ux + uy * uy

    best_d2 = d2
    best_sigma = sigma.copy()

    for first, second, threshold in _swap_draws(rng, n, schedule.temperatures()):
        dms = masses[first] - masses[second]
        for a, b, th, dm in zip(
            memoryview(first), memoryview(second), memoryview(threshold), memoryview(dms)
        ):
            sa = sigma[a]
            sb = sigma[b]
            nx = ux + dm * (zx[sb] - zx[sa])
            nxx = nx * nx
            if nxx - d2 >= th:  # refused on x alone: adding ny*ny cannot lower nd2
                continue
            ny = uy + dm * (zy[sb] - zy[sa])
            nd2 = nxx + ny * ny
            if nd2 - d2 < th:
                sigma[a] = sb
                sigma[b] = sa
                ux, uy, d2 = nx, ny, nd2
                if d2 < best_d2:
                    best_d2 = d2
                    best_sigma = sigma.copy()

    return SolveReport.of_assignment(
        blades, disk, Assignment(np.asarray(best_sigma) + 1), schedule.sweeps * n
    )


def default_qubo_schedule(problem: QuboProblem, sweeps: int = 500) -> AnnealSchedule:
    """Penalty-scaled schedule for QUBO annealing (cools by ``_COOLING_RATIO`` overall)."""
    t_initial = float(problem.lambda1.max() + problem.lambda2)
    return AnnealSchedule(t_initial, _COOLING_RATIO * t_initial, sweeps)


def _report_from_bits(problem, bits, iterations):
    """Report of the search's incumbent ``bits``, decoded; it may be invalid."""
    config = BinaryConfiguration(bits)
    decoded = decode(config)
    if isinstance(decoded, Assignment):
        return SolveReport.of_assignment(
            problem.blades, problem.disk, decoded, iterations, configuration=config
        )
    return SolveReport(False, None, None, iterations, configuration=config)


def qubo_sa_solve(
    problem: QuboProblem,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
) -> SolveReport:
    """Single-bit-flip Metropolis annealing over the N^2 binary variables.

    Each sweep visits every bit once in a fresh random order; temperature is
    geometric between sweeps, and a flip is accepted iff its energy change is
    below -t*log(u), the rule of imbalance-sa, with each sweep's thresholds
    drawn with its order. The lowest-energy configuration seen is decoded
    and reported honestly: it may violate the one-hot constraints.
    """
    if schedule is None:
        schedule = default_qubo_schedule(problem)
    dim = problem.dimension
    rng = _generator(seed)
    ev = problem.evaluator()
    ev.reset(rng.integers(0, 2, size=dim, dtype=np.int8))

    for t in schedule.temperatures().tolist():
        order = rng.permutation(dim).tolist()
        with np.errstate(divide="ignore"):  # u = 0 gives an infinite threshold
            threshold = (-t * np.log(rng.random(dim))).tolist()
        for a, th in zip(order, threshold):
            delta = ev.flip_delta(a)
            if delta < th:
                ev.flip(a, delta)

    return _report_from_bits(problem, ev.best_bits(), schedule.sweeps * dim)


def tabu_solve(
    problem: QuboProblem,
    tenure: int | None = None,
    max_iterations: int | None = None,
    seed: int = 0,
) -> SolveReport:
    """Steepest-descent single-flip tabu search over the QUBO.

    Each iteration flips the bit with the lowest energy delta among moves
    that are not tabu or that beat the incumbent (aspiration); the flipped
    bit then stays tabu for ``tenure`` iterations. When every move is tabu
    and none aspirates, all moves are candidates. Ties go to the lowest
    variable index. The only randomness is the seeded starting configuration.

    The search drives the problem's
    :class:`~turbobalance.qubo.ImplicitEvaluator`, which keeps the incumbent
    and whose vector deltas cost a few O(N^2) passes per iteration. The search
    keeps only the tabu rules: the last ``min(tenure, max_iterations)`` flips
    sit in a ring, so one fancy assignment of ``+inf`` masks every tabu move.
    Nothing is sized by ``tenure`` alone.
    """
    dim = problem.dimension
    tenure = 10 + problem.n if tenure is None else check_count(tenure)
    max_iterations = 50 * dim if max_iterations is None else check_count(max_iterations)

    rng = _generator(seed)
    ev = problem.evaluator()
    ev.reset(rng.integers(0, 2, size=dim, dtype=np.int8))
    all_flip_deltas, flip = ev.all_flip_deltas, ev.flip
    energy, best_energy = ev.energy, ev.best_energy
    deltas = all_flip_deltas()
    argmin, inf = deltas.argmin, math.inf  # the evaluator reuses one delta buffer
    ring = np.empty(min(tenure, max_iterations), dtype=np.intp)  # the last flips
    ring_len = len(ring)
    tabu_until = [0] * dim

    for k in range(max_iterations):
        all_flip_deltas()
        a = int(argmin())
        delta = deltas.item(a)  # read before the tabu mask can overwrite it
        if tabu_until[a] > k and not energy() + delta < best_energy():
            # float addition is monotone, so no costlier tabu move aspirates
            # either: pick the best non-tabu move, if any
            deltas[ring[:k]] = inf  # until the ring wraps, only k slots hold flips
            b = int(argmin())
            if deltas[b] != inf:
                a, delta = b, deltas.item(b)
        flip(a, delta)
        tabu_until[a] = k + 1 + tenure
        ring[k % ring_len] = a

    return _report_from_bits(problem, ev.best_bits(), max_iterations)


def brute_force_solve(blades: BladeSet, disk: DiskImbalance) -> SolveReport:
    """Exact minimum over all N! assignments.

    Ties exact in floating point go to the smallest sigma. Ties only in exact
    arithmetic, such as the N rotations of a placement on a balanced disk,
    go to whichever d^2 rounds lowest, so which optimal sigma is returned
    depends on the summation order. Assignments are taken in lexicographic
    order, one numpy pass per prefix of all but the last 7 blades.

    Guarded at N <= 10 (10! is ~3.6M evaluations); meant as the oracle for
    tests and small instances, not as a production solver.
    """
    n = blades.n
    check_blade_count("brute-force", n)
    z = SlotGeometry(n).unit_vectors()
    m = blades.masses
    y = disk.vector
    head = n - min(n, BRUTE_FORCE_TAIL)
    # a block's rows as column indices of [prefix, free slots in ascending order]
    tails = itertools.permutations(range(head, n))
    orders = np.array([tuple(range(head)) + tail for tail in tails])

    best_d2, best_sigma0 = math.inf, None
    for prefix in itertools.permutations(range(n), head):
        p = np.array(prefix + tuple(s for s in range(n) if s not in prefix))[orders]
        v = (m[None, :, None] * z[p]).sum(axis=1) + y
        d2 = (v * v).sum(axis=1)
        i = int(np.argmin(d2))
        if d2[i] < best_d2:  # strict: earlier (lexicographically smaller) wins ties
            best_d2 = float(d2[i])
            best_sigma0 = p[i]

    return SolveReport.of_assignment(blades, disk, Assignment(best_sigma0 + 1), math.factorial(n))


def _run_heuristic(blades, disk, seed):
    return SolveReport.of_assignment(blades, disk, heuristic_solve(blades), blades.n)


def _run_imbalance_sa(blades, disk, seed, sweeps=None):
    start = heuristic_solve(blades)
    schedule = None if sweeps is None else default_imbalance_schedule(blades, disk, sweeps, start)
    return imbalance_sa_solve(blades, disk, schedule=schedule, seed=seed, start=start)


def _run_qubo_sa(blades, disk, seed, sweeps=None, penalty_factor=DEFAULT_PENALTY_FACTOR):
    problem = build_qubo(blades, disk, penalty_factor=penalty_factor, materialize=False)
    schedule = None if sweeps is None else default_qubo_schedule(problem, sweeps)
    return qubo_sa_solve(problem, schedule=schedule, seed=seed)


def _run_tabu(blades, disk, seed, tenure=None, max_iterations=None,
              penalty_factor=DEFAULT_PENALTY_FACTOR):
    problem = build_qubo(blades, disk, penalty_factor=penalty_factor, materialize=False)
    return tabu_solve(problem, tenure=tenure, max_iterations=max_iterations, seed=seed)


def _run_brute_force(blades, disk, seed):
    return brute_force_solve(blades, disk)


#: Uniform entry points: fn(blades, disk, seed, **params) -> SolveReport, whose
#: imbalance is measured on ``disk``. Each takes only its own solver's
#: parameters; any other raises ``TypeError``.
SOLVERS = {
    "heuristic": _run_heuristic,
    "imbalance-sa": _run_imbalance_sa,
    "qubo-sa": _run_qubo_sa,
    "tabu": _run_tabu,
    "brute-force": _run_brute_force,
}


#: The most blades a solver takes; a solver not listed, decompose too, takes any N >= 1.
BLADE_LIMITS = {"brute-force": BRUTE_FORCE_LIMIT}


def check_blade_count(solver: str, n: int) -> None:
    """``ValueError`` if ``solver`` takes fewer than ``n`` blades (:data:`BLADE_LIMITS`)."""
    limit = BLADE_LIMITS.get(solver, n)
    if n > limit:
        raise ValueError(f"solver {solver!r} takes at most N={limit} blades, got {n}")


def get_solver(name: str, registry: dict = SOLVERS):
    """``name``'s entry in ``registry``, looked up at call time;
    ``ValueError`` listing the choices if there is none."""
    try:
        return registry[name]
    except (KeyError, TypeError):  # TypeError: a name that cannot be a key, such as a list
        raise ValueError(f"unknown solver {name!r}; available: {sorted(registry)}") from None


def check_solver(name: str) -> str:
    """``name`` if it names a :data:`SOLVERS` entry, looked up at call time;
    :func:`get_solver`'s ``ValueError`` listing the choices otherwise."""
    get_solver(name)
    return name


#: The bound of each scalar parameter that a solver flag sets: a function that
#: returns the value it accepts and raises ``ValueError`` for any other. The
#: keys are the keyword parameters of the :data:`SOLVERS` entries and the
#: scalar fields of decompose's config; the CLI makes one flag of each, in
#: this order. The solvers call these themselves; :func:`check_parameters`
#: applies them before any run.
PARAMETER_CHECKS = {
    "sweeps": check_count,
    "penalty_factor": check_penalty_factor,
    "tenure": check_count,
    "max_iterations": check_count,
    "max_subproblem": functools.partial(check_count, least=2),
    "sub_solver": check_solver,
    "merge_solver": check_solver,
}


def keyword_parameters(entry) -> list:
    """Names of the parameters of ``entry`` that have a default: a registry
    entry's own solver parameters, after ``blades``, ``disk`` and ``seed``."""
    return [name for name, p in inspect.signature(entry).parameters.items()
            if p.default is not p.empty]


@contextlib.contextmanager
def prefixed(label: str):
    """Re-raise a ``ValueError`` or ``TypeError`` of the block as
    ``ValueError(f"{label}: {err}")``, its chain suppressed: the context a
    failed check is reported in."""
    try:
        yield
    except (TypeError, ValueError) as err:
        raise ValueError(f"{label}: {err}") from None


def check_parameters(solver: str, accepted: list, params: dict) -> None:
    """``ValueError`` unless ``params`` is a dict, each of its parameters is one of
    ``accepted``, the names ``solver`` takes, and its value passes its
    :data:`PARAMETER_CHECKS` entry, if any: a ``TypeError`` fails it too."""
    if not isinstance(params, dict):
        raise ValueError(f"solver {solver!r} takes its parameters as a dict, got {params!r}")
    for name, value in params.items():
        if name not in accepted:
            raise ValueError(f"solver {solver!r} takes no parameter {name!r}; it takes {accepted}")
        if name in PARAMETER_CHECKS:
            with prefixed(f"solver {solver!r}, parameter {name!r}"):
                PARAMETER_CHECKS[name](value)
