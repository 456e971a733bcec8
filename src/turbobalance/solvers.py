"""Solver portfolio: industrial heuristic, permutation-space simulated
annealing, QUBO-space simulated annealing, tabu search, and an exact
brute-force oracle.

Every solver returns a :class:`SolveReport`. Permutation-space solvers are
valid by construction; QUBO-space solvers may end on a configuration that
violates the one-hot constraints, in which case the report carries the raw
bits and ``valid=False``. Validity is always established by independently
decoding the output, never by trusting the search. All randomness is local
to the call (seeded ``numpy`` generators), so identical inputs and seed give
identical reports apart from wall time.
"""

from __future__ import annotations

import inspect
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .model import Assignment, BladeSet, DiskImbalance, SlotGeometry, imbalance
from .qubo import (
    DEFAULT_PENALTY_FACTOR,
    BinaryConfiguration,
    QuboProblem,
    build_qubo,
    decode,
)

BRUTE_FORCE_LIMIT = 10
#: permutations brute force evaluates per numpy batch
BRUTE_FORCE_BATCH = 20000
#: moves per block of random draws in imbalance-sa; part of its seed contract.
#: A block's draws take about 0.2 MiB as Python lists, and the fixed cost of
#: the three generator calls per block is about 1.5% of the block's moves.
IMBALANCE_SA_BLOCK_MOVES = 2048


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``valid`` is true iff ``assignment`` is a permutation iff ``imbalance``
    is present. Invalid outcomes keep the raw bits in ``configuration`` so
    violation types can be counted downstream. ``best_history`` is the
    incumbent-objective trace, populated only when the solver was asked to
    record it.
    """

    solver_name: str
    valid: bool
    assignment: Assignment | None
    imbalance: float | None
    seed: int
    wall_time: float
    iterations: int
    configuration: BinaryConfiguration | None = None
    best_history: list | None = None

    @classmethod
    def of_assignment(cls, solver_name, blades, disk, assignment, seed, t_start, iterations,
                      **extra) -> "SolveReport":
        """Valid report of ``assignment``: d recomputed exactly on ``blades``
        and ``disk``, wall time measured from ``t_start`` (a
        ``time.perf_counter()`` reading) to now. ``extra`` sets the optional
        fields (``configuration``, ``best_history``)."""
        return cls(
            solver_name=solver_name,
            valid=True,
            assignment=assignment,
            imbalance=imbalance(blades, disk, assignment).d,
            seed=seed,
            wall_time=time.perf_counter() - t_start,
            iterations=iterations,
            **extra,
        )


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling schedule: sweep k runs at t_initial * alpha**k."""

    t_initial: float
    t_final: float
    alpha: float
    sweeps: int

    def __post_init__(self):
        if not (self.t_initial > 0.0 and self.t_final > 0.0):
            raise ValueError("temperatures must be positive")
        if not self.t_final < self.t_initial:
            raise ValueError(
                f"t_final must be below t_initial, got {self.t_final} >= {self.t_initial}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if int(self.sweeps) < 1:
            raise ValueError("need at least one sweep")
        object.__setattr__(self, "sweeps", int(self.sweeps))

    @classmethod
    def geometric(cls, t_initial: float, t_final: float, sweeps: int) -> "AnnealSchedule":
        """Schedule whose last sweep lands exactly on ``t_final``."""
        alpha = (t_final / t_initial) ** (1.0 / max(sweeps - 1, 1))
        return cls(t_initial, t_final, alpha, sweeps)

    def temperatures(self) -> np.ndarray:
        return self.t_initial * self.alpha ** np.arange(self.sweeps)


def heuristic_solve(blades: BladeSet) -> SolveReport:
    """Industrial placement rule: fill opposite slot pairs, heaviest pair
    first, alternating with the lightest pair.

    Blades are sorted by mass (descending, ties by blade index); pairs are
    taken alternately from the heavy and light end of that order. The k-th
    pair occupies the lowest free slot and the slot opposite it (offset
    floor(N/2) for odd N); the heavier partner takes the lower slot. An odd
    leftover blade takes the last free slot. Deterministic, O(N log N), and
    blind to the bare-disk imbalance, so the reported imbalance is evaluated
    with a balanced disk.
    """
    t0 = time.perf_counter()
    n = blades.n
    order = np.argsort(-blades.masses, kind="stable").tolist()
    pairs = []
    lo, hi = 0, n - 1
    from_heavy = True
    while hi - lo >= 1:
        if from_heavy:
            pairs.append((order[lo], order[lo + 1]))
            lo += 2
        else:
            pairs.append((order[hi - 1], order[hi]))
            hi -= 2
        from_heavy = not from_heavy

    sigma0 = [0] * n
    used = [False] * n
    free_from = 0
    half = n // 2
    for heavy, light in pairs:
        while used[free_from]:
            free_from += 1
        s = free_from
        t = (s + half) % n
        sigma0[heavy] = s
        sigma0[light] = t
        used[s] = used[t] = True
    if lo == hi:  # odd N: median blade takes the last free slot
        while used[free_from]:
            free_from += 1
        sigma0[order[lo]] = free_from
        used[free_from] = True

    return SolveReport.of_assignment(
        "heuristic", blades, DiskImbalance(), Assignment(np.asarray(sigma0) + 1), 0, t0, n
    )


def default_imbalance_schedule(
    blades: BladeSet, disk: DiskImbalance, sweeps: int = 2000, start: Assignment | None = None
) -> AnnealSchedule:
    """Instance-scaled schedule for the permutation annealer.

    The start temperature must sit at the swap-move energy scale, not at the
    starting objective: one swap can move the residual vector by up to twice
    the mass spread, so d^2 changes by up to about (2*spread + d_start)^2.
    Starting there lets the walk hop between basins early; cooling by 1e-8
    overall freezes it well below the gaps between distinct placements. The
    floor only matters for exactly equal masses, where any start is optimal.
    ``start`` is the walk's first placement (default: the heuristic's).
    """
    if start is None:
        start = heuristic_solve(blades).assignment
    d_start = imbalance(blades, disk, start).d
    spread = float(blades.masses.max() - blades.masses.min())
    t_initial = max((2.0 * spread + d_start) ** 2, 1e-12)
    return AnnealSchedule.geometric(t_initial, 1e-8 * t_initial, sweeps)


def swap_delta(masses, zx, zy, sigma0, ux, uy, a, b):
    """Change of d^2 when blades a and b (0-based) trade slots.

    Swapping moves the residual vector by (m_a - m_b) * (z_sigma(b) -
    z_sigma(a)); the new squared norm minus the old one is the delta. O(1)
    regardless of N; must agree with full recomputation.
    """
    sa, sb = sigma0[a], sigma0[b]
    dm = masses[a] - masses[b]
    nx = ux + dm * (zx[sb] - zx[sa])
    ny = uy + dm * (zy[sb] - zy[sa])
    return nx * nx + ny * ny - (ux * ux + uy * uy)


def _swap_draws(rng, n, sweeps):
    """Per sweep: the n moves' first blades, second blades (distinct from
    the first) and acceptance uniforms, as lists. Drawn a block of sweeps at
    a time; only one block is held at once."""
    block = max(1, IMBALANCE_SA_BLOCK_MOVES // n)
    for done in range(0, sweeps, block):
        rows = min(block, sweeps - done)
        first = rng.integers(0, n, size=(rows, n))
        second = rng.integers(0, n - 1, size=(rows, n))
        second += second >= first  # uniform over distinct pairs
        yield from zip(first.tolist(), second.tolist(), rng.random((rows, n)).tolist())


def imbalance_sa_solve(
    blades: BladeSet,
    disk: DiskImbalance,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
    record_best: bool = False,
    start: Assignment | None = None,
) -> SolveReport:
    """Simulated annealing directly in permutation space.

    The state is always a permutation (start: ``start``, by default the
    heuristic placement; move: swap the slots of two distinct uniformly
    random blades), so every output is valid by construction. Acceptance is
    Metropolis on the change of d^2, evaluated incrementally through the
    running residual vector. The best visited permutation is returned.

    Random numbers are drawn per block of sweeps: three generator calls of
    shape (sweeps in block, N) give the first blade, the second blade and
    the acceptance uniform of every move in the block. A block holds
    ``max(1, IMBALANCE_SA_BLOCK_MOVES // N)`` sweeps (the last one may be
    shorter), so the block size is part of what a seed reproduces.
    """
    t_start = time.perf_counter()
    n = blades.n
    if n < 2:
        return SolveReport.of_assignment(
            "imbalance-sa", blades, disk, Assignment.identity(n), seed, t_start, 0,
            best_history=[] if record_best else None,
        )
    if start is None:
        start = heuristic_solve(blades).assignment
    if start.n != n:
        raise ValueError(f"start places {start.n} blades, instance has {n}")
    if schedule is None:
        schedule = default_imbalance_schedule(blades, disk, start=start)

    rng = np.random.default_rng(seed)
    sigma = start.slots0.tolist()
    z = SlotGeometry(n).unit_vectors()
    zx = z[:, 0].tolist()
    zy = z[:, 1].tolist()
    m = blades.masses.tolist()
    ux = float(disk.vector[0]) + sum(m[i] * zx[sigma[i]] for i in range(n))
    uy = float(disk.vector[1]) + sum(m[i] * zy[sigma[i]] for i in range(n))
    d2 = ux * ux + uy * uy

    best_d2 = d2
    best_sigma = sigma.copy()
    history = [d2] if record_best else None
    exp = math.exp

    draws = _swap_draws(rng, n, schedule.sweeps)
    for t, (first, second, unif) in zip(schedule.temperatures().tolist(), draws):
        for a, b, u in zip(first, second, unif):
            sa = sigma[a]
            sb = sigma[b]
            dm = m[a] - m[b]
            nx = ux + dm * (zx[sb] - zx[sa])
            ny = uy + dm * (zy[sb] - zy[sa])
            nd2 = nx * nx + ny * ny
            delta = nd2 - d2
            if delta <= 0.0 or u < exp(-delta / t):
                sigma[a] = sb
                sigma[b] = sa
                ux, uy, d2 = nx, ny, nd2
                if d2 < best_d2:
                    best_d2 = d2
                    best_sigma = sigma.copy()
                    if record_best:
                        history.append(d2)

    return SolveReport.of_assignment(
        "imbalance-sa", blades, disk, Assignment(np.asarray(best_sigma) + 1), seed, t_start,
        schedule.sweeps * n, best_history=history,
    )


def default_qubo_schedule(problem: QuboProblem, sweeps: int = 500) -> AnnealSchedule:
    """Penalty-scaled schedule for QUBO annealing (cools by 1e-8 overall)."""
    t_initial = float(problem.lambda1.max() + problem.lambda2)
    return AnnealSchedule.geometric(t_initial, 1e-8 * t_initial, sweeps)


def _report_from_bits(problem, bits, undo, solver_name, seed, t_start, iterations, history=None):
    """Report of the search's incumbent: ``bits`` (a list or array, changed
    in place) with the flips in ``undo`` reverted, latest first, then
    decoded."""
    for a in reversed(undo):
        bits[a] ^= 1
    config = BinaryConfiguration(np.asarray(bits, dtype=np.int8))
    decoded = decode(config)
    if isinstance(decoded, Assignment):
        return SolveReport.of_assignment(
            solver_name, problem.blades, problem.disk, decoded, seed, t_start, iterations,
            configuration=config, best_history=history,
        )
    return SolveReport(
        solver_name=solver_name,
        valid=False,
        assignment=None,
        imbalance=None,
        seed=seed,
        wall_time=time.perf_counter() - t_start,
        iterations=iterations,
        configuration=config,
        best_history=history,
    )


def qubo_sa_solve(
    problem: QuboProblem,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
    record_best: bool = False,
) -> SolveReport:
    """Single-bit-flip Metropolis annealing over the N^2 binary variables.

    Each sweep visits every bit once in a fresh random order; temperature is
    geometric between sweeps. The lowest-energy configuration seen is decoded
    and reported honestly: it may violate the one-hot constraints.
    """
    t_start = time.perf_counter()
    if schedule is None:
        schedule = default_qubo_schedule(problem)
    dim = problem.dimension
    rng = np.random.default_rng(seed)
    ev = problem.evaluator()
    ev.reset(rng.integers(0, 2, size=dim, dtype=np.int8))

    offset = problem.constant_offset
    best_energy = ev.energy()
    flip_log = []
    best_pos = 0
    history = [best_energy + offset] if record_best else None
    exp = math.exp

    for t in schedule.temperatures().tolist():
        order = rng.permutation(dim).tolist()
        unif = rng.random(dim).tolist()
        for k in range(dim):
            a = order[k]
            delta = ev.flip_delta(a)
            if delta <= 0.0 or unif[k] < exp(-delta / t):
                ev.flip(a)
                energy = ev.energy()
                flip_log.append(a)
                if energy < best_energy:
                    best_energy = energy
                    best_pos = len(flip_log)
                    if record_best:
                        history.append(energy + offset)

    return _report_from_bits(
        problem, ev.bits(), flip_log[best_pos:], "qubo-sa", seed, t_start,
        schedule.sweeps * dim, history,
    )


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

    The search keeps its own N x N array state rather than an evaluator. The
    delta of flipping (i, j) is a centre-of-mass term, which every flip
    changes, plus a row-i and a column-j penalty term, and a flip of (i, j)
    changes only row i and column j of those (the one-flip update of Glover,
    Lu & Hao, 4OR 2010). So an iteration costs a few O(N^2) vector passes
    plus O(N) penalty updates. Deltas and energies use the same float
    operations, in the same order, as :class:`~turbobalance.qubo.ImplicitEvaluator`,
    so the trajectory equals an evaluator-driven search bit for bit:

    - The centre-of-mass term is ``(2(1 - 2x) m) * (u . z)`` from one stored
      array, where the evaluator computes ``2(1 - 2x) * (m * (u . z))``.
      Scaling by +-2 is exact, so both round to the same double (barring
      overflow or subnormal products).
    - A row-i penalty entry is ``lam1_i * (+-2(r_i - 1) + 1)``: it takes only
      two values, chosen by the bit. After a flip the pair is computed once
      with the evaluator's operations and written to the row by indexing it
      with the row's bits; likewise for column j with ``lam2``.
    - The last ``min(tenure, max_iterations)`` flips sit in a ring whose
      unused slots point at a spare slot just past the deltas, so one fancy
      assignment of ``+inf`` masks every tabu move. Nothing is sized by
      ``tenure`` alone.
    """
    t_start = time.perf_counter()
    n = problem.n
    dim = problem.dimension
    if tenure is None:
        tenure = 10 + n
    if max_iterations is None:
        max_iterations = 50 * n * n
    if tenure < 1 or max_iterations < 1:
        raise ValueError("tenure and max_iterations must be positive")

    rng = np.random.default_rng(seed)
    start = rng.integers(0, 2, size=dim, dtype=np.int8)

    m = problem.blades.masses
    z = SlotGeometry(n).unit_vectors()
    zx, zy = z[:, 0].copy(), z[:, 1].copy()
    lam1 = problem.lambda1
    lam2 = float(problem.lambda2)
    m_l, zx_l, zy_l, lam1_l = m.tolist(), zx.tolist(), zy.tolist(), lam1.tolist()

    # start state, computed exactly as ImplicitEvaluator.reset does
    bits = start.reshape(n, n)
    rows = bits.sum(axis=1).tolist()
    cols = bits.sum(axis=0).tolist()
    bf = start.astype(float)
    ux = float(problem.disk.vector[0]) + float(bf @ (np.repeat(m, n) * np.tile(zx, n)))
    uy = float(problem.disk.vector[1]) + float(bf @ (np.repeat(m, n) * np.tile(zy, n)))
    pen = sum(l * (r - 1) ** 2 for l, r in zip(lam1_l, rows)) + lam2 * sum(
        (c - 1) ** 2 for c in cols
    )
    energy = ux * ux + uy * uy + pen - float(problem.constant_offset)

    two_s = 2.0 * (1.0 - 2.0 * bits)  # 2(1 - 2x): twice the flip direction
    row_pen = lam1[:, None] * (two_s * (np.asarray(rows, dtype=float)[:, None] - 1.0) + 1.0)
    col_pen = lam2 * (two_s * (np.asarray(cols, dtype=float)[None, :] - 1.0) + 1.0)
    tsm = two_s * m[:, None]
    m_sq = np.repeat((m * m)[:, None], n, axis=1)
    buf = np.empty(dim + 1)  # deltas, then a spare slot unused ring entries point at
    flat = buf[:dim]
    deltas = flat.reshape(n, n)

    bits_l = start.tolist()
    bits_ip = start.astype(np.intp).reshape(n, n)
    bit_rows, bit_cols = list(bits_ip), list(bits_ip.T)
    pen_rows, pen_cols = list(row_pen), list(col_pen.T)
    pair = np.empty(2)
    ring = np.full(min(tenure, max_iterations), dim, dtype=np.intp)  # the last flips
    ring_len = len(ring)
    argmin, take, inf = flat.argmin, pair.take, math.inf

    best_energy = energy
    flip_log = []
    best_pos = 0
    tabu_until = [0] * dim

    for k in range(max_iterations):
        # (2s * m(u . z) + m^2) + row term + column term, as all_flip_deltas
        np.multiply(tsm, ux * zx + uy * zy, out=deltas)
        deltas += m_sq
        deltas += row_pen
        deltas += col_pen

        a = int(argmin())
        if tabu_until[a] > k and not energy + flat[a] < best_energy:
            # float addition is monotone, so no costlier tabu move aspirates
            # either: pick the best non-tabu move, if any
            buf[ring] = inf
            b = int(argmin())
            if flat[b] != inf:
                a = b

        i, j = divmod(a, n)
        x = bits_l[a]
        s = 1 - 2 * x
        mi = m_l[i]
        r = rows[i]
        c = cols[j]
        energy += (
            2.0 * s * mi * (ux * zx_l[j] + uy * zy_l[j]) + mi * mi
            + lam1_l[i] * (2.0 * s * (r - 1) + 1.0)
            + lam2 * (2.0 * s * (c - 1) + 1.0)
        )
        sm = s * mi
        ux += sm * zx_l[j]
        uy += sm * zy_l[j]
        r += s
        c += s
        rows[i] = r
        cols[j] = c
        bits_l[a] = bits_ip[i, j] = 1 - x
        tsm[i, j] = -2.0 * s * mi
        # row i and column j penalties take one of two values, chosen by the bit
        li = lam1_l[i]
        pair[0] = li * (2.0 * (r - 1.0) + 1.0)
        pair[1] = li * (-2.0 * (r - 1.0) + 1.0)
        take(bit_rows[i], out=pen_rows[i], mode="clip")
        pair[0] = lam2 * (2.0 * (c - 1.0) + 1.0)
        pair[1] = lam2 * (-2.0 * (c - 1.0) + 1.0)
        take(bit_cols[j], out=pen_cols[j], mode="clip")

        flip_log.append(a)
        tabu_until[a] = k + 1 + tenure
        ring[k % ring_len] = a
        if energy < best_energy:
            best_energy = energy
            best_pos = len(flip_log)

    return _report_from_bits(
        problem, bits_l, flip_log[best_pos:], "tabu", seed, t_start, max_iterations
    )


def brute_force_solve(blades: BladeSet, disk: DiskImbalance) -> SolveReport:
    """Exact minimum over all N! assignments; ties go to the smallest sigma.

    Guarded at N <= 10 (10! is ~3.6M evaluations); meant as the oracle for
    tests and small instances, not as a production solver.
    """
    t_start = time.perf_counter()
    n = blades.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is capped at N={BRUTE_FORCE_LIMIT}, got N={n}")
    z = SlotGeometry(n).unit_vectors()
    m = blades.masses
    y = disk.vector

    best_d2 = math.inf
    best_sigma0 = None
    count = 0
    perms = itertools.permutations(range(n))
    while True:
        chunk = list(itertools.islice(perms, BRUTE_FORCE_BATCH))
        if not chunk:
            break
        p = np.array(chunk)
        v = (m[None, :, None] * z[p]).sum(axis=1) + y
        d2 = (v * v).sum(axis=1)
        i = int(np.argmin(d2))
        if d2[i] < best_d2:  # strict: earlier (lexicographically smaller) wins ties
            best_d2 = float(d2[i])
            best_sigma0 = chunk[i]
        count += len(chunk)

    return SolveReport.of_assignment(
        "brute-force", blades, disk, Assignment(np.asarray(best_sigma0) + 1), 0, t_start, count
    )


def _run_heuristic(blades, disk, seed):
    return heuristic_solve(blades)


def _run_imbalance_sa(blades, disk, seed, sweeps=None):
    start = heuristic_solve(blades).assignment
    schedule = None if sweeps is None else default_imbalance_schedule(blades, disk, sweeps, start)
    return imbalance_sa_solve(blades, disk, schedule=schedule, seed=seed, start=start)


def _run_qubo_sa(blades, disk, seed, sweeps=None, penalty_factor=None):
    if penalty_factor is None:
        penalty_factor = DEFAULT_PENALTY_FACTOR
    problem = build_qubo(blades, disk, penalty_factor=penalty_factor, materialize=False)
    schedule = None if sweeps is None else default_qubo_schedule(problem, sweeps)
    return qubo_sa_solve(problem, schedule=schedule, seed=seed)


def _run_tabu(blades, disk, seed, tenure=None, max_iterations=None, penalty_factor=None):
    if penalty_factor is None:
        penalty_factor = DEFAULT_PENALTY_FACTOR
    problem = build_qubo(blades, disk, penalty_factor=penalty_factor, materialize=False)
    return tabu_solve(problem, tenure=tenure, max_iterations=max_iterations, seed=seed)


def _run_brute_force(blades, disk, seed):
    return brute_force_solve(blades, disk)


#: Uniform entry points: fn(blades, disk, seed, **params) -> SolveReport. Each
#: takes only its own solver's parameters; any other raises ``TypeError``.
SOLVERS = {
    "heuristic": _run_heuristic,
    "imbalance-sa": _run_imbalance_sa,
    "qubo-sa": _run_qubo_sa,
    "tabu": _run_tabu,
    "brute-force": _run_brute_force,
}


def get_solver(name: str, registry: dict = SOLVERS):
    """``name``'s entry in ``registry``, looked up at call time;
    ``ValueError`` listing the choices if there is none."""
    try:
        return registry[name]
    except KeyError:
        raise ValueError(f"unknown solver {name!r}; available: {sorted(registry)}") from None


def keyword_parameters(entry) -> list:
    """Names of the parameters of ``entry`` that have a default: a registry
    entry's own solver parameters, after ``blades``, ``disk`` and ``seed``."""
    return [name for name, p in inspect.signature(entry).parameters.items()
            if p.default is not p.empty]
