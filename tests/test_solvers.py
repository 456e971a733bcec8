import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import random_instance, random_sigma, rel_close
from turbobalance import (
    AnnealSchedule,
    Assignment,
    BinaryConfiguration,
    BladeSet,
    DiskImbalance,
    SlotGeometry,
    brute_force_solve,
    build_qubo,
    decode,
    heuristic_solve,
    imbalance,
    imbalance_sa_solve,
    qubo_sa_solve,
    tabu_solve,
)
from turbobalance import solvers
from turbobalance.solvers import (
    IMBALANCE_SA_BLOCK_MOVES,
    SOLVERS,
    default_imbalance_schedule,
    default_qubo_schedule,
    get_solver,
    swap_delta,
)


def test_heuristic_golden_four_blades():
    report = heuristic_solve(BladeSet([4.0, 3.0, 2.0, 1.0]))
    assert report.assignment.sigma.tolist() == [1, 3, 2, 4]
    assert report.imbalance == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_heuristic_golden_three_blades():
    # heaviest at slot 1, its partner at slot floor(3/2)+1 = 2, median last
    report = heuristic_solve(BladeSet([4.0, 3.0, 2.0]))
    assert report.assignment.sigma.tolist() == [1, 2, 3]
    recomputed = imbalance(BladeSet([4.0, 3.0, 2.0]), DiskImbalance(), report.assignment).d
    assert report.imbalance == pytest.approx(recomputed, abs=1e-12)
    assert math.isfinite(report.imbalance)


def test_heuristic_equal_masses_cancel():
    report = heuristic_solve(BladeSet([7.0] * 6))
    assert report.imbalance <= 1e-9


def test_heuristic_mass_ties_break_by_blade_index():
    report = heuristic_solve(BladeSet([2.0, 2.0, 1.0, 1.0]))
    assert report.assignment.sigma.tolist() == [1, 3, 2, 4]


def test_heuristic_is_deterministic():
    blades, _ = random_instance(np.random.default_rng(1), 23)
    first = heuristic_solve(blades)
    second = heuristic_solve(blades)
    assert first.assignment == second.assignment
    assert first.imbalance == second.imbalance


def test_heuristic_large_instance_is_fast():
    blades, _ = random_instance(np.random.default_rng(2), 100_000)
    start = time.perf_counter()
    report = heuristic_solve(blades)
    elapsed = time.perf_counter() - start
    assert report.valid
    assert elapsed < 1.0


def test_anneal_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(1.0, 2.0, 0.5, 10)  # t_final above t_initial
    with pytest.raises(ValueError):
        AnnealSchedule(1.0, 0.5, 1.5, 10)  # alpha outside (0, 1)
    with pytest.raises(ValueError):
        AnnealSchedule(0.0, 0.0, 0.5, 10)
    with pytest.raises(ValueError):
        AnnealSchedule(1.0, 0.5, 0.9, 0)


def test_anneal_schedule_geometric_endpoints():
    schedule = AnnealSchedule.geometric(100.0, 1.0, 50)
    temps = schedule.temperatures()
    assert len(temps) == 50
    assert temps[0] == pytest.approx(100.0)
    assert temps[-1] == pytest.approx(1.0, rel=1e-9)
    assert np.all(np.diff(temps) < 0)


def test_imbalance_sa_two_equal_masses_single_sweep():
    schedule = AnnealSchedule.geometric(1.0, 0.5, 1)
    report = imbalance_sa_solve(BladeSet([5.0, 5.0]), DiskImbalance(), schedule, seed=0)
    assert report.valid
    assert report.imbalance <= 1e-9


def test_imbalance_sa_single_blade_trivial():
    report = imbalance_sa_solve(BladeSet([3.0]), DiskImbalance(1.0, 0.0), seed=4)
    assert report.valid
    assert report.assignment.sigma.tolist() == [1]
    assert report.imbalance == pytest.approx(4.0, abs=1e-12)


def test_imbalance_sa_matches_brute_force_smoke():
    rng = np.random.default_rng(42)
    hits = 0
    for k in range(30):
        n = int(rng.integers(2, 9))
        blades, disk = random_instance(rng, n, with_disk=bool(k % 2))
        optimum = brute_force_solve(blades, disk)
        report = imbalance_sa_solve(blades, disk, seed=k)
        hits += rel_close(report.imbalance, optimum.imbalance, 1e-6)
    assert hits >= 28


def test_imbalance_sa_output_contract():
    rng = np.random.default_rng(43)
    for k in range(10):
        n = int(rng.integers(2, 20))
        blades, disk = random_instance(rng, n, with_disk=True)
        report = imbalance_sa_solve(blades, disk, seed=k)
        assert report.valid
        recomputed = imbalance(blades, disk, report.assignment).d
        assert rel_close(report.imbalance, recomputed, 1e-9)
        heuristic_d = imbalance(blades, disk, heuristic_solve(blades).assignment).d
        assert report.imbalance <= heuristic_d + 1e-9


def test_imbalance_sa_seed_determinism():
    blades, disk = random_instance(np.random.default_rng(3), 12, with_disk=True)
    a = imbalance_sa_solve(blades, disk, seed=77)
    b = imbalance_sa_solve(blades, disk, seed=77)
    assert a.assignment == b.assignment
    assert a.imbalance == b.imbalance
    assert a.iterations == b.iterations
    assert a.seed == b.seed


# Fixed-seed outputs of the block-drawn random stream. A change to how or in
# what order imbalance-sa draws its random numbers shows up here first.
IMBALANCE_SA_GOLDEN = [
    # N = 40 does not divide the block: 51 sweeps per block, so 250 sweeps
    # are four full blocks and a partial one of 46
    (40, 11, 250, 3, [39, 2, 16, 17, 33, 7, 11, 13, 20, 21, 1, 27, 4, 30, 25, 32, 15, 18, 35,
                      34, 9, 14, 8, 6, 5, 40, 38, 31, 29, 12, 23, 3, 28, 22, 36, 37, 19, 26,
                      24, 10], "0.5705823743419361"),
    (20, 12, 1, 3, [8, 1, 7, 3, 20, 14, 16, 2, 6, 13, 11, 17, 19, 10, 4, 15, 5, 12, 18, 9],
     "125.28630297508215"),
]


@pytest.mark.parametrize("n, instance_seed, sweeps, seed, sigma, d", IMBALANCE_SA_GOLDEN)
def test_imbalance_sa_golden_stream(n, instance_seed, sweeps, seed, sigma, d):
    blades, disk = random_instance(np.random.default_rng(instance_seed), n, with_disk=True)
    if sweeps > 1:  # the case spans two full blocks and a partial one
        block = max(1, IMBALANCE_SA_BLOCK_MOVES // n)
        assert IMBALANCE_SA_BLOCK_MOVES % n and sweeps > 2 * block and sweeps % block
    schedule = default_imbalance_schedule(blades, disk, sweeps)
    report = imbalance_sa_solve(blades, disk, schedule, seed=seed)
    assert report.assignment.sigma.tolist() == sigma
    assert repr(report.imbalance) == d
    assert report.iterations == sweeps * n
    via_registry = SOLVERS["imbalance-sa"](blades, disk, seed, sweeps=sweeps)
    assert via_registry.assignment == report.assignment


def test_imbalance_sa_runs_the_heuristic_once(monkeypatch):
    blades, disk = random_instance(np.random.default_rng(6), 9, with_disk=True)
    calls = []
    original = solvers.heuristic_solve
    monkeypatch.setattr(solvers, "heuristic_solve", lambda b: calls.append(b) or original(b))
    imbalance_sa_solve(blades, disk, seed=2)
    SOLVERS["imbalance-sa"](blades, disk, 2, sweeps=3)
    assert len(calls) == 2


def test_imbalance_sa_rejects_a_start_of_the_wrong_size():
    blades, disk = random_instance(np.random.default_rng(6), 9)
    with pytest.raises(ValueError, match="start"):
        imbalance_sa_solve(blades, disk, start=Assignment.identity(8))


def test_imbalance_sa_best_history_is_monotone():
    blades, disk = random_instance(np.random.default_rng(4), 15, with_disk=True)
    report = imbalance_sa_solve(blades, disk, seed=5, record_best=True)
    history = report.best_history
    assert history, "expected a recorded incumbent trace"
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    assert rel_close(math.sqrt(history[-1]), report.imbalance, 1e-9)


def test_swap_delta_matches_full_recomputation():
    rng = np.random.default_rng(44)
    checked = 0
    while checked < 10_000:
        n = int(rng.integers(2, 30))
        blades, disk = random_instance(rng, n, with_disk=True)
        z = SlotGeometry(n).unit_vectors()
        zx, zy = z[:, 0].tolist(), z[:, 1].tolist()
        masses = blades.masses.tolist()
        sigma = (random_sigma(rng, n) - 1).tolist()
        vec = imbalance(blades, disk, Assignment(np.asarray(sigma) + 1)).vector
        ux, uy = float(vec[0]), float(vec[1])
        for _ in range(min(50, 10_000 - checked)):
            a = int(rng.integers(0, n))
            b = int(rng.integers(0, n - 1))
            if b >= a:
                b += 1
            delta = swap_delta(masses, zx, zy, sigma, ux, uy, a, b)
            swapped = sigma.copy()
            swapped[a], swapped[b] = swapped[b], swapped[a]
            d2_new = imbalance(blades, disk, Assignment(np.asarray(swapped) + 1)).d ** 2
            d2_old = ux * ux + uy * uy
            assert rel_close(d2_old + delta, d2_new, 1e-9)
            checked += 1


def test_qubo_sa_single_blade():
    problem = build_qubo(BladeSet([2.0]), DiskImbalance())
    report = qubo_sa_solve(problem, seed=0)
    assert report.valid
    assert report.configuration.bits.tolist() == [1]
    assert report.assignment.sigma.tolist() == [1]


def test_qubo_sa_small_instances_match_oracle():
    # generous budget: once T falls below the penalty scale the walk is
    # frozen into one permutation basin, so the basin choice needs time
    rng = np.random.default_rng(7)
    hits = 0
    for k in range(100):
        blades, disk = random_instance(rng, 3, with_disk=bool(k % 2))
        problem = build_qubo(blades, disk, materialize=False)
        optimum = brute_force_solve(blades, disk)
        schedule = default_qubo_schedule(problem, sweeps=1000)
        report = qubo_sa_solve(problem, schedule, seed=k)
        if report.valid and rel_close(report.imbalance, optimum.imbalance, 1e-6):
            hits += 1
    assert hits >= 90


def test_qubo_sa_seed_determinism():
    blades, disk = random_instance(np.random.default_rng(8), 5, with_disk=True)
    problem = build_qubo(blades, disk, materialize=False)
    a = qubo_sa_solve(problem, seed=31)
    b = qubo_sa_solve(problem, seed=31)
    assert np.array_equal(a.configuration.bits, b.configuration.bits)
    assert a.valid == b.valid
    assert a.imbalance == b.imbalance


def test_qubo_sa_reports_validity_honestly():
    rng = np.random.default_rng(9)
    starved = None
    for k in range(20):
        blades, disk = random_instance(rng, 6, with_disk=True)
        problem = build_qubo(blades, disk, materialize=False)
        schedule = AnnealSchedule.geometric(1.0, 0.5, 1)  # far too cold and short
        report = qubo_sa_solve(problem, schedule, seed=k)
        decoded = decode(report.configuration)
        assert report.valid == isinstance(decoded, Assignment)
        if report.valid:
            assert report.imbalance is not None
            assert report.assignment == decoded
        else:
            assert report.imbalance is None
            assert report.assignment is None
            starved = report
    assert starved is not None, "expected at least one invalid outcome under a starved schedule"


def test_qubo_sa_on_a_materialized_problem_gives_valid_reports():
    # the materialized matrix is not a solver path: the run equals the
    # matrix-free one bit for bit
    rng = np.random.default_rng(10)
    blades, disk = random_instance(rng, 4, with_disk=True)
    report = qubo_sa_solve(build_qubo(blades, disk), seed=3)
    if report.valid:
        recomputed = imbalance(blades, disk, report.assignment).d
        assert rel_close(report.imbalance, recomputed, 1e-9)
    assert report.configuration is not None
    free = qubo_sa_solve(build_qubo(blades, disk, materialize=False), seed=3)
    assert np.array_equal(report.configuration.bits, free.configuration.bits)
    assert report.imbalance == free.imbalance


def test_qubo_sa_best_history_is_monotone():
    blades, disk = random_instance(np.random.default_rng(11), 5, with_disk=True)
    problem = build_qubo(blades, disk, materialize=False)
    report = qubo_sa_solve(problem, seed=6, record_best=True)
    history = report.best_history
    assert history
    assert all(b <= a + 1e-6 for a, b in zip(history, history[1:]))


def test_tabu_single_blade():
    problem = build_qubo(BladeSet([2.0]), DiskImbalance())
    report = tabu_solve(problem, seed=0)
    assert report.valid
    assert report.configuration.bits.tolist() == [1]


def test_tabu_small_instances_match_oracle():
    rng = np.random.default_rng(7)
    hits = 0
    for k in range(100):
        blades, disk = random_instance(rng, 3, with_disk=bool(k % 2))
        problem = build_qubo(blades, disk, materialize=False)
        optimum = brute_force_solve(blades, disk)
        report = tabu_solve(problem, seed=k)
        if report.valid and rel_close(report.imbalance, optimum.imbalance, 1e-6):
            hits += 1
    assert hits >= 90


def test_tabu_is_deterministic_across_repeats():
    blades, disk = random_instance(np.random.default_rng(12), 4, with_disk=True)
    problem = build_qubo(blades, disk, materialize=False)
    reports = [tabu_solve(problem, seed=9) for _ in range(3)]
    for other in reports[1:]:
        assert np.array_equal(reports[0].configuration.bits, other.configuration.bits)
        assert reports[0].valid == other.valid
        assert reports[0].imbalance == other.imbalance
        assert reports[0].iterations == other.iterations


def _evaluator_tabu(problem, tenure, max_iterations, seed, events):
    """Reference tabu search driven by the implicit evaluator's
    ``all_flip_deltas`` / ``flip``; counts how often the all-tabu fallback
    and aspiration decide the move."""
    dim = problem.dimension
    rng = np.random.default_rng(seed)
    ev = problem.evaluator()
    ev.reset(rng.integers(0, 2, size=dim, dtype=np.int8))
    energy = best_energy = ev.energy()
    flip_log = []
    best_pos = 0
    tabu_until = np.zeros(dim, dtype=np.int64)
    for k in range(max_iterations):
        deltas = ev.all_flip_deltas()
        allowed = tabu_until <= k
        candidates = allowed | (energy + deltas < best_energy)
        if not candidates.any():
            candidates[:] = True
            events["fallback"] += 1
        a = int(np.argmin(np.where(candidates, deltas, np.inf)))
        if not allowed[a] and energy + deltas[a] < best_energy:
            events["aspiration"] += 1
        ev.flip(a)
        energy = ev.energy()
        flip_log.append(a)
        tabu_until[a] = k + 1 + tenure
        if energy < best_energy:
            best_energy = energy
            best_pos = len(flip_log)
    bits = ev.bits()
    for a in reversed(flip_log[best_pos:]):
        bits[a] ^= 1
    return BinaryConfiguration(bits)


@pytest.mark.parametrize("kind", ["random", "random-disk", "equal"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 20, 23, 40])
def test_tabu_matches_evaluator_driven_reference(n, kind):
    if kind == "equal":
        # equal masses make many deltas mathematically tied; only the order
        # of the float operations decides those ties
        blades, disk = BladeSet([1.0e4] * n), DiskImbalance()
    else:
        blades, disk = random_instance(np.random.default_rng(100 + n), n,
                                       with_disk=kind == "random-disk")
    problem = build_qubo(blades, disk, materialize=False)
    dim = problem.dimension
    events = {"fallback": 0, "aspiration": 0}
    iterations = min(50 * dim, 600)
    # tenure 1: only the last flip is tabu; 10 + n: the default; dim: every
    # move can be tabu at once, so the all-tabu fallback runs; dim + 3: more
    # tabu slots than moves; iterations + 1: the tabu ring never wraps
    for tenure in (1, 10 + n, dim, dim + 3, iterations + 1):
        for seed in range(2):
            report = tabu_solve(problem, tenure=tenure, max_iterations=iterations, seed=seed)
            expected = _evaluator_tabu(problem, tenure, iterations, seed, events)
            assert np.array_equal(report.configuration.bits, expected.bits), (tenure, seed)
            decoded = decode(expected)
            assert report.valid == isinstance(decoded, Assignment)
            if report.valid:
                assert report.imbalance == imbalance(blades, disk, decoded).d
            else:
                assert report.imbalance is None
    # at N = 40 the runs end inside the first descent from the random start,
    # where the best move is never tabu: they check the deltas and penalty
    # updates at dimension 1600, not the tabu rules
    if dim < iterations:
        assert events["fallback"] > 0
        if n >= 3:  # smaller problems give the tabu list no room to aspirate
            assert events["aspiration"] > 0


def test_tabu_tenure_beyond_the_budget_allocates_nothing_for_it():
    blades, disk = random_instance(np.random.default_rng(14), 6, with_disk=True)
    problem = build_qubo(blades, disk, materialize=False)
    iterations = 400
    tabu_solve(problem, tenure=iterations, max_iterations=iterations, seed=3)  # warm caches
    reports, peaks = {}, {}
    for tenure in (iterations, 10**12):
        tracemalloc.start()
        try:
            reports[tenure] = tabu_solve(problem, tenure=tenure, max_iterations=iterations, seed=3)
            peaks[tenure] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # once tenure >= max_iterations no flip ever leaves the tabu list
    assert np.array_equal(reports[10**12].configuration.bits,
                          reports[iterations].configuration.bits)
    assert peaks[10**12] <= peaks[iterations] + 4096, peaks


@pytest.mark.parametrize("solver", ["qubo-sa", "tabu"])
def test_qubo_solvers_reject_zero_penalty_factor(solver):
    blades, disk = random_instance(np.random.default_rng(13), 4)
    with pytest.raises(ValueError, match="penalty_factor"):
        SOLVERS[solver](blades, disk, 0, penalty_factor=0)


def test_tabu_rejects_bad_parameters():
    problem = build_qubo(BladeSet([1.0, 2.0]), DiskImbalance(), materialize=False)
    with pytest.raises(ValueError):
        tabu_solve(problem, tenure=0)
    with pytest.raises(ValueError):
        tabu_solve(problem, max_iterations=0)


def test_brute_force_goldens():
    assert brute_force_solve(BladeSet([5.0, 5.0]), DiskImbalance()).imbalance <= 1e-12
    report = brute_force_solve(BladeSet([3.0]), DiskImbalance(1.0, math.pi))
    assert report.imbalance == pytest.approx(2.0, abs=1e-12)


def test_brute_force_full_sweep_bounds_the_heuristic():
    blades = BladeSet([4.0, 3.0, 2.0, 1.0])
    optimum = brute_force_solve(blades, DiskImbalance())
    assert optimum.iterations == 24
    assert heuristic_solve(blades).imbalance >= optimum.imbalance - 1e-12


def test_brute_force_tie_break_is_lexicographic():
    # every permutation of equal masses is optimal; the smallest wins
    report = brute_force_solve(BladeSet([2.0, 2.0, 2.0]), DiskImbalance())
    assert report.assignment.sigma.tolist() == [1, 2, 3]


def test_brute_force_rejects_oversized_instance():
    blades, disk = random_instance(np.random.default_rng(13), 11)
    with pytest.raises(ValueError) as err:
        brute_force_solve(blades, disk)
    assert "11" in str(err.value)


ORACLE_BUDGETS = {
    "imbalance-sa": {"sweeps": 50},
    "qubo-sa": {"sweeps": 50},
    "tabu": {"max_iterations": 200},
}


def test_oracle_dominance_across_all_solvers():
    rng = np.random.default_rng(14)
    for k in range(10):
        n = int(rng.integers(2, 9))
        blades, disk = random_instance(rng, n, with_disk=bool(k % 2))
        optimum = brute_force_solve(blades, disk).imbalance
        for name, solver in SOLVERS.items():
            report = solver(blades, disk, seed=k, **ORACLE_BUDGETS.get(name, {}))
            if not report.valid:
                continue
            achieved = imbalance(blades, disk, report.assignment).d
            assert achieved >= optimum - 1e-9, f"{name} undercut the exact optimum"


def test_solver_registry_lookup():
    assert get_solver("heuristic") is SOLVERS["heuristic"]
    with pytest.raises(ValueError):
        get_solver("does-not-exist")


def test_concurrent_solves_share_immutable_instances():
    # many solver calls on one shared instance must not interfere: all
    # randomness and search state is local to the call
    from concurrent.futures import ThreadPoolExecutor

    blades, disk = random_instance(np.random.default_rng(16), 10, with_disk=True)
    serial = [imbalance_sa_solve(blades, disk, seed=s) for s in range(8)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda s: imbalance_sa_solve(blades, disk, seed=s), range(8)))
    for a, b in zip(serial, threaded):
        assert a.assignment == b.assignment
        assert a.imbalance == b.imbalance


def test_registry_reports_are_reproducible():
    blades, disk = random_instance(np.random.default_rng(15), 6, with_disk=True)
    for name, solver in SOLVERS.items():
        first = solver(blades, disk, seed=2)
        second = solver(blades, disk, seed=2)
        assert first.valid == second.valid
        assert first.imbalance == second.imbalance
