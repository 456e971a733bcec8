import hashlib
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import from_scratch_deltas, random_instance, rel_close
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
    standard_corpus,
    tabu_solve,
)
from turbobalance import solvers
from turbobalance.solvers import (
    IMBALANCE_SA_BLOCK_MOVES,
    SOLVERS,
    check_count,
    default_imbalance_schedule,
    default_qubo_schedule,
    get_solver,
)


def test_heuristic_golden_four_blades():
    placement = heuristic_solve(BladeSet([4.0, 3.0, 2.0, 1.0]))
    assert placement.sigma.tolist() == [1, 3, 2, 4]
    d = imbalance(BladeSet([4.0, 3.0, 2.0, 1.0]), DiskImbalance(), placement).d
    assert d == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_heuristic_golden_three_blades():
    # heaviest at slot 1, its partner at slot floor(3/2)+1 = 2, median last
    placement = heuristic_solve(BladeSet([4.0, 3.0, 2.0]))
    assert placement.sigma.tolist() == [1, 2, 3]
    report = SOLVERS["heuristic"](BladeSet([4.0, 3.0, 2.0]), DiskImbalance(), 0)
    recomputed = imbalance(BladeSet([4.0, 3.0, 2.0]), DiskImbalance(), placement).d
    assert report.imbalance == pytest.approx(recomputed, abs=1e-12)
    assert math.isfinite(report.imbalance)


def test_heuristic_equal_masses_cancel():
    placement = heuristic_solve(BladeSet([7.0] * 6))
    assert imbalance(BladeSet([7.0] * 6), DiskImbalance(), placement).d <= 1e-9


def test_heuristic_mass_ties_break_by_blade_index():
    placement = heuristic_solve(BladeSet([2.0, 2.0, 1.0, 1.0]))
    assert placement.sigma.tolist() == [1, 3, 2, 4]


def _lowest_free_slot_heuristic(masses):
    """Reference: pairs taken alternately from the heavy and light ends of
    the mass order; each pair scans for the lowest free slot, the heavier
    partner takes it and the lighter the slot floor(N/2) further on; an odd
    leftover takes the last free slot. Returns 0-based slots."""
    n = len(masses)
    order = np.argsort(-np.asarray(masses), kind="stable").tolist()
    pairs, lo, hi = [], 0, n - 1
    while hi - lo >= 1:
        if len(pairs) % 2 == 0:
            pairs.append((order[lo], order[lo + 1]))
            lo += 2
        else:
            pairs.append((order[hi - 1], order[hi]))
            hi -= 2
    sigma0, used = [0] * n, [False] * n
    for heavy, light in pairs:
        s = used.index(False)
        sigma0[heavy], sigma0[light] = s, (s + n // 2) % n
        used[s] = used[(s + n // 2) % n] = True
    if lo == hi:
        sigma0[order[lo]] = used.index(False)
    return sigma0


@pytest.mark.parametrize("draw", ["normal", "integer"])
def test_heuristic_equals_the_lowest_free_slot_scan(draw):
    # after k pairs the taken slots are 0..k-1 and floor(N/2)..floor(N/2)+k-1,
    # so the scan always finds slot k
    rng = np.random.default_rng(3)
    for n in range(1, 80):
        masses = rng.normal(1e4, 100.0, n) if draw == "normal" else rng.integers(1, 4, n) + 0.0
        slots0 = heuristic_solve(BladeSet(masses)).slots0
        assert slots0.tolist() == _lowest_free_slot_heuristic(masses)


def test_heuristic_is_deterministic():
    blades, _ = random_instance(np.random.default_rng(1), 23)
    first = heuristic_solve(blades)
    second = heuristic_solve(blades)
    assert first == second
    assert imbalance(blades, DiskImbalance(), first).d == imbalance(blades, DiskImbalance(), second).d


def test_heuristic_large_instance_is_fast():
    blades, _ = random_instance(np.random.default_rng(2), 100_000)
    start = time.perf_counter()
    placement = heuristic_solve(blades)
    elapsed = time.perf_counter() - start
    assert isinstance(placement, Assignment) and placement.n == 100_000
    assert elapsed < 1.0


def test_anneal_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(1.0, 2.0, 10)  # t_final above t_initial
    with pytest.raises(ValueError):
        AnnealSchedule(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        AnnealSchedule(1.0, 0.5, 0)


@pytest.mark.parametrize("t_initial, t_final, message", [
    # an infinite start cooled as inf, nan, nan, ... (inf * 0), with a warning
    (math.inf, 1.0, "finite, with 0 < t_final < t_initial"),
    (math.inf, math.inf, "finite, with 0 < t_final < t_initial"),
    (math.nan, 1.0, "finite, with 0 < t_final < t_initial"),
    (1.0, math.nan, "finite, with 0 < t_final < t_initial"),
    (1.0, -0.5, "finite, with 0 < t_final < t_initial"),
    # a ratio that rounds to 0 cooled every sweep after the first to 0, not to t_final
    (1e308, 1e-308, "t_final / t_initial underflows"),
    (1e300, 1e-300, "t_final / t_initial underflows"),
    (1e10, 1e-300, "t_final / t_initial underflows"),
])
def test_anneal_schedule_refuses_a_cooling_it_cannot_compute(t_initial, t_final, message):
    with pytest.raises(ValueError, match=message):
        AnnealSchedule(t_initial, t_final, 5)


def test_a_schedule_scaled_past_float64_names_its_temperatures():
    # (2 * spread + d)^2 overflows, so both temperatures are inf; the start's
    # d is a finite 1e155
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="t_final inf and t_initial inf"):
        default_imbalance_schedule(BladeSet([1e155, 1.0, 5.0]), DiskImbalance())


@pytest.mark.parametrize("value", [7, np.int64(7), np.uint8(7), "7"])
def test_a_count_is_returned_as_an_int(value):
    count = check_count(value)
    assert type(count) is int and count == 7
    assert AnnealSchedule(1.0, 0.5, value).sweeps == 7


def test_anneal_schedule_geometric_endpoints():
    schedule = AnnealSchedule(100.0, 1.0, 50)
    temps = schedule.temperatures()
    assert len(temps) == 50
    assert temps[0] == pytest.approx(100.0)
    assert temps[-1] == pytest.approx(1.0, rel=1e-9)
    assert np.all(np.diff(temps) < 0)
    tiny = np.finfo(np.float64).tiny  # the smallest ratio taken: the last sweep still lands
    assert AnnealSchedule(1.0, tiny, 3).temperatures()[-1] == pytest.approx(tiny, rel=1e-12)


def test_imbalance_sa_two_equal_masses_single_sweep():
    schedule = AnnealSchedule(1.0, 0.5, 1)
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
        heuristic_d = imbalance(blades, disk, heuristic_solve(blades)).d
        assert report.imbalance <= heuristic_d + 1e-9


def test_imbalance_sa_seed_determinism():
    blades, disk = random_instance(np.random.default_rng(3), 12, with_disk=True)
    a = imbalance_sa_solve(blades, disk, seed=77)
    b = imbalance_sa_solve(blades, disk, seed=77)
    assert a.assignment == b.assignment
    assert a.imbalance == b.imbalance
    assert a.iterations == b.iterations


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


# recorded under the exp(-delta / t) acceptance rule: the threshold rule
# delta < -t*log(u) reproduces them
QUBO_SA_GOLDEN = [
    # n, instance seed, sweeps, seed, valid, repr(imbalance), sha256 of the bits
    (4, 71, 30, 0, True, "122.21248241186059", "d16e6715d3876a86"),
    (5, 72, 40, 2, True, "95.46689943222681", "cca7997d04680901"),
    (7, 73, 60, 1, False, "None", "6f67cc0a137e69a4"),
]


@pytest.mark.parametrize("n, instance_seed, sweeps, seed, valid, d, bits_hash", QUBO_SA_GOLDEN)
def test_qubo_sa_golden_records(n, instance_seed, sweeps, seed, valid, d, bits_hash):
    blades, disk = random_instance(np.random.default_rng(instance_seed), n, with_disk=True)
    problem = build_qubo(blades, disk, materialize=False)
    report = qubo_sa_solve(problem, schedule=default_qubo_schedule(problem, sweeps), seed=seed)
    assert report.valid is valid
    assert repr(report.imbalance) == d
    bits = report.configuration.bits.astype(np.int8).tobytes()
    assert hashlib.sha256(bits).hexdigest()[:16] == bits_hash


def test_acceptance_thresholds_are_positive_at_the_coldest_schedule():
    # equal masses: d_start = spread = 0, so t_initial sits on its 1e-12 floor
    blades, disk = BladeSet([3.0] * 8), DiskImbalance()
    schedule = default_imbalance_schedule(blades, disk, sweeps=300)
    t_final = schedule.temperatures()[-1]
    assert t_final == pytest.approx(1e-20)
    # the largest uniform below 1 gives the smallest threshold
    assert -t_final * np.log(np.nextafter(1.0, 0.0)) > 0.0
    draws = solvers._swap_draws(np.random.default_rng(0), 8, np.full(schedule.sweeps, t_final))
    assert min(min(threshold) for _, _, threshold in draws) > 0.0  # a zero delta is accepted


class _SomeZeroUniforms:
    """A seeded generator whose uniforms are 0 at every seventh draw."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))  # default_rng, unpatched
        self.integers, self.permutation = self._rng.integers, self._rng.permutation

    def random(self, size):
        u = self._rng.random(size)
        u.flat[::7] = 0.0
        return u


def test_a_zero_uniform_accepts_its_move_without_a_warning(monkeypatch):
    blades, disk = random_instance(np.random.default_rng(5), 6, with_disk=True)
    problem = build_qubo(blades, disk, materialize=False)
    monkeypatch.setattr(np.random, "default_rng", _SomeZeroUniforms)
    reports = [
        imbalance_sa_solve(blades, disk, default_imbalance_schedule(blades, disk, 20), seed=1),
        imbalance_sa_solve(BladeSet([3.0] * 8), DiskImbalance(), seed=1),
        qubo_sa_solve(problem, default_qubo_schedule(problem, 20), seed=1),
    ]
    assert reports[0].valid and reports[1].valid
    assert reports[2].configuration.bits.shape == (36,)


def reference_imbalance_sa(blades, disk, schedule, seed):
    """The move loop that the x-first rejection replaced, kept as the reference
    for its report: the same draws per block, and ``ny`` computed for every
    move before the one acceptance test. Returns the report and the walk's
    running state at its end: the 0-based placement and the residual (ux, uy)."""
    n = blades.n
    rng = np.random.default_rng(seed)
    sigma = heuristic_solve(blades).slots0.tolist()
    z = SlotGeometry(n).unit_vectors()
    zx = z[:, 0].tolist()
    zy = z[:, 1].tolist()
    m = blades.masses.tolist()
    ux = float(disk.vector[0]) + sum(m[i] * zx[sigma[i]] for i in range(n))
    uy = float(disk.vector[1]) + sum(m[i] * zy[sigma[i]] for i in range(n))
    d2 = ux * ux + uy * uy

    best_d2 = d2
    best_sigma = sigma.copy()

    temperatures = schedule.temperatures()
    block = max(1, IMBALANCE_SA_BLOCK_MOVES // n)
    for done in range(0, len(temperatures), block):
        t = temperatures[done:done + block, None]
        first = rng.integers(0, n, size=(len(t), n))
        second = rng.integers(0, n - 1, size=(len(t), n))
        second += second >= first
        with np.errstate(divide="ignore"):
            threshold = -t * np.log(rng.random((len(t), n)))
        for a, b, th in zip(first.ravel().tolist(), second.ravel().tolist(),
                            threshold.ravel().tolist()):
            sa = sigma[a]
            sb = sigma[b]
            dm = m[a] - m[b]
            nx = ux + dm * (zx[sb] - zx[sa])
            ny = uy + dm * (zy[sb] - zy[sa])
            nd2 = nx * nx + ny * ny
            if nd2 - d2 < th:
                sigma[a] = sb
                sigma[b] = sa
                ux, uy, d2 = nx, ny, nd2
                if d2 < best_d2:
                    best_d2 = d2
                    best_sigma = sigma.copy()

    report = solvers.SolveReport.of_assignment(
        blades, disk, Assignment(np.asarray(best_sigma) + 1), schedule.sweeps * n
    )
    return report, (sigma, ux, uy)


def _assert_same_walk(blades, disk, seed):
    # two full blocks and a partial one, so the walk crosses block boundaries
    block = max(1, IMBALANCE_SA_BLOCK_MOVES // blades.n)
    schedule = default_imbalance_schedule(blades, disk, 2 * block + 7)
    report = imbalance_sa_solve(blades, disk, schedule, seed=seed)
    expected, _state = reference_imbalance_sa(blades, disk, schedule, seed)
    assert report.assignment == expected.assignment
    assert repr(report.imbalance) == repr(expected.imbalance)
    assert report.iterations == expected.iterations


@pytest.mark.parametrize("with_disk", [False, True])
@pytest.mark.parametrize("masses", ["random", "small-integer", "equal"])
@pytest.mark.parametrize("n", range(2, 41))
def test_imbalance_sa_equals_the_full_test_reference(n, masses, with_disk):
    blades, disk = _oracle_instance(n, masses, with_disk)
    _assert_same_walk(blades, disk, seed=n)


@pytest.mark.parametrize("masses", ["random", "small-integer", "equal"])
@pytest.mark.parametrize("n", [2, 5, 20, 40])
def test_imbalance_sa_equals_the_reference_on_infinite_thresholds(monkeypatch, n, masses):
    blades, disk = _oracle_instance(n, masses, with_disk=True)
    monkeypatch.setattr(np.random, "default_rng", _SomeZeroUniforms)
    _assert_same_walk(blades, disk, seed=3)


@pytest.mark.parametrize("with_imbalance", [False, True])
def test_imbalance_sa_running_residual_does_not_drift(tmp_path, with_imbalance):
    # bound: 1e-12 of the total blade mass; the worst seen is about 4e-17 of it
    _manifest, instances = standard_corpus(tmp_path, with_imbalance=with_imbalance)
    for instance in instances:
        blades, disk = instance.blade_set(), instance.disk()
        schedule = default_imbalance_schedule(blades, disk, 2000)
        _report, (sigma, ux, uy) = reference_imbalance_sa(blades, disk, schedule, seed=1)
        exact = imbalance(blades, disk, Assignment(np.asarray(sigma) + 1)).vector
        bound = 1e-12 * float(blades.masses.sum())
        assert abs(ux - exact[0]) <= bound and abs(uy - exact[1]) <= bound, instance.name


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
    # one blade has nothing to swap, but its start is checked all the same
    with pytest.raises(ValueError, match="start places 2 blades, instance has 1"):
        imbalance_sa_solve(BladeSet([1.0]), DiskImbalance(), start=Assignment([2, 1]))


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
        schedule = AnnealSchedule(1.0, 0.5, 1)  # far too cold and short
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


# Fixed-seed qubo-sa outputs on a 20-sweep schedule, as packed bits
# (np.packbits, hex). A change to the evaluator's scalar flip arithmetic or to
# qubo-sa's random stream shows up here first.
QUBO_SA_GOLDEN_BITS = [
    (6, 61, 0, "0428102040", True),
    (6, 61, 1, "4200422040", True),
    (20, 62, 0, "0008000840000100000140000040001000001000000020000408000020000010000200800000"
                "040000020000002000000008", False),
    (20, 62, 1, "2800000004001000020001000800000000802020040000000000080100000000100002004000"
                "004000010400000000000800", False),
]


@pytest.mark.parametrize("n, instance_seed, seed, packed, valid", QUBO_SA_GOLDEN_BITS)
def test_qubo_sa_golden_bits(n, instance_seed, seed, packed, valid):
    blades, disk = random_instance(np.random.default_rng(instance_seed), n, with_disk=True)
    problem = build_qubo(blades, disk, materialize=False)
    report = qubo_sa_solve(problem, schedule=default_qubo_schedule(problem, 20), seed=seed)
    assert np.packbits(report.configuration.bits.astype(np.uint8)).tobytes().hex() == packed
    assert report.valid is valid


def reference_qubo_sa(problem, schedule, seed):
    """The qubo-sa loop before the frozen-walk stop, kept as the reference for
    its report: every sweep of ``schedule`` runs, with the same draws."""
    dim = problem.dimension
    rng = np.random.default_rng(seed)
    ev = problem.evaluator()
    ev.reset(rng.integers(0, 2, size=dim, dtype=np.int8))
    for t in schedule.temperatures().tolist():
        order = rng.permutation(dim).tolist()
        with np.errstate(divide="ignore"):
            threshold = (-t * np.log(rng.random(dim))).tolist()
        for a, th in zip(order, threshold):
            delta = ev.flip_delta(a)
            if delta < th:
                ev.flip(a, delta)
    return solvers._report_from_bits(problem, ev.best_bits(), schedule.sweeps * dim)


@pytest.mark.parametrize("masses", ["random", "equal"])
@pytest.mark.parametrize("with_disk", [False, True])
def test_qubo_sa_stops_a_frozen_walk_with_the_report_of_every_sweep(with_disk, masses):
    rng = np.random.default_rng(70 + 2 * with_disk + (masses == "equal"))
    stopped = 0
    for n in range(2, 21):
        blades, disk = random_instance(rng, n, with_disk=with_disk)
        if masses == "equal":
            blades = BladeSet([1.0e4] * n)
        problem = build_qubo(blades, disk, materialize=False)
        schedule = default_qubo_schedule(problem, 100)
        report = qubo_sa_solve(problem, schedule, seed=n)
        expected = reference_qubo_sa(problem, schedule, seed=n)
        case = (n, with_disk, masses)
        assert report.valid is expected.valid, case
        assert report.assignment == expected.assignment, case
        assert report.imbalance == expected.imbalance, case
        assert np.array_equal(report.configuration.bits, expected.configuration.bits), case
        # iterations counts the flips proposed: whole sweeps, up to the schedule's
        assert report.iterations % problem.dimension == 0, case
        assert report.iterations <= expected.iterations, case
        stopped += report.iterations < expected.iterations
    assert stopped >= 15, stopped


def test_qubo_sa_stops_a_valid_walk_early_on_norm20(tmp_path):
    _, instances = standard_corpus(tmp_path)
    instance = next(inst for inst in instances if inst.name == "NORM20_0000")
    problem = build_qubo(instance.blade_set(), instance.disk(), materialize=False)
    for seed in range(3):
        report = qubo_sa_solve(problem, seed=seed)  # the default 500 sweeps
        assert report.valid, seed
        assert report.iterations < 500 * problem.dimension, seed


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
    """Reference tabu search that takes its deltas from the from-scratch
    formula, not from the evaluator's incremental arrays, and moves with
    the evaluator's ``flip``; counts how often the all-tabu fallback and
    aspiration decide the move."""
    dim = problem.dimension
    rng = np.random.default_rng(seed)
    ev = problem.evaluator()
    ev.reset(rng.integers(0, 2, size=dim, dtype=np.int8))
    energy = best_energy = ev.energy()
    flip_log = []
    best_pos = 0
    tabu_until = np.zeros(dim, dtype=np.int64)
    for k in range(max_iterations):
        deltas = from_scratch_deltas(problem, ev.bits(), (ev._ux, ev._uy))
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
    heuristic_d = imbalance(blades, DiskImbalance(), heuristic_solve(blades)).d
    assert heuristic_d >= optimum.imbalance - 1e-12


def test_brute_force_tie_break_is_lexicographic():
    # every permutation of equal masses is optimal; the smallest wins
    report = brute_force_solve(BladeSet([2.0, 2.0, 2.0]), DiskImbalance())
    assert report.assignment.sigma.tolist() == [1, 2, 3]


def reference_brute_force(blades, disk):
    """The chunk loop that the prefix-block enumeration replaced, kept as the
    reference for its report: lists of 20,000 permutation tuples, one numpy
    pass each, the first minimum in lexicographic order kept."""
    n = blades.n
    z = SlotGeometry(n).unit_vectors()
    m = blades.masses
    y = disk.vector
    best_d2, best_sigma0, count = math.inf, None, 0
    perms = itertools.permutations(range(n))
    while True:
        chunk = list(itertools.islice(perms, 20000))
        if not chunk:
            break
        p = np.array(chunk)
        v = (m[None, :, None] * z[p]).sum(axis=1) + y
        d2 = (v * v).sum(axis=1)
        i = int(np.argmin(d2))
        if d2[i] < best_d2:
            best_d2 = float(d2[i])
            best_sigma0 = chunk[i]
        count += len(chunk)
    return solvers.SolveReport.of_assignment(blades, disk, Assignment(np.asarray(best_sigma0) + 1),
                                             count)


def _oracle_instance(n, masses, with_disk):
    rng = np.random.default_rng(10 * n + with_disk)
    values = {
        "random": lambda: rng.normal(1.0e4, 100.0, n),
        "small-integer": lambda: rng.integers(1, 5, n).astype(float),  # many exact ties
        "equal": lambda: np.full(n, 7.0),
    }[masses]()
    disk = (DiskImbalance(float(rng.uniform(0.0, 500.0)), float(rng.uniform(0.0, 2 * np.pi)))
            if with_disk else DiskImbalance())
    return BladeSet(values), disk


@pytest.mark.parametrize("n, masses, with_disk", [
    (n, masses, with_disk)
    for n in range(1, 9)
    for masses in ("random", "small-integer", "equal")
    for with_disk in (False, True)
] + [(9, "small-integer", False)])
def test_brute_force_equals_the_chunk_loop_reference(n, masses, with_disk):
    blades, disk = _oracle_instance(n, masses, with_disk)
    report, expected = brute_force_solve(blades, disk), reference_brute_force(blades, disk)
    assert report.assignment == expected.assignment
    assert report.imbalance == expected.imbalance
    assert report.iterations == expected.iterations == math.factorial(n)


def test_brute_force_keeps_the_first_minimum_tied_across_prefix_blocks():
    blades, disk = BladeSet(np.ones(8)), DiskImbalance()
    # d^2 rounds to its minimum under several first blades, so in several prefix blocks
    z = SlotGeometry(8).unit_vectors()
    p = np.array(list(itertools.permutations(range(8))))
    d2 = (z[p].sum(axis=1) ** 2).sum(axis=1)
    assert len(set(p[d2 == d2.min(), 0].tolist())) > 1
    report, expected = brute_force_solve(blades, disk), reference_brute_force(blades, disk)
    assert report.assignment == expected.assignment
    assert report.imbalance == expected.imbalance


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


@pytest.mark.parametrize("seed", [None, True, 1.5, -1], ids=["none", "bool", "float", "negative"])
@pytest.mark.parametrize("name", ["imbalance-sa", "qubo-sa", "tabu"])
def test_a_seeded_solver_refuses_a_seed_that_is_not_a_count(name, seed):
    # None would draw OS entropy and True would run as seed 1; default_rng
    # refuses 1.5 (a TypeError) and -1 with messages that do not name the seed
    blades, disk = random_instance(np.random.default_rng(16), 3, with_disk=True)
    with pytest.raises(ValueError, match=r"^seed: must be an integer of at least 0"):
        SOLVERS[name](blades, disk, seed)
