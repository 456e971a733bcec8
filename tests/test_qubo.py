import dataclasses
import io
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import from_scratch_deltas, random_instance, random_sigma, rel_close
from turbobalance import (
    Assignment,
    BinaryConfiguration,
    BladeSet,
    DiskImbalance,
    QuboProblem,
    ValidityReport,
    brute_force_solve,
    build_qubo,
    decode,
    encode,
    export_qubo,
    generate,
    imbalance,
    min_penalties,
    qubo_energy,
)
from turbobalance.model import SlotGeometry
from turbobalance.qubo import (
    EXPORT_CHUNK_CHARS,
    load_qubo_export,
    objective_matrix_termwise,
)


def test_min_penalties_balanced_disk():
    bounds, column_bound = min_penalties(BladeSet([1.0, 2.0]), DiskImbalance())
    assert bounds.tolist() == [1.0, 4.0]
    assert column_bound == 4.0


def test_min_penalties_with_disk():
    bounds, column_bound = min_penalties(BladeSet([1.0, 2.0]), DiskImbalance(3.0, 0.5))
    assert bounds.tolist() == [7.0, 16.0]
    assert column_bound == 16.0


def test_applied_weights_are_ten_times_the_bounds():
    blades, disk = BladeSet([1.0, 2.0]), DiskImbalance(3.0, 0.5)
    problem = build_qubo(blades, disk)
    bounds, column_bound = min_penalties(blades, disk)
    assert np.array_equal(problem.lambda1, 10.0 * bounds)
    assert problem.lambda2 == 10.0 * column_bound
    assert np.all(problem.lambda1 > bounds)
    assert problem.lambda2 > column_bound


@pytest.mark.parametrize("disk", [DiskImbalance(), DiskImbalance(500.0, 1.0)])
@pytest.mark.parametrize("materialize", [True, False])
def test_constant_offset_is_the_expanded_constants(disk, materialize):
    """m0^2 plus the constants of the expanded penalty squares, computed from
    the problem's own fields, also in a ``dataclasses.replace`` copy."""
    blades = generate("NORM", 12, seed=4).blade_set()
    problem = build_qubo(blades, disk, materialize=materialize)
    lambda1, lambda2 = problem.lambda1, problem.lambda2
    assert problem.constant_offset == disk.m0 ** 2 + float(lambda1.sum()) + 12 * lambda2
    copy = dataclasses.replace(problem, lambda1=2.0 * lambda1, lambda2=3.0 * lambda2)
    assert copy.constant_offset == disk.m0 ** 2 + float((2.0 * lambda1).sum()) + 12 * (3.0 * lambda2)
    with pytest.raises(TypeError, match="constant_offset"):
        QuboProblem(None, lambda1, lambda2, blades, disk, constant_offset=0.0)


@pytest.mark.parametrize("factor", [1.0, 0.5, -2.0, float("nan"), float("inf")])
def test_build_rejects_penalty_factor_at_or_below_one(factor):
    with pytest.raises(ValueError, match="penalty_factor"):
        build_qubo(BladeSet([1.0]), DiskImbalance(), penalty_factor=factor)


def test_single_blade_golden():
    # objective entry m^2 = 4; both one-hot expansions add -10*(4) each
    problem = build_qubo(BladeSet([2.0]), DiskImbalance())
    assert problem.matrix.shape == (1, 1)
    assert problem.matrix[0, 0] == pytest.approx(4.0 - 40.0 - 40.0, abs=1e-12)
    assert problem.constant_offset == pytest.approx(80.0, abs=1e-12)
    e0 = qubo_energy(problem, [0])
    e1 = qubo_energy(problem, [1])
    assert e1 < e0  # the blade must be placed
    assert e1 + problem.constant_offset == pytest.approx(4.0, abs=1e-9)


def test_two_equal_blades_identity_energy_is_zero():
    for masses in ([1.0, 1.0], [5.0, 5.0]):
        problem = build_qubo(BladeSet(masses), DiskImbalance())
        energy = qubo_energy(problem, encode(Assignment.identity(2)))
        assert energy + problem.constant_offset == pytest.approx(0.0, abs=1e-9)


def test_construction_paths_agree():
    rng = np.random.default_rng(21)
    for n in (2, 3, 5, 9, 14, 20):
        blades, disk = random_instance(rng, n, with_disk=True)
        problem = build_qubo(blades, disk)
        termwise = objective_matrix_termwise(blades, disk)
        tolerance = 1e-9 * float(blades.masses.max()) ** 2
        assert np.abs(problem.objective_matrix - termwise).max() <= tolerance


def _kron_build(blades, disk, penalty_factor):
    """Reference (objective, matrix) pair from full-size temporaries: the
    Kronecker-product construction that build_qubo replaced by an in-place
    fill with the same float operations."""
    n = blades.n
    bounds, bound2 = min_penalties(blades, disk)
    lambda1 = penalty_factor * bounds
    lambda2 = penalty_factor * bound2
    z = SlotGeometry(n).unit_vectors()
    q = (blades.masses[:, None, None] * z[None, :, :]).reshape(n * n, 2).T
    objective = q.T @ q
    objective = 0.5 * (objective + objective.T)
    objective[np.diag_indices(n * n)] += 2.0 * (disk.vector @ q)
    ones = np.ones((n, n))
    row_pen = np.kron(np.diag(lambda1), ones)
    row_pen[np.diag_indices(n * n)] -= 2.0 * np.repeat(lambda1, n)
    col_pen = lambda2 * (np.kron(ones, np.eye(n)) - 2.0 * np.eye(n * n))
    return objective, objective + row_pen + col_pen


@pytest.mark.parametrize("factor", [10.0, 1.5])
@pytest.mark.parametrize("with_disk", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 23])
def test_in_place_build_equals_kron_construction(n, with_disk, factor):
    blades, disk = random_instance(np.random.default_rng(100 + n), n, with_disk=with_disk)
    problem = build_qubo(blades, disk, penalty_factor=factor)
    objective, matrix = _kron_build(blades, disk, factor)
    assert np.array_equal(problem.matrix, matrix)
    assert np.array_equal(problem.objective_matrix, objective)


def test_in_place_build_peaks_at_one_matrix():
    blades, disk = random_instance(np.random.default_rng(31), 24, with_disk=True)
    one_matrix = (24 * 24) ** 2 * 8
    tracemalloc.start()
    try:
        problem = build_qubo(blades, disk, materialize=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problem.matrix.nbytes == one_matrix
    assert peak <= 1.5 * one_matrix


def test_matrix_is_exactly_symmetric():
    # nothing symmetrizes the product: it is exact because the builder
    # multiplies q^T by q as two views of one buffer
    for n in (7, 17, 23, 40):
        blades, disk = random_instance(np.random.default_rng(22), n, with_disk=True)
        problem = build_qubo(blades, disk)
        assert np.array_equal(problem.matrix, problem.matrix.T), n
        assert np.array_equal(problem.objective_matrix, problem.objective_matrix.T), n


def test_encode_goldens():
    assert encode(Assignment([1])).bits.tolist() == [1]
    assert encode(Assignment([2, 1])).bits.tolist() == [0, 1, 1, 0]


def test_decode_single_bit():
    decoded = decode([1])
    assert isinstance(decoded, Assignment)
    assert decoded.sigma.tolist() == [1]


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 41))
        assignment = Assignment(random_sigma(rng, n))
        decoded = decode(encode(assignment))
        assert isinstance(decoded, Assignment)
        assert decoded == assignment


def test_decode_reports_violations():
    report = decode([1, 1, 0, 0])  # blade 1 in both slots, blade 2 nowhere
    assert isinstance(report, ValidityReport)
    assert report.row_violations == ((1, 2), (2, 0))
    assert report.col_violations == ()


def test_decode_reports_column_violations():
    report = decode([1, 0, 1, 0])  # both blades in slot 1
    assert isinstance(report, ValidityReport)
    assert report.col_violations == ((1, 2), (2, 0))
    assert report.row_violations == ()


def test_decode_rejects_non_square_length():
    with pytest.raises(ValueError):
        decode([1, 0, 1])


def test_configuration_rejects_non_binary():
    # checked before the int8 cast, which truncates 0.5 and 1.5 and wraps 257 to 1
    for bits in ([0, 2, 1, 0], [0.5, 1, 1, 0], [1.5, 0, 0, 1], [257, 1, 1, 0]):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            BinaryConfiguration(np.array(bits))
        with pytest.raises(ValueError, match="must be 0 or 1"):
            decode(bits)


@pytest.mark.parametrize("bits", [[], [[0, 1], [1, 0]]])
def test_configuration_rejects_an_empty_or_2d_array(bits):
    with pytest.raises(ValueError, match="non-empty 1-d"):
        BinaryConfiguration(np.array(bits, dtype=np.int8))


def test_all_zero_config_energy():
    blades, disk = BladeSet([3.0, 4.0]), DiskImbalance(2.0, 1.0)
    problem = build_qubo(blades, disk)
    zero = BinaryConfiguration(np.zeros(4, dtype=np.int8))
    assert qubo_energy(problem, zero) == pytest.approx(0.0, abs=1e-9)
    constraint_constants = float(problem.lambda1.sum()) + problem.n * problem.lambda2
    assert qubo_energy(problem, zero) + problem.constant_offset == pytest.approx(
        disk.m0 ** 2 + constraint_constants, abs=1e-9
    )


def test_valid_config_energy_equals_squared_imbalance():
    rng = np.random.default_rng(24)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 41))
        blades, disk = random_instance(rng, n, with_disk=True)
        problem = build_qubo(blades, disk, materialize=False)
        for _ in range(20):
            assignment = Assignment(random_sigma(rng, n))
            energy = qubo_energy(problem, encode(assignment))
            d2 = imbalance(blades, disk, assignment).d ** 2
            assert rel_close(energy + problem.constant_offset, d2, 1e-6)
            checked += 1
    assert checked == 1000


def test_energy_dimension_mismatch():
    problem = build_qubo(BladeSet([1.0, 2.0]), DiskImbalance())
    with pytest.raises(ValueError):
        qubo_energy(problem, [1, 0, 0, 1, 0, 0, 0, 0, 1])


def test_energy_of_a_count_that_is_not_a_square_is_the_evaluators_error():
    problem = build_qubo(BladeSet([1.0, 2.0]), DiskImbalance())
    with pytest.raises(ValueError, match="expected 4 bits, got 5"):
        qubo_energy(problem, [1, 0, 0, 1, 0])


def test_evaluator_reset_rejects_the_wrong_bit_count():
    evaluator = build_qubo(BladeSet([1.0, 2.0]), DiskImbalance(), materialize=False).evaluator()
    with pytest.raises(ValueError, match="expected 4 bits, got 9"):
        evaluator.reset(np.zeros(9, dtype=np.int8))


@pytest.mark.parametrize("bits, message", [
    ([2, 0, 0, 0], "entries must be 0 or 1"),  # would be kept as a 2
    ([0.5, 1, 1, 0], "entries must be 0 or 1"),  # would be truncated to 0
    ([257, 0, 0, 0], "entries must be 0 or 1"),  # would overflow int8
    ([[1, 0], [0, 1]], "non-empty 1-d bit sequence"),  # the right count, but 2-d
], ids=["two", "half", "257", "2-d"])
def test_evaluator_reset_refuses_what_a_configuration_refuses(bits, message):
    evaluator = build_qubo(BladeSet([1.0, 2.0]), DiskImbalance(), materialize=False).evaluator()
    with pytest.raises(ValueError, match=message):
        BinaryConfiguration(np.asarray(bits))
    with pytest.raises(ValueError, match=message):
        evaluator.reset(bits)


def _enumerate_minimum(problem):
    dim = problem.dimension
    configs = ((np.arange(2 ** dim)[:, None] >> np.arange(dim)) & 1).astype(float)
    energies = np.einsum("bi,ij,bj->b", configs, problem.matrix, configs)
    best = int(np.argmin(energies))
    return configs[best].astype(np.int8), float(energies[best])


def test_exhaustive_minimizer_is_the_best_permutation():
    rng = np.random.default_rng(25)
    for k in range(10):
        n = int(rng.integers(2, 5))
        blades, disk = random_instance(rng, n, with_disk=bool(k % 2))
        problem = build_qubo(blades, disk)
        bits, energy = _enumerate_minimum(problem)
        decoded = decode(bits)
        assert isinstance(decoded, Assignment), "global minimizer violates one-hot constraints"
        optimum = brute_force_solve(blades, disk)
        d = imbalance(blades, disk, decoded).d
        assert rel_close(d, optimum.imbalance, 1e-9)


def _steepest_descent(evaluator, bits):
    evaluator.reset(bits)
    while True:
        deltas = evaluator.all_flip_deltas()
        best = int(np.argmin(deltas))
        if deltas[best] >= -1e-9:
            return evaluator.energy()
        evaluator.flip(best)


def test_sampled_minimum_at_n5_n6_is_a_permutation():
    # exhaustive search is out of reach at N >= 5; probe with multi-start
    # descent plus every valid permutation and require that nothing beats
    # the best permutation
    import itertools

    rng = np.random.default_rng(26)
    for n in (5, 6):
        blades, disk = random_instance(rng, n, with_disk=True)
        problem = build_qubo(blades, disk)
        evaluator = problem.evaluator()
        best_perm = min(
            qubo_energy(problem, encode(Assignment(np.asarray(perm) + 1)))
            for perm in itertools.permutations(range(n))
        )
        probes = [
            _steepest_descent(evaluator, rng.integers(0, 2, size=problem.dimension, dtype=np.int8))
            for _ in range(40)
        ]
        assert min(probes) >= best_perm - 1e-6 * abs(best_perm)


def _dense_energy_and_deltas(matrix, bits):
    """x^T Q x and every single-flip delta 2 (1 - 2 x_a) (Q x)_a + Q_aa,
    straight from the materialized matrix."""
    x = bits.astype(float)
    g = matrix @ x
    return float(x @ g), 2.0 * (1.0 - 2.0 * x) * g + np.diag(matrix)


def test_implicit_evaluator_agrees_with_dense_matrix():
    rng = np.random.default_rng(27)
    for n in (2, 4, 7):
        blades, disk = random_instance(rng, n, with_disk=True)
        problem = build_qubo(blades, disk)
        implicit = problem.evaluator()
        bits = rng.integers(0, 2, size=problem.dimension, dtype=np.int8)
        implicit.reset(bits)
        energy_d, deltas_d = _dense_energy_and_deltas(problem.matrix, bits)
        assert rel_close(energy_d, implicit.energy(), 1e-9)
        deltas_i = implicit.all_flip_deltas()
        assert np.all(np.abs(deltas_d - deltas_i) <= 1e-6 * np.maximum(1.0, np.abs(deltas_d)))
        for a in rng.integers(0, problem.dimension, size=50):
            a = int(a)
            _, deltas_d = _dense_energy_and_deltas(problem.matrix, implicit.bits())
            assert rel_close(deltas_d[a], implicit.flip_delta(a), 1e-6)
            implicit.flip(a)
            bits[a] ^= 1
        assert np.array_equal(bits, implicit.bits())
        energy_d, _ = _dense_energy_and_deltas(problem.matrix, bits)
        assert rel_close(energy_d, implicit.energy(), 1e-6)


def test_incremental_energy_does_not_drift():
    # a long walk of incremental updates must stay on the recomputed value
    rng = np.random.default_rng(30)
    blades, disk = random_instance(rng, 8, with_disk=True)
    problem = build_qubo(blades, disk)
    evaluator = problem.evaluator()
    evaluator.reset(rng.integers(0, 2, size=problem.dimension, dtype=np.int8))
    for a in rng.integers(0, problem.dimension, size=20_000):
        evaluator.flip(int(a))
    walked = evaluator.energy()
    evaluator.reset(evaluator.bits())
    assert rel_close(walked, evaluator.energy(), 1e-6)


def test_evaluator_does_not_drift_over_a_default_tabu_budget():
    # tabu's default budget at N = 84 with a disk: 50 * 84^2 = 352,800 flips,
    # after one all_flip_deltas builds the vector parts. Bounds: the energy
    # within 1e-9 of the offset of a recompute (1.7e-10 seen), and the
    # vector deltas equal to the from-scratch formula bit for bit.
    instance = generate("STG1SYN", seed=0, m0=500.0, phi0=1.0)
    problem = build_qubo(instance.blade_set(), instance.disk(), materialize=False)
    ev, fresh = problem.evaluator(), problem.evaluator()
    rng = np.random.default_rng(84)
    ev.reset(rng.integers(0, 2, size=problem.dimension, dtype=np.int8))
    ev.all_flip_deltas()
    flips = rng.integers(0, problem.dimension, size=50 * problem.dimension).tolist()
    bound, every = 1e-9 * problem.constant_offset, len(flips) // 10
    for start in range(0, len(flips), every):
        for a in flips[start:start + every]:
            ev.flip(a)
        fresh.reset(ev.bits())
        assert abs(ev.energy() - fresh.energy()) <= bound, start
    assert np.array_equal(ev.all_flip_deltas(),
                          from_scratch_deltas(problem, ev.bits(), (ev._ux, ev._uy)))


@pytest.mark.parametrize("kind", ["random", "random-disk", "equal"])
@pytest.mark.parametrize("n", [12, 23])
def test_all_flip_deltas_equal_the_from_scratch_formula_along_a_long_walk(n, kind):
    # the vector deltas are updated per flip; they must stay bit-equal to a
    # recomputation from the bits, and to the scalar flip_delta. A twin
    # evaluator is handed each flip's delta, as the solvers hand it theirs,
    # and must stay bit-equal to the one that computes it
    if kind == "equal":
        blades, disk = BladeSet([1.0e4] * n), DiskImbalance()
    else:
        blades, disk = random_instance(np.random.default_rng(40 + n),
                                       n, with_disk=kind == "random-disk")
    problem = build_qubo(blades, disk, materialize=False)
    ev, twin = problem.evaluator(), problem.evaluator()
    rng = np.random.default_rng(41 + n)
    steps = 5000
    bits = rng.integers(0, 2, size=problem.dimension, dtype=np.int8)
    ev.reset(bits)
    twin.reset(bits)
    for step in range(steps):
        if step == steps // 2:
            # the parts are rebuilt for the new bits, after flips made without them
            bits = rng.integers(0, 2, size=problem.dimension, dtype=np.int8)
            ev.reset(bits)
            twin.reset(bits)
            for a in rng.integers(0, problem.dimension, size=10).tolist():
                twin.flip(a, ev.flip_delta(a))
                ev.flip(a)
        deltas = ev.all_flip_deltas()
        assert np.array_equal(deltas, from_scratch_deltas(problem, ev.bits(), (ev._ux, ev._uy)))
        assert np.array_equal(twin.all_flip_deltas(), deltas)
        assert twin.energy() == ev.energy()
        # half the moves descend, so the walk also visits one-hot rows and columns
        a = int(np.argmin(deltas)) if step % 2 else int(rng.integers(problem.dimension))
        assert ev.flip_delta(a) == deltas[a]
        twin.flip(a, deltas[a])
        ev.flip(a)


@pytest.mark.parametrize("with_disk", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_evaluator_keeps_the_first_visit_of_the_lowest_energy(n, with_disk):
    # a seeded walk that half descends, so new lows keep coming; the flips mix
    # flip(a) with flip(a, flip_delta(a)), and the start counts as a visit
    blades, disk = random_instance(np.random.default_rng(60 + n), n, with_disk=with_disk)
    problem = build_qubo(blades, disk, materialize=False)
    ev = problem.evaluator()
    rng = np.random.default_rng(70 + n)
    ev.reset(rng.integers(0, 2, size=problem.dimension, dtype=np.int8))
    lowest, first_bits = ev.energy(), ev.bits()
    for step in range(200):
        if step % 2:
            a = int(rng.integers(problem.dimension))
        else:
            a = int(np.argmin([ev.flip_delta(b) for b in range(problem.dimension)]))
        if step % 3:
            ev.flip(a)
        else:
            ev.flip(a, ev.flip_delta(a))
        if ev.energy() < lowest:
            lowest, first_bits = ev.energy(), ev.bits()
        assert ev.best_energy() == lowest, step
        assert np.array_equal(ev.best_bits(), first_bits), step
    # a new start is the incumbent, whatever the old walk found
    start = rng.integers(0, 2, size=problem.dimension, dtype=np.int8)
    ev.reset(start)
    assert ev.best_energy() == ev.energy()
    assert np.array_equal(ev.best_bits(), start)


@pytest.mark.parametrize("masses", [[1.0, 1.0, 1.0], [1.0e4] * 4, [5.0, 5.0, 2.0, 7.0]])
def test_an_equal_energy_later_does_not_replace_the_incumbent(masses):
    # blades 1 and 2 have equal masses, so flipping (1, 1) or (2, 1) from the
    # all-zero start takes the same float operations: two bit strings of
    # exactly one energy. Flipping (1, 1) and undoing it comes back to the start
    problem = build_qubo(BladeSet(masses), DiskImbalance(), materialize=False)
    ev = problem.evaluator()
    ev.reset(np.zeros(problem.dimension, dtype=np.int8))
    ev.flip(0)
    first = ev.bits()
    lowest = ev.energy()
    ev.flip(0)  # the undo: higher again
    assert ev.best_energy() == lowest
    assert np.array_equal(ev.best_bits(), first)
    ev.flip(problem.n)  # blade 2 into slot 1: the same energy, other bits
    assert ev.energy() == lowest and not np.array_equal(ev.bits(), first)
    assert ev.best_energy() == lowest
    assert np.array_equal(ev.best_bits(), first)


def test_the_incumbent_of_a_long_walk_costs_memory_of_the_dimension_not_of_the_walk():
    # the walk starts two flips from the best permutation and makes them
    # first, so the incumbent comes early and 50,000 random flips follow it;
    # a log of every flip since it would hold 400 KB of list slots alone
    blades, disk = random_instance(np.random.default_rng(80), 5, with_disk=True)
    problem = build_qubo(blades, disk, materialize=False)
    ev = problem.evaluator()
    start = encode(brute_force_solve(blades, disk).assignment).bits.copy()
    start[[0, 1]] ^= 1
    ev.reset(start)
    flips = [0, 1] + np.random.default_rng(81).integers(problem.dimension, size=50_000).tolist()
    lowest, snapshot, found_at = ev.energy(), ev.bits(), 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for step, a in enumerate(flips, 1):
            ev.flip(a)
            if ev.energy() < lowest:
                lowest, snapshot, found_at = ev.energy(), ev.bits(), step
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 0 < found_at <= 2
    assert ev.best_energy() == lowest
    assert np.array_equal(ev.best_bits(), snapshot)
    assert growth < 20_000, growth


def test_implicit_energy_matches_dense_qubo_energy():
    # qubo_energy runs on the evaluator whether or not a matrix was built, so
    # both problems give the same bits; x^T Q x of the built matrix is the reference
    rng = np.random.default_rng(28)
    blades, disk = random_instance(rng, 6, with_disk=True)
    dense_problem = build_qubo(blades, disk)
    implicit_problem = build_qubo(blades, disk, materialize=False)
    assert implicit_problem.matrix is None
    assert implicit_problem.objective_matrix is None
    for _ in range(20):
        bits = rng.integers(0, 2, size=dense_problem.dimension, dtype=np.int8)
        x = bits.astype(float)
        energy = qubo_energy(dense_problem, bits)
        assert energy == qubo_energy(implicit_problem, bits)
        assert rel_close(energy, float(x @ dense_problem.matrix @ x), 1e-6)


def test_export_header_and_roundtrip():
    rng = np.random.default_rng(29)
    blades, disk = random_instance(rng, 4, with_disk=True)
    problem = build_qubo(blades, disk)
    buffer = io.StringIO()
    export_qubo(problem, buffer)
    text = buffer.getvalue()
    header = text.splitlines()[0].split()
    assert header[:3] == ["#", "dim", "16"]
    assert header[3] == "offset"
    assert float(header[4]) == problem.constant_offset
    for line in text.splitlines()[1:]:
        i, j, _ = line.split()
        assert 0 <= int(i) <= int(j) < 16

    matrix, offset = load_qubo_export(io.StringIO(text))
    # exact: 0.5 * float(repr(2.0 * q)) == q for every finite |q| below 8.9e307
    assert np.array_equal(matrix, problem.matrix)
    assert offset == problem.constant_offset
    for _ in range(20):
        x = rng.integers(0, 2, size=16).astype(float)
        assert rel_close(float(x @ matrix @ x), float(x @ problem.matrix @ x), 1e-9)


def test_export_and_load_take_a_path_as_well_as_a_file(tmp_path):
    problem = build_qubo(*random_instance(np.random.default_rng(30), 4, with_disk=True))
    buffer = io.StringIO()
    export_qubo(problem, buffer)
    path = tmp_path / "q.txt"
    export_qubo(problem, path)
    assert path.read_text() == buffer.getvalue()
    matrix, offset = load_qubo_export(path)
    expected, expected_offset = load_qubo_export(io.StringIO(buffer.getvalue()))
    assert np.array_equal(matrix, expected)
    assert offset == expected_offset


@pytest.mark.parametrize("text", [
    "",
    "# dim\n",
    "# dim 4\n",
    "# dim 4 offset 0.0\n0 9 1.0\n",
    "# dim 4 offset 0.0\n0 1\n",
    "# dim x offset 0.0\n",
    "# dim -1 offset 0.0\n",
    "# dim 4 offset b\n",
    "# dim 4 offset 0.0\nx 1 1.0\n",
    "# dim 4 offset 0.0\n0 y 1.0\n",
    "# dim 4 offset 0.0\n0 1 b\n",
    "# dim 10000000000 offset 0.0\n",  # numpy refuses the size without allocating
    # headers that int() and float() read, but that are not the writer's line
    "# dim\t4\toffset\t0.0\n",
    "# dim 0_4 offset 0.0\n",
    "# dim +04 offset 0.0\n",
    "# dim 4 offset 0.0  \n",
    "# dim 4 offset  0.0\n",
    "# dim 4 offset 2.0e2\n",
])
def test_load_rejects_malformed_export(text):
    with pytest.raises(ValueError, match="header|entry|empty") as err:
        load_qubo_export(io.StringIO(text))
    if text:  # the message quotes the offending line
        assert repr(text.splitlines()[-1]) in str(err.value)


@pytest.mark.parametrize("text, line", [
    ("\n# dim 4 offset 0.0\n", ""),  # a leading blank line
    # "\r\n" on a stream that does not translate newlines, as io.StringIO's default
    ("# dim 4 offset 0.0\r\n", "# dim 4 offset 0.0\r"),
], ids=["leading-blank-line", "crlf-stream"])
def test_load_refuses_a_first_line_that_is_not_the_header(text, line):
    with pytest.raises(ValueError, match="malformed header line") as err:
        load_qubo_export(io.StringIO(text))
    assert f"line: {line!r} (" in str(err.value)


def test_a_crlf_export_loads_through_the_path_api(tmp_path):
    # a file opened in text mode reads "\r\n" as "\n"
    problem = build_qubo(*random_instance(np.random.default_rng(32), 4, with_disk=True))
    buffer = io.StringIO()
    export_qubo(problem, buffer)
    path = tmp_path / "q.txt"
    path.write_bytes(buffer.getvalue().replace("\n", "\r\n").encode())
    matrix, offset = load_qubo_export(path)
    assert np.array_equal(matrix, problem.matrix)
    assert offset == problem.constant_offset


def reference_load(text):
    """The per-line loader that the chunked one replaced, kept as the
    reference for its matrix and its messages (the header must be well formed)."""
    lines = (ln for ln in io.StringIO(text) if ln.strip())
    head = next(lines).split()
    dim = int(head[2])
    q = np.zeros((dim, dim))
    for ln in lines:
        fields = ln.split()
        try:
            if len(fields) != 3:
                raise ValueError
            i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise ValueError(
                f"malformed entry line: {ln.strip()!r} (expected 'i j value')"
            ) from None
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"entry line {ln.strip()!r} has an index outside 0..{dim - 1}")
        if i == j:
            q[i, i] = v
        else:
            q[i, j] = q[j, i] = 0.5 * v
    return q, float(head[4])


@pytest.fixture(scope="module")
def norm20_export():
    """Export text of a NORM20 instance: dim 400, 80,200 entry lines."""
    problem = build_qubo(generate("NORM", 20, seed=3).blade_set(), DiskImbalance(500.0, 1.0))
    buffer = io.StringIO()
    export_qubo(problem, buffer)
    return buffer.getvalue()


def small_export():
    """Export text of a random dim-16 problem: 136 entry lines."""
    buffer = io.StringIO()
    export_qubo(build_qubo(*random_instance(np.random.default_rng(31), 4, with_disk=True)), buffer)
    return buffer.getvalue()


def test_load_equals_the_per_line_reference_on_exports(norm20_export):
    header = norm20_export.index("\n") + 1
    assert len(norm20_export) - header > EXPORT_CHUNK_CHARS  # more than one block
    for text in (norm20_export, small_export()):
        matrix, offset = load_qubo_export(io.StringIO(text))
        expected, expected_offset = reference_load(text)
        assert np.array_equal(matrix, expected)
        assert offset == expected_offset


@pytest.mark.parametrize("chunk_chars", [1, 7, 40, EXPORT_CHUNK_CHARS])
def test_load_parses_every_export_line_with_numpy(monkeypatch, norm20_export, chunk_chars):
    # numpy's single-space parse reads export_qubo's text at any block size to
    # what the per-line reference reads
    monkeypatch.setattr("turbobalance.qubo.EXPORT_CHUNK_CHARS", chunk_chars)
    texts = [small_export()]
    if chunk_chars == EXPORT_CHUNK_CHARS:  # NORM20 in blocks of a few lines takes seconds
        texts.append(norm20_export)
    for text in texts:
        matrix, offset = load_qubo_export(io.StringIO(text))
        expected, expected_offset = reference_load(text)
        assert np.array_equal(matrix, expected)
        assert offset == expected_offset


def quotes_a_line(message: str, text: str) -> bool:
    """Whether ``message`` quotes a line of ``text``, as read or stripped."""
    return any(repr(ln) in message or repr(ln.strip()) in message for ln in text.split("\n"))


# block sizes that cut lines in the middle (1, 2, 7, 40) and that hold a whole
# text (4096 and the default); a block of 1 holds one line, so each pair key
# is compared with the one carried from the block before
@pytest.mark.parametrize("chunk_chars", [1, 2, 7, 40, 4096, EXPORT_CHUNK_CHARS])
@pytest.mark.parametrize("entries, refused", [
    ("0 1 2.0\n1 1 3.0\n2 3 4.0\n0 1 5.0\n", "0 1 5.0"),  # a repeated pair
    ("0 1 2.0\n1 0 6.0\n", "1 0 6.0"),  # one pair in both orders
    ("\n0 1 2.0\n   \n\n1 1 3.0\n\t\n2 2 1.5\n", ""),  # blank lines between entries
    ("0\t1\t2.0\n1\x0b2\x0b3.0\n", "0\t1\t2.0"),  # tab and vertical-tab separators
    ("1_0 3 2.0\n3 3 1.0\n", "1_0 3 2.0"),  # an index that int() reads and numpy refuses
    ("0 1 2.0\n1 1 3.0\n2 3 4.0", None),  # no newline after the last entry: loads
    # "\r\n" endings, which numpy reads as line ends, and a blank line
    ("0 1 2.0\r\n1 1 3.0\r\n\r\n2 3 4.0\r\n", "\r"),
    ("0  1 2.0\n1 1 3.0 \n 2 3 4.0\n", "0  1 2.0"),  # doubled, trailing and leading spaces
    # five 8-character lines, then a blank line where a 40-character block ends
    # (and where every shorter block starts); the fourth line is out of order
    ("0 1 2.0\n1 1 3.0\n2 3 4.0\n0 2 5.0\n3 3 1.0\n\n1 2 2.5\n", "0 2 5.0"),
    # the same, in order, so the blank line is the first refused
    ("0 1 2.0\n0 2 5.0\n1 1 3.0\n2 3 4.0\n3 3 1.0\n\n4 5 2.5\n", ""),
    ("0 1 2.0\n0 1 2.0\n", "0 1 2.0"),  # one line twice
], ids=["repeated", "both-orders", "blank-lines", "tab-vtab", "underscore", "no-final-newline",
        "crlf", "spaces", "blank-at-block-end", "ordered-blank-at-block-end", "twice"])
def test_load_equals_the_per_line_reference_on_unusual_lines(monkeypatch, chunk_chars, entries,
                                                              refused):
    # the loader reads only what export_qubo writes: any other text loads to
    # exactly what the per-line reference loads, or is refused quoting its
    # first line that breaks the writer's rules
    monkeypatch.setattr("turbobalance.qubo.EXPORT_CHUNK_CHARS", chunk_chars)
    text = "# dim 16 offset 0.5\n" + entries
    if refused is None:
        matrix, offset = load_qubo_export(io.StringIO(text))
        expected, expected_offset = reference_load(text)
        assert matrix.tobytes() == expected.tobytes()
        assert offset == expected_offset
        return
    with pytest.raises(ValueError) as err:
        load_qubo_export(io.StringIO(text))
    assert repr(refused) in str(err.value)


@pytest.mark.parametrize("edit", ["duplicate", "swap"])
def test_load_refuses_a_pair_out_of_order_past_the_first_block(norm20_export, edit):
    lines = norm20_export.splitlines(keepends=True)
    ends = np.cumsum([len(ln) for ln in lines])
    at = int(np.searchsorted(ends, ends[0] + EXPORT_CHUNK_CHARS)) + 100  # in the second block
    i, j, v = lines[at].split()
    assert i != j
    if edit == "duplicate":
        edited, text = lines[at], "".join(lines[:at + 1] + lines[at:])
    else:  # the pair written as j i
        edited = f"{j} {i} {v}\n"
        text = "".join(lines[:at] + [edited] + lines[at + 1:])
    expected, _ = reference_load(text)  # which loads both to the matrix of the export
    assert np.array_equal(expected, reference_load(norm20_export)[0])
    with pytest.raises(ValueError, match="out of order") as err:
        load_qubo_export(io.StringIO(text))
    assert repr(edited.strip()) in str(err.value)


@pytest.mark.parametrize("bad", ["5 400 1.0\n", "5 7 x\n"], ids=["out-of-range", "malformed"])
def test_load_raises_the_reference_message_from_the_second_chunk(norm20_export, bad):
    lines = norm20_export.splitlines(keepends=True)
    ends = np.cumsum([len(ln) for ln in lines])
    # the first block ends on the line holding its last character, or on the
    # next line; lines[0] is the header
    last = int(np.searchsorted(ends, ends[0] + EXPORT_CHUNK_CHARS))
    at = last + 100
    assert at < len(lines)
    text = "".join(lines[:at] + [bad] + lines[at:])
    with pytest.raises(ValueError) as expected:
        reference_load(text)
    with pytest.raises(ValueError) as got:
        load_qubo_export(io.StringIO(text))
    assert str(got.value) == str(expected.value)
    assert repr(bad.strip()) in str(got.value)


def reference_export(problem):
    """The per-entry writer that the row-wise one replaced, kept as the
    reference for the export text."""
    q = problem.matrix
    lines = [f"# dim {problem.dimension} offset {float(problem.constant_offset)!r}\n"]
    for i in range(problem.dimension):
        if q[i, i] != 0.0:
            lines.append(f"{i} {i} {float(q[i, i])!r}\n")
        for off in np.nonzero(q[i, i + 1:])[0]:
            j = i + 1 + int(off)
            lines.append(f"{i} {j} {float(2.0 * q[i, j])!r}\n")
    return "".join(lines)


class CountingBuffer(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


#: the largest element whose doubled coefficient is finite
HALF_MAX = np.finfo(np.float64).max / 2


def hand_built_problem(entries: dict):
    """A dim-9 problem whose matrix is ``entries`` ((i, j) -> value), mirrored."""
    q = np.zeros((9, 9))
    for (i, j), v in entries.items():
        q[i, j] = q[j, i] = v
    return dataclasses.replace(build_qubo(BladeSet([1.0, 2.0, 3.0]), DiskImbalance()), matrix=q)


def unusual_problem():
    """A symmetric dim-9 matrix of special values: signed zeros, NaN, infinities,
    subnormals, an off-diagonal 5e307 (doubled to 1e308) and half the largest
    float (doubled to the largest), zeros on the diagonal and an all-zero row (7)."""
    return hand_built_problem({
        (0, 0): -0.0, (0, 1): np.nan, (0, 2): np.inf, (0, 3): -np.inf, (1, 1): 5e-324,
        (1, 2): 5e307, (1, 3): -0.0, (1, 8): HALF_MAX, (2, 2): np.nan, (2, 4): -5e307,
        (3, 3): np.inf, (4, 5): 1e-310, (5, 5): -np.inf, (5, 8): -HALF_MAX, (6, 8): 3.5,
    })


def nan_blocks_problem():
    """A dim-9 matrix whose blades' blocks share values and hold NaNs."""
    return hand_built_problem({
        # blade 1's rows 0-2: a NaN, and a value next to its negation
        (0, 0): 2.5, (0, 1): 1.5, (0, 2): -1.5, (1, 4): np.nan, (2, 2): 0.1,
        # blade 2's rows 3-5: a NaN, one of blade 1's coefficients and two new ones
        (3, 3): -0.75, (3, 4): 1.5, (4, 5): np.nan, (5, 5): 7.0,
        # blade 3's rows 6-8 stay all zero
    })


@pytest.mark.parametrize("make_problem", [
    lambda: build_qubo(generate("NORM", 20, seed=3).blade_set(), DiskImbalance(500.0, 1.0)),
    lambda: build_qubo(*random_instance(np.random.default_rng(32), 4, with_disk=True)),
    lambda: build_qubo(BladeSet(np.full(5, 100.0)), DiskImbalance()),
    lambda: build_qubo(generate("BETA", 30, seed=4).blade_set(), DiskImbalance(300.0, 2.0)),
    unusual_problem,
    nan_blocks_problem,
], ids=["norm20", "random4-disk", "equal-mass", "beta30-disk", "unusual", "nan-blocks"])
def test_export_equals_the_per_entry_reference(make_problem):
    problem = make_problem()
    buffer = CountingBuffer()
    export_qubo(problem, buffer)
    expected = reference_export(problem)
    got = buffer.getvalue()
    # the first differing line: pytest takes minutes to explain two unequal 2 MiB strings
    assert [(a, b) for a, b in zip(got.splitlines(), expected.splitlines()) if a != b][:1] == []
    assert got == expected
    assert buffer.writes == problem.dimension + 1  # the header, then one write per row


@pytest.mark.parametrize("chunk_chars", [1, 7, 40, EXPORT_CHUNK_CHARS])
@pytest.mark.parametrize("make_problem", [
    lambda: build_qubo(generate("NORM", 20, seed=3).blade_set(), DiskImbalance(500.0, 1.0)),
    unusual_problem,
    nan_blocks_problem,
], ids=["norm20", "unusual", "nan-blocks"])
def test_every_export_loads_back_bit_exact(monkeypatch, make_problem, chunk_chars):
    # NaN, infinities, negative, subnormal and extreme elements and all-zero
    # rows; the export leaves out zeros, so a -0.0 element loads as 0.0, the
    # one difference adding 0.0 makes (NORM20's matrix has no zero)
    problem = make_problem()
    buffer = io.StringIO()
    export_qubo(problem, buffer)
    monkeypatch.setattr("turbobalance.qubo.EXPORT_CHUNK_CHARS", chunk_chars)
    matrix, offset = load_qubo_export(io.StringIO(buffer.getvalue()))
    assert matrix.tobytes() == (problem.matrix + 0.0).tobytes()
    assert repr(offset) == repr(problem.constant_offset)


def test_export_peaks_below_half_a_matrix():
    # the writer tabulates one blade's rows at a time; a table over the whole
    # matrix would hold about as many values as the matrix has elements
    problem = build_qubo(generate("BETA", 40, seed=0).blade_set(), DiskImbalance(300.0, 2.0))
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            export_qubo(problem, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < problem.matrix.nbytes / 2


@pytest.mark.parametrize("value", [1e308, -1e308, float(np.nextafter(HALF_MAX, np.inf))])
def test_export_refuses_an_element_whose_coefficient_overflows(value):
    # the diagonal is written undoubled, and infinities stay infinite, so
    # only the finite off-diagonal element at (4, 8) overflows
    problem = hand_built_problem({(0, 0): 1e308, (1, 2): np.inf, (4, 5): 2.0, (4, 8): value})
    buffer = io.StringIO()
    with np.errstate(over="ignore"):  # the raise must not depend on the caller's setting
        with pytest.raises(ValueError, match=re.escape(f"row 4, column 8: its coefficient, "
                                                       f"twice {value!r}, overflows")):
            export_qubo(problem, buffer)
    assert buffer.getvalue().splitlines()[1:] == ["0 0 1e+308", "1 2 inf"]  # rows before 4


def test_export_requires_materialized_matrix(tmp_path):
    problem = build_qubo(BladeSet([1.0, 2.0]), DiskImbalance(), materialize=False)
    with pytest.raises(ValueError):
        export_qubo(problem, tmp_path / "q.txt")


def test_a_dense_matrix_too_large_to_allocate_is_a_value_error():
    # 10,000 blades make a 10^8 x 10^8 matrix (71 PiB): the allocation fails at once
    blades = BladeSet(np.ones(10_000))
    with pytest.raises(ValueError, match=re.escape("N=10000 blades (dim 100000000)")):
        build_qubo(blades, DiskImbalance(), materialize=True)
    assert build_qubo(blades, DiskImbalance(), materialize=False).matrix is None


@pytest.mark.parametrize("masses, m0", [
    ([1e154, 2e154, 3e154], 0.0),  # the penalty weights overflow
    ([3e153, 2e153, 1e153], 0.0),  # finite weights, but their sum in the offset overflows
    ([1.0, 2.0, 3.0], 1e200),  # m0^2 overflows
])
@pytest.mark.parametrize("materialize", [True, False])
def test_a_qubo_whose_constant_offset_overflows_is_refused_without_a_warning(
        masses, m0, materialize):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"N=3 blades (largest mass {max(masses)!r}, m0 {m0!r}) overflows float64")):
            build_qubo(BladeSet(masses), DiskImbalance(m0), materialize=materialize)
