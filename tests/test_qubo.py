import io

import numpy as np
import pytest

from conftest import random_instance, random_sigma, rel_close
from turbobalance import (
    Assignment,
    BinaryConfiguration,
    BladeSet,
    DiskImbalance,
    ValidityReport,
    brute_force_solve,
    build_qubo,
    decode,
    encode,
    export_qubo,
    imbalance,
    min_penalties,
    qubo_energy,
)
from turbobalance.qubo import load_qubo_export, objective_matrix_termwise


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


@pytest.mark.parametrize("factor", [1.0, 0.5, -2.0])
def test_build_rejects_penalty_factor_at_or_below_one(factor):
    with pytest.raises(ValueError):
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


def test_matrix_is_exactly_symmetric():
    rng = np.random.default_rng(22)
    blades, disk = random_instance(rng, 7, with_disk=True)
    problem = build_qubo(blades, disk)
    assert np.array_equal(problem.matrix, problem.matrix.T)
    assert np.array_equal(problem.objective_matrix, problem.objective_matrix.T)


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
    assert report.row_popcounts == (2, 0)
    assert report.col_popcounts == (1, 1)
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
    with pytest.raises(ValueError):
        BinaryConfiguration(np.array([0, 2, 1, 0]))


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
        evaluator = problem.evaluator("dense")
        best_perm = min(
            qubo_energy(problem, encode(Assignment(np.asarray(perm) + 1)))
            for perm in itertools.permutations(range(n))
        )
        probes = [
            _steepest_descent(evaluator, rng.integers(0, 2, size=problem.dimension, dtype=np.int8))
            for _ in range(40)
        ]
        assert min(probes) >= best_perm - 1e-6 * abs(best_perm)


def test_dense_and_implicit_evaluators_agree():
    rng = np.random.default_rng(27)
    for n in (2, 4, 7):
        blades, disk = random_instance(rng, n, with_disk=True)
        problem = build_qubo(blades, disk)
        dense = problem.evaluator("dense")
        implicit = problem.evaluator("implicit")
        bits = rng.integers(0, 2, size=problem.dimension, dtype=np.int8)
        dense.reset(bits)
        implicit.reset(bits)
        assert rel_close(dense.energy(), implicit.energy(), 1e-9)
        deltas_d = dense.all_flip_deltas()
        deltas_i = implicit.all_flip_deltas()
        assert np.all(np.abs(deltas_d - deltas_i) <= 1e-6 * np.maximum(1.0, np.abs(deltas_d)))
        for a in rng.integers(0, problem.dimension, size=50):
            a = int(a)
            assert rel_close(dense.flip_delta(a), implicit.flip_delta(a), 1e-6)
            dense.flip(a)
            implicit.flip(a)
        assert np.array_equal(dense.bits(), implicit.bits())
        assert rel_close(dense.energy(), implicit.energy(), 1e-6)


def test_incremental_energy_does_not_drift():
    # a long walk of incremental updates must stay on the recomputed value
    rng = np.random.default_rng(30)
    blades, disk = random_instance(rng, 8, with_disk=True)
    problem = build_qubo(blades, disk)
    for kind in ("implicit", "dense"):
        evaluator = problem.evaluator(kind)
        evaluator.reset(rng.integers(0, 2, size=problem.dimension, dtype=np.int8))
        for a in rng.integers(0, problem.dimension, size=20_000):
            evaluator.flip(int(a))
        walked = evaluator.energy()
        evaluator.reset(evaluator.bits())
        assert rel_close(walked, evaluator.energy(), 1e-6)


def test_evaluator_kind_validation():
    problem = build_qubo(BladeSet([1.0, 2.0]), DiskImbalance(), materialize=False)
    with pytest.raises(ValueError):
        problem.evaluator("dense")  # no matrix materialized
    with pytest.raises(ValueError):
        problem.evaluator("nonsense")


def test_implicit_energy_matches_dense_qubo_energy():
    rng = np.random.default_rng(28)
    blades, disk = random_instance(rng, 6, with_disk=True)
    dense_problem = build_qubo(blades, disk)
    implicit_problem = build_qubo(blades, disk, materialize=False)
    assert implicit_problem.matrix is None
    for _ in range(20):
        bits = rng.integers(0, 2, size=dense_problem.dimension, dtype=np.int8)
        assert rel_close(
            qubo_energy(dense_problem, bits), qubo_energy(implicit_problem, bits), 1e-6
        )


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
    assert offset == problem.constant_offset
    for _ in range(20):
        x = rng.integers(0, 2, size=16).astype(float)
        assert rel_close(float(x @ matrix @ x), float(x @ problem.matrix @ x), 1e-9)


@pytest.mark.parametrize("text", [
    "",
    "# dim\n",
    "# dim 4\n",
    "# dim 4 offset 0.0\n0 9 1.0\n",
    "# dim 4 offset 0.0\n0 1\n",
])
def test_load_rejects_malformed_export(text):
    with pytest.raises(ValueError, match="header|entry|empty"):
        load_qubo_export(io.StringIO(text))


def test_export_requires_materialized_matrix(tmp_path):
    problem = build_qubo(BladeSet([1.0, 2.0]), DiskImbalance(), materialize=False)
    with pytest.raises(ValueError):
        export_qubo(problem, tmp_path / "q.txt")
