import math
import warnings

import numpy as np
import pytest

from conftest import random_instance, random_sigma, rel_close
from turbobalance import (
    Assignment,
    BladeSet,
    DiskImbalance,
    ImbalanceResult,
    SlotGeometry,
    imbalance,
    heuristic_solve,
    imbalance_squared_cosform,
)


def test_slot_angles_quarters():
    assert SlotGeometry(4).angles().tolist() == [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]


def test_slot_angles_single_slot():
    assert SlotGeometry(1).angles().tolist() == [0.0]


def test_slot_angles_thirds():
    phi = SlotGeometry(3).angles()
    assert phi[0] == 0.0
    assert phi[1] == pytest.approx(2 * math.pi / 3, abs=1e-15)
    assert phi[2] == pytest.approx(4 * math.pi / 3, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 86])
def test_slot_geometry_invariants(n):
    geometry = SlotGeometry(n)
    phi = geometry.angles()
    assert np.all(np.diff(phi) > 0)
    steps = np.diff(phi)
    assert np.allclose(steps, 2 * math.pi / n, rtol=0, atol=1e-12)
    norms = np.linalg.norm(geometry.unit_vectors(), axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-12)


def test_equal_opposite_masses_cancel():
    result = imbalance(BladeSet([5.0, 5.0]), DiskImbalance(), Assignment.identity(2))
    assert result.d <= 1e-12 * 10.0


def test_single_blade_collinear_with_disk():
    result = imbalance(BladeSet([3.0]), DiskImbalance(1.0, 0.0), Assignment([1]))
    assert result.d == pytest.approx(4.0, abs=1e-12)


def test_pairwise_opposite_cancellation():
    result = imbalance(BladeSet([2.0, 1.0, 2.0, 1.0]), DiskImbalance(), Assignment.identity(4))
    assert result.d <= 1e-12 * 6.0


def test_dimension_mismatch_names_both_lengths():
    with pytest.raises(ValueError) as err:
        imbalance(BladeSet([1.0, 2.0, 3.0]), DiskImbalance(), Assignment.identity(2))
    assert "3" in str(err.value) and "2" in str(err.value)
    with pytest.raises(ValueError):
        imbalance_squared_cosform(BladeSet([1.0, 2.0, 3.0]), DiskImbalance(), Assignment.identity(2))


def test_cosform_trivial_values():
    assert imbalance_squared_cosform(
        BladeSet([5.0, 5.0]), DiskImbalance(), Assignment.identity(2)
    ) == pytest.approx(0.0, abs=1e-9)
    assert imbalance_squared_cosform(
        BladeSet([3.0]), DiskImbalance(1.0, 0.0), Assignment([1])
    ) == pytest.approx(16.0, abs=1e-12)


def test_cosform_matches_vector_form_randomized():
    rng = np.random.default_rng(101)
    for k in range(1000):
        n = int(rng.integers(2, 17))
        blades, disk = random_instance(rng, n, with_disk=bool(k % 2))
        assignment = Assignment(random_sigma(rng, n))
        d2_vec = imbalance(blades, disk, assignment).d ** 2
        d2_cos = imbalance_squared_cosform(blades, disk, assignment)
        assert rel_close(d2_cos, d2_vec, 1e-6)


def test_random_n6_against_cosform_oracle():
    rng = np.random.default_rng(7)
    blades, disk = random_instance(rng, 6, with_disk=True)
    assignment = Assignment(random_sigma(rng, 6))
    d2_vec = imbalance(blades, disk, assignment).d ** 2
    d2_cos = imbalance_squared_cosform(blades, disk, assignment)
    assert rel_close(d2_cos, d2_vec, 1e-9)


def test_rotation_invariance_without_disk():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        blades, _ = random_instance(rng, n)
        sigma = random_sigma(rng, n)
        d0 = imbalance(blades, DiskImbalance(), Assignment(sigma)).d
        for shift in range(1, n):
            shifted = (sigma - 1 + shift) % n + 1
            d1 = imbalance(blades, DiskImbalance(), Assignment(shifted)).d
            assert rel_close(d0, d1, 1e-9)


def test_reflection_invariance_without_disk():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        blades, _ = random_instance(rng, n)
        sigma = random_sigma(rng, n)
        reflected = (n + 1 - sigma) % n + 1
        d0 = imbalance(blades, DiskImbalance(), Assignment(sigma)).d
        d1 = imbalance(blades, DiskImbalance(), Assignment(reflected)).d
        assert rel_close(d0, d1, 1e-9)


def test_triangle_bound():
    rng = np.random.default_rng(8)
    for k in range(50):
        n = int(rng.integers(1, 15))
        blades, disk = random_instance(rng, n, with_disk=bool(k % 2))
        assignment = Assignment(random_sigma(rng, n))
        bound = disk.m0 + float(blades.masses.sum())
        assert imbalance(blades, disk, assignment).d <= bound * (1 + 1e-12)


def test_disk_zero_magnitude_is_canonical():
    disk = DiskImbalance(0.0, 2.3)
    assert disk.phi0 == 0.0


def test_disk_rejects_bad_values():
    with pytest.raises(ValueError):
        DiskImbalance(-1.0, 0.0)
    with pytest.raises(ValueError):
        DiskImbalance(math.nan, 0.0)


def test_blade_set_rejects_bad_masses():
    for bad in ([], [0.0], [-1.0, 2.0], [1.0, math.nan], [math.inf]):
        with pytest.raises(ValueError):
            BladeSet(bad)


def test_blade_set_is_immutable():
    blades = BladeSet([1.0, 2.0])
    with pytest.raises(ValueError):
        blades.masses[0] = 5.0


def test_assignment_rejects_non_permutation():
    for bad in ([1, 1], [0, 1], [2, 3], [], [1.9, 2.2], [1.5, 2.0], [True, 2], ["1", "2"]):
        with pytest.raises(ValueError):
            Assignment(bad)


def test_assignment_accepts_integral_values_of_any_number_type():
    for sigma in ([2.0, 1.0], np.array([2, 1], dtype=np.uint8), [np.int32(2), np.float32(1.0)]):
        assert Assignment(sigma) == Assignment([2, 1])


def test_assignment_equality_and_identity():
    assert Assignment.identity(3) == Assignment([1, 2, 3])
    assert Assignment([2, 1]) != Assignment([1, 2])


def test_imbalance_result_norm_consistency():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        blades, disk = random_instance(rng, n, with_disk=True)
        result = imbalance(blades, disk, Assignment(random_sigma(rng, n)))
        assert rel_close(result.d, float(np.linalg.norm(result.vector)), 1e-12)


def test_imbalance_result_validates_vector_shape():
    with pytest.raises(ValueError):
        ImbalanceResult(np.zeros(3))


def test_imbalance_result_computes_d_from_its_vector_and_refuses_one():
    for vector in ([3.0, 4.0], [0.1, 0.2], [-3e-200, 7e150], [0.0, -0.0]):
        result = ImbalanceResult(np.array(vector))
        assert result.d == float(np.linalg.norm(np.array(vector)))
        assert type(result.d) is float
        with pytest.raises(TypeError, match="'d'"):
            ImbalanceResult(np.array(vector), d=result.d)


@pytest.mark.parametrize("vector", [[1e155, 3.0], [-3e200, 4e200], [1e308, 1e308], [5e-324, 1.7e308]])
def test_a_finite_residual_whose_squares_overflow_keeps_a_finite_d(vector):
    # the sum of squares passes float64 above about 1.3e154; the norm does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = ImbalanceResult(np.array(vector))
    assert result.d == math.hypot(*vector)
    assert math.isfinite(result.d)


def test_imbalance_of_a_huge_blade_at_the_heuristic_placement_is_finite():
    blades = BladeSet([1e155, 1.0, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = imbalance(blades, DiskImbalance(), heuristic_solve(blades))
    assert result.d == 1e155 == math.hypot(*result.vector.tolist())


def test_d_below_overflow_is_the_numpy_norm_bit_for_bit():
    # math.hypot differs from np.linalg.norm in the last bit on part of these,
    # and every record and digest holds numpy's value
    rng = np.random.default_rng(12)
    vectors = rng.normal(size=(2000, 2)) * 10.0 ** rng.integers(-100, 150, size=(2000, 1))
    for vector in vectors:
        assert ImbalanceResult(vector).d == float(np.linalg.norm(vector))
    infinite = [[math.inf, 1.0], [1.0, -math.inf], [math.inf, math.nan], [math.nan, 1e200]]
    for vector in infinite:
        assert repr(ImbalanceResult(np.array(vector)).d) == repr(float(np.linalg.norm(vector)))


def test_slot_geometry_rejects_zero_slots():
    with pytest.raises(ValueError, match="at least one slot"):
        SlotGeometry(0)
