import json
import re

import numpy as np
import pytest

from conftest import random_instance, rel_close
from turbobalance import (
    Assignment,
    BladeSet,
    DecompositionConfig,
    DiskImbalance,
    brute_force_solve,
    decompose_solve,
    heuristic_solve,
    imbalance,
    imbalance_sa_solve,
    split,
)
from turbobalance.model import TWO_PI, SlotGeometry
from turbobalance.solvers import SOLVERS, SolveReport

BRUTE = DecompositionConfig(max_subproblem=5, sub_solver="brute-force", merge_solver="brute-force")


def test_split_even_length():
    assert split(["b1", "b2", "b3", "b4"]) == (["b1", "b3"], ["b2", "b4"])


def test_split_odd_length():
    assert split(["b1", "b2", "b3"]) == (["b1", "b3"], ["b2"])


def test_split_rejects_singletons():
    with pytest.raises(ValueError):
        split(["b1"])


def test_recursive_split_reaches_four_leaves_of_five():
    parts = [list(range(20))]
    while any(len(p) > 5 for p in parts):
        parts = [half for p in parts for half in split(p)]
    assert sorted(len(p) for p in parts) == [5, 5, 5, 5]
    assert sorted(x for p in parts for x in p) == list(range(20))


def test_no_split_is_identical_to_sub_solver():
    blades = BladeSet([4.0, 3.0, 2.0, 1.0])
    disk = DiskImbalance(0.3, 0.7)
    report, trace = decompose_solve(blades, disk, BRUTE, seed=5)
    direct = brute_force_solve(blades, disk)
    assert report.assignment == direct.assignment
    assert report.imbalance == pytest.approx(direct.imbalance, abs=1e-12)
    assert not trace.root.children
    assert trace.merge_report is None


def test_no_split_passes_the_caller_seed_through():
    blades, disk = random_instance(np.random.default_rng(0), 5, with_disk=True)
    config = DecompositionConfig(sub_solver="imbalance-sa", merge_solver="imbalance-sa")
    report, _ = decompose_solve(blades, disk, config, seed=123)
    direct = imbalance_sa_solve(blades, disk, seed=123)
    assert report.assignment == direct.assignment


@pytest.mark.parametrize("seed", [None, True, 1.5, -1], ids=["none", "bool", "float", "negative"])
@pytest.mark.parametrize("n", [4, 12], ids=["at-most-the-cap", "above-the-cap"])
def test_decompose_refuses_a_seed_that_is_not_a_count(monkeypatch, n, seed):
    # brute force ignores its seed, and derive_seed would hash any seed as text
    monkeypatch.setattr("turbobalance.decompose.derive_seed", None)
    blades, disk = random_instance(np.random.default_rng(1), n, with_disk=True)
    with pytest.raises(ValueError, match=r"^seed: must be an integer of at least 0"):
        decompose_solve(blades, disk, BRUTE, seed=seed)


def test_equal_masses_compose_to_zero():
    config = DecompositionConfig(max_subproblem=4, sub_solver="brute-force",
                                 merge_solver="brute-force")
    report, trace = decompose_solve(BladeSet([7.0] * 8), DiskImbalance(), config, seed=0)
    assert report.valid
    assert report.imbalance <= 1e-9
    assert len(trace.leaves()) == 2


def test_composed_assignment_is_valid_and_exactly_accounted():
    rng = np.random.default_rng(50)
    for k in range(40):
        n = int(rng.integers(4, 13))
        blades, disk = random_instance(rng, n, with_disk=bool(k % 2))
        report, trace = decompose_solve(blades, disk, BRUTE, seed=k)
        assert report.valid
        recomputed = imbalance(blades, disk, report.assignment).d
        assert abs(report.imbalance - recomputed) <= 1e-9 * max(1.0, recomputed)
        # leaves partition the blade set and respect the cap
        leaf_blades = sorted(b for leaf in trace.leaves() for b in leaf.blades)
        assert leaf_blades == list(range(1, n + 1))
        assert all(len(leaf.blades) <= 5 for leaf in trace.leaves())


def test_majority_experiment_composed_beats_heuristic():
    # pre-registered at >= 80/100; observed 99/100 with the rigid-shift
    # realization, pinned at 95 to keep slack for platform fp differences
    wins = 0
    for k in range(100):
        rng = np.random.default_rng(1000 + k)
        blades = BladeSet(rng.normal(1e4, 100.0, 12))
        m0 = float(rng.uniform(0, 500)) if k % 2 else 0.0
        disk = DiskImbalance(m0, float(rng.uniform(0, 2 * np.pi)))
        report, _ = decompose_solve(blades, disk, BRUTE, seed=k)
        heuristic_d = imbalance(blades, disk, heuristic_solve(blades)).d
        wins += report.imbalance <= heuristic_d
    assert wins >= 95


def test_decompose_is_deterministic():
    blades, disk = random_instance(np.random.default_rng(51), 14, with_disk=True)
    a, trace_a = decompose_solve(blades, disk, BRUTE, seed=9)
    b, trace_b = decompose_solve(blades, disk, BRUTE, seed=9)
    assert a.assignment == b.assignment
    assert a.imbalance == b.imbalance
    assert trace_a.to_dict() == trace_b.to_dict()


def test_starved_sub_solver_falls_back_to_heuristic():
    blades, disk = random_instance(np.random.default_rng(52), 12)
    config = DecompositionConfig(
        max_subproblem=5,
        sub_solver="qubo-sa",
        merge_solver="brute-force",
        sub_solver_params={"sweeps": 1},
    )
    report, trace = decompose_solve(blades, disk, config, seed=3)
    assert report.valid  # the pipeline never emits an invalid composition
    fallbacks = [leaf for leaf in trace.leaves() if leaf.fallback]
    assert fallbacks, "expected at least one starved leaf to fall back"
    for leaf in fallbacks:
        assert leaf.solver == "heuristic"
        assert leaf.attempts == 5  # 1 + 3 retries + fallback


#: every attempt seed of a run whose solves all fail: four attempts per leaf
#: (leaf 0 first), then four merge attempts; or, without a split, the caller's
#: seed and three root retries
GOLDEN_ATTEMPT_SEEDS = {
    (0, 12): [6152699530374933837, 2150744444299443636, 1914545398678471367,
              6616559755262082217, 2142667734475869468, 2429240004951845655,
              5095836622474261541, 2845475729424414682, 8561089953386867515,
              7839167822889043103, 3324284938062404238, 7500870880673754165,
              1713927161353637811, 7143109275600073773, 204832000831041286,
              2133577221687837383, 3982360503244297944, 4490150915508781919,
              6659852627517731637, 3543269314356536387],
    (0, 4): [0, 2008628621716874888, 6173693264999021707, 1883850427335378611],
    (2 ** 40 + 3, 12): [4868564364727634358, 7299254542119308110, 2486242916881599806,
                        1815621351847684709, 6679080529946573276, 3916975809145998256,
                        2433593269851145671, 8448121131910773710, 159374964528738805,
                        5003231715562401631, 7152701537721152529, 7492200165832616077,
                        8364826585364782177, 2523125337857427834, 3775386499282410462,
                        1673859879520452197, 7864162739861428599, 3849591982818599210,
                        5695299291446611106, 7009800259868895414],
    (2 ** 40 + 3, 4): [2 ** 40 + 3, 5647607912406561279, 2973623527531307626,
                       3111377838793845055],
}


@pytest.mark.parametrize("seed, n", sorted(GOLDEN_ATTEMPT_SEEDS))
def test_leaf_and_merge_attempts_derive_the_golden_seeds(monkeypatch, seed, n):
    seeds = []

    def failing(blades, disk, seed):
        seeds.append(seed)
        return SolveReport(False, None, None, 0)

    monkeypatch.setitem(SOLVERS, "qubo-sa", failing)
    monkeypatch.setitem(SOLVERS, "tabu", failing)
    config = DecompositionConfig(max_subproblem=5, sub_solver="qubo-sa", merge_solver="tabu")
    report, _ = decompose_solve(BladeSet(np.linspace(1.0, 2.0, n)), DiskImbalance(), config, seed)
    assert report.valid
    assert seeds == GOLDEN_ATTEMPT_SEEDS[seed, n]


def test_trace_json_document():
    blades, disk = random_instance(np.random.default_rng(53), 12, with_disk=True)
    report, trace = decompose_solve(blades, disk, BRUTE, seed=1)
    doc = json.loads(trace.to_json())
    assert set(doc) == {"tree", "merge"}
    assert doc["merge"]["solver"] == "brute-force"
    assert len(doc["merge"]["pseudo_masses"]) == len(trace.leaves())

    def walk(node):
        if "children" in node:
            assert len(node["children"]) == 2
            for child in node["children"]:
                walk(child)
        else:
            assert node["solver"] == "brute-force"
            assert len(node["residual"]) == 2
            assert all(np.isfinite(v) for v in node["residual"])
            assert node["d"] >= 0.0

    walk(doc["tree"])


def test_trace_flags_inexact_equidistant_groups():
    rng = np.random.default_rng(56)
    even, disk = random_instance(rng, 12)  # 12 -> 6 -> 3: even splits only
    _, trace_even = decompose_solve(even, disk, BRUTE, seed=0)
    assert all(leaf.equidistant_exact for leaf in trace_even.leaves())

    odd, disk = random_instance(rng, 11)  # first split is odd
    _, trace_odd = decompose_solve(odd, disk, BRUTE, seed=0)
    assert all(not leaf.equidistant_exact for leaf in trace_odd.leaves())
    node = trace_odd.to_dict()["tree"]
    while "children" in node:
        node = node["children"][0]
    assert node["equidistant_exact"] is False


def test_config_validation():
    with pytest.raises(ValueError):
        DecompositionConfig(max_subproblem=1)
    with pytest.raises(ValueError):
        DecompositionConfig(sub_solver="nope")
    with pytest.raises(ValueError):
        DecompositionConfig(merge_solver="nope")
    with pytest.raises(ValueError, match="N=10.*got 11"):
        DecompositionConfig(max_subproblem=11, sub_solver="brute-force")


@pytest.mark.parametrize("config, message", [
    ({"max_subproblem": 1}, "max_subproblem: must be an integer of at least 2, got 1"),
    ({"max_subproblem": "x"}, "max_subproblem: must be an integer of at least 2, got 'x'"),
    ({"sub_solver": ["x"]}, "sub_solver: unknown solver ['x']; available: "),
    ({"merge_solver": {"x": 1}}, "merge_solver: unknown solver {'x': 1}; available: "),
], ids=["cap-1", "cap-text", "sub-list", "merge-dict"])
def test_a_config_field_outside_its_bound_fails_with_its_name(config, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        DecompositionConfig(**config)


def test_config_takes_max_subproblem_as_decimal_text():
    config = DecompositionConfig(max_subproblem="3", sub_solver="brute-force",
                                 merge_solver="brute-force")
    assert config.max_subproblem == 3
    blades, disk = random_instance(np.random.default_rng(8), 6, with_disk=True)
    report, trace = decompose_solve(blades, disk, config, seed=0)
    assert report.valid
    assert [len(leaf.blades) for leaf in trace.leaves()] == [3, 3]


@pytest.mark.parametrize("config, name", [
    ({"sub_solver_params": {"tenure": 3}}, "tenure"),
    ({"merge_solver": "brute-force", "merge_solver_params": {"sweeps": 9}}, "sweeps"),
    ({"sub_solver": "imbalance-sa", "sub_solver_params": {"seed": 1}}, "seed"),
    ({"sub_solver": "imbalance-sa", "sub_solver_params": {"record_best": True}}, "record_best"),
])
def test_config_rejects_a_parameter_its_solver_does_not_take(config, name):
    with pytest.raises(ValueError, match=f"'{name}'"):
        DecompositionConfig(**config)


def test_oversized_brute_force_merge_is_refused_before_any_leaf(monkeypatch):
    leaf_calls = []
    brute_force = SOLVERS["brute-force"]

    def counting(blades, disk, seed):
        leaf_calls.append(seed)
        return brute_force(blades, disk, seed)

    monkeypatch.setitem(SOLVERS, "counting", counting)
    blades, disk = random_instance(np.random.default_rng(57), 40, with_disk=True)
    capped = DecompositionConfig(max_subproblem=3, sub_solver="counting", merge_solver="brute-force")
    with pytest.raises(ValueError, match=r"N=10\b.*\b16\b"):  # 40 -> 20 -> 10 -> 5 -> 3 and 2
        decompose_solve(blades, disk, capped, seed=0)
    assert leaf_calls == []

    config = DecompositionConfig(max_subproblem=5, sub_solver="counting", merge_solver="brute-force")
    report, trace = decompose_solve(blades, disk, config, seed=0)
    assert report.valid
    assert len(leaf_calls) == 8
    assert trace.merge_solver == "brute-force" and not trace.merge_fallback


#: (N, leaves at cap 5, merge solver): the two standard-corpus sizes above
#: 40 blades, and N = 40, whose 8 groups brute force can also merge. At
#: N = 84 and 86, _realize places some groups blade by blade.
GATE_CASES = [(40, 8, "imbalance-sa"), (40, 8, "brute-force"), (84, 20, "imbalance-sa"),
              (86, 22, "imbalance-sa")]


@pytest.mark.parametrize("with_disk", [False, True])
@pytest.mark.parametrize("n, leaves, merge_solver", GATE_CASES)
def test_decomposition_is_exactly_accounted_at_production_blade_counts(
        n, leaves, merge_solver, with_disk):
    blades, disk = random_instance(np.random.default_rng(n), n, with_disk=with_disk)
    config = DecompositionConfig(max_subproblem=5, sub_solver="brute-force",
                                 merge_solver=merge_solver)
    report, trace = decompose_solve(blades, disk, config, seed=11)
    assert report.valid
    assert rel_close(report.imbalance, imbalance(blades, disk, report.assignment).d, 1e-9)
    assert sorted(b for leaf in trace.leaves() for b in leaf.blades) == list(range(1, n + 1))
    assert all(len(leaf.blades) <= 5 for leaf in trace.leaves())
    assert len(trace.leaves()) == leaves
    again, _ = decompose_solve(blades, disk, config, seed=11)
    assert again.assignment == report.assignment


@pytest.mark.parametrize("with_disk", [False, True])
@pytest.mark.parametrize("n, leaves, merge_solver", GATE_CASES)
def test_leaf_rotations_lie_on_the_slot_grid(n, leaves, merge_solver, with_disk):
    # a group turns onto its merge direction (rho), then by a whole number of
    # slots, unless it falls back to rounding blade by blade (rho alone)
    blades, disk = random_instance(np.random.default_rng(n), n, with_disk=with_disk)
    config = DecompositionConfig(max_subproblem=5, sub_solver="brute-force",
                                 merge_solver=merge_solver)
    _, trace = decompose_solve(blades, disk, config, seed=11)
    psi = SlotGeometry(leaves).angles()[trace.merge_report.assignment.slots0]
    phi = SlotGeometry(n).angles()
    for leaf, direction in zip(trace.leaves(), psi):
        rho = (direction - leaf.residual_angle) % TWO_PI
        assert leaf.rotation == rho or leaf.rotation in (rho + phi) % TWO_PI, leaf.blades


def test_decompose_places_a_single_blade_in_its_one_slot():
    blades = BladeSet([1.0])
    for disk in (DiskImbalance(), DiskImbalance(2.0, 0.3)):
        report, trace = decompose_solve(blades, disk, BRUTE, seed=0)
        assert report.valid and report.assignment == Assignment.identity(1)
        assert report.imbalance == imbalance(blades, disk, report.assignment).d
        assert [leaf.blades for leaf in trace.leaves()] == [(1,)]


def test_default_pipeline_runs_at_production_scale():
    blades, disk = random_instance(np.random.default_rng(55), 40)
    report, trace = decompose_solve(blades, disk, seed=0)
    assert report.valid
    assert all(len(leaf.blades) <= 5 for leaf in trace.leaves())
    assert len(trace.leaves()) == 8
