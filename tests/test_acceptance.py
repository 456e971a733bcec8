"""Acceptance suite: one test per release criterion, at the stated
tolerances and runtime budgets. Each test prints a single pass/fail line
(visible with ``pytest -s`` or in the captured output); run the module with
``pytest tests/test_acceptance.py -v``.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_instance, random_sigma, rel_close
from turbobalance import (
    Assignment,
    BladeSet,
    DecompositionConfig,
    DiskImbalance,
    brute_force_solve,
    build_qubo,
    decode,
    decompose_solve,
    encode,
    generate,
    heuristic_solve,
    imbalance,
    imbalance_sa_solve,
    imbalance_squared_cosform,
    qubo_energy,
    qubo_sa_solve,
    run_benchmark,
)
from turbobalance.qubo import objective_matrix_termwise
from turbobalance.solvers import SOLVERS, default_qubo_schedule


def _verdict(number, name, ok, detail):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_objective_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    pairs = 0
    worst_cos = worst_qubo = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 41))
        blades, disk = random_instance(rng, n, with_disk=bool(pairs % 2))
        problem = build_qubo(blades, disk, materialize=False)
        for _ in range(10):
            assignment = Assignment(random_sigma(rng, n))
            d2 = imbalance(blades, disk, assignment).d ** 2
            scale = max(1.0, abs(d2))
            worst_cos = max(
                worst_cos, abs(imbalance_squared_cosform(blades, disk, assignment) - d2) / scale
            )
            energy = qubo_energy(problem, encode(assignment)) + problem.constant_offset
            worst_qubo = max(worst_qubo, abs(energy - d2) / scale)
            pairs += 1
    elapsed = time.perf_counter() - start
    ok = pairs == 1000 and worst_cos <= 1e-6 and worst_qubo <= 1e-6 and elapsed < 10.0
    _verdict(1, "objective consistency", ok,
             f"{pairs} pairs, worst cosine-form rel err {worst_cos:.2e}, "
             f"worst encoded-energy rel err {worst_qubo:.2e}, {elapsed:.1f}s")


def test_criterion_2_construction_path_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_ratio = 0.0
    for n in range(2, 21):
        blades, disk = random_instance(rng, n, with_disk=bool(n % 2))
        problem = build_qubo(blades, disk)
        termwise = objective_matrix_termwise(blades, disk)
        gap = float(np.abs(problem.objective_matrix - termwise).max())
        worst_ratio = max(worst_ratio, gap / (1e-9 * float(blades.masses.max()) ** 2))
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 and elapsed < 10.0
    _verdict(2, "construction-path agreement", ok,
             f"worst entrywise gap at {worst_ratio:.3f} of the 1e-9*(max mass)^2 budget, {elapsed:.1f}s")


def test_criterion_3_penalty_sufficiency():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    failures = []
    for k in range(50):
        n = int(rng.integers(2, 5))
        blades, disk = random_instance(rng, n, with_disk=bool(k % 2))
        problem = build_qubo(blades, disk)
        dim = problem.dimension
        configs = ((np.arange(2 ** dim)[:, None] >> np.arange(dim)) & 1).astype(float)
        energies = np.einsum("bi,ij,bj->b", configs, problem.matrix, configs)
        bits = configs[int(np.argmin(energies))].astype(np.int8)
        decoded = decode(bits)
        if not isinstance(decoded, Assignment):
            failures.append(f"instance {k}: minimizer violates one-hot")
            continue
        d = imbalance(blades, disk, decoded).d
        optimum = brute_force_solve(blades, disk).imbalance
        if not rel_close(d, optimum, 1e-9):
            failures.append(f"instance {k}: {d} vs optimum {optimum}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    _verdict(3, "penalty sufficiency", ok,
             f"50 exhaustive minimizations, {len(failures)} failures, {elapsed:.1f}s"
             + (f"; first: {failures[0]}" if failures else ""))


def test_criterion_4_imbalance_sa_desk_scale_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    hits = 0
    for k in range(100):
        n = int(rng.integers(2, 9))
        blades, disk = random_instance(rng, n, with_disk=bool(k % 2))
        optimum = brute_force_solve(blades, disk)
        report = imbalance_sa_solve(blades, disk, seed=k)
        hits += rel_close(report.imbalance, optimum.imbalance, 1e-6)
    elapsed = time.perf_counter() - start
    ok = hits >= 95 and elapsed < 120.0
    _verdict(4, "annealer optimality at desk scale", ok,
             f"{hits}/100 runs matched the exact optimum (need >= 95), {elapsed:.1f}s")


def test_criterion_5_production_scale_quality():
    start = time.perf_counter()
    cases = [("BETA", 20), ("BETA", 39), ("BETA", 40),
             ("NORM", 20), ("NORM", 39), ("NORM", 40),
             ("STG1SYN", 84), ("STG2SYN", 86)]
    all_ds = []
    worst = ("", 0.0)
    for family, n in cases:
        for m0, phi0 in ((0.0, 0.0), (500.0, 0.8)):
            instance = generate(family, n, seed=2024, m0=m0, phi0=phi0)
            blades, disk = instance.blade_set(), instance.disk()
            for rep in range(10):
                d = imbalance_sa_solve(blades, disk, seed=rep).imbalance
                all_ds.append(d)
                if d > worst[1]:
                    worst = (f"{instance.name} m0={m0:g} rep={rep}", d)
    elapsed = time.perf_counter() - start
    mean = float(np.mean(all_ds))
    std = float(np.std(all_ds, ddof=1))
    ok = max(all_ds) <= 3.0 and elapsed < 120.0
    _verdict(5, "production-scale quality", ok,
             f"{len(all_ds)} runs, all d <= 3: max {worst[1]:.3f} ({worst[0]}); corpus-wide "
             f"{mean:.2f} +/- {std:.2f} (historical benchmark 1.29 +/- 0.82, different instances), "
             f"{elapsed:.1f}s")


def test_criterion_6_validity_rate_trend():
    start = time.perf_counter()
    budget_sweeps = 80  # the fixed per-variable budget: one visit per bit per sweep
    rates = {}
    sa_valid = {}
    for family in ("NORM", "BETA"):
        for n in (20, 40):
            instance = generate(family, n, seed=12345)
            blades, disk = instance.blade_set(), instance.disk()
            problem = build_qubo(blades, disk, materialize=False)
            schedule = default_qubo_schedule(problem, budget_sweeps)
            rates[(family, n)] = sum(
                qubo_sa_solve(problem, schedule, seed=rep).valid for rep in range(10)
            )
            sa_valid[(family, n)] = sum(
                imbalance_sa_solve(blades, disk, seed=rep).valid for rep in range(10)
            )
    elapsed = time.perf_counter() - start
    trend = all(rates[(f, 40)] < rates[(f, 20)] for f in ("NORM", "BETA"))
    always_valid = all(v == 10 for v in sa_valid.values())
    ok = trend and always_valid and elapsed < 300.0
    _verdict(6, "validity-rate finding", ok,
             f"qubo-sa valid/10 at {budget_sweeps} sweeps: "
             f"NORM 20->{rates[('NORM', 20)]} vs 40->{rates[('NORM', 40)]}, "
             f"BETA 20->{rates[('BETA', 20)]} vs 40->{rates[('BETA', 40)]}; "
             f"imbalance-sa valid everywhere: {always_valid}; {elapsed:.1f}s")


def test_criterion_7_decomposition_correctness():
    start = time.perf_counter()
    config = DecompositionConfig(max_subproblem=5, sub_solver="brute-force",
                                 merge_solver="brute-force")
    rng = np.random.default_rng(1007)
    exact_failures = 0
    for k in range(100):
        n = int(rng.integers(4, 13))
        blades, disk = random_instance(rng, n, with_disk=bool(k % 2))
        report, trace = decompose_solve(blades, disk, config, seed=k)
        recomputed = imbalance(blades, disk, report.assignment).d
        leaf_ids = sorted(b for leaf in trace.leaves() for b in leaf.blades)
        if not (report.valid
                and abs(report.imbalance - recomputed) <= 1e-9 * max(1.0, recomputed)
                and leaf_ids == list(range(1, n + 1))
                and all(len(leaf.blades) <= 5 for leaf in trace.leaves())):
            exact_failures += 1

    wins = 0
    for k in range(100):
        rng_k = np.random.default_rng(1000 + k)
        blades = BladeSet(rng_k.normal(1e4, 100.0, 12))
        m0 = float(rng_k.uniform(0, 500)) if k % 2 else 0.0
        disk = DiskImbalance(m0, float(rng_k.uniform(0, 2 * np.pi)))
        report, _ = decompose_solve(blades, disk, config, seed=k)
        heuristic_d = imbalance(blades, disk, heuristic_solve(blades)).d
        wins += report.imbalance <= heuristic_d
    elapsed = time.perf_counter() - start
    # pre-registered majority floor 80/100; observed 99/100, pinned at 95
    ok = exact_failures == 0 and wins >= 95 and elapsed < 120.0
    _verdict(7, "decomposition correctness", ok,
             f"exact-accounting failures {exact_failures}/100, composed <= heuristic "
             f"{wins}/100 (floor 95, pre-registered 80), {elapsed:.1f}s")


def test_criterion_8_heuristic_golden_and_complexity():
    four = heuristic_solve(BladeSet([4.0, 3.0, 2.0, 1.0]))
    three = heuristic_solve(BladeSet([4.0, 3.0, 2.0]))
    four_d = imbalance(BladeSet([4.0, 3.0, 2.0, 1.0]), DiskImbalance(), four).d
    golden = (four.sigma.tolist() == [1, 3, 2, 4]
              and abs(four_d - math.sqrt(2.0)) <= 1e-9
              and three.sigma.tolist() == [1, 2, 3])
    repeat = heuristic_solve(BladeSet([4.0, 3.0, 2.0, 1.0]))
    deterministic = repeat == four

    blades, _ = random_instance(np.random.default_rng(1008), 100_000)
    start = time.perf_counter()
    big = heuristic_solve(blades)
    elapsed = time.perf_counter() - start
    ok = (golden and deterministic and isinstance(big, Assignment) and big.n == 100_000
          and elapsed < 1.0)
    _verdict(8, "heuristic golden tests", ok,
             f"goldens {'match' if golden else 'MISMATCH'}, deterministic={deterministic}, "
             f"N=100000 in {elapsed:.2f}s")


def test_criterion_9_determinism():
    mismatches = []

    if generate("BETA", 25, seed=7, m0=500.0, phi0=1.0).to_json() != \
            generate("BETA", 25, seed=7, m0=500.0, phi0=1.0).to_json():
        mismatches.append("generator")

    rng = np.random.default_rng(1009)
    blades, disk = random_instance(rng, 7, with_disk=True)
    problem = build_qubo(blades, disk, materialize=False)
    runs = {
        "heuristic": lambda: SOLVERS["heuristic"](blades, disk, 3),
        "imbalance-sa": lambda: imbalance_sa_solve(blades, disk, seed=3),
        "qubo-sa": lambda: qubo_sa_solve(problem, seed=3),
        "tabu": lambda: __import__("turbobalance").tabu_solve(problem, seed=3),
        "brute-force": lambda: brute_force_solve(blades, disk),
        "decompose": lambda: decompose_solve(blades, disk, seed=3)[0],
    }
    for name, call in runs.items():
        first, second = call(), call()
        same = (first.valid == second.valid and first.imbalance == second.imbalance)
        if first.valid and second.valid:
            same = same and first.assignment == second.assignment
        if first.configuration is not None and second.configuration is not None:
            same = same and np.array_equal(first.configuration.bits, second.configuration.bits)
        if not same:
            mismatches.append(name)

    corpus = [("I7", blades, disk)]
    kwargs = dict(repetitions=4, base_seed=11,
                  solver_params={"qubo-sa": {"sweeps": 100}})
    records_a = run_benchmark(corpus, ["heuristic", "imbalance-sa", "qubo-sa"], **kwargs)
    records_b = run_benchmark(corpus, ["heuristic", "imbalance-sa", "qubo-sa"], **kwargs)
    for a, b in zip(records_a, records_b):
        if (a.instance, a.solver, a.repetition, a.seed, a.valid, a.imbalance,
                a.meets_threshold) != (b.instance, b.solver, b.repetition, b.seed,
                                       b.valid, b.imbalance, b.meets_threshold):
            mismatches.append(f"bench:{a.solver}")

    ok = not mismatches
    _verdict(9, "determinism", ok,
             "all generators, solvers, and bench records reproduce byte-identically "
             "modulo wall time" if ok else f"mismatches: {mismatches}")
