"""Every benchmark solver at every blade count from 1 to 12, on a balanced
and on a random bare disk: an output is either a checked permutation with
its exact imbalance or honestly invalid, one seed gives one report, and a
solver refuses a blade count above its bound before it runs."""

import numpy as np
import pytest

from conftest import random_instance
from turbobalance import Assignment, decode, imbalance
from turbobalance.bench import BENCH_SOLVERS
from turbobalance.solvers import BLADE_LIMITS, check_blade_count

#: small budgets, so that the whole file runs in a few seconds
BUDGETS = {
    "imbalance-sa": {"sweeps": 50},
    "qubo-sa": {"sweeps": 50},
    "tabu": {"max_iterations": 300},
    "decompose": {"sub_solver_params": {"sweeps": 20}, "merge_solver_params": {"sweeps": 20}},
}

#: brute force takes up to N = 10, but N = 10 costs seconds a call; N = 9 about 0.3 s
BRUTE_FORCE_RUN_LIMIT = 9


def _fields(report):
    bits = None if report.configuration is None else report.configuration.bits.tolist()
    return report.valid, report.assignment, report.imbalance, report.iterations, bits


@pytest.mark.parametrize("with_disk", [False, True])
@pytest.mark.parametrize("solver", sorted(BENCH_SOLVERS))
def test_every_output_is_checked_at_every_blade_count(solver, with_disk):
    rng = np.random.default_rng(len(solver) + 100 * with_disk)
    entry, params = BENCH_SOLVERS[solver], BUDGETS.get(solver, {})
    for n in range(1, 13):
        blades, disk = random_instance(rng, n, with_disk=with_disk)
        if n > BLADE_LIMITS.get(solver, n):
            with pytest.raises(ValueError, match=rf"'{solver}'.*N={BLADE_LIMITS[solver]}\b.*got {n}"):
                check_blade_count(solver, n)
            with pytest.raises(ValueError, match=rf"N={BLADE_LIMITS[solver]}\b.*got {n}"):
                entry(blades, disk, n, **params)
            continue
        check_blade_count(solver, n)
        if solver == "brute-force" and n > BRUTE_FORCE_RUN_LIMIT:
            continue
        report = entry(blades, disk, n, **params)
        case = (solver, n, with_disk)
        if report.valid:
            assert sorted(report.assignment.sigma.tolist()) == list(range(1, n + 1)), case
            assert report.imbalance == imbalance(blades, disk, report.assignment).d, case
        else:
            assert report.assignment is None and report.imbalance is None, case
            assert not isinstance(decode(report.configuration), Assignment), case
        assert _fields(entry(blades, disk, n, **params)) == _fields(report), case
