import dataclasses
import json
from pathlib import Path

import pytest

from turbobalance import run_benchmark, standard_corpus
from turbobalance.bench import load_corpus

GOLDEN = Path(__file__).parent / "golden"

SOLVERS = ["heuristic", "imbalance-sa", "qubo-sa", "tabu", "decompose"]

#: the budgets of the bench flags below, as run_benchmark parameters
PARAMS = {
    "imbalance-sa": {"sweeps": 200},
    "qubo-sa": {"sweeps": 20},
    "tabu": {"max_iterations": 500},
    "decompose": {"sub_solver_params": {"sweeps": 20}, "merge_solver_params": {"sweeps": 20}},
}


@pytest.mark.parametrize("with_imbalance, filename", [
    (False, "records_balanced.json"),
    (True, "records_disk.json"),
])
def test_fixed_seed_records_equal_the_golden_records(tmp_path, with_imbalance, filename):
    """Every record of the fixed-seed schedule equals the checked-in one, but
    for its wall time. The golden files are the records of

        turbobalance generate --standard-corpus [--with-imbalance] --seed 0 --out-dir corpus
        turbobalance bench --manifest corpus/manifest.json --format json \\
            --solvers heuristic,imbalance-sa,qubo-sa,tabu,decompose --repetitions 1 \\
            --sa-sweeps 200 --qubo-sweeps 20 --max-iterations 500 --out records_<corpus>.json

    so a change that alters a fixed-seed record must regenerate them and say
    which records change and why.
    """
    manifest, _ = standard_corpus(tmp_path, base_seed=0, with_imbalance=with_imbalance)
    records = run_benchmark(load_corpus(manifest), SOLVERS, repetitions=1, base_seed=0,
                            solver_params=PARAMS)
    golden = json.loads((GOLDEN / filename).read_text())
    assert len(records) == len(golden) == 45
    for record, expected in zip(records, golden):
        got = dataclasses.asdict(record)
        run = (expected["instance"], expected["solver"])
        for key in ("instance", "solver", "repetition", "seed", "valid", "meets_threshold"):
            assert got[key] == expected[key], (run, key)
        if expected["imbalance"] is None:
            assert got["imbalance"] is None, run
        else:
            assert got["imbalance"] == pytest.approx(expected["imbalance"], rel=1e-12, abs=0), run
