import json
from pathlib import Path

import pytest

from turbobalance.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("with_imbalance, filename", [
    (False, "records_balanced.json"),
    (True, "records_disk.json"),
])
def test_fixed_seed_records_equal_the_golden_records(tmp_path, with_imbalance, filename):
    """Every record of the fixed-seed schedule, run through the CLI, equals the
    checked-in one but for its wall time. The golden files are the records of
    these two commands, so the bench flags must reach every solver (decompose's
    qubo-sa leaves and merge among them), and a change that alters a
    fixed-seed record must regenerate the files and say which records change
    and why.
    """
    corpus, out = tmp_path / "corpus", tmp_path / filename
    disk = ["--with-imbalance"] if with_imbalance else []
    assert main(["generate", "--standard-corpus", *disk, "--seed", "0",
                 "--out-dir", str(corpus)]) == 0
    assert main(["bench", "--manifest", str(corpus / "manifest.json"), "--format", "json",
                 "--solvers", "heuristic,imbalance-sa,qubo-sa,tabu,decompose", "--repetitions", "1",
                 "--sa-sweeps", "200", "--qubo-sweeps", "20", "--max-iterations", "500",
                 "--out", str(out)]) == 0
    records, golden = json.loads(out.read_text()), json.loads((GOLDEN / filename).read_text())
    assert len(records) == len(golden) == 45
    for record, expected in zip(records, golden):
        run = (expected["instance"], expected["solver"])
        assert record.keys() == expected.keys(), run
        for key in expected.keys() - {"wall_time_ms", "imbalance"}:
            assert record[key] == expected[key], (run, key)
        assert record["imbalance"] == pytest.approx(expected["imbalance"], rel=1e-12, abs=0), run
