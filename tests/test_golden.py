"""The default experiments reproduce their golden records (``tests/golden.py``) bit for bit."""

import json

from golden import GOLDEN, run_records, versions


def test_default_experiments_match_golden_records():
    golden = json.loads(GOLDEN.read_text())
    expected, records = golden["records"], run_records()
    assert records.keys() == expected.keys()
    where = f"recorded with {golden['versions']}, run with {versions()}"
    for run, record in expected.items():
        got = records[run]
        for name, digest in record["artifacts"].items():
            assert got["artifacts"].get(name) == digest, f"{run}: {name} differs; {where}"
        assert got["artifacts"].keys() == record["artifacts"].keys(), f"{run}: artifacts; {where}"
        for key in record.keys() - {"artifacts"}:
            assert got[key] == record[key], f"{run}: manifest {key} differs; {where}"
