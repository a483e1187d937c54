"""Golden records of the default experiments: what each run writes, bit for bit.

For every experiment of the CLI at master seeds 0 and 11, with its default
config (``equilibrium`` with ``check_times`` [0, 0.5, 1, 2], so that its
stationarity check runs too), the records hold the sha256 of each artifact
but the manifest, by file name, and the manifest's ``numbers``, ``checks``,
``error`` and ``arrays`` as written.  The manifest's timings vary from run to
run and its config is pinned by ``test_default_config_hashes_pinned``.

    PYTHONPATH=src python tests/golden.py        # rewrite tests/golden.json

``tests/test_golden.py`` reruns the records and compares them.  Rewrite the
file only for a change that is meant to change results, and say why.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from fraclattice.cli import _REGISTRY, run, validate_config

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (0, 11)
#: Options beyond the defaults, per experiment.
EXTRA = {"equilibrium": {"check_times": [0.0, 0.5, 1.0, 2.0]}}
MANIFEST_KEYS = ("numbers", "checks", "error", "arrays")


def versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version(),
            "platform": platform.platform()}


def run_records() -> dict:
    """``{"<experiment>@<seed>": {"artifacts": {name: sha256}, <MANIFEST_KEYS>...}}``."""
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in _REGISTRY:
            for seed in SEEDS:
                out = Path(tmp) / f"{name}-{seed}"
                cfg = validate_config({"experiment": {"name": name, **EXTRA.get(name, {})},
                                       "master_seed": seed, "output_dir": str(out)})
                run(cfg)
                manifest = json.loads((out / "manifest.json").read_text())
                digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                           for path in sorted(out.iterdir()) if path.name != "manifest.json"}
                records[f"{name}@{seed}"] = {"artifacts": digests,
                                             **{k: manifest.get(k) for k in MANIFEST_KEYS}}
    return records


def main() -> int:
    payload = {"versions": versions(), "records": run_records()}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['records'])} records to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
