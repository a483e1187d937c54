"""The benchmark's correctness gate: a wrong or failing op counts as failed.

    python3 -m pytest perfbench/test_gate.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_library()

import workloads  # noqa: E402


def _ou_workload(perturb):
    """ou-replicates on the default seed with ``perturb`` applied to each op's output."""
    wl = workloads.OUReplicates(run.DEFAULT_SEED, run.SCRATCH)
    real = wl.run
    wl.run = lambda seed: perturb(*real(seed))
    return wl, run.load_reference(wl.name, run.DEFAULT_SEED)


def _measure(wl, reference):
    out = run.measure(wl, 0.2, reference, run.Calibrator())
    metrics, detail = run.end_to_end_metrics(out, setup_s=1.0)
    return out["results"], metrics, detail


def test_unperturbed_ops_pass():
    wl, ref = _ou_workload(lambda ou, rho, sq: (ou, rho, sq))
    results, metrics, detail = _measure(wl, ref)
    assert results and all(r.ok for r in results)
    assert metrics["ok_ratio"] == 1.0 and detail["failed_ratio"] == 0.0


def test_perturbed_summary_counts_as_failed():
    # 1e-7 relative keeps every property check true; only the reference catches it
    wl, ref = _ou_workload(lambda ou, rho, sq: (ou, rho, [x * (1 + 1e-7) for x in sq]))
    results, metrics, detail = _measure(wl, ref)
    assert results and not any(r.ok for r in results)
    assert "differs from reference" in results[0].error
    assert metrics["ok_ratio"] == 0.0 and detail["failed_ratio"] == 1.0


def test_broken_property_counts_as_failed():
    wl, ref = _ou_workload(lambda ou, rho, sq: (ou, 0.0, sq))  # growth bound 0
    results, metrics, _ = _measure(wl, [])
    assert results and not any(r.ok for r in results)
    assert metrics["ok_ratio"] == 0.0


def test_raising_op_counts_as_failed_and_is_timed():
    def boom(ou, rho, sq):
        raise FloatingPointError("overflow")

    wl, ref = _ou_workload(boom)
    results, metrics, _ = _measure(wl, ref)
    assert results and not any(r.ok for r in results)
    assert results[0].error == "FloatingPointError: overflow"
    assert all(r.seconds > 0 for r in results)
    assert metrics["ok_ratio"] == 0.0
