"""Tests of the benchmark's own checks, and short smoke runs of each workload.

    PYTHONPATH=src python -m pytest hktbench -q

Each check has a negative control: a correct output passes, and the same
output with one defect planted is rejected.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _structure(res=1e-15, nij=2e-9):
    return {"integrability": res, "square": res, "bismut": 0.0,
            "torsion_match": res, "nijenhuis": nij}


def _certificate(name="SU(3)", dimension=8, quotient=(), u1=0, nij=2e-9):
    return {"name": name, "verdict": "certified", "message": "", "dimension": dimension,
            "u1_count": u1, "quotient": list(quotient), "padding_required": u1,
            "quaternion": 3e-15, "invariance_leak": 0.0, "k_mismatch": 1e-15,
            "residuals": {k: _structure(nij=nij) for k in "IJK"}}


A2 = run.Space("A2", (("A", 2),), 0)


def test_closed_forms_match_the_classification():
    assert [checks.padding("A", r) for r in range(1, 11)] == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert checks.padding("B", 3) == 3 and checks.padding("C", 4) == 4
    assert checks.padding("D", 4) == 4 and checks.padding("D", 5) == 3
    assert checks.padding("D", 7) == 5
    assert checks.group_dim("A", 8) == 80 and checks.group_dim("B", 3) == 21
    assert checks.group_dim("D", 5) == 45


def test_residual_above_its_bound_is_rejected():
    good = _certificate()
    assert checks.verify_output(A2, 0, good) == []
    for key, bound in (("integrability", 1e-9), ("square", 1e-9),
                       ("torsion_match", 1e-8), ("bismut", 1e-12), ("nijenhuis", 1e-5)):
        bad = copy.deepcopy(good)
        bad["residuals"]["J"][key] = 2 * bound
        reasons = checks.verify_output(A2, 0, bad)
        assert any(f"J.{key}" in r for r in reasons), (key, reasons)
    bad = copy.deepcopy(good)
    bad["quaternion"] = 2e-9
    assert checks.verify_output(A2, 0, bad)


def test_exit_code_must_match_the_verdict():
    assert checks.verify_output(A2, 1, _certificate())
    a3 = run.Space("A3", (("A", 3),), 0)
    refused = {"verdict": "not-admissible", "padding_required": 1, "message": ""}
    assert checks.verify_output(a3, 3, refused) == []
    assert checks.verify_output(a3, 0, refused)
    assert checks.verify_output(a3, 3, dict(refused, padding_required=2))


def test_dimension_off_by_one_is_rejected():
    space = run.Space("B3xU1^2/A1:gamma", (("B", 3),), 2, quotient_dim=3)
    good = _certificate("Spin(7) / (A1:gamma) x [U(1)]^2", 20, [{"level": 1}], 2, nij=None)
    assert checks.verify_output(space, 0, good) == []
    for dim in (19, 21):
        reasons = checks.verify_output(space, 0, dict(good, dimension=dim))
        assert any("dimension" in r for r in reasons)


def test_group_manifold_without_nijenhuis_is_rejected():
    assert checks.verify_output(A2, 0, _certificate(nij=None))


def test_catalog_with_a_duplicated_row_is_rejected():
    rows = [_certificate("SU(4) x U(1)", 16, u1=1, nij=None),
            _certificate("SU(4) / (A1:beta)", 12, [{"level": 1}], nij=None)]
    listing = [r["name"] for r in rows]
    assert checks.catalog_output(0, rows, listing) == []
    duplicated = [rows[0], rows[0]]
    reasons = checks.catalog_output(0, duplicated, listing)
    assert any("duplicate" in r for r in reasons)
    assert checks.catalog_output(0, rows + [rows[1]], listing + [rows[1]["name"]])
    assert checks.catalog_output(1, rows, listing)


@pytest.fixture(scope="module")
def small_triple():
    import hktlie

    rep = hktlie.build_matrix_rep("A", 3, 1)
    triple = hktlie.build_quaternion_triple(rep)
    return {"generators": rep.generators, "norm_const": rep.norm_const,
            "u1_count": rep.u1_count, "f": rep.structure_constants().f,
            "I": triple.I.matrix, "J": triple.J.matrix, "K": triple.K.matrix,
            "certified": triple.certified, "quaternion": triple.quaternion_residual}


def test_flipped_sign_in_J_is_rejected(small_triple):
    rng = np.random.default_rng(0)
    assert checks.highrank_output("A", 3, small_triple, rng) == []
    J = small_triple["J"].copy()
    a, b = np.argwhere(np.abs(J) > 0.1)[0]
    J[a, b] = -J[a, b]
    reasons = checks.highrank_output("A", 3, dict(small_triple, J=J), rng)
    assert any(r.startswith("J+J^T") for r in reasons)
    assert any(r.startswith("J integrability") for r in reasons)


def test_wrong_structure_constant_is_rejected(small_triple):
    f = small_triple["f"].copy()
    f[:] += 1e-6
    reasons = checks.highrank_output("A", 3, dict(small_triple, f=f),
                                     np.random.default_rng(0))
    assert any(r.startswith("f_ABC") for r in reasons)


def _small(workload, ops):
    return run.Bench(run.Workload(workload.name, workload.entry, tuple(ops)), seed=5)


def test_smoke_verify():
    ops = [op for op in run.WORKLOADS["verify"].ops
           if op.subject.text in ("A3", "B3xU1^2/A1:gamma", "A3xU1^1/A1:beta,u1")]
    bench = _small(run.WORKLOADS["verify"], ops)
    records = bench.run_pass()
    assert [r["failed"] for r in records] == [[], [], []]
    assert bench.attempted == 3 and not bench.unexpected


def test_smoke_catalog_with_trace():
    ops = [op for op in run.WORKLOADS["catalog"].ops if op.subject == ("A", 3)]
    bench = _small(run.WORKLOADS["catalog"], ops)
    bench.prepare()
    metrics, _ = run.trace(bench, seed=5)
    assert set(metrics) == set(spans.PER_LAYER)
    values = {k: v for k, (v, _unit) in metrics.items()}
    assert values["spaces.certifications"] == 4
    assert (values["liealg.rep_keys"], values["liealg.rep_algebras"]) == (3, 1)
    assert values["cstruct.nijenhuis_s"] == 0.0
    assert values["liealg.peak_mb"] > 0 and values["cli.import_s"] > 0
    assert bench.failed == 0 and bench.attempted == 3


def test_smoke_highrank():
    op = run.Op("highrank A3", ("A", "3", "1"), ("A", 3))
    bench = _small(run.WORKLOADS["highrank"], [op])
    assert bench.run_pass()[0]["failed"] == []


def test_known_catalog_fault_counts_as_failed_not_incorrect():
    ops = [op for op in run.WORKLOADS["catalog"].ops if op.subject == ("D", 5)]
    bench = _small(run.WORKLOADS["catalog"], ops)
    bench.prepare()
    bench.run_pass()
    assert bench.failed == 1 and not bench.unexpected


def test_runner_fails_without_sources():
    bare = ROOT / "hktbench" / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "hktbench").mkdir(parents=True)
    try:
        for name in ("run.py", "checks.py", "spans.py", "child.py"):
            shutil.copy(ROOT / "hktbench" / name, bare / "hktbench" / name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "hktbench/run.py", "--workload", "verify",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_result_line_has_the_contract_keys():
    proc = subprocess.run([sys.executable, str(ROOT / "hktbench" / "run.py"),
                           "--workload", "catalog", "--seed", "3", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and (result["attempted"], result["failed"]) == (6, 2)
    assert set(result["metrics"]) == {"wall_s", "op_p50_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
