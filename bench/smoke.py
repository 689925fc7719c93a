"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/smoke.py

The file name does not match pytest's test-file patterns, so a plain
`pytest` run from the repository root does not collect it.  It runs every
workload briefly with and without tracing (about two minutes), checks the
result schema against BENCHMARK.json, that the traced layers cover at
least MIN_COVERAGE of the traced pass time, and checks the reference
checker against the verifier contract and the pinned oracle answers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH), str(ROOT / "tests")]

import prepare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Share of the traced pass time that must fall inside program-layer spans;
# the rest is the benchmark's own job dispatch.
MIN_COVERAGE = 0.95


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(prepare.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", prepare.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 5
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0, m["name"]
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= MIN_COVERAGE


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    proc = _run("oracle", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_matching_pool_answers():
    for sigma, n, q, nu in prepare.MATCHING_POOL:
        assert reference.exhaustive_nu(n, q, sigma) == nu, (sigma, n, q)


def test_reference_agrees_with_mutation_contract():
    from mutation_cases import berge_mutations, k_intersecting_mutations, sharp_mutations

    cases = berge_mutations() + sharp_mutations() + k_intersecting_mutations()
    for label, H, cert, tag in cases:
        verdict = reference.check_cycle(
            H.n, H.q, H.sigma.parts, cert.kind, [e.vertices for e in cert.edges],
            k=3 if cert.kind == "k-intersecting" else cert.k,
            vertex_sequence=cert.vertex_sequence,
        )
        assert verdict.tag == tag, label


@pytest.mark.parametrize("kind,sigma,n,q,k", [
    ("sharp", (2, 1), 10, 30, None),
    ("sharp", (3, 2, 1), 8, 12, None),
    ("berge", (3, 2, 1), 6, 12, None),
    ("k-intersecting", (2, 1, 1), 10, 20, 3),
])
def test_reference_accepts_constructed_cycles(kind, sigma, n, q, k):
    cert = prepare._build(kind, sigma, n, q, k=k)
    verdict = reference.check_cycle(n, q, sigma, kind, [e.vertices for e in cert.edges],
                                    k=k, vertex_sequence=cert.vertex_sequence)
    assert verdict.ok and verdict.hamiltonian
