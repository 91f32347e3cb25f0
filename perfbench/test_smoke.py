"""Smoke test of the benchmark: every workload at its tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run passes its own output checks, prints every metric
BENCHMARK.json names with its unit, and that tracing does not change results.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
REPORTED_METRICS = ("setup_s", "setup_wall_s", "wall_s", "wall_ref_s", "op_p50_s", "op_tail_s",
                    "peak_rss_mb", "fail_share")
QUALITY = {"desk-campaign": "best_bound", "bo-loop": "bo_regret", "sdpa-export": "emission_digest"}

sys.path.insert(0, str(BENCH))


def run(workload, trace, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return out, out.stdout.strip().splitlines()


# bo-loop is not in BENCHMARK.json (see run.py) but still runs by name.
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["bo-loop"])
def test_workload_untraced_and_traced(workload):
    records = {}
    for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        out, lines = run(workload, trace)
        assert out.returncode == 0, out.stdout + out.stderr
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in specs}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        for name in REPORTED_METRICS + (QUALITY[workload],):
            assert any(line.startswith(name + " ") for line in lines), name
        path = ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
        records[trace] = json.loads(path.read_text())
        assert records[trace]["problems"] == []
    assert records[0]["fingerprint"] == records[1]["fingerprint"]


def test_fails_without_program_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out, lines = run("bo-loop", 0, cwd=bare)
        assert out.returncode != 0
        assert not any(line.startswith("{") for line in lines)
    finally:
        shutil.rmtree(bare)


def test_per_layer_spec_matches_tracer():
    from tracing import PER_LAYER

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER


def test_e8_comparison_is_exact():
    from workloads import below_e8

    assert below_e8(0.25366950736)  # the undercutting bound of round 9, seed 0
    assert below_e8(0.2536695079)  # below pi^4/384 = 0.253669507901...
    assert not below_e8(0.2536695080)


def test_tail_needs_ten_operations_beyond():
    from run import tail

    assert tail(list(range(10))) == (None, None)
    assert tail([float(i) for i in range(1, 121)]) == (90.0, 108.0)


def test_reference_seconds_follow_the_probe():
    from probe import REFERENCE_S, Probe

    probe = Probe()
    probe.samples = [(0.0, REFERENCE_S), (10.0, 2 * REFERENCE_S)]
    # At t=5 the probe ran 1.5 times slower than at reference speed.
    assert abs(probe.reference_seconds([3.0, 1.0], [0.0, 5.0]) - (3.0 + 1.0 / 1.5)) < 1e-12
