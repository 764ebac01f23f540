"""Smoke test: every workload runs its fewest ops both ways and reports every
metric BENCHMARK.json names, with every op correct.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
import run  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, *SPEC["command"][1:]),
           "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload):
    # with no time to fill, a pass runs the fewest whole blocks that hold
    # MIN_OPS ops
    block = sum(workloads.make(workload, None).GRID.values())
    n_ops = -(-run.MIN_OPS // block) * block

    e2e = _run(workload, 0)
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    assert e2e["correct"] and e2e["failed"] == 0
    assert e2e["attempted"] == n_ops
    assert set(e2e["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert e2e["metrics"][m["name"]]["unit"] == m["unit"]
        assert e2e["metrics"][m["name"]]["value"] > 0
    assert e2e["metrics"]["ok_frac"]["value"] == 1.0

    traced = _run(workload, 1)
    assert traced["correct"] and traced["attempted"] == 2 * n_ops
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]


def test_without_sources_exits_nonzero(tmp_path):
    """A directory holding only the benchmark must fail without a result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    here = os.path.join(ROOT, "perfbench")
    for name in os.listdir(here):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(here, name),
                                            "rb").read())
    done = subprocess.run([sys.executable, str(bench / "run.py"),
                           "--workload", "cli", "--seed", "1", "--seconds",
                           "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
