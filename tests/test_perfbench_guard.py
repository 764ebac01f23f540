"""One op of every slot of every benchmark workload, in process.

The benchmark in ``perfbench/`` runs only outside the test suite, so a
change that breaks one of its ops would otherwise pass tier-1 and fail
there.  Each op here is drawn, run and checked as the benchmark does it.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["roundtrip", "hinted", "geometry", "cli"])
def test_one_op_per_slot(name, tmp_path):
    workload = workloads.make(name, str(tmp_path / "cli"))
    workload.setup()
    ops = workload.block(7, "guard", list(workload.GRID))
    assert sorted(op.kind for op in ops) == sorted(workload.GRID)
    for op in ops:
        out = err = None
        try:
            out = op.run()
        except Exception as exc:    # the check decides whether it was expected
            err = exc
        assert op.check(out, err), (op.kind, err)
