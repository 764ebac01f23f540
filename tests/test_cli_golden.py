"""Golden output of the geometry subcommands on a fixed corpus.

``golden/cli_geometry.json`` holds the stdout, stderr and exit code of
``fan``, ``points``, ``group``, ``group --resolved`` and ``resolve``, with
and without ``--json``, for every polytope of ``CORPUS``: smooth and
singular polygons, resolutions with up to 17 rays, 3-D polytopes (whose
``--resolved`` and ``resolve`` calls exit 2) and one polytope given with
its own facet labels.  The test asserts that the output is byte-identical.

To regenerate the fixture from a checkout whose output is the reference:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import functools
import io
import json
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from toriparam import cli

FIXTURE = pathlib.Path(__file__).parent / "golden" / "cli_geometry.json"

# name -> polytope JSON; vertex lists go through the hull, "facets" through
# the validating constructor
CORPUS = {
    "square": {"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
    "square_labelled": {
        "dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
        "facets": [{"normal": [1, 0], "offset": 0},
                   {"normal": [-1, 0], "offset": 1},
                   {"normal": [0, 1], "offset": 0},
                   {"normal": [0, -1], "offset": 1}]},
    "pentagon": {"dim": 2, "vertices": [[1, 1], [-1, 1], [-1, 0], [0, -1],
                                        [1, -1]]},
    "two_delta2": {"dim": 2, "vertices": [[0, 0], [2, 0], [0, 2]]},
    "hexagon": {"dim": 2, "vertices": [[1, 0], [1, 1], [0, 1], [-1, 0],
                                       [-1, -1], [0, -1]]},
    "singular_triangle": {"dim": 2, "vertices": [[1, 0], [0, 1], [-1, 0]]},
    "thin_triangle": {"dim": 2, "vertices": [[0, 0], [3, 0], [0, 1]]},
    "resolved10": {"dim": 2, "vertices": [[0, 0], [4, 1], [0, 3]]},
    "resolved11": {"dim": 2, "vertices": [[0, 0], [3, 1], [1, 3]]},
    "resolved17": {"dim": 2, "vertices": [[0, 0], [5, 1], [1, 4]]},
    "cube": {"dim": 3, "vertices": [[x, y, z] for x in (0, 1)
                                    for y in (0, 1) for z in (0, 1)]},
    "pyramid": {"dim": 3, "vertices": [[0, 0, 0], [2, 0, 0], [0, 2, 0],
                                       [2, 2, 0], [1, 1, 1]]},
    "simplex3": {"dim": 3, "vertices": [[0, 0, 0], [2, 0, 0], [0, 2, 0],
                                        [0, 0, 2], [1, 1, 0]]},
}

COMMANDS = (["fan"], ["points"], ["group"], ["group", "--resolved"],
            ["resolve"])


def _calls():
    for name in CORPUS:
        for command in COMMANDS:
            for json_flag in ([], ["--json"]):
                yield name, command + json_flag


def _run(directory, name, argv):
    path = directory / f"{name}.json"
    if not path.exists():
        path.write_text(json.dumps(CORPUS[name]), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([argv[0], str(path), *argv[1:]])
    return {"polytope": name, "argv": argv, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def _runs():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))["runs"]


CALLS = list(_calls())


def test_fixture_covers_the_corpus():
    runs = _runs()
    assert [(r["polytope"], r["argv"]) for r in runs] == CALLS
    exits = {(r["polytope"], r["argv"][0]): r["exit"] for r in runs}
    assert exits[("resolved17", "resolve")] == 0
    assert exits[("cube", "resolve")] == 2


@pytest.mark.parametrize("index", range(len(CALLS)),
                         ids=[f"{name}:{'_'.join(argv)}"
                              for name, argv in CALLS])
def test_output_is_byte_identical(tmp_path, index):
    expected = _runs()[index]
    got = _run(tmp_path, expected["polytope"], expected["argv"])
    assert got == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        runs = [_run(pathlib.Path(tmp), name, argv) for name, argv in _calls()]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True)
                       + "\n", encoding="utf-8")
