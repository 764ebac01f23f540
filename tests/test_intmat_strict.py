"""``IntMat`` refuses entries that are not integers instead of truncating
them, so the strict-int rule of the geometry loaders also holds for every
``linalg`` entry point."""

import json

import pytest

import toriparam.polytope as polytope
from toriparam.cli import main
from toriparam.errors import NonIntegerInput
from toriparam.linalg import IntMat, rank, solve_integer_linear


class TestLibrary:
    @pytest.mark.parametrize("rows", [[[0.5, 1], [1, 2]], [[True, 1], [1, 2]],
                                      [[1, 2], [3, "4"]],
                                      [[1, 2], [3, 2.0]]])
    def test_from_rows_refuses(self, rows):
        with pytest.raises(NonIntegerInput):
            IntMat.from_rows(rows)

    @pytest.mark.parametrize("cols", [[[0.5, 1], [1, 2]], [[1, 1], [False, 2]]])
    def test_from_cols_refuses(self, cols):
        with pytest.raises(NonIntegerInput):
            IntMat.from_cols(cols, 2)

    def test_solve_and_rank_refuse_floats(self):
        with pytest.raises(NonIntegerInput):
            solve_integer_linear(IntMat.from_rows([[1.9, 0], [0, 1]]), [1, 1])
        with pytest.raises(NonIntegerInput):
            rank(IntMat.from_rows([[0.5, 1], [True, 2.9]]))

    def test_integers_pass_unchanged(self):
        m = IntMat.from_rows([[1, -2], [10 ** 30, 0]])
        assert m.entries == (1, -2, 10 ** 30, 0)
        assert IntMat.from_cols([[1, 10 ** 30], [-2, 0]], 2) == m


def test_cli_exit_2_when_a_float_reaches_intmat(tmp_path, capsys,
                                                monkeypatch):
    # With the polytope loader's own check switched off, the float vertex
    # reaches IntMat in the hull's rank test; the CLI reports malformed
    # input, not a truncated answer.
    monkeypatch.setattr(polytope, "_int_vec", tuple)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1.5, 0],
                                                       [0, 1]]}))
    code = main(["points", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "expected an integer, got 1.5" in captured.err
