"""Fixed costs paid once, and the outputs and exit codes that go with them.

sympy loads with the first polynomial, so the geometry subcommands never
import it; ``cli.main`` builds its parser once per process; integers of any
length render; and the decomposition search caps raise ``BudgetExceeded``
(exit 3).
"""

import json
import os
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toriparam.cli as cli
import toriparam.decomposition as decomposition
from toriparam.decomposition import decompose_univariate
from toriparam.errors import BudgetExceeded
from toriparam.parametrization import full_monomial_system
from toriparam.polynomials import (MultiPoly, int_str, parse, rational_str,
                                   render, render_monomial)
from toriparam.polytope import normal_fan

SRC = Path(__file__).resolve().parent.parent / "src"

SQUARE = {"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
          "facets": [{"normal": [1, 0], "offset": 0},
                     {"normal": [-1, 0], "offset": 1},
                     {"normal": [0, 1], "offset": 0},
                     {"normal": [0, -1], "offset": 1}]}
# singular, so --resolved adds a ray
TRIANGLE = {"dim": 2, "vertices": [[1, 0], [0, 1], [-1, 0]]}
P2 = {"dim": 2, "vertices": [[0, 0], [2, 0], [0, 2]]}


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, data in (("square", SQUARE), ("triangle", TRIANGLE),
                       ("p2", P2)):
        out[name] = tmp_path / f"{name}.json"
        out[name].write_text(json.dumps(data))
    return {k: str(v) for k, v in out.items()}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GEOMETRY_COMMANDS = [
    ["fan"], ["fan", "--json"], ["points"], ["points", "--json"],
    ["resolve"], ["resolve", "--json"], ["monomials"],
    ["monomials", "--json"], ["monomials", "--resolved"],
    ["monomials", "--resolved", "--json"], ["group"], ["group", "--json"],
    ["group", "--resolved"], ["group", "--resolved", "--json"]]


def test_geometry_commands_do_not_import_sympy(paths):
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import toriparam
        from toriparam import cli
        path, commands = sys.argv[1], json.loads(sys.argv[2])
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([argv[0], path] + argv[1:])
            assert code == 0, argv
        assert "sympy" not in sys.modules, "geometry imported sympy"
        from toriparam.polynomials import MultiPoly, render
        one = MultiPoly.one(1)
        assert "sympy" in sys.modules
        assert render((one + MultiPoly.variable(0, 1)) ** 2, "y") == \\
            "u^2 + 2*u + 1"
        print("ok")
        """)
    done = subprocess.run(
        [sys.executable, "-c", script, paths["triangle"],
         json.dumps(GEOMETRY_COMMANDS)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_reused_parser_matches_fresh_parser(paths, capsys, monkeypatch):
    target = "(v, v*u + v, 1, u + 1)"
    calls = [
        ["monomials", paths["triangle"], "--resolved"],
        ["monomials", paths["triangle"]],
        ["group", paths["triangle"], "--resolved", "--json"],
        ["group", paths["triangle"], "--json"],
        ["decompose", paths["square"], "--system", "delta", "--target",
         target, "--hints", "u+1", "v", "--json"],
        ["decompose", paths["square"], "--system", "delta", "--target",
         target, "--json"],
        ["points", paths["square"], "--no-such-flag"],
        ["decompose", paths["square"], "--system", "delta", "--target",
         target, "--hints", "u+1", "v"],
        ["fan", paths["square"]],
        ["compose", paths["triangle"], "--resolved", "--system", "delta",
         "--tuple", "(u, 1, 1, v)"],
        ["compose", paths["square"], "--system", "delta",
         "--tuple", "(u, 1, 1, v)", "--json"],
        ["verify", "--target", "(u, 1)", "--relation", "x1 - x1"],
        [],
        ["irreducible", paths["square"], "--tuple", "(u, u, 1, 1)"],
    ]

    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    build_parser = cli.build_parser
    builds = []

    def counting_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [outcome(argv) for argv in calls]
    assert len(builds) == 1  # not rebuilt, even after an argparse error
    parser = cli._PARSER
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(outcome(argv))
        assert cli._PARSER is not parser
    assert len(builds) == 1 + len(calls)
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes == [0, 0, 0, 0, 0, 2, ("exit", 2), 0, 0, 0, 0, 0,
                     ("exit", 2), 1]


class TestLongIntegers:
    @given(st.integers(min_value=-10 ** 5000, max_value=10 ** 5000)
           | st.integers(min_value=-10 ** 700, max_value=10 ** 700)
           | st.integers(min_value=-10 ** 20, max_value=10 ** 20))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_int_str_matches_str(self, n):
        with _digit_limit(0):
            expected = str(n)
        assert int_str(n) == expected

    def test_boundaries(self):
        for k in (599, 600, 601, 1200, 4300, 4301, 9000):
            for n in (10 ** k - 1, 10 ** k, 10 ** k + 1, -10 ** k):
                with _digit_limit(0):
                    expected = str(n)
                assert int_str(n) == expected
        assert rational_str(Fraction(-3, 10 ** 5000)) == "-3/1" + "0" * 5000

    def test_compose_beyond_the_digit_limit(self, paths, capsys):
        code, out, err = run(capsys, "compose", paths["square"], "--system",
                             "delta", "--tuple", "(10^5000*u,1,1,1)",
                             "--json")
        assert code == 0 and err == ""
        components = json.loads(out)["components"]
        with _digit_limit(0):
            expected = str(10 ** 5000)
        assert components == ["1", "1", f"{expected}*u", f"{expected}*u"]

    def test_decompose_scalar_beyond_the_digit_limit(self, paths, capsys):
        # 7^6001 is not a square, so 2*Delta_2 leaves it as the scalar
        c = "7^6001"
        target = f"({c}*u^2, {c}*u, {c}, {c}*u, {c}, {c})"
        argv = ["decompose", paths["p2"], "--system", "delta", "--target",
                target]
        with _digit_limit(0):
            expected = str(7 ** 6001)
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["scalar"] == expected and not data["scalar_absorbed"]
        assert data["tuple"] == ["u", "1", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert f"scalar: {expected}\n" in out


@contextmanager
def _digit_limit(limit):
    """Set Python's int-to-str digit limit inside a block (0: none)."""
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:  # Python 3.10 has no limit
        sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def test_render_monomial_matches_render():
    for n in (1, 2, 3, 5):
        for e in ([0] * n, [1] * n, list(range(n)), [3] + [0] * (n - 1)):
            for kind in ("x", "y"):
                assert render_monomial(e, kind) == \
                    render(MultiPoly.monomial(n, e), kind)


class TestBudgetExceeded:
    @pytest.fixture
    def case(self, square):
        system = full_monomial_system(square)
        target = [parse(t, 1, "y") for t in ("u", "u^2 + u", "1", "u + 1")]
        return target, system, normal_fan(square)

    @pytest.mark.parametrize("cap, message", [
        ("_WALK_NODE_CAP", "order-matching search region is too large for "
                           "this system/target combination"),
        ("_CANDIDATE_CAP", "too many order assignments to verify for this "
                           "system/target combination")])
    def test_library_and_cli(self, cap, message, case, paths, capsys,
                             monkeypatch):
        target, system, fan = case
        assert decompose_univariate(target, system, fan).f is not None
        argv = ["decompose", paths["square"], "--system", "delta",
                "--target", "(u, u^2 + u, 1, u + 1)"]
        assert run(capsys, *argv)[0] == 0

        monkeypatch.setattr(decomposition, cap, 0)
        with pytest.raises(BudgetExceeded) as info:
            decompose_univariate(target, system, fan)
        assert str(info.value) == message
        assert not isinstance(info.value, ValueError)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"
