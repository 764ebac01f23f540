"""Integer literals of any length in polynomial text.

Python refuses int() on strings of more than 4 300 digits by default, so
the parser converts digit strings by divide and conquer, the inverse of
``int_str``: what ``compose`` prints can be read back as a target.  JSON
files are read by ``json`` and keep Python's limit.
"""

import json
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import toriparam.cli as cli
from toriparam.polynomials import _digits_int, int_str, parse

SQUARE = {"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}


@contextmanager
def no_digit_limit():
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:  # Python 3.10 has no limit
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@given(st.integers(min_value=0, max_value=10 ** 9000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_digits_int_inverts_int_str(n):
    assert _digits_int(int_str(n)) == n


def test_digits_int_boundaries():
    for k in (1, 599, 600, 601, 1201, 4300, 4301, 9001):
        for digits in ("9" * k, "1" + "0" * (k - 1), "0" * k,
                       "0" * 5 + "7" * k):
            with no_digit_limit():
                expected = int(digits)
            assert _digits_int(digits) == expected


def test_long_literal_and_denominator_parse():
    ones = "1" * 4400
    with no_digit_limit():
        n = int(ones)
    p = parse(f"{ones}/{ones}0*u + {ones}", 1, "y")
    assert p.coefficient((1,)) == Fraction(1, 10)
    assert p.coefficient((0,)) == n


def test_verify_long_literal_is_a_verdict_not_malformed_input(capsys):
    ones = "1" * 4400
    code, out, err = run(capsys, "verify", "--target", f"({ones}*u, 1)",
                         "--relation", "x1")
    assert code == 1 and err == ""
    assert "relation violated" in out
    code, out, err = run(capsys, "verify", "--target", f"({ones}*u, 1)",
                         "--relation", f"x1 - {ones}*x2", "--params", "1")
    assert (code, err) == (1, "")
    code, out, err = run(capsys, "verify", "--target", f"({ones}, 1)",
                         "--relation", f"x1 - {ones}*x2", "--json")
    assert (code, json.loads(out), err) == (0, {"holds": True}, "")


def test_compose_output_feeds_back_into_decompose(square, capsys):
    code, out, err = run(capsys, "compose", square, "--system", "delta",
                         "--tuple", "(10^5000*u,1,1,1)", "--json")
    assert code == 0 and err == ""
    components = json.loads(out)["components"]
    assert max(map(len, components)) > 5000
    target = "(" + ", ".join(components) + ")"
    code, out, err = run(capsys, "decompose", square, "--system", "delta",
                         "--target", target, "--json")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["decomposed"] and data["content"] == "1"
    assert sorted(data["tuple"], key=len)[0] == "u"


def test_json_files_keep_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 2, "vertices": [[0, 0], [1' + "0" * 4400
                    + ', 0], [0, 1]]}')
    code, out, err = run(capsys, "points", str(path))
    assert code == 2 and out == ""
