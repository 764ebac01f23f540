"""``polynomials._split`` against the row splitters it replaced.

Both decompositions write every target row as a unit times powers of given
elements through ``_split``: over a coprime base for
``decompose_univariate`` and over factor hints for
``decompose_with_hints``.  ``tests/oracles.py`` keeps the former
splitters, ``factor_over`` and ``split_by_hints``; ``_split`` must give
their units and multiplicities, aligned with the elements, and None
where they refused a row.  Rows in one variable divide on integer
coefficient lists, never on packed integers or in the ring.
"""

from contextlib import nullcontext
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

import toriparam.polynomials as polynomials
from oracles import factor_over, split_by_hints
from toriparam.errors import IncompleteHints
from toriparam.polynomials import (MultiPoly, _coprime_base, _split,
                                   normalized, parse)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

POOL = ["u + 1", "2*u + 1", "3*u - 2", "u^2 + 1", "u^2 - 2", "u",
        "u^3 + u + 1", "u - 1"]
UNITS = [1, -2, Fraction(3, 4), 6]


def aligned(fac, elements):
    """A Factorization as ``_split`` states it: the unit and the
    multiplicities aligned with the elements, a repeated element counting
    where it first appears."""
    if fac is None:
        return None
    mults = [0] * len(elements)
    for f, m in fac.factors:
        mults[elements.index(f)] = m
    return fac.unit, mults


def oracle_rows(rows, hints):
    out = []
    for row in rows:
        try:
            (fac,) = split_by_hints([row], hints)
        except IncompleteHints:
            fac = None
        out.append(aligned(fac, hints))
    return out


@st.composite
def univariate_rows(draw):
    """Polynomials in one variable of a one- or two-variable ring, each a
    unit times pool factors to powers 1..4."""
    nvars = draw(st.sampled_from([1, 2]))
    name = "uv"[draw(st.integers(0, nvars - 1))]
    out = []
    for _ in range(draw(st.integers(1, 5))):
        p = MultiPoly.constant(nvars, draw(st.sampled_from(UNITS)))
        for t in draw(st.lists(st.sampled_from(POOL), max_size=4)):
            p = p * parse(t.replace("u", name), nvars, "y") \
                ** draw(st.integers(1, 4))
        out.append(p)
    return out


@st.composite
def hinted_rows(draw):
    """Distinct primitive hints in 1..3 parameters, some in one variable,
    and rows that are units times their powers, or times a cofactor no
    hint divides."""
    n = draw(st.integers(1, 3))
    names = ["y1", "y2", "y3"][:n]
    monomials = names + [f"2*{v}" for v in names] + ["1", "-3"]
    terms = st.lists(st.sampled_from(monomials), min_size=1, max_size=3,
                     unique=True)
    hints = []
    for _ in range(draw(st.integers(1, 4))):
        h = normalized(parse(" + ".join(draw(terms)), n, "y"))
        if not h.is_constant() and h not in hints:
            hints.append(h)
    if not hints:
        hints.append(parse("y1 + 1", n, "y"))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        p = MultiPoly.constant(n, draw(st.sampled_from(UNITS)))
        for h in hints:
            p = p * h ** draw(st.integers(0, 3))
        if draw(st.integers(0, 4)) == 0:
            p = p * parse(f"{names[-1]}^2 + 5", n, "y")
        rows.append(p)
    return hints, rows


class TestAgainstTheOracles:
    @SETTINGS
    @given(univariate_rows())
    def test_univariate_rows_over_a_coprime_base(self, rows):
        base = _coprime_base(rows)
        assert _split(rows, base) == [aligned(fac, base) for fac
                                      in factor_over(rows, base)]

    @SETTINGS
    @given(hinted_rows(), st.booleans())
    def test_rows_over_primitive_hints(self, case, ring):
        hints, rows = case
        patch = (mock.patch.object(polynomials, "_PACKED_BITS", 0) if ring
                 else nullcontext())
        with patch:
            assert _split(rows, hints) == oracle_rows(rows, hints)

    @SETTINGS
    @given(hinted_rows(), st.sampled_from(["duplicate", "not coprime",
                                           "shuffled"]), st.data())
    def test_repeated_and_reordered_hints(self, case, kind, data):
        hints, rows = case
        pick = st.sampled_from(hints)
        if kind == "duplicate":
            hints.insert(data.draw(st.integers(0, len(hints))),
                         data.draw(pick))
        elif kind == "not coprime":
            hints.insert(data.draw(st.integers(0, len(hints))),
                         normalized(data.draw(pick) * data.draw(pick)))
        else:
            hints = data.draw(st.permutations(hints))
        assert _split(rows, hints) == oracle_rows(rows, hints)


def test_one_variable_rows_neither_pack_nor_divide_in_the_ring(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(polynomials, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("_packed_value", "try_divide"):
        monkeypatch.setattr(polynomials, name, spy(name))
    hints = [parse(t, 2, "y") for t in ("2*u + 1", "u^2 + 1", "v - 1",
                                        "u + v")]
    rows = [parse(t, 2, "y") for t in ("3*(2*u + 1)^2*(u^2 + 1)",
                                       "(v - 1)^3", "(u^2 + 1)*(u - 5)")]
    assert _split(rows, hints) == [(Fraction(3), [2, 1, 0, 0]),
                                   (Fraction(1), [0, 0, 3, 0]), None]
    base = _coprime_base(rows[:1])
    assert _split(rows[:1], base) == [(Fraction(12), [2, 1])]
    assert calls == []
    # the spies do see a row in two variables
    assert _split([hints[3] ** 2], hints) == [(Fraction(1), [0, 0, 0, 2])]
    assert "_packed_value" in calls


def test_monic_elements_with_denominators_in_two_variables():
    """A monic element is divided out as its primitive integer multiple on
    packed integers, and the unit keeps the denominators."""
    half, v1 = parse("u + 1/2", 2, "y"), parse("v + 1", 2, "y")
    row = parse("3*(2*u + 1)^2*(v + 1)", 2, "y")
    want = [(Fraction(12), [2, 1])]
    assert _split([row], [half, v1]) == want
    with mock.patch.object(polynomials, "_PACKED_BITS", 0):
        assert _split([row], [half, v1]) == want
