"""Property tests of the ring-backed polynomial engine.

The oracles below are the dict-of-Fraction product, long division and
normalization that ``MultiPoly`` used before it was backed by sympy's
sparse ring (``math.gcd``/``math.lcm`` stand in for sympy's ``igcd`` and
``ilcm``).  The engine must agree with them term for term.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriparam.errors import ParseError, VariableCountMismatch
from toriparam.polynomials import (MAX_NESTING, Factorization, MultiPoly,
                                   factor_univariate, gcd_many, gcd_multi,
                                   normalized, parse, parse_tuple, render,
                                   try_divide)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# -- oracles -------------------------------------------------------------------

def _grlex_key(e):
    return (sum(e), e)


def oracle_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def oracle_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def oracle_try_divide(p, d):
    if not d:
        return None
    lt_d = max(d, key=_grlex_key)
    lc_d = d[lt_d]
    quotient = {}
    rem = dict(p)
    while rem:
        lt_r = max(rem, key=_grlex_key)
        qe = tuple(a - b for a, b in zip(lt_r, lt_d))
        if any(x < 0 for x in qe):
            return None
        qc = rem[lt_r] / lc_d
        quotient[qe] = qc
        rem = oracle_add(rem, oracle_mul({qe: -qc}, d))
    return quotient


def oracle_normalized(p):
    if not p:
        return p
    num_gcd, den_lcm = 0, 1
    for c in p.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = math.lcm(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    q = {e: c / content for e, c in p.items()}
    if q[max(q, key=_grlex_key)] < 0:
        q = {e: -c for e, c in q.items()}
    return q


def terms(p):
    return dict(p.terms())


# -- strategies ------------------------------------------------------------------

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def polys(draw, nvars=None, max_terms=5, max_exp=3):
    n = draw(st.integers(1, 3)) if nvars is None else nvars
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    return MultiPoly(n, draw(st.dictionaries(exps, coefficients,
                                             max_size=max_terms)))


@st.composite
def poly_lists(draw, count):
    n = draw(st.integers(1, 3))
    return [draw(polys(n)) for _ in range(count)]


@st.composite
def univariate(draw):
    """A nonzero product of small factors in one variable of 1-3."""
    n = draw(st.integers(1, 3))
    var = draw(st.integers(0, n - 1))
    x = MultiPoly.variable(var, n)
    p = MultiPoly.constant(n, draw(coefficients.filter(bool)))
    for _ in range(draw(st.integers(0, 4))):
        a, b = (draw(st.integers(-4, 4)) for _ in range(2))
        deg = draw(st.integers(1, 2))
        p = p * (x ** deg + MultiPoly.variable(var, n).scale(a)
                 + MultiPoly.constant(n, b))
    return p


# -- engine against the oracles ----------------------------------------------------

class TestAgainstOracles:
    @SETTINGS
    @given(poly_lists(2))
    def test_product(self, pq):
        p, q = pq
        assert terms(p * q) == oracle_mul(terms(p), terms(q))

    @SETTINGS
    @given(poly_lists(2))
    def test_exact_quotient(self, pq):
        p, d = pq
        prod = p * d
        got = try_divide(prod, d)
        want = oracle_try_divide(terms(prod), terms(d))
        if d.is_zero():
            assert got is None and want is None
        else:
            assert got == p and terms(got) == want

    @SETTINGS
    @given(poly_lists(2))
    def test_quotient_or_none(self, pd):
        p, d = pd
        got = try_divide(p, d)
        want = oracle_try_divide(terms(p), terms(d))
        assert (got is None) == (want is None)
        if got is not None:
            assert terms(got) == want

    @SETTINGS
    @given(polys())
    def test_normalized(self, p):
        assert terms(normalized(p)) == oracle_normalized(terms(p))

    @SETTINGS
    @given(polys())
    def test_coefficients_are_fractions(self, p):
        values = [c for _, c in p.terms()] + [p.leading_coefficient(),
                                               p.coefficient((0,) * p.nvars)]
        assert all(type(c) is Fraction for c in values)
        assert [e for e, _ in p.terms()] == sorted(terms(p), key=_grlex_key,
                                                   reverse=True)


class TestGcd:
    @SETTINGS
    @given(poly_lists(3))
    def test_divides_both_with_coprime_cofactors(self, polys3):
        planted, a, b = polys3
        p, q = planted * a, planted * b
        g = gcd_multi(p, q)
        if p.is_zero() and q.is_zero():
            assert g.is_zero()
            return
        cp, cq = try_divide(p, g), try_divide(q, g)
        assert cp is not None and cq is not None
        assert gcd_multi(cp, cq) == MultiPoly.one(p.nvars)
        assert terms(g) == oracle_normalized(terms(g))
        assert g.leading_coefficient() > 0
        assert try_divide(g, planted) is not None

    @SETTINGS
    @given(poly_lists(4))
    def test_gcd_many_is_the_fold(self, polys4):
        g = gcd_many(polys4)
        folded = MultiPoly.zero(polys4[0].nvars)
        for p in polys4:
            folded = gcd_multi(folded, p)
        assert g == folded
        if not g.is_zero():
            assert all(try_divide(p, g) is not None for p in polys4)


class TestFactor:
    @SETTINGS
    @given(univariate())
    def test_expands_back_with_monic_factors(self, p):
        fac = factor_univariate(p)
        assert isinstance(fac, Factorization) and type(fac.unit) is Fraction
        assert fac.expand(p.nvars) == p
        assert fac.unit == p.leading_coefficient()
        for f, k in fac.factors:
            assert k >= 1 and not f.is_constant()
            assert f.leading_coefficient() == 1
            assert f.used_variables() == p.used_variables()

    def test_factor_order_and_unit(self):
        # factors sort by their ascending graded-lex term lists
        fac = factor_univariate(parse("-2*(u^2+1)*(u-3)^2*(u+1/2)*u^3", 1, "y"))
        assert fac.unit == -2
        assert [(render(f, "y"), k) for f, k in fac.factors] == [
            ("u - 3", 2), ("u + 1/2", 1), ("u^2 + 1", 1), ("u", 3)]
        fac = factor_univariate(parse("6*v^3 - 6*v", 2, "y"))
        assert fac.unit == 6
        assert [render(f, "y") for f, _ in fac.factors] == ["v - 1", "v + 1",
                                                            "v"]


class TestText:
    @SETTINGS
    @given(polys())
    def test_parse_render_round_trip(self, p):
        assert parse(render(p), p.nvars) == p
        assert parse(render(p, "y"), p.nvars, "y") == p

    def test_nesting_limit(self):
        inner = "(" * MAX_NESTING + "u + 1" + ")" * MAX_NESTING
        assert parse(inner, 1, "y") == parse("u + 1", 1, "y")
        with pytest.raises(ParseError) as err:
            parse("(" + inner + ")", 1, "y")
        assert err.value.position == MAX_NESTING

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse("(" * 3000 + "u" + ")" * 3000)
        with pytest.raises(ParseError):
            parse_tuple("(1, " + "(" * 3000 + "u" + ")" * 3000 + ")")

    def test_variable_cap(self):
        with pytest.raises(VariableCountMismatch):
            parse("y5000", None, "y")


class TestMismatchAndZero:
    @SETTINGS
    @given(polys(), polys())
    def test_nvars_mismatch_raises(self, p, q):
        if p.nvars == q.nvars:
            q = MultiPoly.one(p.nvars % 3 + 1)
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b, try_divide, gcd_multi):
            with pytest.raises(VariableCountMismatch):
                op(p, q)

    @SETTINGS
    @given(polys())
    def test_zero_cases(self, p):
        zero = MultiPoly.zero(p.nvars)
        assert p * zero == zero and p + zero == p and p - p == zero
        assert try_divide(p, zero) is None
        assert gcd_multi(p, zero) == normalized(p) == gcd_multi(zero, p)
        assert gcd_multi(zero, zero).is_zero()
        assert normalized(zero) == zero and zero ** 0 == MultiPoly.one(p.nvars)
        if not p.is_zero():
            assert try_divide(zero, p) == zero
        assert terms(p * zero) == oracle_mul(terms(p), {})

    @SETTINGS
    @given(poly_lists(2))
    def test_equal_values_hash_alike_and_stay_immutable(self, pq):
        p, q = pq
        assert p * q == q * p and hash(p * q) == hash(q * p)
        with pytest.raises(AttributeError):
            p.nvars = 5
