"""``try_divide`` against sympy's exact quotient.

``try_divide`` runs its own long division and stops at the first remainder
whose leading monomial that of the divisor does not divide.  The oracle is
the ring's ``exquo``, which divides to the end and raises when a remainder
is left.  Both must agree on exact multiples, on multiples with one
coefficient changed, on a zero dividend and on constant divisors.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from sympy.polys.polyerrors import ExactQuotientFailed

from toriparam.polynomials import MultiPoly, _wrap, try_divide

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def oracle_try_divide(p, d):
    if d.is_zero():
        return None
    if d.is_constant():
        return _wrap(p.nvars, p._p.quo_ground(d._p.LC))
    try:
        return _wrap(p.nvars, p._p.exquo(d._p))
    except ExactQuotientFailed:
        return None


COEFFS = st.one_of(st.integers(-9, 9),
                   st.fractions(min_value=-5, max_value=5, max_denominator=6),
                   st.integers(-10 ** 30, 10 ** 30))


@st.composite
def polys(draw, n, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.lists(st.integers(0, max_deg), min_size=n,
                                max_size=n)))
        terms[e] = Fraction(draw(COEFFS))
    return MultiPoly(n, terms)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 3))
    d = draw(polys(n))
    kind = draw(st.sampled_from(["multiple", "multiple", "perturbed",
                                 "zero", "constant", "any"]))
    if kind == "constant":
        d = MultiPoly.constant(n, draw(COEFFS))
    if kind == "zero":
        return MultiPoly.zero(n), d
    if kind == "any":
        return draw(polys(n)), d
    p = draw(polys(n)) * d
    if kind == "perturbed":
        e = tuple(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        p = p + MultiPoly.monomial(n, e, draw(st.sampled_from([1, -2,
                                                               Fraction(1, 3)])))
    return p, d


class TestAgainstExquo:
    @SETTINGS
    @given(cases())
    def test_same_quotient_or_none(self, case):
        p, d = case
        q = try_divide(p, d)
        assert q == oracle_try_divide(p, d)
        if q is not None:
            assert q * d == p

    def test_fails_at_the_first_bad_term(self):
        n = 2
        d = MultiPoly(n, {(1, 0): Fraction(1), (0, 0): Fraction(1)})
        # the leading term v^5 is not divisible by u: no division step runs
        p = MultiPoly(n, {(0, 5): Fraction(1)}) + d * d
        assert try_divide(p, d) is None
        assert oracle_try_divide(p, d) is None
        # the constant term is left over only at the very end
        p = d * d + MultiPoly.constant(n, 1)
        assert try_divide(p, d) is None
        assert try_divide(d * d, d) == d

    def test_zero_and_constants(self):
        for n in (1, 2, 3):
            zero = MultiPoly.zero(n)
            d = MultiPoly.variable(n - 1, n) + MultiPoly.one(n)
            assert try_divide(zero, d) == zero
            assert try_divide(d, zero) is None
            assert try_divide(d, MultiPoly.constant(n, Fraction(-2, 3))) == \
                d.scale(Fraction(-3, 2))
