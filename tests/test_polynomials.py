import random
from fractions import Fraction

import pytest

from toriparam.errors import (NotUnivariate, ParseError,
                              VariableCountMismatch, ZeroPolynomial)
from toriparam.polynomials import (MultiPoly, factor_univariate, gcd_many,
                                   gcd_multi, normalized, parse, parse_tuple,
                                   render, try_divide)


def random_poly(rng, nvars, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return MultiPoly(nvars, terms)


class TestArithmetic:
    def test_difference_of_squares(self):
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        assert (x + y) * (x - y) == x ** 2 - y ** 2

    def test_multiply_by_zero(self):
        p = parse("x1^2 + 3*x2", 2)
        assert p * MultiPoly.zero(2) == MultiPoly.zero(2)

    def test_cube_against_repeated_multiplication(self):
        p = parse("x1 + x2", 2)
        by_pow = p ** 3
        by_mul = p * p * p
        assert by_pow == by_mul
        assert by_pow.coefficient((2, 1)) == 3
        assert by_pow.coefficient((3, 0)) == 1

    def test_pow_zero_is_one(self):
        assert parse("x1 - 7", 1) ** 0 == MultiPoly.one(1)

    def test_nvars_mismatch(self):
        with pytest.raises(VariableCountMismatch):
            parse("x1", 1) + parse("x1", 2)

    def test_ring_axioms_randomized(self):
        rng = random.Random(1312)
        for _ in range(80):
            n = rng.randint(1, 3)
            p, q, r = (random_poly(rng, n) for _ in range(3))
            assert p + q == q + p
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r


class TestGcd:
    def test_zero_zero_convention(self):
        assert gcd_multi(MultiPoly.zero(3), MultiPoly.zero(3)).is_zero()
        assert gcd_many([MultiPoly.zero(2)] * 4).is_zero()

    def test_monomial_pair(self):
        a = parse("u^2*v^2", 2, "y")
        b = parse("u^3*v^2", 2, "y")
        assert gcd_multi(a, b) == a

    def test_nontrivial_common_factor(self):
        # oracle: x^2-y^2 = (x-y)(x+y) and x^2+2xy+y^2 = (x+y)^2
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        lhs = (x - y) * (x + y)
        rhs = (x + y) * (x + y)
        assert gcd_multi(lhs, rhs) == x + y

    def test_gcd_many_monomials(self):
        polys = [parse(s, 4) for s in ("x1*x2", "x2^2*x3", "x2*x3*x4")]
        assert gcd_many(polys) == parse("x2", 4)

    def test_gcd_many_with_unit(self):
        polys = [parse("x1^5", 2), MultiPoly.one(2), parse("x2", 2)]
        assert gcd_many(polys) == MultiPoly.one(2)

    def test_composed_tuple_content(self):
        # the eight components composed from (u*v, 1, u, v, 1)
        comps = [parse(s, 2, "y") for s in (
            "u^2*v^2", "u^3*v^2", "u^4*v^2", "u*v^2",
            "u^2*v^2", "u^3*v^2", "u*v^2", "u^2*v^2")]
        assert gcd_many(comps) == parse("u*v^2", 2, "y")

    def test_planted_gcd_randomized(self):
        rng = random.Random(4242)
        irreducibles = [parse(s, 2, "y") for s in
                        ("u + 1", "u - 1", "v", "u + v", "u*v + 1", "u^2 + v")]
        for _ in range(40):
            a, b, g = rng.sample(irreducibles, 3)
            got = gcd_multi(a * g, b * g)
            assert got == normalized(g)


def rational_roots(p: MultiPoly):
    """All rational roots of a univariate polynomial (root theorem scan)."""
    var = p.used_variables()[0]
    coeffs = {}
    for e, c in p.terms():
        coeffs[e[var]] = c
    denom = 1
    for c in coeffs.values():
        denom = denom * c.denominator // __import__("math").gcd(
            denom, c.denominator)
    ints = {k: int(c * denom) for k, c in coeffs.items()}
    deg = max(ints)
    lead, const = ints[deg], ints.get(0, 0)
    if const == 0:
        return [Fraction(0)]
    def divisors(n):
        n = abs(n)
        return [d for d in range(1, n + 1) if n % d == 0]
    roots = []
    for pnum in divisors(const):
        for qden in divisors(lead):
            for sign in (1, -1):
                cand = Fraction(sign * pnum, qden)
                if p.evaluate([cand if i == var else 0
                               for i in range(p.nvars)]) == 0:
                    roots.append(cand)
    return roots


class TestFactor:
    def test_pure_power(self):
        fac = factor_univariate(parse("u^3", 2, "y"))
        assert fac.unit == 1
        assert fac.factors == ((parse("u", 2, "y"), 3),)

    def test_difference_of_squares(self):
        fac = factor_univariate(parse("u^2 - 1", 1, "y"))
        assert fac.unit == 1
        assert {render(f, "y") for f, _ in fac.factors} == {"u - 1", "u + 1"}

    def test_planted_quadratics(self):
        # oracle: plant factors, multiply, refactor; verify the product
        rng = random.Random(88)
        for _ in range(25):
            f1 = parse(f"u^2 + {rng.randint(1, 9)}", 1, "y")
            f2 = parse(f"u^2 + u + {rng.randint(1, 9)}", 1, "y")
            c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            planted = (f1 * f2).scale(c)
            fac = factor_univariate(planted)
            assert fac.expand(1) == planted
            for f, _ in fac.factors:
                assert f.leading_coefficient() == 1
                if f.total_degree() > 1:
                    assert not rational_roots(f)
            for i in range(len(fac.factors)):
                for j in range(i + 1, len(fac.factors)):
                    g = gcd_multi(fac.factors[i][0], fac.factors[j][0])
                    assert g == MultiPoly.one(1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            factor_univariate(MultiPoly.zero(1))

    def test_multivariate_rejected(self):
        with pytest.raises(NotUnivariate):
            factor_univariate(parse("u*v", 2, "y"))

    def test_constant_is_unit(self):
        fac = factor_univariate(MultiPoly.constant(2, Fraction(3, 4)))
        assert fac.unit == Fraction(3, 4) and fac.factors == ()


class TestEvaluate:
    def test_simple(self):
        assert parse("x1^2 + x2", 2).evaluate([2, 3]) == 7

    def test_zero(self):
        assert MultiPoly.zero(3).evaluate([1, 2, 3]) == 0

    def test_monomial_product(self):
        # direct product 1^2 * 2^3 * 3^2 = 72
        mono = MultiPoly.monomial(5, (2, 3, 2, 0, 0))
        assert mono.evaluate([1, 2, 3, 5, 7]) == 72

    def test_point_length_checked(self):
        with pytest.raises(VariableCountMismatch):
            parse("x1", 1).evaluate([1, 2])


class TestGrammar:
    def test_basic_terms(self):
        p = parse("x1^2*x2 + 3/2", 2)
        assert p.coefficient((2, 1)) == 1
        assert p.coefficient((0, 0)) == Fraction(3, 2)
        assert render(p) == "x1^2*x2 + 3/2"

    def test_cancellation_renders_zero(self):
        assert render(parse("x2*x3 - x2*x3", 3)) == "0"

    def test_canonical_ordering(self):
        assert render(parse("x2 + x1", 2)) == "x1 + x2"

    def test_u_v_aliases(self):
        assert parse("u*v", 2, "y") == parse("y1*y2", 2, "y")
        assert render(parse("y1 + y2", 2, "y"), "y") == "u + v"
        assert render(parse("y1 + y3", 3, "y"), "y") == "y1 + y3"

    def test_unary_minus_and_parens(self):
        assert parse("-(x1 - 2)^2", 1) == parse("-x1^2 + 4*x1 - 4", 1)

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + $", 1)
        assert err.value.position == 5

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ParseError):
            parse("x1 + u", 2)

    def test_tuple_parsing(self):
        tup = parse_tuple("(u*v, 1, u, v, 1)")
        assert len(tup) == 5
        assert all(p.nvars == 2 for p in tup)

    def test_tuple_entries_parse_once(self, monkeypatch):
        """An inferred width parses each entry once and pads the narrower
        ones: the same tuple as parsing every entry at the widest width,
        in ``parse_tuple`` and in the CLI's JSON list."""
        import toriparam.polynomials as polynomials
        from toriparam import cli
        texts = ["u^2 + u", "u*v^2 - 1/2", "3"]
        want = tuple(parse(t, 2, "y") for t in texts)
        calls = []

        def counting(text, nvars=None, kind=None):
            calls.append(text.strip())
            return parse(text, nvars, kind)

        monkeypatch.setattr(polynomials, "parse", counting)
        monkeypatch.setattr(cli, "parse", counting)
        assert parse_tuple("(" + ", ".join(texts) + ")") == want
        assert calls == texts
        calls.clear()
        assert cli._load_poly_tuple(
            "[" + ", ".join(f'"{t}"' for t in texts) + "]") == want
        assert calls == texts

    def test_roundtrip_randomized(self):
        rng = random.Random(5150)
        for _ in range(120):
            n = rng.randint(1, 4)
            p = random_poly(rng, n)
            assert parse(render(p), n) == p
            assert parse(render(p, "y"), n, "y") == p


class TestDivision:
    def test_exact(self):
        num = parse("x1^2 - x2^2", 2)
        assert try_divide(num, parse("x1 + x2", 2)) == parse("x1 - x2", 2)

    def test_inexact_none(self):
        assert try_divide(parse("x1 + 1", 1), parse("x1 - 1", 1)) is None


class TestParserFuzz:
    def test_garbage_never_crashes(self):
        # any input either parses or raises ParseError with a position
        rng = random.Random(314159)
        alphabet = "xyuv123 +-*/^()$#._abq"
        for _ in range(400):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 25)))
            try:
                parse(text, 3)
            except ParseError as err:
                assert isinstance(err.position, int)
