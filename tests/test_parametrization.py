import random
from fractions import Fraction

import pytest

from toriparam.errors import (InternalError, LengthMismatch, NonIntegerInput,
                              PointOutsidePolytope)
from toriparam.polynomials import MultiPoly, gcd_many, parse, parse_tuple, render
from toriparam.polytope import frame_of, lattice_points, normal_fan
from toriparam.parametrization import (LatticePolynomial, ParamSystem,
                                       ParamTuple, check_implicit,
                                       compose_system, full_monomial_system,
                                       is_primitive_coprime,
                                       is_rational_parametrization,
                                       same_parametrization,
                                       subset_monomial_system)
from toriparam.subtorus import offset_character, rescale, scaling_group

from conftest import (PENTAGON_TABLE_ORDER, SQUARE_QUADRIC_ORDER,
                      steiner_system)
from oracles import tuple_power


def rendered_components(system):
    return [render(c.to_multipoly()) for c in system.components]


class TestFullSystem:
    def test_square_quadric_presentation(self, square):
        system = full_monomial_system(square)
        got = rendered_components(system)
        reordered = [got[i] for i in SQUARE_QUADRIC_ORDER]
        assert reordered == ["x2*x3", "x1*x3", "x2*x4", "x1*x4"]

    def test_pentagon_table(self, pentagon):
        system = full_monomial_system(pentagon)
        got = rendered_components(system)
        reordered = [got[i] for i in PENTAGON_TABLE_ORDER]
        assert reordered == [
            "x2*x3^2*x4^2", "x1*x2^2*x3^2*x4", "x1^2*x2^3*x3^2",
            "x3*x4^2*x5", "x1*x2*x3*x4*x5", "x1^2*x2^2*x3*x5",
            "x1*x4*x5^2", "x1^2*x2*x5^2"]

    def test_veronese(self, p2_triangle):
        system = full_monomial_system(p2_triangle)
        assert set(rendered_components(system)) == {
            "x1^2", "x2^2", "x3^2", "x1*x2", "x2*x3", "x1*x3"}

    def test_component_order_is_point_order(self, pentagon):
        system = full_monomial_system(pentagon)
        assert system.monomial_points() == lattice_points(pentagon)


class TestSubsetSystem:
    def test_pentagon_vertices(self, pentagon):
        system = subset_monomial_system(
            pentagon, [(-1, 1), (1, 1), (-1, 0), (0, -1), (1, -1)])
        assert system.warnings == ()
        assert set(rendered_components(system)) == {
            "x2*x3^2*x4^2", "x1^2*x2^3*x3^2", "x3*x4^2*x5",
            "x1*x4*x5^2", "x1^2*x2*x5^2"}

    def test_hirzebruch_counterexample(self, hirzebruch_quad):
        system = subset_monomial_system(
            hirzebruch_quad, [(-1, 1), (-1, 0), (0, 0)])
        assert rendered_components(system) == ["x1*x2", "x2^2*x3",
                                               "x2*x3*x4"]
        assert any("hull" in w for w in system.warnings)
        polys = [c.to_multipoly() for c in system.components]
        assert gcd_many(polys) == parse("x2", 4)
        assert not is_rational_parametrization(polys)

    def test_sublattice_warning(self, square):
        system = subset_monomial_system(
            square, [(0, 0), (1, 1), (0, 1), (1, 0)])
        assert system.warnings == ()
        sparse = subset_monomial_system(square, [(0, 0), (1, 1)])
        assert any("lattice" in w for w in sparse.warnings)

    def test_all_points_equals_full(self, pentagon):
        assert subset_monomial_system(
            pentagon, lattice_points(pentagon)) == full_monomial_system(
                pentagon)

    def test_outside_point_rejected(self, square):
        with pytest.raises(PointOutsidePolytope):
            subset_monomial_system(square, [(5, 5)])


class TestPrimitiveCoprime:
    def test_square_condition(self, square):
        fan = normal_fan(square)
        good = parse_tuple("(u, u + 1, u, u - 1)", 1)
        ok, violated = is_primitive_coprime(good, fan)
        assert ok and not violated
        bad = parse_tuple("(u, u, 1, 1)", 1)
        ok, violated = is_primitive_coprime(bad, fan)
        assert not ok
        assert [c.ray_indices for c in violated] == [(0, 1)]

    def test_pentagon_examples(self, pentagon):
        fan = normal_fan(pentagon)
        assert is_primitive_coprime(parse_tuple("(1, u, 1, 1, 1)", 2), fan)[0]
        ok, violated = is_primitive_coprime(
            parse_tuple("(u*v, 1, u, v, 1)", 2), fan)
        assert not ok
        assert (0, 2) in [c.ray_indices for c in violated]

    def test_all_zero_collection_fails(self, square):
        fan = normal_fan(square)
        zero = MultiPoly.zero(1)
        one = MultiPoly.one(1)
        ok, violated = is_primitive_coprime((zero, zero, one, one), fan)
        assert not ok and violated[0].ray_indices == (0, 1)

    def test_length_checked(self, square):
        with pytest.raises(LengthMismatch):
            is_primitive_coprime(parse_tuple("(u, v)", 2),
                                 normal_fan(square))


class TestTuplePower:
    def test_facet_variables_reproduce_monomial(self, pentagon):
        r = len(pentagon.facets)
        variables = ParamTuple(r, tuple(MultiPoly.variable(i, r)
                                        for i in range(r)))
        for m in lattice_points(pentagon):
            exps = frame_of(pentagon).monomial_exponents(m)
            assert tuple_power(variables, m, pentagon) == \
                MultiPoly.monomial(r, exps)

    def test_pentagon_example(self, pentagon):
        f = parse_tuple("(1, u, 1, 1, 1)", 2)
        assert tuple_power(f, (1, 1), pentagon) == parse("u^3", 2, "y")

    def test_constant_tuple(self, square):
        f = parse_tuple("(2, 3, 1, 5)", 1)
        out = tuple_power(f, (1, 1), square)
        assert out.is_constant()


class TestCompose:
    def test_steiner_shape(self, p2_triangle):
        system = steiner_system(p2_triangle)
        f = parse_tuple("(u, v, u + v + 1)", 2)
        comp = compose_system(system, ParamTuple(2, f))
        assert comp.content == MultiPoly.one(2)
        f1, f2, f3 = f
        assert comp.parametrization.components == (
            f1 ** 2 + f2 ** 2 + f3 ** 2, f1 * f2, f2 * f3, f3 * f1)

    def test_pentagon_content_extraction(self, pentagon):
        system = full_monomial_system(pentagon)
        comp = compose_system(system, ParamTuple.from_text("(u*v,1,u,v,1)"))
        assert comp.content == parse("u*v^2", 2, "y")
        assert not comp.tuple_coprime
        reduced = compose_system(system, ParamTuple.from_text("(1,u,1,1,1)",
                                                              nparams=2))
        assert reduced.content == MultiPoly.one(2)
        assert reduced.tuple_coprime
        assert comp.parametrization == reduced.parametrization
        table = [render(comp.parametrization.components[i], "y")
                 for i in PENTAGON_TABLE_ORDER]
        assert table == ["u", "u^2", "u^3", "1", "u", "u^2", "1", "u"]

    def test_facet_variables_give_back_system(self, square):
        system = full_monomial_system(square)
        r = len(square.facets)
        variables = ParamTuple(r, tuple(MultiPoly.variable(i, r)
                                        for i in range(r)))
        comp = compose_system(system, variables)
        assert comp.content == MultiPoly.one(r)
        assert [render(h) for h in comp.parametrization.components] == \
            rendered_components(system)

    def test_coprime_tuples_have_unit_content(self, square, pentagon,
                                              p2_triangle):
        rng = random.Random(2718)
        pool = ["u + 1", "u - 1", "u^2 + 1", "u^2 + u + 1", "u - 2", "u + 3"]
        for p in (square, pentagon, p2_triangle):
            system = full_monomial_system(p)
            fan = normal_fan(p)
            r = len(p.facets)
            for _ in range(8):
                entries = tuple(parse(rng.choice(pool), 1, "y")
                                for _ in range(r))
                f = ParamTuple(1, entries)
                if not is_primitive_coprime(f, fan)[0]:
                    continue
                assert compose_system(system, f).content == MultiPoly.one(1)


class TestRationalParametrization:
    def test_partial_zero_tuple(self):
        assert is_rational_parametrization(parse_tuple("(u, 0, 0, v)", 2))

    def test_common_factor_fails(self, hirzebruch_quad):
        system = subset_monomial_system(
            hirzebruch_quad, [(-1, 1), (-1, 0), (0, 0)])
        polys = [c.to_multipoly() for c in system.components]
        assert not is_rational_parametrization(polys)

    def test_all_zero_fails(self):
        assert not is_rational_parametrization([MultiPoly.zero(2)] * 2)

    def test_same_map_is_constant_multiple(self):
        a = parse_tuple("(u, v, u + v)", 2)
        b = tuple(q.scale(Fraction(-3, 2)) for q in a)
        assert same_parametrization(a, b)
        c = list(a)
        c[0] = c[0].scale(2)
        assert not same_parametrization(a, tuple(c))


class TestCheckImplicit:
    def test_quadric_relation(self, square):
        system = full_monomial_system(square)
        rng = random.Random(11)
        pool = ["u + 1", "u - 1", "u^2 + 2", "u", "u + 5"]
        # relation written against our lex component order
        # (x2*x4, x2*x3, x1*x4, x1*x3): h0*h3 = h1*h2
        relation = parse("x1*x4 - x2*x3", 4)
        for _ in range(10):
            f = ParamTuple(1, tuple(parse(rng.choice(pool), 1, "y")
                                    for _ in range(4)))
            comp = compose_system(system, f)
            assert check_implicit(comp.raw_components(), relation)

    def test_steiner_relation(self, p2_triangle):
        system = steiner_system(p2_triangle)
        relation = parse(
            "x2^2*x3^2 + x3^2*x4^2 + x4^2*x2^2 - x1*x2*x3*x4", 4)
        rng = random.Random(12)
        for _ in range(10):
            f = ParamTuple(2, tuple(
                parse(s, 2, "y") for s in rng.sample(
                    ["u", "v", "u + v", "u - v", "u*v + 1", "u + 1"], 3)))
            comp = compose_system(system, f)
            assert check_implicit(comp.raw_components(), relation)

    def test_nonzero_relation_fails(self):
        relation = parse("x1", 2)
        assert not check_implicit(parse_tuple("(1, u)", 1), relation)


class TestEquivariance:
    def test_scaling_commutes_with_composition(self, square, pentagon):
        rng = random.Random(1618)
        for p in (square, pentagon):
            system = full_monomial_system(p)
            fan = normal_fan(p)
            g = scaling_group(fan)
            chi = offset_character(p, g)
            r = len(p.facets)
            for _ in range(5):
                entries = tuple(parse(s, 1, "y") for s in rng.sample(
                    ["u + 1", "u - 1", "u^2 + 1", "u - 2", "u + 3",
                     "u^2 + u + 1"], r))
                f = ParamTuple(1, entries)
                params = [Fraction(rng.randint(1, 5), rng.randint(1, 3))
                          for _ in range(g.params)]
                mu = g.point(params)
                value = Fraction(1)
                for t, e in zip(params, chi.exponents):
                    value *= t ** e
                scaled = ParamTuple(1, rescale(mu, f.entries))
                lhs = compose_system(system, scaled)
                rhs = compose_system(system, f)
                assert lhs.raw_components() == tuple(
                    h.scale(value) for h in rhs.raw_components())

    def test_rescaling_preserves_coprimality(self, pentagon):
        fan = normal_fan(pentagon)
        f = parse_tuple("(u + 1, u, u - 1, u + 2, u - 2)", 1)
        ok, _ = is_primitive_coprime(f, fan)
        assert ok
        scaled = rescale([2, 3, Fraction(1, 2), 5, Fraction(7, 3)], f)
        assert is_primitive_coprime(scaled, fan)[0]


class TestKernelElementInvariance:
    def test_kernel_rescaling_fixes_composition(self, square):
        # (2f1, 2f2, f3/2, f4/2) lies in the kernel of the offset
        # character, so the composed parametrization is unchanged exactly
        from toriparam.subtorus import rescaling_group, contains_point
        system = full_monomial_system(square)
        f = ParamTuple.from_text("(u + 1, u, u - 1, u + 2)", nparams=1)
        element = (Fraction(2), Fraction(2), Fraction(1, 2), Fraction(1, 2))
        assert contains_point(rescaling_group(frame_of(square)), element)
        scaled = ParamTuple(1, rescale(element, f.entries))
        assert compose_system(system, scaled).raw_components() == \
            compose_system(system, f).raw_components()


class TestStrictLatticePoints:
    """Lattice points in systems must be ints; nothing is truncated."""

    @pytest.mark.parametrize("point", [[0.7, 0], [1, True], ["1", 0],
                                       [1.0, 0]])
    def test_component_point_rejected(self, square, point):
        frame = frame_of(square)
        data = {"components": [[{"m": point, "a": "1"}],
                               [{"m": [1, 1], "a": "2"}]]}
        with pytest.raises(NonIntegerInput):
            ParamSystem.from_json(data, frame)

    @pytest.mark.parametrize("point", [[0.9, 0], [False, 1]])
    def test_monomial_point_rejected(self, square, point):
        frame = frame_of(square)
        with pytest.raises(NonIntegerInput):
            ParamSystem.from_json({"monomials": [point, [1, 1]]}, frame)
        with pytest.raises(NonIntegerInput):
            LatticePolynomial(frame, ((tuple(point), Fraction(1)),))

    def test_subset_point_rejected(self, square):
        with pytest.raises(NonIntegerInput):
            subset_monomial_system(square, [[0.9, 0], [1, 0], [0, 1],
                                            [1, 1]])

    def test_int_points_still_load(self, square):
        frame = frame_of(square)
        system = ParamSystem.from_json(
            {"monomials": [[0, 0], [1, 0], [0, 1], [1, 1]]}, frame)
        assert system.monomial_points() == ((0, 0), (1, 0), (0, 1), (1, 1))
        assert ParamSystem.from_json(system.to_json(), frame) == system


class TestStrictCoefficients:
    """System coefficients are ints, Fractions or "p"/"p/q" strings."""

    @pytest.mark.parametrize("a, value", [
        (3, Fraction(3)), (Fraction(-2, 3), Fraction(-2, 3)),
        ("7", Fraction(7)), ("-4/6", Fraction(-2, 3)), ("+1/2", Fraction(1, 2)),
        ("0", None)])
    def test_accepted(self, square, a, value):
        frame = frame_of(square)
        data = {"components": [[{"m": [0, 0], "a": a}],
                               [{"m": [1, 1], "a": "1"}]]}
        system = ParamSystem.from_json(data, frame)
        first = system.components[0].coefficients
        assert first == ((((0, 0), value),) if value is not None else ())
        assert ParamSystem.from_json(system.to_json(), frame) == system

    @pytest.mark.parametrize("a", [0.1, 1.0, True, False, None, [1], "1/0",
                                   "3/00", "1.5", "1e3", " 1", "1/2/3", "",
                                   "0x10", "1_000", "\u0663"])
    def test_refused(self, square, a):
        frame = frame_of(square)
        data = {"components": [[{"m": [0, 0], "a": a}],
                               [{"m": [1, 1], "a": "1"}]]}
        with pytest.raises(NonIntegerInput):
            ParamSystem.from_json(data, frame)
        with pytest.raises(NonIntegerInput):
            LatticePolynomial(frame, (((0, 0), a),))


class TestInvariantsRaise:
    def test_inexact_content_division(self, square, monkeypatch):
        import toriparam.parametrization as parametrization
        monkeypatch.setattr(parametrization, "try_divide", lambda p, d: None)
        system = full_monomial_system(square)
        f = ParamTuple.from_text("(u, u, 1, 1)")   # content u
        with pytest.raises(InternalError):
            compose_system(system, f)
