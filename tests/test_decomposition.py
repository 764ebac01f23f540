import random
from fractions import Fraction

import pytest

from toriparam.decomposition import (decompose_univariate,
                                     decompose_with_hints)
from toriparam.errors import (IncompleteHints, InternalError,
                              MultiParameterUnsupported,
                              NoPreimage, NotMonomialSystem)
from toriparam.linalg import IntMat, saturated_kernel_basis
from toriparam.parametrization import (ParamTuple, compose_system,
                                       full_monomial_system,
                                       is_primitive_coprime,
                                       same_parametrization)
from toriparam.polynomials import MultiPoly, parse, parse_tuple, render
from toriparam.polytope import normal_fan
from toriparam.resolution import minimal_resolution, resolved_frame
from toriparam.subtorus import (character_kernel, find_rescaling,
                                offset_character, scaling_group)

from conftest import steiner_system


def kernel_subgroup(p, fan=None, frame=None):
    fan = fan if fan is not None else normal_fan(p)
    frame = frame if frame is not None else p
    g = scaling_group(fan)
    return character_kernel(g, offset_character(frame, g))


COPRIME_POOL = ["u + 1", "u - 1", "u", "u + 2", "u - 2", "u^2 + 1",
                "u^2 + u + 1", "u - 3", "u + 3", "u^2 + 2"]


def random_coprime_tuple(rng, fan, scale_range=4):
    """A primitive-coprime single-variable tuple with random scalars."""
    while True:
        entries = []
        for _ in range(fan.ray_count):
            p = parse(rng.choice(COPRIME_POOL), 1, "y")
            c = Fraction(rng.randint(1, scale_range),
                         rng.randint(1, scale_range))
            if rng.random() < 0.5:
                c = -c
            entries.append(p.scale(c))
        f = ParamTuple(1, tuple(entries))
        if is_primitive_coprime(f, fan)[0]:
            return f


class TestWorkedExamples:
    def test_pentagon_content_and_tuple(self, pentagon):
        system = full_monomial_system(pentagon)
        fan = normal_fan(pentagon)
        target = compose_system(
            system, ParamTuple.from_text("(u*v, 1, u, v, 1)")).raw_components()
        result = decompose_univariate(target, system, fan)
        assert result.content == parse("u*v^2", 2, "y")
        assert result.scalar == 1
        assert [render(e, "y") for e in result.f.entries] == [
            "1", "u", "1", "1", "1"]

    def test_resolved_triangle_target(self, singular_triangle):
        rf = minimal_resolution(normal_fan(singular_triangle))
        frame = resolved_frame(singular_triangle, rf)
        system = full_monomial_system(frame)
        # lex point order (-1,0),(0,0),(0,1),(1,0); the target (v,u,u,u)
        # lists the monomial of (0,1) first, so reorder accordingly
        target = [parse(s, 2, "y") for s in ("u", "u", "v", "u")]
        result = decompose_univariate(target, system, rf.fan)
        assert result.scalar == 1
        assert result.content == MultiPoly.one(2)
        # (v, 1, u, 1) in the added-ray-third labeling = (v, 1, 1, u) here
        assert [render(e, "y") for e in result.f.entries] == [
            "v", "1", "1", "u"]

    def test_unresolved_triangle_needs_radicals(self, singular_triangle):
        system = full_monomial_system(singular_triangle)
        target = [parse(s, 2, "y") for s in ("u", "u", "v", "u")]
        with pytest.raises(NoPreimage):
            decompose_univariate(target, system,
                                 normal_fan(singular_triangle))

    def test_steiner_excluded_locus(self, p2_triangle):
        system = steiner_system(p2_triangle)
        target = parse_tuple("(u, 0, 0, v)", 2)
        with pytest.raises(NoPreimage):
            decompose_with_hints(target, system, normal_fan(p2_triangle),
                                 [parse("u", 2, "y"), parse("v", 2, "y")])

    def test_steiner_round_trip(self, p2_triangle):
        system = steiner_system(p2_triangle)
        fan = normal_fan(p2_triangle)
        f = parse_tuple("(u + v, u - v, u*v + 1)", 2)
        target = compose_system(system, ParamTuple(2, f)).raw_components()
        result = decompose_with_hints(target, system, fan, list(f))
        mu = find_rescaling(list(f), result.f.entries,
                            kernel_subgroup(p2_triangle))
        assert mu in ((1, 1, 1), (-1, -1, -1))

    def test_quadric_round_trip_with_hints(self, square):
        system = full_monomial_system(square)
        fan = normal_fan(square)
        f = parse_tuple("(u^2 + v, u, v, u + v)", 2)
        target = compose_system(system, ParamTuple(2, f)).raw_components()
        result = decompose_with_hints(target, system, fan, list(f))
        find_rescaling(list(f), result.f.entries, kernel_subgroup(square))


class TestScalars:
    def test_scalar_absorbed_when_rational(self, square):
        system = full_monomial_system(square)
        fan = normal_fan(square)
        f = ParamTuple.from_text("(u + 1, u, u - 1, u + 2)", nparams=1)
        target = [h.scale(6)
                  for h in compose_system(system, f).raw_components()]
        result = decompose_univariate(target, system, fan)
        assert result.absorbed and result.scalar == 1
        verify = compose_system(system, result.f)
        assert verify.raw_components() == tuple(target)

    def test_scalar_left_explicit(self, p2_triangle):
        system = full_monomial_system(p2_triangle)
        fan = normal_fan(p2_triangle)
        f = ParamTuple.from_text("(u, u + 1, u - 1)", nparams=1)
        target = [h.scale(2)
                  for h in compose_system(system, f).raw_components()]
        result = decompose_univariate(target, system, fan)
        assert not result.absorbed
        assert result.scalar == 2

    def test_minus_one_on_even_character(self, p2_triangle):
        system = full_monomial_system(p2_triangle)
        fan = normal_fan(p2_triangle)
        f = ParamTuple.from_text("(u, u + 1, u - 1)", nparams=1)
        target = [h.scale(-1)
                  for h in compose_system(system, f).raw_components()]
        result = decompose_univariate(target, system, fan)
        assert result.scalar == -1 and not result.absorbed


class TestEdgeCases:
    def test_non_monomial_system_rejected(self, p2_triangle):
        system = steiner_system(p2_triangle)
        with pytest.raises(NotMonomialSystem):
            decompose_univariate(parse_tuple("(u, u, u, u)", 1), system,
                                 normal_fan(p2_triangle))

    def test_mixed_variables_need_hints(self, square):
        system = full_monomial_system(square)
        target = parse_tuple("(u*v + 1, 1, 1, 1)", 2)
        with pytest.raises(MultiParameterUnsupported):
            decompose_univariate(target, system, normal_fan(square))

    def test_incomplete_hints(self, square):
        system = full_monomial_system(square)
        fan = normal_fan(square)
        f = parse_tuple("(u^2 + v, u, v, u + v)", 2)
        target = compose_system(system, ParamTuple(2, f)).raw_components()
        with pytest.raises(IncompleteHints):
            decompose_with_hints(target, system, fan,
                                 [parse("u", 2, "y"), parse("v", 2, "y")])

    def test_constant_target_no_hints(self, square):
        system = full_monomial_system(square)
        fan = normal_fan(square)
        target = [MultiPoly.constant(1, 2) for _ in range(4)]
        result = decompose_with_hints(target, system, fan, [])
        assert all(e.is_constant() for e in result.f.entries)
        comp = compose_system(system, result.f)
        assert tuple(h.scale(result.scalar) * result.content
                     for h in comp.raw_components()) == tuple(target)

    def test_zero_components_recovered(self, square):
        # (0, 0, 1, u) arises from (u, 1, 0, 1) in the quadric presentation
        system = full_monomial_system(square)
        fan = normal_fan(square)
        f = ParamTuple(1, (parse("u", 1, "y"), MultiPoly.one(1),
                           MultiPoly.zero(1), MultiPoly.one(1)))
        assert is_primitive_coprime(f, fan)[0]
        target = compose_system(system, f).raw_components()
        result = decompose_univariate(target, system, fan)
        assert same_parametrization(
            compose_system(system, result.f).raw_components(), target)

    def test_all_zero_rejected(self, square):
        system = full_monomial_system(square)
        with pytest.raises(ValueError):
            decompose_univariate([MultiPoly.zero(1)] * 4, system,
                                 normal_fan(square))


class TestOrderSystemStructure:
    def test_exponent_kernel_is_rescaling_lattice(self, square, pentagon):
        # the integer kernel of the exponent matrix equals the exponent
        # lattice of the subgroup that leaves compositions unchanged
        for p in (square, pentagon):
            system = full_monomial_system(p)
            rows = [list(e) for _, e in system.exponent_rows()]
            kernel = saturated_kernel_basis(IntMat.from_rows(rows))
            sub = kernel_subgroup(p)
            from toriparam.linalg import column_lattice_canonical
            assert column_lattice_canonical(kernel).entries == \
                column_lattice_canonical(sub.exponent_matrix).entries


class TestRoundTrips:
    @pytest.mark.parametrize("polytope_fixture", [
        "square", "pentagon", "p2_triangle"])
    def test_planted_tuples(self, polytope_fixture, request):
        p = request.getfixturevalue(polytope_fixture)
        system = full_monomial_system(p)
        fan = normal_fan(p)
        kernel = kernel_subgroup(p)
        rng = random.Random(hash(polytope_fixture) % 10 ** 6)
        for _ in range(10):
            f = random_coprime_tuple(rng, fan)
            target = compose_system(system, f).raw_components()
            result = decompose_univariate(target, system, fan)
            if result.scalar == 1:
                find_rescaling(f.entries, result.f.entries, kernel)
            else:
                find_rescaling(f.entries, result.f.entries,
                               scaling_group(fan))

    def test_resolved_triangle_planted(self, singular_triangle):
        rf = minimal_resolution(normal_fan(singular_triangle))
        frame = resolved_frame(singular_triangle, rf)
        system = full_monomial_system(frame)
        kernel = kernel_subgroup(singular_triangle, fan=rf.fan, frame=frame)
        rng = random.Random(99)
        for _ in range(10):
            f = random_coprime_tuple(rng, rf.fan)
            target = compose_system(system, f).raw_components()
            result = decompose_univariate(target, system, rf.fan)
            if result.scalar == 1:
                find_rescaling(f.entries, result.f.entries, kernel)
            else:
                find_rescaling(f.entries, result.f.entries,
                               scaling_group(rf.fan))


class TestOneDimensionalPolytope:
    def test_segment_pipeline(self):
        # degree-2 embedding of the projective line from the segment [0, 2]
        from toriparam.polytope import polytope_from_vertices
        p = polytope_from_vertices(1, [(0,), (2,)])
        system = full_monomial_system(p)
        fan = normal_fan(p)
        # canonical facet order lists the normal (-1) first, so x1 carries
        # offset 2 and the point 0 maps to x1^2
        rendered = [render(c.to_multipoly()) for c in system.components]
        assert rendered == ["x1^2", "x1*x2", "x2^2"]
        f = ParamTuple.from_text("(u + 1, u - 1)")
        target = compose_system(system, f).raw_components()
        result = decompose_univariate(target, system, fan)
        assert result.scalar == 1
        find_rescaling(f.entries, result.f.entries, kernel_subgroup(p))


class TestAdversarial:
    def test_repeated_factor_across_entries(self, square):
        # the same irreducible may appear in entries that never share a
        # primitive collection
        system = full_monomial_system(square)
        fan = normal_fan(square)
        shared = parse("u^2 + 1", 1, "y")
        f = ParamTuple(1, (shared, parse("u", 1, "y"),
                           shared * shared, parse("u - 1", 1, "y")))
        assert is_primitive_coprime(f, fan)[0]
        target = compose_system(system, f).raw_components()
        result = decompose_univariate(target, system, fan)
        find_rescaling(f.entries, result.f.entries, kernel_subgroup(square))

    def test_high_multiplicities(self, pentagon):
        system = full_monomial_system(pentagon)
        fan = normal_fan(pentagon)
        f = ParamTuple(1, (parse("u", 1, "y") ** 3,
                           parse("u + 1", 1, "y") ** 2,
                           parse("u - 1", 1, "y"),
                           parse("u + 2", 1, "y") ** 2,
                           parse("u - 2", 1, "y") ** 3))
        assert is_primitive_coprime(f, fan)[0]
        target = compose_system(system, f).raw_components()
        result = decompose_univariate(target, system, fan)
        find_rescaling(f.entries, result.f.entries, kernel_subgroup(pentagon))

    def test_two_decompositions_are_equivalent(self, pentagon):
        # decomposing the same target twice (directly and with hints) can
        # only differ by a rescaling-group element
        system = full_monomial_system(pentagon)
        fan = normal_fan(pentagon)
        f = ParamTuple.from_text("(u + 1, u, u - 1, u + 2, u - 2)",
                                 nparams=1)
        target = compose_system(system, f).raw_components()
        a = decompose_univariate(target, system, fan)
        hints = [parse(s, 1, "y") for s in
                 ("u + 1", "u", "u - 1", "u + 2", "u - 2")]
        b = decompose_with_hints(target, system, fan, hints)
        assert a.scalar == b.scalar == 1
        find_rescaling(a.f.entries, b.f.entries, kernel_subgroup(pentagon))

    def test_subset_system_round_trip(self, pentagon):
        # the vertex subsystem is also universal; decomposition matches
        from toriparam.parametrization import subset_monomial_system
        system = subset_monomial_system(
            pentagon, [(-1, 1), (1, 1), (-1, 0), (0, -1), (1, -1)])
        assert system.warnings == ()
        fan = normal_fan(pentagon)
        rng = random.Random(1234)
        for _ in range(5):
            f = random_coprime_tuple(rng, fan)
            target = compose_system(system, f).raw_components()
            result = decompose_univariate(target, system, fan)
            assert result.scalar == 1
            find_rescaling(f.entries, result.f.entries,
                           kernel_subgroup(pentagon))

    def test_near_miss_target_rejected(self, square):
        # perturbing one component must not decompose
        system = full_monomial_system(square)
        fan = normal_fan(square)
        f = ParamTuple.from_text("(u + 1, u, u - 1, u + 2)", nparams=1)
        target = list(compose_system(system, f).raw_components())
        target[2] = target[2] + MultiPoly.one(1)
        with pytest.raises(NoPreimage):
            decompose_univariate(target, system, fan)

    def test_scaled_component_rejected(self, square):
        # scaling a single component breaks the multiplicative fit
        system = full_monomial_system(square)
        fan = normal_fan(square)
        f = ParamTuple.from_text("(u + 1, u, u - 1, u + 2)", nparams=1)
        target = list(compose_system(system, f).raw_components())
        target[1] = target[1].scale(3)
        with pytest.raises(NoPreimage):
            decompose_univariate(target, system, fan)


class TestInvariantsRaise:
    def test_inexact_content_division(self, square, monkeypatch):
        import toriparam.parametrization as parametrization
        system = full_monomial_system(square)
        target = compose_system(     # content u
            system, ParamTuple.from_text("(u, u, 1, 1)")).raw_components()
        monkeypatch.setattr(parametrization, "try_divide", lambda p, d: None)
        with pytest.raises(InternalError):
            decompose_univariate(target, system, normal_fan(square))
