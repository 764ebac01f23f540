"""``polynomials._coprime_base`` and the decomposition that splits over it.

``decompose_univariate`` splits every row of a univariate target over a
squarefree, pairwise coprime base of its vertex rows instead of factoring
them.  The base is checked against ``factor_univariate``: its elements are
monic, squarefree and pairwise coprime, every input is a constant times a
product of their powers, and the irreducible factors inside one element
share their multiplicities in every input.  No target is factored, not
even one whose rows do not split over the base of the vertex rows, whose
rows use different parameters, or whose base elements have several order
solutions; those cases, and the shapes of the benchmark's round trips,
must give what ``oracle_decompose`` (which factors every row) gives.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import toriparam.decomposition as decomposition
import toriparam.polynomials as polynomials
from test_decompose_differential import _outcome, oracle_decompose
from toriparam.decomposition import decompose_univariate
from toriparam.errors import NoPreimage, NotUnivariate
from toriparam.parametrization import (ParamTuple, compose_system,
                                       full_monomial_system,
                                       subset_monomial_system)
from toriparam.polynomials import (MultiPoly, _coprime_base, _split,
                                   factor_univariate, gcd_many, normalized,
                                   parse)
from toriparam.polytope import frame_of, normal_fan, polytope_from_vertices
from toriparam.resolution import minimal_resolution, resolved_frame

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

POOL = ["u + 1", "2*u + 1", "3*u - 2", "u^2 + 1", "u^2 - 2", "u",
        "u^3 + u + 1", "u - 1"]


@st.composite
def inputs(draw):
    """Univariate polynomials in variable ``var`` of an ``nvars`` ring,
    each a scalar times pool factors to powers 1..4."""
    nvars = draw(st.sampled_from([1, 2]))
    var = draw(st.integers(0, nvars - 1))
    name = "uv"[var]
    out = []
    for _ in range(draw(st.integers(1, 5))):
        p = MultiPoly.constant(nvars, draw(st.sampled_from(
            [1, -2, Fraction(3, 4), 6])))
        for t in draw(st.lists(st.sampled_from(POOL), max_size=4)):
            p = p * parse(t.replace("u", name), nvars, "y") \
                ** draw(st.integers(1, 4))
        out.append(p)
    return out


def _irreducibles(p):
    return [q for q, _ in factor_univariate(p).factors]


class TestCoprimeBase:
    @SETTINGS
    @given(inputs())
    def test_monic_squarefree_pairwise_coprime(self, polys):
        base = _coprime_base(polys)
        for b in base:
            assert not b.is_constant()
            assert b.leading_coefficient() == 1
            assert all(m == 1 for _, m in factor_univariate(b).factors)
        for i, a in enumerate(base):
            for b in base[i + 1:]:
                assert gcd_many([a, b]).is_constant()

    @SETTINGS
    @given(inputs())
    def test_every_input_is_a_unit_times_base_powers(self, polys):
        base = _coprime_base(polys)
        for p, split in zip(polys, _split(polys, base), strict=True):
            assert split is not None
            unit, mults = split
            assert unit == p.leading_coefficient()
            product = MultiPoly.constant(p.nvars, unit)
            for b, m in zip(base, mults, strict=True):
                product = product * b ** m
            assert product == p

    @SETTINGS
    @given(inputs())
    def test_irreducibles_of_an_element_share_multiplicities(self, polys):
        base = _coprime_base(polys)
        factored = [dict(factor_univariate(p).factors) for p in polys]
        covered = set()
        for b in base:
            parts = _irreducibles(b)
            covered.update(parts)
            for mults in factored:
                assert len({mults.get(q, 0) for q in parts}) == 1
        # and the base holds every irreducible factor of every input
        assert covered == {q for mults in factored for q in mults}

    def test_constants_and_zero_add_nothing(self):
        assert _coprime_base([]) == []
        assert _coprime_base([MultiPoly.constant(1, 5),
                              MultiPoly.zero(1)]) == []
        u1 = parse("u + 1", 1, "y")
        assert _coprime_base([MultiPoly.zero(1), u1 ** 3]) == [u1]

    def test_two_variables_are_refused(self):
        with pytest.raises(NotUnivariate):
            _coprime_base([parse("u + 1", 2, "y"), parse("v + 1", 2, "y")])

    def test_shared_factors_are_split_not_factored(self):
        a, b, c = (parse(t, 1, "y") for t in ("u + 1", "u^2 + 1", "u - 2"))
        base = _coprime_base([a ** 2 * b, a * b * c ** 3, b ** 2])
        assert sorted(map(str, base)) == sorted(map(str, [a, b, c]))
        # a and b always share their multiplicity, so they stay together
        assert _coprime_base([(a * b) ** 2, a * b * c]) in (
            [a * b, c], [c, a * b])


# -- decomposition over the base ----------------------------------------------

def _count_factoring(monkeypatch):
    """Calls of ``factor_univariate``."""
    calls = {"factor": 0}
    real_factor = polynomials.factor_univariate

    def factor(poly):
        calls["factor"] += 1
        return real_factor(poly)

    monkeypatch.setattr(polynomials, "factor_univariate", factor)
    return calls


def _same_as_oracle(target, system, fan):
    got = _outcome(decompose_univariate, target, system, fan)
    assert got == _outcome(oracle_decompose, target, system, fan)
    return got


def _polygon(verts):
    return polytope_from_vertices(2, verts)


def _resolved(verts):
    p = _polygon(verts)
    return resolved_frame(p, minimal_resolution(normal_fan(p)))


class TestFallback:
    """Targets that factoring every row once had to decide."""

    def test_ambiguous_subset_system(self, monkeypatch):
        frame = frame_of(_polygon([(0, 0), (1, 0), (0, 1)]))
        system = subset_monomial_system(frame, [(0, 0), (0, 1)])
        f = ParamTuple.from_text("(u + 1, u + 2, 1)")
        target = compose_system(system, f).raw
        calls = _count_factoring(monkeypatch)
        _same_as_oracle(target, system, frame.fan)
        assert calls["factor"] == 0

    def test_row_a_base_element_divides_unevenly(self, monkeypatch):
        # every vertex row holds (u+1)(u+2) to one power, so the base has
        # that product; a non-vertex row times (u+1) holds p^2 q
        frame = frame_of(_polygon([(0, 0), (2, 0), (0, 2)]))
        system = full_monomial_system(frame)
        f = ParamTuple.from_text("((u + 1)*(u + 2), u - 3, u^2 + 1)")
        raw = list(compose_system(system, f).raw)
        first, rest, _ = system._vertex_order()
        raw[rest[0]] = raw[rest[0]] * parse("u + 1", 1, "y")
        assert parse("(u + 1)*(u + 2)", 1, "y") in _coprime_base(
            [raw[j] for j in first])
        calls = _count_factoring(monkeypatch)
        _same_as_oracle(raw, system, frame.fan)
        assert calls["factor"] == 0

    def test_mixed_variable_row(self, monkeypatch):
        frame = frame_of(_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]))
        system = full_monomial_system(frame)
        f = ParamTuple.from_text("(u + 1, u - 1, u^2 + 1, 2*u)")
        raw = [MultiPoly(2, {(e[0], 0): c for e, c in h.terms()})
               for h in compose_system(system, f).raw]
        raw[2] = raw[2] * parse("v + 1", 2, "y")
        calls = _count_factoring(monkeypatch)
        got = _same_as_oracle(raw, system, frame.fan)
        assert calls["factor"] == 0
        assert got[0] == "MultiParameterUnsupported"

    def test_rows_in_different_parameters(self, monkeypatch):
        # the vertex subsystem of 2*D2, each vertex row in one parameter
        frame = frame_of(_polygon([(0, 0), (2, 0), (0, 2)]))
        system = subset_monomial_system(frame, [(0, 0), (2, 0), (0, 2)])
        f = ParamTuple.from_text("(u + 1, v + 2, 3)", 2)
        target = compose_system(system, f).raw
        calls = _count_factoring(monkeypatch)
        got = _same_as_oracle(target, system, frame.fan)
        assert calls["factor"] == 0
        assert got[0] == "1" and got[2] == ("u + 1", "v + 2", "3")

    def test_decomposition_does_not_factor(self):
        assert not hasattr(decomposition, "factor_univariate")


# Factor degrees of tuple entry i, by i modulo 4, and distinct monic
# factors of each degree, so that the entries are pairwise coprime.
DEGREES = ((1,), (1, 2), (), (2,))
LINEAR = ["u + 1", "u - 1", "u + 2", "u - 2", "u + 3", "u - 3", "u + 4",
          "u - 4", "u + 5", "u - 5"]
QUADRATIC = ["u^2 + 1", "u^2 + 2", "u^2 + u + 1", "u^2 + 3", "u^2 + u + 2",
             "u^2 + 4", "u^2 + u + 3"]
SCALARS = [Fraction(2, 3), -1, 3, Fraction(-1, 2), 5]


def _slot_tuple(rays):
    pools = {1: list(LINEAR), 2: list(QUADRATIC)}
    entries = []
    for i in range(rays):
        e = MultiPoly.constant(1, SCALARS[i % len(SCALARS)])
        for d in DEGREES[i % 4]:
            e = e * parse(pools[d].pop(0), 1, "y")
        entries.append(e)
    return ParamTuple(1, tuple(entries))


SLOT_SHAPES = {
    **{f"{k}*D2": frame_of(_polygon([(0, 0), (k, 0), (0, k)]))
       for k in (1, 2, 3, 4)},
    "rect": frame_of(_polygon([(0, 0), (2, 0), (2, 1), (0, 1)])),
    "pentagon": frame_of(_polygon([(1, 1), (-1, 1), (-1, 0), (0, -1),
                                   (1, -1)])),
    "singular resolved": _resolved([(1, 0), (0, 1), (-1, 0)]),
    "thin resolved": _resolved([(0, 0), (3, 0), (0, 1)]),
}


class TestNoFactoring:
    @pytest.mark.parametrize("shape", sorted(SLOT_SHAPES))
    def test_roundtrip_shapes_factor_nothing(self, shape, monkeypatch):
        frame = SLOT_SHAPES[shape]
        system = full_monomial_system(frame)
        f = _slot_tuple(frame.ray_count)
        target = compose_system(system, f).raw
        calls = _count_factoring(monkeypatch)
        result = decompose_univariate(target, system, frame.fan)
        assert calls == {"factor": 0}
        assert list(map(normalized, result.f.entries)) == list(
            map(normalized, f.entries))
        assert (_outcome(lambda: result)
                == _outcome(oracle_decompose, target, system, frame.fan))

    def test_radicals_still_raise_no_preimage(self, monkeypatch):
        singular = _polygon([(1, 0), (0, 1), (-1, 0)])
        compose_sys = full_monomial_system(
            SLOT_SHAPES["singular resolved"])
        system = full_monomial_system(frame_of(singular))
        # the added ray's entry is squarefree and non-constant
        f = ParamTuple.from_text("(u + 1, (u - 1)*(u^2 + 1), 3, u + 2)")
        target = compose_system(compose_sys, f).raw
        calls = _count_factoring(monkeypatch)
        with pytest.raises(NoPreimage):
            decompose_univariate(target, system, frame_of(singular).fan)
        assert calls == {"factor": 0}
        assert _outcome(oracle_decompose, target, system,
                        frame_of(singular).fan)[0] == "NoPreimage"

    def test_high_power_over_the_square(self, monkeypatch):
        # a (u+1)^1000 entry once spent 28 s in factor_list
        frame = frame_of(_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]))
        system = full_monomial_system(frame)
        one = MultiPoly.one(1)
        f = ParamTuple(1, (parse("u + 1", 1, "y") ** 300, one, one, one))
        target = compose_system(system, f).raw
        calls = _count_factoring(monkeypatch)
        result = decompose_univariate(target, system, frame.fan)
        assert calls == {"factor": 0}
        assert result.f == f and result.scalar == 1
