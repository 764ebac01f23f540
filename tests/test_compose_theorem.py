"""The content of a composition, taken from the paper's theorem.

``compose_system`` skips the gcd when the tuple is primitive-coprime and the
system has a one-term component at a vertex of every maximal cone; then the
content is 1.  Every other composition folds a gcd that starts with the
vertex components.  Either way the content must equal the gcd of the
composed components and the reduced components their exact quotients,
which the property tests below check on frames of every kind.
"""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import toriparam.parametrization as parametrization
from toriparam.cli import main
from toriparam.errors import NotFullDimensional
from toriparam.parametrization import (LatticePolynomial, ParamSystem,
                                       ParamTuple, compose_system,
                                       full_monomial_system,
                                       subset_monomial_system)
from toriparam.polynomials import MultiPoly, gcd_many, parse, try_divide
from toriparam.polytope import (frame_of, lattice_points, normal_fan,
                                polytope_from_vertices,
                                primitive_collections)
from toriparam.resolution import minimal_resolution, resolved_frame

from oracles import tuple_power

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# The octahedron and the square pyramid have non-simplicial normal fans.
SOLIDS = ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
           (0, 0, -1)],
          [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)],
          [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
          [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
# Resolved triangles with 11 and 17 rays.
LARGE_TRIANGLES = ([(0, 0), (3, 1), (1, 3)], [(0, 0), (5, 1), (1, 4)])
FACTORS = ["u + 1", "u - 1", "u + 2", "u - 2", "u^2 + 1", "u", "v + 1",
           "u + v", "u*v + 3", "v - 2"]


def _polygon(draw, size):
    pts = draw(st.lists(st.tuples(st.integers(0, size), st.integers(0, size)),
                        min_size=3, max_size=6, unique=True))
    try:
        return polytope_from_vertices(2, pts)
    except NotFullDimensional:
        return polytope_from_vertices(2, [(0, 0), (1, 0), (0, 1)] + pts)


@st.composite
def frames(draw):
    kind = draw(st.sampled_from(["polygon", "resolved", "large", "solid"]))
    if kind == "polygon":
        return frame_of(_polygon(draw, 3))
    if kind == "solid":
        return frame_of(polytope_from_vertices(3, draw(st.sampled_from(
            SOLIDS))))
    if kind == "large":
        p = polytope_from_vertices(2, draw(st.sampled_from(LARGE_TRIANGLES)))
    else:
        p = _polygon(draw, 3)
    return resolved_frame(p, minimal_resolution(normal_fan(p)))


@st.composite
def systems(draw, frame):
    pts = lattice_points(frame.polytope)
    kind = draw(st.sampled_from(["full", "full", "full", "subset",
                                 "no vertex", "components"]))
    if kind == "full":
        return full_monomial_system(frame)
    if kind in ("subset", "no vertex"):
        pool = pts
        if kind == "no vertex":
            dropped = set(frame.polytope.vertices[:1])
            pool = [m for m in pts if m not in dropped]
        chosen = draw(st.lists(st.sampled_from(pool), min_size=1,
                               max_size=len(pool), unique=True))
        return subset_monomial_system(frame, chosen)
    comps = []
    for _ in range(draw(st.integers(1, 5))):
        terms = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3,
                              unique=True))
        comps.append(LatticePolynomial(frame, tuple(
            (m, draw(st.sampled_from([1, 2, -1, Fraction(1, 2)])))
            for m in terms)))
    if all(c.is_zero() for c in comps):
        return full_monomial_system(frame)
    return ParamSystem(frame, tuple(comps))


@st.composite
def tuples(draw, frame, nparams):
    r = frame.ray_count
    if draw(st.booleans()):
        # distinct irreducible entries and constants: primitive-coprime,
        # also with zero entries inside one cone
        shifts = draw(st.permutations(range(-12, 12)))
        entries = []
        for i in range(r):
            q = parse(f"u + {shifts[i]}" if i % 2 or nparams == 1
                      else f"v + {shifts[i]}", nparams, "y")
            entries.append(q ** draw(st.integers(0, 2))
                           * MultiPoly.constant(nparams, draw(
                               st.sampled_from([1, 2, -3]))))
        if draw(st.integers(0, 3)) == 0:
            cone = draw(st.sampled_from(frame.fan.max_cones)).ray_indices
            for i in draw(st.sets(st.sampled_from(cone), min_size=1)):
                entries[i] = MultiPoly.zero(nparams)
        return ParamTuple(nparams, tuple(entries))
    pool = [parse(t, 2, "y") for t in FACTORS] if nparams == 2 else \
        [parse(t, 1, "y") for t in FACTORS if "v" not in t]
    entries = []
    for _ in range(r):
        if draw(st.integers(0, 9)) == 0:
            entries.append(MultiPoly.zero(nparams))
            continue
        e = MultiPoly.constant(nparams, draw(st.sampled_from([1, 2, -3])))
        for q in draw(st.lists(st.sampled_from(pool), max_size=2)):
            e = e * q
        entries.append(e)
    if draw(st.booleans()):
        # a factor shared by several entries, usually breaking coprimality
        shared = draw(st.sampled_from(pool))
        for i in draw(st.sets(st.integers(0, r - 1), min_size=2)):
            entries[i] = entries[i] * shared
    return ParamTuple(nparams, tuple(entries))


@st.composite
def compositions(draw):
    frame = draw(frames())
    return (draw(systems(frame)),
            draw(tuples(frame, draw(st.sampled_from([1, 1, 2])))))


def _gcd_path(system, f):
    """The content and reduced components by a gcd over every component."""
    raw = []
    for comp in system.components:
        total = MultiPoly.zero(f.nparams)
        for m, a in comp.coefficients:
            total = total + tuple_power(f, m, system.frame).scale(a)
        raw.append(total)
    g = gcd_many(raw)
    if g.is_zero():
        return raw, g, None
    return raw, g, tuple(try_divide(h, g) for h in raw)


class TestContentMatchesGcd:
    @SETTINGS
    @given(compositions())
    def test_content_and_reduced_components(self, case):
        system, f = case
        raw, g, reduced = _gcd_path(system, f)
        if reduced is None:
            with pytest.raises(ValueError):
                compose_system(system, f)
            return
        comp = compose_system(system, f)
        assert comp.raw == tuple(raw)
        assert comp.content == g
        assert comp.parametrization.components == reduced

    def test_octahedron_fan_is_not_simplicial(self):
        frame = frame_of(polytope_from_vertices(3, SOLIDS[0]))
        assert all(len(c.ray_indices) == 4 for c in frame.fan.max_cones)
        f = ParamTuple(1, tuple(parse(t, 1, "y") for t in
                                ["u + 1", "u - 1", "u + 2", "u - 2",
                                 "u^2 + 1", "u", "u + 3", "u - 3"]))
        comp = compose_system(full_monomial_system(frame), f)
        assert comp.tuple_coprime and comp.content == MultiPoly.one(1)
        assert comp.content == gcd_many(list(comp.raw))


class TestConeVertices:
    def test_normal_fan_cone_vertices_are_the_polytope_vertices(self):
        p = polytope_from_vertices(2, [(0, 0), (3, 0), (3, 1), (1, 2)])
        frame = frame_of(p)
        assert frame._cone_vertices == p.vertices

    @pytest.mark.parametrize("vertices", LARGE_TRIANGLES)
    def test_every_resolved_cone_has_a_vertex(self, vertices):
        p = polytope_from_vertices(2, vertices)
        frame = resolved_frame(p, minimal_resolution(normal_fan(p)))
        found = frame._cone_vertices
        assert len(found) == len(frame.fan.max_cones)
        for v, cone in zip(found, frame.fan.max_cones):
            assert v in p.vertices
            e = frame.monomial_exponents(v)
            assert all(e[i] == 0 for i in cone.ray_indices)


def _count_gcd_many(monkeypatch):
    calls = []
    real = parametrization.gcd_many

    def counting(polys):
        calls.append(list(polys))
        return real(polys)

    monkeypatch.setattr(parametrization, "gcd_many", counting)
    return calls


class TestNoContentGcd:
    @pytest.mark.parametrize("vertices", [[(0, 0), (2, 0), (0, 2)],
                                          [(0, 0), (3, 1), (1, 3)]])
    def test_primitive_coprime_full_system(self, vertices, monkeypatch):
        p = polytope_from_vertices(2, vertices)
        frame = resolved_frame(p, minimal_resolution(normal_fan(p)))
        pool = ["u + 1", "u - 1", "u + 2", "u - 2", "u^2 + 1", "u",
                "u + 3", "u - 3", "u^2 + 2", "u + 4", "u - 4"]
        f = ParamTuple(1, tuple(parse(pool[i], 1, "y")
                                for i in range(frame.ray_count)))
        collections = primitive_collections(frame.fan)
        calls = _count_gcd_many(monkeypatch)
        comp = compose_system(full_monomial_system(frame), f)
        assert comp.tuple_coprime and comp.content == MultiPoly.one(1)
        # no gcd over composed components; at most one per primitive
        # collection, over that collection's entries (the modular
        # certificate usually settles a collection without one)
        assert len(calls) <= len(collections)
        entry_sets = [[f.entries[i] for i in c.ray_indices]
                      for c in collections]
        assert all(c in entry_sets for c in calls)

    def test_fallback_folds_vertex_components_first(self, monkeypatch):
        p = polytope_from_vertices(2, [(0, 0), (2, 0), (0, 2)])
        frame = frame_of(p)
        system = full_monomial_system(frame)
        f = ParamTuple.from_text("(u*(u + 1), u, u*(u + 2))")
        calls = _count_gcd_many(monkeypatch)
        comp = compose_system(system, f)
        assert not comp.tuple_coprime
        content_call = calls[-1]
        points = [c.coefficients[0][0] for c in system.components]
        firsts = [comp.raw[points.index(v)] for v in frame._cone_vertices]
        assert content_call[:len(firsts)] == firsts
        assert comp.content == parse("u^2", 1, "y")


def test_high_power_entry_composes(tmp_path, capsys):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"dim": 2,
                                "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    start = time.perf_counter()
    code = main(["compose", str(path), "--system", "delta", "--tuple",
                 "((u+1)^3000,1,1,1)", "--json"])
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["content"] == "1"
    assert data["tuple_irreducible"] is True
    assert elapsed < 30
