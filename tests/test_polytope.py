import itertools
import math
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from toriparam.errors import (NonIntegerInput, NotFullDimensional,
                              PointOutsidePolytope, UnsupportedDimension,
                              ZeroVector)
from toriparam.linalg import IntMat, primitive_vector, solve_integer_linear
from toriparam.polytope import (Cone, Facet, Fan, Frame, LatticePolytope,
                                _facets_from_points, frame_of,
                                is_smooth, lattice_points,
                                monomial_exponents, normal_fan,
                                polytope_from_vertices,
                                primitive_collections,
                                smallest_containing_cone)
from toriparam.resolution import minimal_resolution

from conftest import PENTAGON_FACETS, SQUARE_FACETS


class TestHull:
    def test_square_facets(self):
        p = polytope_from_vertices(2, [(0, 0), (1, 0), (1, 1), (0, 1)])
        assert set(p.facets) == set(SQUARE_FACETS)
        assert list(p.facets) == sorted(p.facets)  # canonical order

    def test_dilated_triangle_offsets(self):
        p = polytope_from_vertices(2, [(0, 0), (2, 0), (0, 2)])
        offsets = {f.normal: f.offset for f in p.facets}
        assert offsets == {(1, 0): 0, (0, 1): 0, (-1, -1): 2}

    def test_pentagon_offsets_all_one(self):
        p = polytope_from_vertices(
            2, [(1, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)])
        assert len(p.facets) == 5
        assert all(f.offset == 1 for f in p.facets)
        assert set(p.facets) == set(PENTAGON_FACETS)

    def test_interior_points_dropped(self):
        p = polytope_from_vertices(2, [(0, 0), (2, 0), (0, 2), (1, 1), (0, 1)])
        assert set(p.vertices) == {(0, 0), (2, 0), (0, 2)}

    def test_caller_labeling_preserved(self, square):
        assert square.facets == SQUARE_FACETS

    def test_wrong_facets_rejected(self):
        with pytest.raises(ValueError):
            LatticePolytope(2, ((0, 0), (1, 0), (1, 1), (0, 1)),
                            (Facet((1, 0), 0), Facet((-1, 0), 1),
                             Facet((0, 1), 0), Facet((0, -1), 2)))

    def test_not_full_dimensional(self):
        with pytest.raises(NotFullDimensional):
            polytope_from_vertices(2, [(0, 0), (1, 1), (2, 2)])

    def test_dimension_limit(self):
        with pytest.raises(UnsupportedDimension):
            polytope_from_vertices(4, [(0, 0, 0, 0)])

    def test_segment_1d(self):
        p = polytope_from_vertices(1, [(2,), (-1,), (0,)])
        assert set(p.facets) == {Facet((1,), 1), Facet((-1,), 2)}

    def test_cube_3d(self):
        p = polytope_from_vertices(
            3, [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        assert len(p.facets) == 6
        assert len(p.vertices) == 8

    def test_json_roundtrip(self, pentagon):
        again = LatticePolytope.from_json(pentagon.to_json())
        assert again == pentagon
        canonical = LatticePolytope.from_json(
            {"dim": 2, "vertices": [list(v) for v in pentagon.vertices]})
        assert set(canonical.facets) == set(pentagon.facets)


class TestLatticePoints:
    def test_pentagon_count(self, pentagon):
        assert len(lattice_points(pentagon)) == 8

    def test_square_points(self, square):
        assert lattice_points(square) == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_singular_triangle(self, singular_triangle):
        assert lattice_points(singular_triangle) == (
            (-1, 0), (0, 0), (0, 1), (1, 0))


class TestNormalFan:
    def test_square(self, square):
        fan = normal_fan(square)
        assert fan.rays == ((1, 0), (-1, 0), (0, 1), (0, -1))
        assert len(fan.max_cones) == 4
        assert {c.ray_indices for c in fan.max_cones} == {
            (0, 2), (0, 3), (1, 2), (1, 3)}

    def test_counts_match(self, pentagon):
        fan = normal_fan(pentagon)
        assert fan.ray_count == len(pentagon.facets)
        assert len(fan.max_cones) == len(pentagon.vertices)

    def test_singular_triangle_rays(self, singular_triangle):
        fan = normal_fan(singular_triangle)
        assert fan.rays == ((0, 1), (-1, -1), (1, -1))
        assert len(fan.max_cones) == 3

    def test_completeness_by_sampling(self, pentagon, singular_triangle):
        rng = random.Random(31337)
        for p in (pentagon, singular_triangle):
            fan = normal_fan(p)
            for _ in range(1000):
                v = (rng.randint(-50, 50), rng.randint(-50, 50))
                if v == (0, 0):
                    continue
                smallest_containing_cone(fan, v)  # must not raise


class TestSmoothness:
    def test_square_smooth(self, square):
        smooth, bad = is_smooth(normal_fan(square))
        assert smooth and not bad

    def test_singular_triangle_flagged(self, singular_triangle):
        smooth, bad = is_smooth(normal_fan(singular_triangle))
        assert not smooth
        assert len(bad) == 1
        fan = normal_fan(singular_triangle)
        gens = [fan.rays[i] for i in bad[0].ray_indices]
        assert set(gens) == {(-1, -1), (1, -1)}
        det = gens[0][0] * gens[1][1] - gens[0][1] * gens[1][0]
        assert abs(det) == 2

    def test_projective_plane_smooth(self):
        fan = Fan(2, ((1, 0), (0, 1), (-1, -1)),
                  (Cone((0, 1)), Cone((1, 2)), Cone((0, 2))))
        assert is_smooth(fan)[0]


def brute_force_collections(fan):
    """Oracle: test every subset for cone containment and minimality."""
    import itertools
    cone_sets = [set(c.ray_indices) for c in fan.max_cones]
    out = []
    for size in range(1, fan.ray_count + 1):
        for combo in itertools.combinations(range(fan.ray_count), size):
            s = set(combo)
            if any(s <= cs for cs in cone_sets):
                continue
            proper = all(any(set(sub) <= cs for cs in cone_sets)
                         for sub in itertools.combinations(combo, size - 1))
            if proper:
                out.append(combo)
    return sorted(out)


class TestPrimitiveCollections:
    def test_square_pairs(self, square):
        colls = primitive_collections(normal_fan(square))
        assert [c.ray_indices for c in colls] == [(0, 1), (2, 3)]

    def test_projective_plane_triple(self):
        fan = Fan(2, ((1, 0), (0, 1), (-1, -1)),
                  (Cone((0, 1)), Cone((1, 2)), Cone((0, 2))))
        assert [c.ray_indices for c in primitive_collections(fan)] == [
            (0, 1, 2)]

    def test_pentagon_five_pairs(self, pentagon):
        colls = primitive_collections(normal_fan(pentagon))
        assert [c.ray_indices for c in colls] == [
            (0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]

    def test_against_brute_force(self, square, pentagon, singular_triangle,
                                 hirzebruch_quad):
        for p in (square, pentagon, singular_triangle, hirzebruch_quad):
            fan = normal_fan(p)
            got = [c.ray_indices for c in primitive_collections(fan)]
            assert got == brute_force_collections(fan)


class TestMonomialExponents:
    def test_pentagon_interior_vertex(self, pentagon):
        assert monomial_exponents(pentagon, (1, 1)) == (2, 3, 2, 0, 0)

    def test_square_origin(self, square):
        assert monomial_exponents(square, (0, 0)) == (0, 1, 0, 1)

    def test_vertex_vanishes_on_its_facets(self, pentagon):
        for v in pentagon.vertices:
            exps = monomial_exponents(pentagon, v)
            tight = set(pentagon.tight_facets(v))
            for i, e in enumerate(exps):
                assert (e == 0) == (i in tight)

    def test_outside_point_rejected(self, square):
        with pytest.raises(PointOutsidePolytope):
            monomial_exponents(square, (2, 0))

    def test_exponent_differences_in_ray_row_space(self, pentagon):
        # differences of exponent vectors are evaluation of the ray matrix
        fan = normal_fan(pentagon)
        rays_t = IntMat.from_rows([list(r) for r in fan.rays])  # r x n
        pts = lattice_points(pentagon)
        base = monomial_exponents(pentagon, pts[0])
        for m in pts[1:]:
            diff = [a - b for a, b in zip(monomial_exponents(pentagon, m),
                                          base)]
            assert solve_integer_linear(rays_t, diff) is not None


class TestSmallestCone:
    def test_pentagon_interior_direction(self, pentagon):
        fan = normal_fan(pentagon)
        cone = smallest_containing_cone(fan, (2, 1))
        assert {fan.rays[i] for i in cone.ray_indices} == {(1, 0), (1, 1)}
        # oracle: solve the 2x2 rational system; both coefficients positive
        # (2,1) = a*(1,0) + b*(1,1)  =>  b = 1, a = 1
        assert (2, 1) == (1 * 1 + 1 * 1, 1 * 0 + 1 * 1)

    def test_ray_returns_itself(self, pentagon):
        fan = normal_fan(pentagon)
        cone = smallest_containing_cone(fan, (1, 1))
        assert cone.ray_indices == (1,)
        cone = smallest_containing_cone(fan, (3, 3))
        assert cone.ray_indices == (1,)

    def test_singular_triangle_bottom(self, singular_triangle):
        fan = normal_fan(singular_triangle)
        cone = smallest_containing_cone(fan, (0, -1))
        assert {fan.rays[i] for i in cone.ray_indices} == {(-1, -1), (1, -1)}

    def test_zero_rejected(self, square):
        with pytest.raises(ZeroVector):
            smallest_containing_cone(normal_fan(square), (0, 0))


class TestFrame:
    def test_frame_offsets_match_facets(self, pentagon):
        frame = frame_of(pentagon)
        assert frame.offsets == pentagon.offsets()
        assert frame.fan == normal_fan(pentagon)


class TestHigherDimensionalConstruction:
    def test_4d_cross_polytope_from_h_rep(self):
        # hull computation stops at dimension 3; a validated facet
        # presentation is accepted directly in any dimension
        vertices = []
        for i in range(4):
            for s in (1, -1):
                v = [0, 0, 0, 0]
                v[i] = s
                vertices.append(tuple(v))
        facets = []
        import itertools
        for signs in itertools.product((1, -1), repeat=4):
            facets.append(Facet(tuple(signs), 1))
        p = LatticePolytope(4, tuple(vertices), tuple(facets))
        assert len(lattice_points(p)) == 9  # vertices plus the origin
        fan = normal_fan(p)
        assert fan.ray_count == 16
        assert len(fan.max_cones) == 8


class TestHullAgainstQhull:
    def test_random_3d_point_sets(self):
        # independent oracle: scipy's Qhull on the same point sets; compare
        # vertex sets exactly and facets combinatorially (by tight point
        # sets, which merges Qhull's coplanar simplices)
        from scipy.spatial import ConvexHull
        rng = random.Random(60601)
        checked = 0
        while checked < 25:
            pts = sorted({(rng.randint(-4, 4), rng.randint(-4, 4),
                           rng.randint(-4, 4))
                          for _ in range(rng.randint(4, 10))})
            try:
                p = polytope_from_vertices(3, pts)
            except NotFullDimensional:
                continue
            hull = ConvexHull(pts)
            assert {pts[i] for i in hull.vertices} == set(p.vertices)
            theirs = set()
            for eq in hull.equations:
                tight = frozenset(
                    pt for pt in pts
                    if abs(eq[0] * pt[0] + eq[1] * pt[1] + eq[2] * pt[2]
                           + eq[3]) < 1e-7)
                theirs.add(tight)
            ours = set()
            for normal, offset in p.facets:
                tight = frozenset(
                    pt for pt in pts
                    if pt[0] * normal[0] + pt[1] * normal[1]
                    + pt[2] * normal[2] + offset == 0)
                ours.add(tight)
            assert theirs == ours
            checked += 1


class TestPyramid3D:
    """Square pyramid: the apex cone has four rays (non-simplicial)."""

    def _pyramid(self):
        return polytope_from_vertices(
            3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)])

    def test_facets(self):
        p = self._pyramid()
        assert len(p.facets) == 5
        offsets = {f.normal: f.offset for f in p.facets}
        assert offsets[(0, 0, 1)] == 0
        assert offsets[(-1, 0, -1)] == 2

    def test_apex_cone_flagged_singular(self):
        fan = normal_fan(self._pyramid())
        smooth, bad = is_smooth(fan)
        assert not smooth
        apex_cones = [c for c in bad if len(c.ray_indices) == 4]
        assert len(apex_cones) == 1
        rays = {fan.rays[i] for i in apex_cones[0].ray_indices}
        assert rays == {(0, 1, -1), (1, 0, -1), (-1, 0, -1), (0, -1, -1)}

    def test_cone_search_with_nonsimplicial_cone(self):
        fan = normal_fan(self._pyramid())
        interior = smallest_containing_cone(fan, (0, 0, -1))
        assert len(interior.ray_indices) == 4
        ray = smallest_containing_cone(fan, (0, 2, -2))
        assert [fan.rays[i] for i in ray.ray_indices] == [(0, 1, -1)]
        wall = smallest_containing_cone(fan, (1, 1, -2))
        assert {fan.rays[i] for i in wall.ray_indices} == {
            (0, 1, -1), (1, 0, -1)}

    def test_completeness_by_sampling(self):
        fan = normal_fan(self._pyramid())
        rng = random.Random(90210)
        for _ in range(1000):
            v = (rng.randint(-20, 20), rng.randint(-20, 20),
                 rng.randint(-20, 20))
            if v == (0, 0, 0):
                continue
            smallest_containing_cone(fan, v)


# -- property tests against the brute-force oracles ------------------------------

ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
GRID3 = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]


def by_size(collections):
    return sorted(collections, key=lambda c: (len(c), c))


def triple_scan_facets(points):
    """Oracle: every plane through three of the points that has all points
    on one side, as an inward primitive normal and offset, sorted."""
    facets = set()
    for p1, p2, p3 in itertools.combinations(points, 3):
        a = tuple(p2[i] - p1[i] for i in range(3))
        b = tuple(p3[i] - p1[i] for i in range(3))
        normal = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                  a[0] * b[1] - a[1] * b[0])
        if normal == (0, 0, 0):
            continue
        level = sum(x * y for x, y in zip(p1, normal))
        sides = {(sum(x * y for x, y in zip(p, normal)) > level)
                 - (sum(x * y for x, y in zip(p, normal)) < level)
                 for p in points}
        if 1 in sides and -1 in sides:
            continue
        if -1 in sides:
            normal = tuple(-x for x in normal)
        normal = primitive_vector(normal)
        facets.add(Facet(normal, -sum(x * y for x, y in zip(p1, normal))))
    return sorted(facets)


def _polytope_or_skip(dim, points):
    try:
        return polytope_from_vertices(dim, points)
    except NotFullDimensional:
        assume(False)


class TestKernelsAgainstOracles:
    @ORACLE_SETTINGS
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=3, max_size=8))
    def test_collections_of_resolved_polygons(self, points):
        fan = minimal_resolution(
            normal_fan(_polytope_or_skip(2, points))).fan
        assume(fan.ray_count <= 12)
        got = [c.ray_indices for c in primitive_collections(fan)]
        assert got == by_size(brute_force_collections(fan))

    @ORACLE_SETTINGS
    @given(st.sets(st.sampled_from(GRID3), min_size=4, max_size=10))
    def test_collections_of_3d_normal_fans(self, points):
        # vertex cones with four or more rays make these fans non-simplicial
        fan = normal_fan(_polytope_or_skip(3, sorted(points)))
        assume(fan.ray_count <= 10)
        got = [c.ray_indices for c in primitive_collections(fan)]
        assert got == by_size(brute_force_collections(fan))

    @ORACLE_SETTINGS
    @given(st.sets(st.sampled_from(GRID3), min_size=4, max_size=14))
    def test_hull_against_triple_scan(self, points):
        points = sorted(points)
        p = _polytope_or_skip(3, points)
        expected = triple_scan_facets(points)
        assert _facets_from_points(3, points) == expected
        assert list(p.facets) == expected
        assert _facets_from_points(3, list(p.vertices)) == expected

    def test_hull_of_shuffled_input(self):
        rng = random.Random(5150)
        points = [(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
                  for _ in range(30)]
        expected = triple_scan_facets(points)
        for _ in range(5):
            rng.shuffle(points)
            assert _facets_from_points(3, points) == expected

    def test_collections_of_40_ray_polygon_are_nonadjacent_pairs(self):
        # a 2^40 subset scan could not finish; minimal non-faces of a smooth
        # complete 2-D fan are exactly its pairs of non-adjacent rays
        p = polytope_from_vertices(2, [(0, 0), (5, 1), (1, 22)])
        fan = minimal_resolution(normal_fan(p)).fan
        assert fan.ray_count == 40
        order = sorted(range(40), key=lambda i: math.atan2(fan.rays[i][1],
                                                           fan.rays[i][0]))
        adjacent = {frozenset((order[k], order[(k + 1) % 40]))
                    for k in range(40)}
        expected = [pair for pair in itertools.combinations(range(40), 2)
                    if frozenset(pair) not in adjacent]
        got = [c.ray_indices for c in primitive_collections(fan)]
        assert got == expected
        assert len(got) == 40 * 37 // 2


class TestStrictIntegers:
    @pytest.mark.parametrize("path, bad", [
        (("facets", 1, "offset"), 0.7),
        (("facets", 1, "offset"), 1.0),
        (("facets", 1, "offset"), "1"),
        (("facets", 0, "normal", 0), True),
        (("vertices", 2, 1), 1.5),
        (("dim",), True),
        (("dim",), 2.0),
    ])
    def test_from_json_rejects_non_int(self, square, path, bad):
        data = square.to_json()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        with pytest.raises(NonIntegerInput):
            LatticePolytope.from_json(data)
        data.pop("facets")
        if path[0] != "facets":
            with pytest.raises(ValueError):   # NonIntegerInput is one
                LatticePolytope.from_json(data)

    def test_constructor_rejects_non_int(self):
        with pytest.raises(NonIntegerInput):
            LatticePolytope(2, ((0, 0), (1, 0), (0, 1.0)),
                            (Facet((1, 0), 0), Facet((0, 1), 0),
                             Facet((-1, -1), 1)))
        with pytest.raises(NonIntegerInput):
            LatticePolytope(2, ((0, 0), (1, 0), (0, 1)),
                            (Facet((1, 0), 0), Facet((0, 1), False),
                             Facet((-1, -1), 1)))

    def test_hull_rejects_non_int(self):
        with pytest.raises(NonIntegerInput):
            polytope_from_vertices(2, [(0, 0), (1, 0), (0, 0.5)])
        with pytest.raises(NonIntegerInput):
            polytope_from_vertices(True, [(0,), (1,)])

    def test_geometry_layer_rejects_non_int(self, square):
        # each of these used to truncate or coerce silently
        frame = frame_of(square)
        for m in ((0.9, 0), (True, 0)):
            with pytest.raises(NonIntegerInput):
                frame.monomial_exponents(m)
        with pytest.raises(NonIntegerInput):
            smallest_containing_cone(frame.fan, (0.5, 1.2))
        with pytest.raises(NonIntegerInput):
            Fan(2, ((1.9, 0), (0, 1), (-1, -1)),
                (Cone((0, 1)), Cone((1, 2)), Cone((0, 2))))
        with pytest.raises(NonIntegerInput):
            Frame(square, frame.fan, (0, 0.5, 0, 1))
        with pytest.raises(NonIntegerInput):
            Cone((0.7, 1))
        # the integer forms still answer
        assert frame.monomial_exponents((1, 0)) == (1, 0, 0, 1)
        assert smallest_containing_cone(frame.fan, (1, 2)) == Cone((0, 2))


def box_scan_points(p):
    """Oracle: every point of the vertices' bounding box that the facets
    keep, in lexicographic order."""
    lows = [min(v[i] for v in p.vertices) for i in range(p.dim)]
    highs = [max(v[i] for v in p.vertices) for i in range(p.dim)]
    return tuple(m for m in itertools.product(
        *(range(lo, hi + 1) for lo, hi in zip(lows, highs))) if p.contains(m))


class TestLatticePointsAgainstBoxScan:
    @ORACLE_SETTINGS
    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                    min_size=3, max_size=8))
    def test_random_polygons(self, points):
        p = _polytope_or_skip(2, points)
        assert lattice_points(p) == box_scan_points(p)

    @ORACLE_SETTINGS
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                              st.integers(-3, 3)), min_size=4, max_size=10))
    def test_random_3d_polytopes(self, points):
        p = _polytope_or_skip(3, points)
        assert lattice_points(p) == box_scan_points(p)

    def test_segment_and_caller_labelled_square(self, square):
        segment = polytope_from_vertices(1, [(-2,), (5,)])
        assert lattice_points(segment) == tuple((x,) for x in range(-2, 6))
        assert lattice_points(square) == box_scan_points(square)

    def test_thin_triangle(self):
        # the box scan visited 2001 x 2002 points for these 1003 (12 s);
        # by Pick, 1000.5 = I + 3/2 - 1 gives I = 1000 inner points
        p = polytope_from_vertices(2, [(0, 0), (1, 0), (2000, 2001)])
        start = time.perf_counter()
        pts = lattice_points(p)
        assert time.perf_counter() - start < 0.5
        assert len(pts) == 1003 and list(pts) == sorted(pts)
        assert all(p.contains(m) for m in pts)
        small = polytope_from_vertices(2, [(0, 0), (1, 0), (60, 61)])
        assert lattice_points(small) == box_scan_points(small)
