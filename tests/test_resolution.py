import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from toriparam.errors import NotARefinement, UnsupportedDimension
from toriparam.linalg import primitive_vector
from toriparam.polytope import (Cone, Fan, is_smooth, lattice_points,
                                normal_fan, polytope_from_vertices,
                                primitive_collections)
from toriparam.resolution import (ResolvedFan, minimal_resolution,
                                  resolved_frame,
                                  resolved_monomial_exponents,
                                  virtual_facets)
from toriparam.subtorus import (character_kernel, format_subgroup,
                                offset_character, scaling_group,
                                subgroups_equal, SubtorusDescription)
from toriparam.linalg import IntMat

from conftest import SINGTRI_RESOLVED_ORDER


def det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def hull_boundary_oracle(u, w, box):
    """Independent route: enumerate cone points in a box, take the hull,
    and read the lattice points off the near-origin path from u to w."""
    if det2(u, w) < 0:
        u, w = w, u
    d = det2(u, w)
    pts = []
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if (x, y) == (0, 0):
                continue
            if det2((x, y), w) >= 0 and det2(u, (x, y)) >= 0:
                pts.append((x, y))
    hull = _hull(pts)
    iu, iw = hull.index(u), hull.index(w)
    # walk both arcs; keep the one staying inside the fundamental region
    arcs = []
    n = len(hull)
    for step in (1, -1):
        arc = [u]
        k = iu
        while k != iw:
            k = (k + step) % n
            arc.append(hull[k])
        arcs.append(arc)

    def inside(p):
        return 0 <= det2(p, w) <= d and 0 <= det2(u, p) <= d

    good = [arc for arc in arcs if all(inside(p) for p in arc[1:-1])]
    arc = min(good, key=len)
    points = []
    for a, b in zip(arc, arc[1:]):
        steps = math.gcd(abs(b[0] - a[0]), abs(b[1] - a[1]))
        for t in range(steps):
            points.append((a[0] + (b[0] - a[0]) * t // steps,
                           a[1] + (b[1] - a[1]) * t // steps))
    points.append(w)
    return points


def _hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return ((a[0] - o[0]) * (b[1] - o[1])
                - (a[1] - o[1]) * (b[0] - o[0]))

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def complete_fan_through(u, w):
    """A complete fan with cone(u, w) as one maximal cone."""
    if det2(u, w) < 0:
        u, w = w, u
    opposite = (-u[0] - w[0], -u[1] - w[1])
    if opposite == (0, 0):
        raise ValueError("degenerate")
    z = primitive_vector(opposite)
    if det2(w, z) <= 0 or det2(z, u) <= 0:
        raise ValueError("third ray does not complete the fan")
    return Fan(2, (u, w, z), (Cone((0, 1)), Cone((1, 2)), Cone((2, 0))))


def boundary_points(u, w):
    """Oracle: lattice points on the compact hull boundary of cone(u, w),
    det(u, w) > 0, from u to w, as the additively irreducible points of the
    fundamental parallelogram {su + tw : 0 <= s, t <= 1}."""
    d = det2(u, w)
    corners = [(0, 0), u, w, (u[0] + w[0], u[1] + w[1])]
    candidates = []
    for x in range(min(c[0] for c in corners), max(c[0] for c in corners) + 1):
        for y in range(min(c[1] for c in corners),
                       max(c[1] for c in corners) + 1):
            if (x, y) != (0, 0) and 0 <= det2((x, y), w) <= d \
                    and 0 <= det2(u, (x, y)) <= d:
                candidates.append((x, y))
    cset = set(candidates)
    irreducible = [p for p in candidates
                   if not any((p[0] - a[0], p[1] - a[1]) in cset
                              for a in candidates if a != p)]
    # directions inside a strongly convex cone are ordered by how far they
    # turn from u
    return sorted(irreducible, key=lambda p: Fraction(det2(u, p),
                                                      det2(p, w) + det2(u, p)))


def resolution_by_boundary_points(fan):
    """Oracle: the minimal resolution built cone by cone from
    ``boundary_points``, numbering and recording new rays as
    ``minimal_resolution`` does."""
    rays = list(fan.rays)
    index = {r: k for k, r in enumerate(rays)}
    cones, origins = [], []
    for cone in fan.max_cones:
        i, j = cone.ray_indices
        u, w = fan.rays[i], fan.rays[j]
        if det2(u, w) < 0:
            i, j, u, w = j, i, w, u
        if det2(u, w) == 1:
            cones.append(cone)
            continue
        path = boundary_points(u, w)
        assert path[0] == u and path[-1] == w
        for p in path[1:-1]:
            if p not in index:
                index[p] = len(rays)
                rays.append(p)
                origins.append(Cone((i, j)))
        cones.extend(Cone((index[a], index[b]))
                     for a, b in zip(path, path[1:]))
    return ResolvedFan(Fan(2, tuple(rays), tuple(cones)), fan.ray_count,
                       tuple(origins))


PRIMITIVE_2D = st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(
    lambda v: v != (0, 0)).map(primitive_vector)


class TestMinimalResolution:
    def test_singular_triangle_adds_one_ray(self, singular_triangle):
        rf = minimal_resolution(normal_fan(singular_triangle))
        assert rf.added_rays == ((0, -1),)
        assert rf.origins == (Cone((1, 2)),)
        assert is_smooth(rf.fan)[0]

    def test_smooth_fan_unchanged(self, square):
        fan = normal_fan(square)
        rf = minimal_resolution(fan)
        assert rf.added_rays == ()
        assert rf.fan == fan

    def test_against_hull_oracle(self):
        for k in (2, 3, 4, 5, 7):
            u, w = (0, 1), (k, -1)
            fan = complete_fan_through(u, w)
            rf = minimal_resolution(fan)
            inserted = [r for r, orig in zip(rf.added_rays, rf.origins)
                        if orig == Cone((0, 1))]
            expected = hull_boundary_oracle(u, w, box=k + 1)
            assert [w, *reversed(inserted), u] == expected or \
                [u, *inserted, w] == expected

    def test_random_cones_against_oracle(self):
        rng = random.Random(424242)
        tested = 0
        while tested < 40:
            u = (rng.randint(-5, 5), rng.randint(-5, 5))
            w = (rng.randint(-5, 5), rng.randint(-5, 5))
            if u == (0, 0) or w == (0, 0):
                continue
            u, w = primitive_vector(u), primitive_vector(w)
            if abs(det2(u, w)) <= 1:
                continue
            try:
                fan = complete_fan_through(u, w)
            except ValueError:
                continue
            if det2(u, w) < 0:
                u, w = w, u
            rf = minimal_resolution(fan)
            inserted = [r for r, orig in zip(rf.added_rays, rf.origins)
                        if orig == Cone((0, 1))]
            bound = 2 * max(abs(c) for v in (u, w) for c in v) + 2
            expected = hull_boundary_oracle(u, w, box=bound)
            assert [u, *inserted, w] == expected, (u, w)
            tested += 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(PRIMITIVE_2D, PRIMITIVE_2D)
    def test_walk_against_boundary_points(self, u, w):
        assume(1 < abs(det2(u, w)) <= 300)
        try:
            fan = complete_fan_through(u, w)
        except ValueError:
            assume(False)
        assert minimal_resolution(fan) == resolution_by_boundary_points(fan)

    def test_largest_determinants(self):
        # det(u, w) = 300 adds 299 rays to cone(u, w); det 299 adds 149
        for u, w in (((1, 0), (1, 300)), ((1, 0), (150, 299))):
            fan = complete_fan_through(u, w)
            assert minimal_resolution(fan) == \
                resolution_by_boundary_points(fan)

    def test_collinear_cone_rejected(self):
        # det(u, w) = 0: the walk has nothing to subdivide, and passing the
        # cone through would call it smooth
        fan = Fan(2, ((1, 0), (-1, 0), (0, 1), (0, -1)),
                  (Cone((0, 1)), Cone((0, 2)), Cone((1, 2)), Cone((1, 3)),
                   Cone((0, 3))))
        with pytest.raises(ValueError, match="not two-dimensional"):
            minimal_resolution(fan)

    def test_dimension_guard(self):
        cube = polytope_from_vertices(
            3, [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        with pytest.raises(UnsupportedDimension):
            minimal_resolution(normal_fan(cube))

    def test_minimality_and_refinement(self, singular_triangle):
        fan = normal_fan(singular_triangle)
        rf = minimal_resolution(fan)
        # refinement: each resolved cone sits inside an original cone
        for cone in rf.fan.max_cones:
            gens = [rf.fan.rays[i] for i in cone.ray_indices]
            assert any(
                all(det2(fan.rays[c.ray_indices[0]], g) >= 0
                    and det2(g, fan.rays[c.ray_indices[1]]) >= 0
                    or det2(fan.rays[c.ray_indices[1]], g) >= 0
                    and det2(g, fan.rays[c.ray_indices[0]]) >= 0
                    for g in gens)
                for c in fan.max_cones)
        # minimality: merging across any added ray is singular again
        for ai, _ray in enumerate(rf.added_rays):
            ridx = rf.original_ray_count + ai
            adjacent = [c for c in rf.fan.max_cones if ridx in c.ray_indices]
            assert len(adjacent) == 2
            outer = sorted(set(i for c in adjacent for i in c.ray_indices)
                           - {ridx})
            g1, g2 = rf.fan.rays[outer[0]], rf.fan.rays[outer[1]]
            assert abs(det2(g1, g2)) > 1


class TestVirtualFacets:
    def test_triangle_offsets(self, singular_triangle):
        rf = minimal_resolution(normal_fan(singular_triangle))
        facets = virtual_facets(singular_triangle, rf)
        assert [vf.offset for vf in facets] == [0, 1, 1, 1]
        added = facets[3]
        assert added.normal == (0, -1)
        # support value: min over vertices of <v, (0,-1)> is -1 at (0,1)
        assert added.face_vertices == ((0, 1),)

    def test_smooth_polytope_keeps_offsets(self, square):
        rf = minimal_resolution(normal_fan(square))
        facets = virtual_facets(square, rf)
        assert [vf.offset for vf in facets] == list(square.offsets())

    def test_nonnegative_on_all_points(self, singular_triangle):
        rf = minimal_resolution(normal_fan(singular_triangle))
        facets = virtual_facets(singular_triangle, rf)
        for m in lattice_points(singular_triangle):
            for vf in facets:
                value = sum(a * b for a, b in zip(m, vf.normal)) + vf.offset
                assert value >= 0
        for vf in facets[rf.original_ray_count:]:
            minimum = min(sum(a * b for a, b in zip(v, vf.normal))
                          + vf.offset
                          for v in singular_triangle.vertices)
            assert minimum == 0

    def test_refinement_checked(self, square, singular_triangle):
        rf = minimal_resolution(normal_fan(singular_triangle))
        with pytest.raises(NotARefinement):
            virtual_facets(square, rf)


class TestResolvedMonomials:
    def test_triangle_table(self, singular_triangle):
        rf = minimal_resolution(normal_fan(singular_triangle))
        label = SINGTRI_RESOLVED_ORDER

        def relabeled(m):
            ours = resolved_monomial_exponents(singular_triangle, rf, m)
            return tuple(ours[label[i]] for i in range(4))

        assert relabeled((0, 1)) == (1, 0, 0, 0)      # x1
        assert relabeled((-1, 0)) == (0, 2, 1, 0)     # x2^2*x3
        assert relabeled((1, 0)) == (0, 0, 1, 2)      # x3*x4^2
        assert relabeled((0, 0)) == (0, 1, 1, 1)      # x2*x3*x4

    def test_resolved_collections(self, singular_triangle):
        rf = minimal_resolution(normal_fan(singular_triangle))
        colls = [c.ray_indices for c in primitive_collections(rf.fan)]
        # {x1, x3} and {x2, x4} under the added-ray-third labeling
        assert colls == [(0, 3), (1, 2)]
        rays = rf.fan.rays
        assert {rays[0], rays[3]} == {(0, 1), (0, -1)}
        assert {rays[1], rays[2]} == {(-1, -1), (1, -1)}


class TestResolvedGroup:
    def test_scaling_group_of_resolved_fan(self, singular_triangle):
        rf = minimal_resolution(normal_fan(singular_triangle))
        g = scaling_group(rf.fan)
        assert g.params == 2
        # (mu2^2*mu3, mu2, mu3, mu2) in the added-ray-third labeling; our
        # order swaps the last two coordinates
        expected = SubtorusDescription(
            4, IntMat.from_cols([(2, 1, 1, 0), (1, 0, 0, 1)], 4))
        assert subgroups_equal(g, expected)
        rays = rf.fan.ray_matrix()
        for j in range(g.params):
            assert all(x == 0
                       for x in rays.mul_vec(g.exponent_matrix.col(j)))

    def test_offset_kernel(self, singular_triangle):
        rf = minimal_resolution(normal_fan(singular_triangle))
        frame = resolved_frame(singular_triangle, rf)
        g = scaling_group(rf.fan)
        kernel = character_kernel(g, offset_character(frame, g))
        assert format_subgroup(kernel) == "(1, λ, λ, λ^-2)"

    def test_smooth_case_matches_plain_kernel(self, square):
        rf = minimal_resolution(normal_fan(square))
        frame = resolved_frame(square, rf)
        g_res = scaling_group(rf.fan)
        g_plain = scaling_group(normal_fan(square))
        k_res = character_kernel(g_res, offset_character(frame, g_res))
        k_plain = character_kernel(g_plain, offset_character(square, g_plain))
        assert subgroups_equal(k_res, k_plain)
