"""The per-cone order search of ``decomposition`` against the box search it
replaced, and the resolved frames that the box search refused.

The oracle below is the former enumerator: every nonnegative solution of
E.x = mu in [0, max mu]^active, found by bounding the kernel coefficients
through an invertible kernel submatrix and its adjugate, with a region cap
of 200 000 points.  A support outside every cone always fails the
primitive-coprime check, so the per-cone search must return exactly the
oracle's solutions whose support lies in one cone.
"""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from toriparam.cli import main
from toriparam.decomposition import _cone_solutions, decompose_univariate
from toriparam.errors import InternalError
from toriparam.linalg import IntMat, determinant, solve_integer_linear
from toriparam.parametrization import (ParamTuple, compose_system,
                                       full_monomial_system,
                                       subset_monomial_system)
from toriparam.polynomials import parse, render
from toriparam.polytope import (frame_of, lattice_points, normal_fan,
                                polytope_from_vertices)
from toriparam.resolution import minimal_resolution, resolved_frame

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
ORACLE_REGION = 20_000


# -- oracle ------------------------------------------------------------------

def oracle_solutions(exp_matrix, rhs):
    """All nonnegative solutions with entries at most max(rhs), or None when
    the box search refuses the region."""
    solved = solve_integer_linear(exp_matrix, list(rhs))
    if solved is None:
        return []
    particular, kernel = solved
    bound = max(rhs) if rhs else 0
    ranges = oracle_ranges(particular, kernel, bound)
    if ranges is None:
        return None
    out = []
    for coeffs in itertools.product(*ranges):
        cand = list(particular)
        for c, k in zip(coeffs, range(kernel.cols)):
            if c:
                col = kernel.col(k)
                cand = [x + c * y for x, y in zip(cand, col)]
        if all(0 <= x <= bound for x in cand):
            out.append(tuple(cand))
    out.sort()
    return out


def oracle_ranges(particular, kernel, bound):
    k = kernel.cols
    if k == 0:
        return []
    rows = None
    for combo in itertools.combinations(range(kernel.rows), k):
        sub = IntMat.from_rows([[kernel.at(i, j) for j in range(k)]
                                for i in combo])
        det = determinant(sub)
        if det != 0:
            rows = combo
            break
    if rows is None:
        raise InternalError("kernel basis without full column rank")
    adj = oracle_adjugate(sub)
    ranges = []
    total_size = 1
    for i in range(k):
        reach = 0
        for pos, row in enumerate(rows):
            lo = -particular[row]
            hi = bound - particular[row]
            a = adj[i][pos]
            reach += max(abs(a * lo), abs(a * hi))
        radius = reach // abs(det) + 1
        ranges.append(range(-radius, radius + 1))
        total_size *= 2 * radius + 1
        if total_size > ORACLE_REGION:
            return None
    return ranges


def oracle_adjugate(m):
    n = m.rows
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = IntMat.from_rows(
                [[m.at(r, c) for c in range(n) if c != j]
                 for r in range(n) if r != i])
            out[j][i] = (-1) ** (i + j) * determinant(minor)
    return out


# -- generators ---------------------------------------------------------------

def _full_dimensional(dim, pts):
    base = pts[0]
    diffs = [[p[i] - base[i] for i in range(dim)] for p in pts[1:]]
    return bool(diffs) and any(
        determinant(IntMat.from_rows(list(rows))) != 0
        for rows in itertools.combinations(diffs, dim))


@st.composite
def resolved_polygon_frames(draw):
    pts = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                        min_size=3, max_size=6, unique=True))
    if not _full_dimensional(2, pts):
        pts = [(0, 0), (1, 0), (0, 1)] + pts
    p = polytope_from_vertices(2, pts)
    frame = resolved_frame(p, minimal_resolution(normal_fan(p)))
    if frame.ray_count > 12:
        p = polytope_from_vertices(2, [(0, 0), (3, 1), (1, 3)])
        frame = resolved_frame(p, minimal_resolution(normal_fan(p)))
    return frame


# The octahedron and the square pyramid have non-simplicial normal fans.
SOLIDS = ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
           (0, 0, -1)],
          [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)],
          [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])


@st.composite
def solid_frames(draw):
    if draw(st.booleans()):
        pts = draw(st.sampled_from(SOLIDS))
    else:
        grid = [(x, y, z) for x in range(3) for y in range(3)
                for z in range(3)]
        pts = draw(st.lists(st.sampled_from(grid), min_size=4, max_size=8,
                            unique=True))
        if not _full_dimensional(3, pts):
            pts = SOLIDS[2]
    return frame_of(polytope_from_vertices(3, pts))


@st.composite
def search_cases(draw, frames):
    frame = draw(frames)
    pts = lattice_points(frame.polytope)
    if draw(st.booleans()):
        system = full_monomial_system(frame)
    else:
        chosen = draw(st.lists(st.sampled_from(pts), min_size=1,
                               max_size=len(pts), unique=True))
        system = subset_monomial_system(frame, sorted(chosen))
    r = frame.ray_count
    active = list(range(r))
    if draw(st.booleans()):
        dropped = draw(st.sets(st.sampled_from(active), max_size=r - 1))
        active = [i for i in active if i not in dropped]
    rows = [[e[i] for i in active] for _, e in system.exponent_rows()]
    exp_matrix = IntMat.from_rows(rows)
    if draw(st.booleans()):
        # the multiplicities of a factor with these orders
        orders = draw(st.lists(st.integers(0, 3), min_size=len(active),
                               max_size=len(active)))
        rhs = exp_matrix.mul_vec(orders)
    else:
        rhs = draw(st.lists(st.integers(0, 4), min_size=len(rows),
                            max_size=len(rows)))
    if max(rhs) == 0:
        rhs = [1] + list(rhs[1:])
    return frame.fan, active, exp_matrix, list(rhs)


def _in_a_cone(candidate, active, fan):
    support = {active[pos] for pos, x in enumerate(candidate) if x}
    return any(support <= set(c.ray_indices) for c in fan.max_cones)


def _check_against_oracle(case):
    fan, active, exp_matrix, rhs = case
    expected = oracle_solutions(exp_matrix, rhs)
    if expected is None:
        return
    expected = [c for c in expected if _in_a_cone(c, active, fan)]
    assert _cone_solutions(exp_matrix, rhs, fan, active) == expected


class TestAgainstBoxSearch:
    @SETTINGS
    @given(search_cases(resolved_polygon_frames()))
    def test_resolved_polygons(self, case):
        _check_against_oracle(case)

    @SETTINGS
    @given(search_cases(solid_frames()))
    def test_solids(self, case):
        _check_against_oracle(case)

    def test_non_simplicial_octahedron_fan(self):
        # each maximal cone has four rays, so solutions inside one cone are
        # not unique; compare with a brute force over every cone's box
        frame = frame_of(polytope_from_vertices(3, SOLIDS[0]))
        fan = frame.fan
        assert all(len(c.ray_indices) == 4 for c in fan.max_cones)
        exp_matrix = IntMat.from_rows(
            [list(e) for _, e in full_monomial_system(frame).exponent_rows()])
        active = list(range(frame.ray_count))
        cone = fan.max_cones[0].ray_indices
        orders = tuple(1 if i in cone else 0 for i in active)
        rhs = list(exp_matrix.mul_vec(orders))
        expected = set()
        for c in fan.max_cones:
            for xs in itertools.product(range(max(rhs) + 1),
                                        repeat=len(c.ray_indices)):
                x = [0] * len(active)
                for i, v in zip(c.ray_indices, xs):
                    x[i] = v
                if list(exp_matrix.mul_vec(x)) == rhs:
                    expected.add(tuple(x))
        found = _cone_solutions(exp_matrix, rhs, fan, active)
        assert orders in found and len(found) > 1
        assert found == sorted(expected)


# -- frames the box search refused ---------------------------------------------

LARGE_TRIANGLES = [((0, 0), (3, 1), (1, 3)), ((0, 0), (2, 1), (1, 3)),
                   ((0, 0), (3, 1), (1, 2)), ((0, 0), (5, 1), (1, 4))]
ENTRY_POOL = ["u + 1", "u - 1", "u + 2", "u - 2", "u + 3", "u - 3", "u",
              "u^2 + 1", "u + 4", "u - 4", "u^2 + 2", "u + 5", "u - 5",
              "u + 6", "u - 6", "u^2 + 3", "u + 7"]


def _resolved(vertices):
    p = polytope_from_vertices(2, vertices)
    return resolved_frame(p, minimal_resolution(normal_fan(p)))


class TestLargeResolvedFrames:
    @pytest.mark.parametrize("vertices", LARGE_TRIANGLES)
    def test_decompose_and_recompose(self, vertices):
        frame = _resolved(vertices)
        assert frame.ray_count in (11, 17)
        system = full_monomial_system(frame)
        # every third entry is a constant; the others are distinct factors,
        # so the tuple is primitive-coprime
        entries = tuple(parse("3" if i % 3 == 0 else ENTRY_POOL[i], 1, "y")
                        for i in range(frame.ray_count))
        target = compose_system(system, ParamTuple(1, entries)) \
            .raw_components()
        result = decompose_univariate(target, system, frame.fan)
        raw = compose_system(system, result.f).raw_components()
        assert all(r.scale(result.scalar) * result.content == t
                   for r, t in zip(raw, target))
        assert result.content.is_constant()

    def test_cli_decompose_11_rays(self, tmp_path, capsys):
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({"dim": 2,
                                    "vertices": [[0, 0], [3, 1], [1, 3]]}))
        frame = _resolved(LARGE_TRIANGLES[0])
        entries = tuple(parse("1" if i % 2 else ENTRY_POOL[i], 1, "y")
                        for i in range(frame.ray_count))
        target = compose_system(full_monomial_system(frame),
                                ParamTuple(1, entries)).raw_components()
        text = "(" + ", ".join(render(t, "y") for t in target) + ")"
        code = main(["decompose", str(path), "--resolved", "--system",
                     "delta", "--target", text, "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0 and data["decomposed"] is True
