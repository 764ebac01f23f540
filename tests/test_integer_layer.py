"""The integer layer's fast paths against the transform-based versions they
replaced, and a guard that the geometry pipeline stays off the transform.

The oracles below are the column Hermite form with a unimodular transform
and the ``rank``, ``column_lattice_canonical``, ``saturated_kernel_basis``
and ``solve_integer_linear`` that were built on it.  The library now runs
the elimination without a transform wherever a caller needs none, counts
rank by fraction-free row elimination, and takes the rescaling group's free
part as one saturated kernel; every output must stay identical.
"""

import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from toriparam import linalg
from toriparam.errors import DimensionMismatch, NotFullDimensional
from toriparam.linalg import (IntMat, column_lattice_canonical,
                              hermite_normal_form, rank,
                              saturated_kernel_basis, solve_integer_linear)
from toriparam.polytope import (LatticePolytope, frame_of, is_smooth,
                                normal_fan, polytope_from_vertices,
                                primitive_collections)
from toriparam.resolution import minimal_resolution, resolved_frame
from toriparam.subtorus import (character_kernel, offset_character,
                                rescaling_group, scaling_group)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# -- oracles: the transform-based versions ------------------------------------


def _egcd(a, b):
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def oracle_hnf(m):
    """Column HNF with its transform, by row-wise column operations."""
    h = m.to_rows()
    ncols = m.cols
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_combine(a, b, coeffs):
        p, q, r, s = coeffs
        for rowset in (h, u):
            for row in rowset:
                ca, cb = row[a], row[b]
                row[a] = p * ca + q * cb
                row[b] = r * ca + s * cb

    pc = 0
    for i in range(m.rows):
        if pc >= ncols:
            break
        for j in range(pc + 1, ncols):
            if h[i][j] == 0:
                continue
            a, b = h[i][pc], h[i][j]
            g, x, y = _egcd(a, b)
            col_combine(pc, j, (x, y, -(b // g), a // g))
        if h[i][pc] == 0:
            continue
        if h[i][pc] < 0:
            for rowset in (h, u):
                for row in rowset:
                    row[pc] = -row[pc]
        piv = h[i][pc]
        for j in range(pc):
            q = h[i][j] // piv
            if q:
                for rowset in (h, u):
                    for row in rowset:
                        row[j] -= q * row[pc]
        pc += 1
    return IntMat.from_rows(h), IntMat.from_rows(u)


def _oracle_kernel_columns(h, u):
    return [u.col(j) for j in range(h.cols)
            if all(h.at(i, j) == 0 for i in range(h.rows))]


def oracle_rank(m):
    h = oracle_hnf(m)[0]
    return sum(1 for j in range(h.cols)
               if any(h.at(i, j) != 0 for i in range(h.rows)))


def oracle_canonical(m):
    if m.cols == 0:
        return m
    h = oracle_hnf(m)[0]
    keep = [j for j in range(h.cols)
            if any(h.at(i, j) != 0 for i in range(h.rows))]
    return IntMat.from_cols([h.col(j) for j in keep], m.rows)


def oracle_kernel(m):
    raw = IntMat.from_cols(_oracle_kernel_columns(*oracle_hnf(m)), m.cols)
    return oracle_canonical(raw) if raw.cols else raw


def oracle_solve(a, b):
    h, u = oracle_hnf(a)
    y = [0] * a.cols
    col = 0
    for i in range(a.rows):
        if col < a.cols and h.at(i, col) != 0:
            residual = b[i] - sum(h.at(i, j) * y[j] for j in range(col))
            piv = h.at(i, col)
            if residual % piv != 0:
                return None
            y[col] = residual // piv
            col += 1
        elif sum(h.at(i, j) * y[j] for j in range(col)) != b[i]:
            return None
    kernel = IntMat.from_cols(_oracle_kernel_columns(h, u), a.cols)
    return u.mul_vec(y), oracle_canonical(kernel)


def outcome(fn, *args):
    """The result, or the type of the error raised, so that both sides can
    be compared on shapes that neither accepts."""
    try:
        return fn(*args)
    except DimensionMismatch as exc:
        return type(exc)


MATRICES = st.integers(1, 6).flatmap(lambda r: st.integers(0, 8).flatmap(
    lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                       min_size=r, max_size=r))).map(IntMat.from_rows)


class TestAgainstTransformOracles:
    @SETTINGS
    @given(MATRICES)
    def test_rank(self, m):
        if m.cols == 0:
            # the oracle's transform has no rows there, so it raised
            assert rank(m) == 0
        else:
            assert rank(m) == oracle_rank(m)

    @SETTINGS
    @given(MATRICES)
    def test_column_lattice_canonical(self, m):
        assert column_lattice_canonical(m) == oracle_canonical(m)

    @SETTINGS
    @given(MATRICES)
    def test_hermite_normal_form(self, m):
        assert outcome(hermite_normal_form, m) == outcome(
            lambda x: linalg.HermiteResult(*oracle_hnf(x)), m)

    @SETTINGS
    @given(MATRICES)
    def test_saturated_kernel_basis(self, m):
        assert outcome(saturated_kernel_basis, m) == outcome(oracle_kernel, m)

    @SETTINGS
    @given(MATRICES, st.data())
    def test_solve_integer_linear(self, m, data):
        x = data.draw(st.lists(st.integers(-3, 3), min_size=m.cols,
                               max_size=m.cols))
        free = data.draw(st.lists(st.integers(-9, 9), min_size=m.rows,
                                  max_size=m.rows))
        for b in (m.mul_vec(x), free):
            assert outcome(solve_integer_linear, m, b) == outcome(
                oracle_solve, m, b)

    def test_zero_rows_are_refused_before_the_integer_layer(self):
        # no 0-row matrix can be built, so no entry point above ever sees one
        for build in (lambda: IntMat.from_rows([]), lambda: IntMat(0, 3, ()),
                      lambda: IntMat.from_cols([], 0),
                      lambda: IntMat.from_cols([(), ()], 0)):
            with pytest.raises(DimensionMismatch):
                build()

    def test_rank_of_large_entries(self):
        # fraction-free division stays exact far past machine words
        big = 10 ** 30
        m = IntMat.from_rows([[big, 1, 3], [2 * big, 2, 6], [7, big, 1],
                              [big + 7, big + 1, 4]])
        assert rank(m) == oracle_rank(m) == 2


# -- the rescaling group over the fan's shared kernel ------------------------------


def _same_as_character_kernel(frame):
    g = scaling_group(frame.fan)
    expected = character_kernel(g, offset_character(frame, g))
    got = rescaling_group(frame)
    assert got == expected
    return got


def _polytope_or_skip(dim, points):
    try:
        return polytope_from_vertices(dim, points)
    except NotFullDimensional:
        assume(False)


POLYGONS = st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                    min_size=3, max_size=8)
GRID3 = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]


class TestRescalingGroup:
    @SETTINGS
    @given(POLYGONS)
    def test_polygons(self, points):
        _same_as_character_kernel(frame_of(_polytope_or_skip(2, points)))

    @SETTINGS
    @given(POLYGONS)
    def test_resolved_frames(self, points):
        p = _polytope_or_skip(2, points)
        rf = minimal_resolution(normal_fan(p))
        assume(rf.fan.ray_count <= 17)
        _same_as_character_kernel(resolved_frame(p, rf))

    @SETTINGS
    @given(st.sets(st.sampled_from(GRID3), min_size=4, max_size=14))
    def test_3d_normal_fans(self, points):
        _same_as_character_kernel(frame_of(_polytope_or_skip(3, sorted(points))))

    @pytest.mark.parametrize("vertices", [
        [(0, 0), (2, 0), (0, 2)],             # free part empty, order 2
        [(0, 0), (4, 1), (0, 3)],             # 10 resolved rays
        [(0, 0), (5, 1), (1, 4)],             # 17 resolved rays
    ])
    def test_torsion_and_large_frames(self, vertices):
        p = polytope_from_vertices(2, vertices)
        got = _same_as_character_kernel(frame_of(p))
        rf = minimal_resolution(normal_fan(p))
        _same_as_character_kernel(resolved_frame(p, rf))
        if vertices[1] == (2, 0):
            assert got.params == 0
            assert [t.order for t in got.torsion] == [2]


# -- guard: the geometry pipeline stays off the transform ---------------------------


def _patch_everywhere(monkeypatch, fn, replacement):
    """Put replacement in place of fn in every toriparam namespace that holds
    it, as the tracer does (``from .x import f`` copies included)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "toriparam"
                                  or name.startswith("toriparam.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, replacement)


def _count_transform_builds(monkeypatch):
    """Record every unimodular transform the integer layer builds: each
    ``hermite_normal_form`` call, and each call of the private elimination
    ``linalg._column_hnf`` that is given a transform outside of one."""
    builds = []
    inside_hnf = []
    hnf, column_hnf = linalg.hermite_normal_form, linalg._column_hnf

    def counted_hnf(*args, **kwargs):
        builds.append("hermite_normal_form")
        inside_hnf.append(True)
        try:
            return hnf(*args, **kwargs)
        finally:
            inside_hnf.pop()

    def counted_column_hnf(h, nrows, u=None):
        if u is not None and not inside_hnf:
            builds.append("_column_hnf")
        return column_hnf(h, nrows, u)

    _patch_everywhere(monkeypatch, hnf, counted_hnf)
    _patch_everywhere(monkeypatch, column_hnf, counted_column_hnf)
    return builds


def test_transform_count_sees_every_path():
    # each public entry point that needs a transform is counted once, and
    # the ones that need none are not counted at all
    m = IntMat.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.MonkeyPatch.context() as mp:
        builds = _count_transform_builds(mp)
        linalg.hermite_normal_form(m)
        linalg.saturated_kernel_basis(m)
        linalg.solve_integer_linear(m, (1, 1))
        assert builds == ["hermite_normal_form", "_column_hnf", "_column_hnf"]
        linalg.rank(m)
        linalg.column_lattice_canonical(m)
        assert len(builds) == 3


def test_geometry_pipeline_builds_at_most_two_transforms(monkeypatch):
    builds = _count_transform_builds(monkeypatch)
    post_inits = []
    original = LatticePolytope.__post_init__

    def counted_post_init(self):
        post_inits.append(self)
        original(self)

    monkeypatch.setattr(LatticePolytope, "__post_init__", counted_post_init)
    p = polytope_from_vertices(2, [(0, 0), (4, 1), (0, 3)])
    assert post_inits == []
    fan = normal_fan(p)
    assert not is_smooth(fan)[0]
    rf = minimal_resolution(fan)
    assert rf.fan.ray_count == 10
    frame = resolved_frame(p, rf)
    primitive_collections(rf.fan)
    g = scaling_group(rf.fan)
    chi = offset_character(frame, g)
    kernel = rescaling_group(frame)
    assert post_inits == []
    # the fan's kernel, and the row Hermite form of the offset character
    assert len(builds) <= 2, builds
    assert kernel.params == 10 - 2 - 1 and chi.exponents


def test_fan_builds_its_kernel_and_walls_once():
    p = polytope_from_vertices(2, [(0, 0), (4, 1), (0, 3)])
    fan = minimal_resolution(normal_fan(p)).fan
    g = scaling_group(fan)
    assert g.exponent_matrix is scaling_group(fan).exponent_matrix
    assert g.exponent_matrix is fan._ray_kernel
    assert fan._ray_kernel == saturated_kernel_basis(fan.ray_matrix())
    # cached values do not take part in equality or hashing
    twin = type(fan)(fan.dim, fan.rays, fan.max_cones)
    assert twin == fan and hash(twin) == hash(fan)
    assert "_ray_kernel" not in vars(twin)
