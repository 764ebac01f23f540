"""Lattice polytopes, normal fans, point monomials and primitive collections.

Polytopes are full-dimensional with integer vertices.  Facet data is the
pair (inward primitive normal n_i, offset a_i) presenting the polytope as
the intersection of half-spaces <m, n_i> >= -a_i; the exponent of the i-th
facet variable in a point's monomial is the lattice distance <m, n_i> + a_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import mul, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (NotFullDimensional, NotInSupport, PointOutsidePolytope,
                     UnsupportedDimension, ZeroVector)
from .linalg import (IntMat, _int_vec, _strict_int, determinant,
                     primitive_vector, rank, saturated_kernel_basis)

IntVec = tuple[int, ...]


class Facet(NamedTuple):
    normal: IntVec
    offset: int


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _affine_rank(points: Sequence[IntVec]) -> int:
    if not points:
        return -1
    base = points[0]
    diffs = [tuple(map(sub, p, base)) for p in points[1:]]
    if not diffs:
        return 0
    return rank(IntMat.from_rows(diffs))


def _hull_2d(points: list[IntVec]) -> list[IntVec]:
    """Monotone chain; returns hull vertices in counterclockwise order."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[IntVec] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[IntVec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _cross3(a: IntVec, b: IntVec) -> IntVec:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _sub3(a: IntVec, b: IntVec) -> IntVec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _first_simplex(points: list[IntVec]) -> tuple[int, int, int, int]:
    """Indices of four affinely independent points, earliest first."""
    a = 0
    b = next((i for i, p in enumerate(points) if p != points[a]), None)
    if b is not None:
        e = _sub3(points[b], points[a])
        c = next((i for i, p in enumerate(points)
                  if any(_cross3(e, _sub3(p, points[a])))), None)
        if c is not None:
            normal = _cross3(e, _sub3(points[c], points[a]))
            d = next((i for i, p in enumerate(points)
                      if _dot(normal, _sub3(p, points[a]))), None)
            if d is not None:
                return a, b, c, d
    raise NotFullDimensional("points do not span 3-space")


def _hull_3d(points: list[IntVec]) -> set[Facet]:
    """Facet planes of a full-dimensional conv(points) in 3-space.

    Incremental hull over a triangulated boundary (de Berg et al.,
    *Computational Geometry*, ch. 11) in exact integers.  Each triangle
    (i, j, k) keeps its outward normal N and level c = <N, p_i>; a point q
    sees it when <N, q> > c.  A point that sees no triangle is inside or on
    the boundary and is skipped; otherwise the triangles it sees are
    replaced by a cone from q over their horizon.  Coplanar triangles of
    one facet share their plane, so the facets are the distinct planes.
    Cost: points x current triangles, at most 2n - 4 of them.
    """
    simplex = _first_simplex(points)
    faces = []

    def add_face(i: int, j: int, k: int):
        p = points[i]
        normal = _cross3(_sub3(points[j], p), _sub3(points[k], p))
        faces.append((i, j, k, normal, _dot(normal, p)))

    for skip in range(4):
        i, j, k = (v for t, v in enumerate(simplex) if t != skip)
        ref = _sub3(points[simplex[skip]], points[i])
        if _dot(_cross3(_sub3(points[j], points[i]),
                        _sub3(points[k], points[i])), ref) > 0:
            j, k = k, j
        add_face(i, j, k)

    for q, (x, y, z) in enumerate(points):
        visible = [f for f in faces
                   if f[3][0] * x + f[3][1] * y + f[3][2] * z > f[4]]
        if not visible:
            continue
        edges = set()
        for i, j, k, _, _ in visible:
            edges.update(((i, j), (j, k), (k, i)))
        faces = [f for f in faces
                 if f[3][0] * x + f[3][1] * y + f[3][2] * z <= f[4]]
        for i, j in edges:
            if (j, i) not in edges:
                add_face(i, j, q)

    out = set()
    for i, _, _, normal, _ in faces:
        inward = primitive_vector(tuple(-v for v in normal))
        out.add(Facet(inward, -_dot(points[i], inward)))
    return out


def _facets_from_points(n: int, points: list[IntVec]) -> list[Facet]:
    """Irredundant primitive facet inequalities of conv(points), n <= 3,
    sorted lexicographically.

    Dimension 1 reads off the two ends, dimension 2 walks the monotone-chain
    hull's edges, and dimension 3 uses the incremental hull of ``_hull_3d``;
    all three are exact.  The points must span the ambient space.
    """
    facets: set[Facet] = set()
    if n == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        facets.add(Facet((1,), -lo))
        facets.add(Facet((-1,), hi))
    elif n == 2:
        hull = _hull_2d(points)
        for i, p in enumerate(hull):
            q = hull[(i + 1) % len(hull)]
            d = (q[0] - p[0], q[1] - p[1])
            normal = primitive_vector((-d[1], d[0]))
            facets.add(Facet(normal, -_dot(p, normal)))
    else:
        facets = _hull_3d(points)
    return sorted(facets)


@dataclass(frozen=True)
class LatticePolytope:
    """Full-dimensional lattice polytope with an explicit facet presentation.

    The facet order fixes the labeling of facet variables; construction via
    ``polytope_from_vertices`` sorts facets lexicographically by normal,
    while direct construction keeps the caller's labeling (validated against
    the hull for dimensions up to 3).
    """

    dim: int
    vertices: tuple[IntVec, ...]
    facets: tuple[Facet, ...]

    def __post_init__(self):
        n = _strict_int(self.dim)
        if n < 1:
            raise UnsupportedDimension(f"dimension {n}")
        object.__setattr__(self, "vertices",
                           tuple(_int_vec(v) for v in self.vertices))
        object.__setattr__(self, "facets",
                           tuple(Facet(_int_vec(f[0]), _strict_int(f[1]))
                                 for f in self.facets))
        if any(len(v) != n for v in self.vertices):
            raise NotFullDimensional("vertex length does not match dimension")
        if _affine_rank(self.vertices) != n:
            raise NotFullDimensional("vertices do not span the ambient space")
        for normal, offset in self.facets:
            if len(normal) != n:
                raise NotFullDimensional("facet normal length mismatch")
            if primitive_vector(normal) != normal:
                raise ValueError(f"facet normal {normal} is not primitive")
            slacks = [_dot(v, normal) + offset for v in self.vertices]
            if any(s < 0 for s in slacks):
                raise ValueError(f"facet ({normal}, {offset}) cuts off a vertex")
            tight = [v for v, s in zip(self.vertices, slacks) if s == 0]
            if _affine_rank(tight) != n - 1:
                raise ValueError(
                    f"facet ({normal}, {offset}) is not supported by "
                    f"{n} affinely independent vertices")
        if n <= 3:
            expected = set(_facets_from_points(n, list(self.vertices)))
            if set(self.facets) != expected:
                raise ValueError("facet list does not cut out the convex hull "
                                 "of the vertices")

    @classmethod
    def _trusted(cls, dim: int, vertices: tuple[IntVec, ...],
                 facets: tuple[Facet, ...]) -> "LatticePolytope":
        """Build without ``__post_init__``: for vertices and facets that a
        hull computation has just produced, which are right by construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "vertices", vertices)
        object.__setattr__(p, "facets", facets)
        return p

    def offsets(self) -> IntVec:
        return tuple(f.offset for f in self.facets)

    @cached_property
    def _normal_fan(self) -> "Fan":
        """The inner normal fan, built once per polytope: ``normal_fan``,
        ``frame_of`` and ``resolution.virtual_facets`` share it, and with
        it the fan's cached kernel and cone walls."""
        return Fan(self.dim, tuple(f.normal for f in self.facets),
                   tuple(Cone(self.tight_facets(v)) for v in self.vertices))

    def contains(self, m: Sequence[int]) -> bool:
        return all(_dot(m, f.normal) + f.offset >= 0 for f in self.facets)

    def tight_facets(self, v: Sequence[int]) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.facets)
                     if _dot(v, f.normal) + f.offset == 0)

    def face_vertices(self, facet_indices: Iterable[int]) -> tuple[IntVec, ...]:
        """Vertices lying on every one of the given facets."""
        idx = tuple(facet_indices)
        return tuple(v for v in self.vertices
                     if all(_dot(v, self.facets[i].normal) +
                            self.facets[i].offset == 0 for i in idx))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [list(v) for v in self.vertices],
            "facets": [{"normal": list(f.normal), "offset": f.offset}
                       for f in self.facets],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LatticePolytope":
        n = _strict_int(data["dim"])
        vertices = [_int_vec(v) for v in data["vertices"]]
        if "facets" in data:
            facets = [Facet(_int_vec(f["normal"]), _strict_int(f["offset"]))
                      for f in data["facets"]]
            return cls(n, tuple(vertices), tuple(facets))
        return polytope_from_vertices(n, vertices)


def polytope_from_vertices(n: int, points: Sequence[Sequence[int]]
                           ) -> LatticePolytope:
    """Convex hull with canonical facet order (lexicographic by normal).

    Supported for n in {1, 2, 3}; higher dimensions must be constructed
    directly from a validated facet presentation.
    """
    if _strict_int(n) not in (1, 2, 3):
        raise UnsupportedDimension(
            f"hull computation supports dimensions 1-3, not {n}")
    pts = [_int_vec(p) for p in points]
    if any(len(p) != n for p in pts):
        raise NotFullDimensional("point length does not match dimension")
    pts = sorted(set(pts))
    if _affine_rank(pts) != n:
        raise NotFullDimensional("points do not span the ambient space")
    facets = _facets_from_points(n, pts)
    vertices = []
    for p in pts:
        active = [f.normal for f in facets if _dot(p, f.normal) + f.offset == 0]
        if active and rank(IntMat.from_rows(active)) == n:
            vertices.append(p)
    return LatticePolytope._trusted(n, tuple(vertices), tuple(facets))


def lattice_points(p: LatticePolytope) -> tuple[IntVec, ...]:
    """All integer points of the polytope, in lexicographic order.

    The leading coordinates run over the vertices' bounding box.  For each
    such prefix the facets give the last coordinate's exact interval by
    floor and ceiling division; a facet whose last entry is zero keeps or
    drops the whole prefix.  Cost: prefixes x facets, plus the output.
    """
    lows = [min(v[i] for v in p.vertices) for i in range(p.dim)]
    highs = [max(v[i] for v in p.vertices) for i in range(p.dim)]
    split = [(f.normal[:-1], f.normal[-1], f.offset) for f in p.facets]
    out: list[IntVec] = []
    for prefix in itertools.product(*(range(lo, hi + 1) for lo, hi
                                      in zip(lows[:-1], highs[:-1]))):
        lo, hi = lows[-1], highs[-1]
        for head, c, a in split:
            s = _dot(prefix, head) + a        # need c * x + s >= 0
            if c > 0:
                lo = max(lo, -(s // c))
            elif c < 0:
                hi = min(hi, s // -c)
            elif s < 0:
                break
        else:
            out.extend(prefix + (x,) for x in range(lo, hi + 1))
    return tuple(out)


# -- fans -----------------------------------------------------------------------


@dataclass(frozen=True)
class Cone:
    """A cone of a fan, recorded by the indices of its generating rays."""

    ray_indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(set(_int_vec(self.ray_indices))))
        if len(idx) != len(self.ray_indices):
            raise ValueError("duplicate ray indices in a cone")
        object.__setattr__(self, "ray_indices", idx)


@dataclass(frozen=True)
class Fan:
    """A complete fan given by primitive ray generators and maximal cones."""

    dim: int
    rays: tuple[IntVec, ...]
    max_cones: tuple[Cone, ...]

    def __post_init__(self):
        object.__setattr__(self, "rays",
                           tuple(_int_vec(r) for r in self.rays))
        object.__setattr__(self, "max_cones", tuple(self.max_cones))
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("duplicate rays")
        for r in self.rays:
            if len(r) != self.dim:
                raise ValueError("ray length does not match dimension")
            if primitive_vector(r) != r:
                raise ValueError(f"ray {r} is not primitive")
        covered = set()
        for cone in self.max_cones:
            if any(i >= len(self.rays) for i in cone.ray_indices):
                raise ValueError("cone references an unknown ray")
            covered.update(cone.ray_indices)
        if covered != set(range(len(self.rays))):
            raise ValueError("every ray must appear in some maximal cone")

    @property
    def ray_count(self) -> int:
        return len(self.rays)

    def ray_matrix(self) -> IntMat:
        return IntMat.from_cols(list(self.rays), self.dim)

    @cached_property
    def _ray_kernel(self) -> IntMat:
        """Saturated kernel of the ray matrix, in canonical form: the
        exponents of the scaling group, built once per fan."""
        return saturated_kernel_basis(self.ray_matrix())

    @cached_property
    def _cone_walls(self) -> tuple[tuple[IntVec, ...], ...]:
        """Per maximal cone, the inward wall normals that
        ``smallest_containing_cone`` tests a vector against."""
        return tuple(
            tuple(_cone_facet_normals(self.dim,
                                      [self.rays[i] for i in c.ray_indices]))
            for c in self.max_cones)

    @cached_property
    def _primitive_collections(self) -> tuple["PrimitiveCollection", ...]:
        """``primitive_collections(self)``, found once per fan."""
        return _find_primitive_collections(self)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c.ray_indices) for c in self.max_cones],
        }


def normal_fan(p: LatticePolytope) -> Fan:
    """Inner normal fan: one ray per facet, one maximal cone per vertex.

    Built on the first call for a polytope; later calls return that fan."""
    return p._normal_fan


def is_smooth(f: Fan) -> tuple[bool, tuple[Cone, ...]]:
    """Check that every maximal cone's rays form a basis of the lattice."""
    bad = []
    for cone in f.max_cones:
        gens = [f.rays[i] for i in cone.ray_indices]
        if len(gens) != f.dim:
            bad.append(cone)
            continue
        if abs(determinant(IntMat.from_cols(gens, f.dim))) != 1:
            bad.append(cone)
    return (not bad, tuple(bad))


def primitive_collections(f: Fan) -> tuple["PrimitiveCollection", ...]:
    """All minimal sets of rays not contained in a single cone, ordered by
    size and then by ray indices.

    Found on the first call for a fan; later calls return those."""
    return f._primitive_collections


def _find_primitive_collections(f: Fan
                                ) -> tuple["PrimitiveCollection", ...]:
    """``primitive_collections(f)``, computed.

    These are the minimal non-faces, and each one is a face plus one ray
    (Batyrev 1991): dropping any ray i from a collection S leaves a set
    inside some maximal cone C, with i outside C.  So for every maximal cone
    C and ray i outside it, subsets F of C grow one ray at a time, in index
    order, while F + {i} stays inside some cone; the first ray j of C that
    pushes F + {i, j} out of every cone gives a candidate, which is kept
    when every one-smaller subset lies in a cone.  Cost: faces x rays,
    not the 2^r subsets.
    """
    # bit c of masks[i] is set when ray i lies in maximal cone c, so a set of
    # rays lies in some cone exactly when the AND of its masks is nonzero
    masks = [0] * f.ray_count
    for c, cone in enumerate(f.max_cones):
        for i in cone.ray_indices:
            masks[i] |= 1 << c

    def in_some_cone(rays: Iterable[int]) -> bool:
        m = -1
        for k in rays:
            m &= masks[k]
        return m != 0

    found: set[tuple[int, ...]] = set()
    for cone in f.max_cones:
        gens = cone.ray_indices
        for i in range(f.ray_count):
            if i in gens:
                continue
            stack = [((), masks[i], 0)]   # (F, AND over F + {i}, next index)
            while stack:
                face, m, start = stack.pop()
                for pos in range(start, len(gens)):
                    j = gens[pos]
                    if m & masks[j]:
                        stack.append((face + (j,), m & masks[j], pos + 1))
                        continue
                    s = face + (i, j)
                    if all(in_some_cone(x for x in s if x != k) for k in face):
                        found.add(tuple(sorted(s)))
    return tuple(PrimitiveCollection(c)
                 for c in sorted(found, key=lambda c: (len(c), c)))


@dataclass(frozen=True)
class PrimitiveCollection:
    ray_indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ray_indices",
                           tuple(sorted(_int_vec(self.ray_indices))))


# -- cone geometry ----------------------------------------------------------------


def _cone_facet_normals(dim: int, gens: list[IntVec]) -> list[IntVec]:
    """Inequality description {x : <w, x> >= 0 for all w} of a full-dim cone."""
    if dim == 1:
        return [primitive_vector(gens[0])]
    if dim == 2:
        out = []
        for i, g in enumerate(gens):
            w = (-g[1], g[0])
            others = [h for j, h in enumerate(gens) if j != i]
            if all(_dot(w, h) >= 0 for h in others):
                out.append(primitive_vector(w))
            elif all(_dot(w, h) <= 0 for h in others):
                out.append(primitive_vector(tuple(-x for x in w)))
        return sorted(set(out))
    out = []
    for a, b in itertools.combinations(gens, 2):
        w = _cross3(a, b)
        if all(x == 0 for x in w):
            continue
        dots = [_dot(w, g) for g in gens]
        if all(d >= 0 for d in dots):
            out.append(primitive_vector(w))
        elif all(d <= 0 for d in dots):
            out.append(primitive_vector(tuple(-x for x in w)))
    return sorted(set(out))


def smallest_containing_cone(f: Fan, v: Sequence[int]) -> Cone:
    """The unique smallest cone of the fan containing v (exact arithmetic)."""
    v = _int_vec(v)
    if all(x == 0 for x in v):
        raise ZeroVector("the origin lies in every cone")
    if f.dim > 3:
        raise UnsupportedDimension("cone search supports dimensions 1-3")
    for cone, walls in zip(f.max_cones, f._cone_walls):
        dots = [_dot(w, v) for w in walls]
        if any(d < 0 for d in dots):
            continue
        active = [w for w, d in zip(walls, dots) if d == 0]
        face = tuple(i for i in cone.ray_indices
                     if all(_dot(w, f.rays[i]) == 0 for w in active))
        return Cone(face)
    raise NotInSupport(f"{v} lies in no cone of the fan")


def monomial_exponents(p: LatticePolytope, m: Sequence[int]) -> IntVec:
    """Exponent vector of the monomial attached to a lattice point.

    Entry i is the lattice distance <m, n_i> + a_i from m to facet i; it
    vanishes exactly when m lies on that facet.
    """
    return frame_of(p).monomial_exponents(m)


# -- coordinate frames ---------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """A polytope together with a complete fan refining its normal fan and
    one offset per ray.

    For the plain normal fan the offsets are the facet offsets; a resolved
    fan contributes extra rays whose offsets come from supporting
    hyperplanes.  The frame fixes the homogeneous coordinates used by
    monomials, systems and compositions.
    """

    polytope: LatticePolytope
    fan: Fan
    offsets: IntVec

    def __post_init__(self):
        object.__setattr__(self, "offsets", _int_vec(self.offsets))
        if len(self.offsets) != self.fan.ray_count:
            raise ValueError("one offset per ray required")

    @property
    def ray_count(self) -> int:
        return self.fan.ray_count

    @cached_property
    def _cone_vertices(self) -> tuple[Optional[IntVec], ...]:
        """Per maximal cone, the first polytope vertex whose point monomial
        has exponent 0 at every ray of the cone (and none negative), or
        None when no vertex does.

        At such a vertex the monomial is a product of the rays off the
        cone only, so its composition with a primitive-coprime tuple is
        prime to every irreducible factor whose rays lie in the cone.
        """
        exps = [tuple(_dot(v, ray) + a
                      for ray, a in zip(self.fan.rays, self.offsets))
                for v in self.polytope.vertices]
        return tuple(
            next((v for v, e in zip(self.polytope.vertices, exps)
                  if min(e) >= 0 and not any(e[i] for i in c.ray_indices)),
                 None)
            for c in self.fan.max_cones)

    def monomial_exponents(self, m: Sequence[int]) -> IntVec:
        m = _int_vec(m)
        if len(m) != self.polytope.dim:
            raise PointOutsidePolytope(f"{m} has the wrong dimension")
        if not self.polytope.contains(m):
            raise PointOutsidePolytope(f"{m} is outside the polytope")
        exps = tuple(_dot(m, ray) + a
                     for ray, a in zip(self.fan.rays, self.offsets))
        if any(e < 0 for e in exps):
            raise PointOutsidePolytope(
                f"{m} violates an added supporting hyperplane")
        return exps


def frame_of(p: LatticePolytope) -> Frame:
    return Frame(p, normal_fan(p), p.offsets())

