"""Minimal resolution of complete 2D fans and virtual facet data.

A singular 2D cone cone(u, w), d = det(u, w) > 1, is subdivided along the
lattice points of the compact part of the boundary of
conv(cone ∩ Z^2 \\ {0}).  They come from the Hirzebruch-Jung walk (Fulton,
*Introduction to Toric Varieties*, §2.6): starting at u, the next point p
is the one with det(prev, p) = 1 and 0 <= det(p, w) < det(prev, w), found
with one extended gcd, until the walk reaches w.  Consecutive points span
unimodular cones, the subdivision is the unique minimal smooth refinement,
and smooth cones pass through unchanged.  Added rays behave like facets of
the polytope through supporting hyperplanes: each gets the unique offset
whose hyperplane touches the polytope along the face cut out by the
smallest original cone containing the ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NotARefinement, UnsupportedDimension
from .linalg import _egcd
from .polytope import (Cone, Fan, Frame, IntVec, LatticePolytope, _dot,
                       normal_fan, smallest_containing_cone)


def _det2(a: IntVec, b: IntVec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _hirzebruch_jung(u: IntVec, w: IntVec) -> list[IntVec]:
    """Rays strictly inside cone(u, w), det(u, w) > 0, that its minimal
    resolution adds, in order from u toward w; one step per added ray."""
    out = []
    d = _det2(u, w)
    while d > 1:
        _, x, y = _egcd(u[0], u[1])          # u0*x + u1*y = 1
        p = (-y, x)                          # det(u, p) = 1
        t = -(_det2(p, w) // d)              # brings det(p, w) into [0, d)
        u = (p[0] + t * u[0], p[1] + t * u[1])
        out.append(u)
        d = _det2(u, w)
    return out


@dataclass(frozen=True)
class ResolvedFan:
    """A smooth refinement of a fan; original rays keep their indices and
    added rays are appended, each annotated with the smallest original cone
    containing it."""

    fan: Fan
    original_ray_count: int
    origins: tuple[Cone, ...]

    def __post_init__(self):
        added = self.fan.ray_count - self.original_ray_count
        if added != len(self.origins):
            raise ValueError("one origin cone per added ray required")

    @property
    def added_rays(self) -> tuple[IntVec, ...]:
        return self.fan.rays[self.original_ray_count:]

    def to_json(self) -> dict:
        data = self.fan.to_json()
        data["added_rays"] = [
            {"ray": list(ray), "origin_cone": list(origin.ray_indices)}
            for ray, origin in zip(self.added_rays, self.origins)]
        return data


def minimal_resolution(f: Fan) -> ResolvedFan:
    """Unique minimal smooth subdivision of a complete 2D fan.

    Smooth fans are returned unchanged (no added rays).  Dimensions other
    than 2 are rejected: only the surface case has a canonical minimal
    resolution.
    """
    if f.dim != 2:
        raise UnsupportedDimension(
            f"minimal resolution is implemented for dimension 2, not {f.dim}")
    rays: list[IntVec] = list(f.rays)
    index: dict[IntVec, int] = {r: k for k, r in enumerate(rays)}
    new_cones: list[Cone] = []
    origins: list[Cone] = []

    for cone in f.max_cones:
        if len(cone.ray_indices) != 2:
            raise ValueError("maximal cones of a complete 2D fan must have "
                             "exactly two rays")
        i, j = cone.ray_indices
        u, w = f.rays[i], f.rays[j]
        if _det2(u, w) < 0:
            i, j = j, i
            u, w = w, u
        if _det2(u, w) == 0:
            raise ValueError(f"maximal cone on rays {u} and {w} is not "
                             "two-dimensional")
        if _det2(u, w) == 1:
            new_cones.append(cone)
            continue
        inner = _hirzebruch_jung(u, w)
        path = [u, *inner, w]
        for p in inner:
            if p not in index:
                index[p] = len(rays)
                rays.append(p)
                origins.append(Cone((i, j)))
        for a, b in zip(path, path[1:]):
            new_cones.append(Cone((index[a], index[b])))

    resolved = Fan(2, tuple(rays), tuple(new_cones))
    return ResolvedFan(resolved, f.ray_count, tuple(origins))


@dataclass(frozen=True)
class VirtualFacet:
    """Supporting-hyperplane data for one ray of a resolved fan: the
    inequality <m, normal> + offset >= 0 holds on the polytope and the
    equality locus meets it in ``face_vertices``."""

    normal: IntVec
    offset: int
    face_vertices: tuple[IntVec, ...]

    def to_json(self) -> dict:
        return {"normal": list(self.normal), "offset": self.offset,
                "face_vertices": [list(v) for v in self.face_vertices]}


def virtual_facets(p: LatticePolytope, rf: ResolvedFan
                   ) -> tuple[VirtualFacet, ...]:
    """Offsets for all rays of a resolved fan over the polytope.

    Original rays keep their facet offsets.  Each added ray gets the
    support-function value: the unique offset whose hyperplane touches the
    polytope, necessarily along the face corresponding to the smallest
    original cone containing the ray.
    """
    base = normal_fan(p)
    if (rf.original_ray_count != len(p.facets)
            or rf.fan.rays[:rf.original_ray_count] != base.rays):
        raise NotARefinement(
            "resolved fan does not refine this polytope's normal fan")
    out = []
    for normal, offset in p.facets:
        out.append(VirtualFacet(normal, offset,
                                _facet_vertices(p, normal, offset)))
    for ray, origin in zip(rf.added_rays, rf.origins):
        values = [_dot(v, ray) for v in p.vertices]
        offset = -min(values)
        face = tuple(v for v, val in zip(p.vertices, values)
                     if val + offset == 0)
        smallest = smallest_containing_cone(base, ray)
        if smallest != origin:
            raise NotARefinement(
                f"added ray {ray} is not interior to its recorded cone")
        expected = p.face_vertices(smallest.ray_indices)
        if set(face) != set(expected):
            raise NotARefinement(
                f"support face of {ray} does not match its cone's face")
        out.append(VirtualFacet(ray, offset, face))
    return tuple(out)


def _facet_vertices(p: LatticePolytope, normal: IntVec, offset: int
                    ) -> tuple[IntVec, ...]:
    return tuple(v for v in p.vertices if _dot(v, normal) + offset == 0)


def resolved_frame(p: LatticePolytope, rf: ResolvedFan) -> Frame:
    """Coordinate frame of the resolved fan with virtual facet offsets."""
    facets = virtual_facets(p, rf)
    return Frame(p, rf.fan, tuple(vf.offset for vf in facets))


def resolved_monomial_exponents(p: LatticePolytope, rf: ResolvedFan,
                                m: Sequence[int]) -> IntVec:
    """Exponents of a point's monomial in the resolved coordinates."""
    return resolved_frame(p, rf).monomial_exponents(m)
