"""One normal fan per polytope: ``normal_fan``, ``frame_of`` and
``resolution.virtual_facets`` share it, with its cached kernel and walls."""

import toriparam.polytope as polytope
from toriparam.polytope import frame_of, normal_fan, polytope_from_vertices
from toriparam.resolution import (minimal_resolution, resolved_frame,
                                  virtual_facets)


def test_one_fan_per_polytope():
    p = polytope_from_vertices(2, [(0, 0), (4, 1), (0, 3)])
    fan = normal_fan(p)
    assert normal_fan(p) is fan and frame_of(p).fan is fan
    other = polytope_from_vertices(2, [(0, 0), (4, 1), (0, 3)])
    assert normal_fan(other) == fan and normal_fan(other) is not fan


def test_resolved_frames_build_no_fan(monkeypatch):
    p = polytope_from_vertices(2, [(0, 0), (4, 1), (0, 3)])
    rf = minimal_resolution(normal_fan(p))
    built = []
    real = polytope.Fan.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(polytope.Fan, "__post_init__", counting)
    for _ in range(3):
        virtual_facets(p, rf)
        resolved_frame(p, rf)
    assert built == []
