"""The four benchmark workloads: seeded op lists and exact checks.

Each workload yields its timed ops in blocks.  A block is a fixed list
whose make-up (the size grid and op mix in ``GRID``) never changes; only
the seeded draws inside each slot do.  Block ``k`` of seed ``s`` is drawn
from its own random stream, so every run sees the same mix and a longer
run simply sees more blocks.  The warm-up and the traced pass draw from
streams of their own, so no timed input is ever seen twice in a process.

An op is a ``run`` callable, timed, and a ``check`` on its outcome, not
timed.  Ops call the package through module attributes so that the
tracer's wrappers see them; checks run while the tracer is idle.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

from toriparam import (cli, decomposition, parametrization, polynomials,
                       polytope, resolution, subtorus)
from toriparam.errors import NoPreimage

import oracle

MultiPoly = polynomials.MultiPoly


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


class Workload:
    """A workload draws the ops of one block, in the make-up ``GRID`` gives
    (slot -> ops per block), from the block's own random stream."""

    name = ""
    GRID: dict = {}

    def setup(self):
        """Build the corpus that every block shares."""

    def _op(self, rng, slot):
        raise NotImplementedError

    def block(self, seed, k, slots=None):
        rng = random.Random(f"{self.name}:{seed}:{k}")
        if slots is None:
            slots = [s for s, n in self.GRID.items() for _ in range(n)]
        rng.shuffle(slots)
        return [self._op(rng, s) for s in slots]

    def warm_ops(self, seed):
        """Ops for the warm-up, from a stream no timed block uses."""
        return self.block(seed, "warm")


def _scalar(rng):
    c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    return c if rng.random() < 0.5 else -c


def _expect_no_preimage(out, err):
    return isinstance(err, NoPreimage)


# Monic irreducible univariate factors by degree, coefficients lowest
# degree first.
UNI_POOL = {1: [(a, 1) for a in range(-6, 7)],
            2: ([(a, 0, 1) for a in range(1, 5)]
                + [(a, 1, 1) for a in range(1, 4)])}


def _uni_poly(coeffs):
    return MultiPoly(1, {(e,): Fraction(c) for e, c in enumerate(coeffs) if c})


def _coprime_factors(rng, degrees):
    """Distinct pool factors of the given degrees, one list per entry; no
    factor repeats, so the entries are pairwise coprime."""
    picks = {d: rng.sample(pool, sum(ds.count(d) for ds in degrees))
             for d, pool in UNI_POOL.items()}
    return [[picks[d].pop() for d in ds] for ds in degrees]


def _uni_entry(factors, scalar):
    poly = MultiPoly.one(1)
    for f in factors:
        poly = poly * _uni_poly(f)
    return poly.scale(scalar)


def _same_up_to_scalar(a, b):
    return polynomials.normalized(a) == polynomials.normalized(b)


def _recomposes(system, target, result):
    """target = content * scalar * compose(system, result.f), exactly."""
    raw = parametrization.compose_system(system, result.f).raw_components()
    return (len(raw) == len(target)
            and all(r.scale(result.scalar) * result.content == t
                    for r, t in zip(raw, target)))


def _polygon(rng, box, npts):
    pts = [(rng.randint(-box, box), rng.randint(-box, box))
           for _ in range(npts)]
    return pts, oracle.hull2(pts)


# -- roundtrip ----------------------------------------------------------------


class Roundtrip(Workload):
    """compose a univariate tuple, then ``decompose_univariate`` it back."""

    name = "roundtrip"
    # frame name -> ops per block; "radicals" composes on the resolved
    # singular triangle and decomposes on the unresolved one (NoPreimage).
    GRID = {"k1": 2, "k2": 2, "k3": 2, "k4": 2, "rect": 2, "pentagon": 2,
            "singtri_res": 2, "thin_res": 2, "radicals": 2}
    # degrees of the factors of tuple entry i, by i modulo 4
    FACTORS = ((1,), (1, 2), (), (2,))

    def setup(self):
        P, R = polytope, resolution
        frames = {f"k{k}": P.frame_of(P.polytope_from_vertices(
            2, [(0, 0), (k, 0), (0, k)])) for k in (1, 2, 3, 4)}
        frames["rect"] = P.frame_of(P.polytope_from_vertices(
            2, [(0, 0), (2, 0), (2, 1), (0, 1)]))
        frames["pentagon"] = P.frame_of(P.polytope_from_vertices(
            2, [(1, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]))
        for name, verts in (("singtri", [(1, 0), (0, 1), (-1, 0)]),
                            ("thin", [(0, 0), (3, 0), (0, 1)])):
            p = P.polytope_from_vertices(2, verts)
            rf = R.minimal_resolution(P.normal_fan(p))
            frames[f"{name}_res"] = R.resolved_frame(p, rf)
            if name == "singtri":
                self.singular = P.frame_of(p)
        full = parametrization.full_monomial_system
        self.systems = {name: full(fr) for name, fr in frames.items()}
        self.singular_system = full(self.singular)

    def _op(self, rng, slot):
        if slot == "radicals":
            compose_sys = self.systems["singtri_res"]
            system, fan = self.singular_system, self.singular.fan
            # the added ray's entry is squarefree and non-constant, so its
            # factors would need square roots in the unresolved frame
            degrees = [self.FACTORS[i % 4] for i in range(3)] + [(1,)]
        else:
            compose_sys = system = self.systems[slot]
            fan = system.frame.fan
            degrees = [self.FACTORS[i % 4] for i in range(fan.ray_count)]
        factors = _coprime_factors(rng, degrees)
        f = parametrization.ParamTuple(1, tuple(
            _uni_entry(fs, _scalar(rng)) for fs in factors))

        def run():
            target = parametrization.compose_system(compose_sys, f) \
                .raw_components()
            return target, decomposition.decompose_univariate(target, system,
                                                              fan)

        def check(out, err):
            if err is not None:
                return False
            target, result = out
            return (result.content.is_constant()
                    and all(_same_up_to_scalar(a, b)
                            for a, b in zip(result.f.entries, f.entries))
                    and _recomposes(system, target, result))

        return Op(slot, run, _expect_no_preimage if slot == "radicals"
                  else check)


# -- hinted -------------------------------------------------------------------


def _bi_entry(form, a):
    """Irreducible bivariate entry of one of five forms, a != 0."""
    terms = ({(1, 1): 1, (0, 0): a},              # u*v + a
             {(1, 0): 1, (0, 0): a},              # u + a
             {(0, 1): 1, (0, 0): a},              # v + a
             {(1, 0): 1, (0, 1): 1, (0, 0): a},   # u + v + a
             {(1, 0): 1, (0, 1): -1, (0, 0): a})[form]  # u - v + a
    return MultiPoly(2, {e: Fraction(c) for e, c in terms.items()})


class Hinted(Workload):
    """compose a bivariate tuple, then ``decompose_with_hints`` with the
    normalized entries as hints."""

    name = "hinted"
    # "excluded" is the Steiner excluded-locus target (l(u), 0, 0, m(v)).
    GRID = {"square1": 3, "square2": 2, "pentagon": 2, "steiner": 3,
            "excluded": 1}

    def setup(self):
        P, PA = polytope, parametrization
        systems = {}
        for k in (1, 2):
            systems[f"square{k}"] = PA.full_monomial_system(P.frame_of(
                P.polytope_from_vertices(2, [(0, 0), (k, 0), (k, k), (0, k)])))
        systems["pentagon"] = PA.full_monomial_system(P.frame_of(
            P.polytope_from_vertices(2, [(1, 1), (-1, 1), (-1, 0), (0, -1),
                                         (1, -1)])))
        frame = P.frame_of(P.polytope_from_vertices(2, [(0, 0), (2, 0),
                                                        (0, 2)]))
        point_of = {frame.monomial_exponents(m): m
                    for m in P.lattice_points(frame.polytope)}

        def point(*exps):
            return point_of[exps]

        one = Fraction(1)
        single = PA.LatticePolynomial.single
        # (x1^2 + x2^2 + x3^2, x1*x2, x2*x3, x3*x1): the Steiner surface
        systems["steiner"] = PA.ParamSystem(frame, (
            PA.LatticePolynomial(frame, ((point(2, 0, 0), one),
                                         (point(0, 2, 0), one),
                                         (point(0, 0, 2), one))),
            single(frame, point(1, 1, 0)), single(frame, point(0, 1, 1)),
            single(frame, point(1, 0, 1))))
        self.systems = systems

    def _op(self, rng, slot):
        if slot == "excluded":
            system = self.systems["steiner"]
            a, b, c, d = (rng.randint(1, 6) for _ in range(4))
            lu = MultiPoly(2, {(1, 0): Fraction(a), (0, 0): Fraction(b)})
            mv = MultiPoly(2, {(0, 1): Fraction(c), (0, 0): Fraction(-d)})
            zero = MultiPoly.zero(2)
            target = (lu, zero, zero, mv)
            hints = [lu, mv]

            def run():
                return decomposition.decompose_with_hints(
                    target, system, system.frame.fan, hints)

            return Op(slot, run, _expect_no_preimage)

        system = self.systems[slot]
        fan = system.frame.fan
        # entry i has form i, so the entries are pairwise coprime; only the
        # constants are drawn
        hints = [_bi_entry(i, rng.choice((-1, 1)) * rng.randint(1, 6))
                 for i in range(fan.ray_count)]
        f = parametrization.ParamTuple(2, tuple(h.scale(_scalar(rng))
                                                for h in hints))

        def run():
            target = parametrization.compose_system(system, f).raw_components()
            return target, decomposition.decompose_with_hints(
                target, system, fan, hints)

        def check(out, err):
            if err is not None:
                return False
            target, result = out
            return (all(_same_up_to_scalar(a, b)
                        for a, b in zip(result.f.entries, f.entries))
                    and _recomposes(system, target, result))

        return Op(slot, run, check)


# -- geometry -----------------------------------------------------------------


class Geometry(Workload):
    """hull -> fan -> resolution -> collections -> groups -> exponents on a
    new polytope per op; no polynomial arithmetic, no shared frames."""

    name = "geometry"
    # "r<n>": a polygon whose minimal resolution has exactly n rays;
    # "d3p<n>": n distinct points of {0,1,2}^3.  Cost grows as 2^n with
    # the rays, so the grid places the median inside the eight r10 ops
    # and the 95th percentile inside the two r16 ops; neither then sits on
    # a boundary between sizes of very different cost.
    GRID = {"r3": 1, "r4": 1, "r6": 2, "r8": 3, "r10": 8, "r12": 1,
            "r13": 1, "r14": 2, "r15": 1, "r16": 2,
            "d3p6": 1, "d3p10": 1, "d3p14": 1}
    WARM_MAX_RAYS = 12

    def _polygon_with_rays(self, rng, rays):
        for _ in range(100_000):
            pts, hull = _polygon(rng, rng.choice((2, 3, 4)),
                                 rng.randint(3, 8))
            if len(hull) < 3:
                continue
            facets, added = oracle.polygon_resolution(hull)
            if len(facets) + len(added) == rays:
                return pts, hull, facets, added
        raise RuntimeError(f"no polygon with {rays} resolved rays found")

    def _points3(self, rng, n):
        grid = [(x, y, z) for x in range(3) for y in range(3)
                for z in range(3)]
        while True:
            pts = sorted(rng.sample(grid, n))
            facets = oracle.facets3(pts)
            if len(facets) >= 4:    # coplanar points give at most two
                return pts, facets

    def _op2(self, rng, rays):
        pts, hull, facets, added = self._polygon_with_rays(rng, rays)
        P, R, S = polytope, resolution, subtorus

        def run():
            p = P.polytope_from_vertices(2, pts)
            fan = P.normal_fan(p)
            smooth = P.is_smooth(fan)[0]
            rf = R.minimal_resolution(fan)
            frame = R.resolved_frame(p, rf)
            colls = P.primitive_collections(rf.fan)
            g = S.scaling_group(rf.fan)
            chi = S.offset_character(frame, g)
            kernel = S.rescaling_group(frame)
            exps = [(m, frame.monomial_exponents(m))
                    for m in P.lattice_points(p)]
            return p, smooth, rf, frame, colls, g, chi, kernel, exps

        def check(out, err):
            if err is not None:
                return False
            p, smooth, rf, frame, colls, g, chi, kernel, exps = out
            if (set(p.vertices) != set(hull) or set(p.facets) != set(facets)
                    or smooth != oracle.polygon_smooth(hull)):
                return False
            base = tuple(f.normal for f in p.facets)
            rays_all = rf.fan.rays
            if (rays_all[:len(base)] != base or len(rays_all) != rays
                    or set(rays_all[len(base):]) != set(added)
                    or len(rf.fan.max_cones) != rays):
                return False
            for cone in rf.fan.max_cones:
                a, b = cone.ray_indices
                if abs(oracle.det2(rays_all[a], rays_all[b])) != 1:
                    return False
            offsets = tuple(f.offset for f in p.facets) + tuple(
                -min(oracle.dot(v, ray) for v in hull)
                for ray in rays_all[len(base):])
            if frame.offsets != offsets:
                return False
            if {c.ray_indices for c in colls} != oracle.fan2_collections(
                    rays_all):
                return False
            a, b = rf.fan.max_cones[0].ray_indices
            return (_groups_ok(rays_all, offsets, g, chi, kernel, (a, b))
                    and _exponents_ok(exps, facets, pts, rays_all, offsets))

        return Op(f"r{rays}", run, check)

    def _op3(self, rng, n):
        pts, facets = self._points3(rng, n)
        vertices = oracle.vertices3(pts, facets)
        P, S = polytope, subtorus

        def run():
            p = P.polytope_from_vertices(3, pts)
            fan = P.normal_fan(p)
            smooth = P.is_smooth(fan)[0]
            frame = P.frame_of(p)
            colls = P.primitive_collections(fan)
            g = S.scaling_group(fan)
            chi = S.offset_character(frame, g)
            kernel = S.rescaling_group(frame)
            exps = [(m, frame.monomial_exponents(m))
                    for m in P.lattice_points(p)]
            return p, fan, smooth, colls, g, chi, kernel, exps

        def check(out, err):
            if err is not None:
                return False
            p, fan, smooth, colls, g, chi, kernel, exps = out
            if set(p.facets) != facets or set(p.vertices) != vertices:
                return False
            rays = tuple(f.normal for f in p.facets)
            offsets = tuple(f.offset for f in p.facets)
            cones = [c.ray_indices for c in fan.max_cones]
            expect_smooth = all(
                len(c) == 3 and abs(oracle.det([rays[i] for i in c])) == 1
                for c in cones)
            if (fan.rays != rays or smooth != expect_smooth
                    or {c.ray_indices for c in colls}
                    != oracle.minimal_nonfaces(len(rays), cones)):
                return False
            return (_groups_ok(rays, offsets, g, chi, kernel, None)
                    and _exponents_ok(exps, facets, pts, rays, offsets))

        return Op(f"d3p{n}", run, check)

    def _op(self, rng, slot):
        if slot.startswith("d3p"):
            return self._op3(rng, int(slot[3:]))
        return self._op2(rng, int(slot[1:]))

    def warm_ops(self, seed):
        light = [s for s in self.GRID if s.startswith("d3p")
                 or int(s[1:]) <= self.WARM_MAX_RAYS]
        return self.block(seed, "warm", light)


def _groups_ok(rays, offsets, g, chi, kernel, basis_cone):
    """Scaling group = saturated kernel of the ray matrix, chi = offsets
    restricted to it, rescaling group = kernel of chi inside it."""
    r, dim = len(rays), len(rays[0])
    cols = [g.exponent_matrix.col(j) for j in range(g.params)]
    if g.ambient_dim != r or len(cols) != r - dim:
        return False
    if any(oracle.dot([ray[t] for ray in rays], c) for c in cols
           for t in range(dim)):
        return False
    if basis_cone is not None:
        # with two rays forming a lattice basis, the kernel is saturated
        # exactly when the other coordinates of its basis are unimodular
        rest = [i for i in range(r) if i not in basis_cone]
        if abs(oracle.det([[c[i] for c in cols] for i in rest])) != 1:
            return False
    if chi.exponents != tuple(oracle.dot(offsets, c) for c in cols):
        return False
    kcols = [kernel.exponent_matrix.col(j) for j in range(kernel.params)]
    if len(kcols) != r - dim - 1:
        return False
    for c in kcols:
        if oracle.dot(offsets, c) or any(
                oracle.dot([ray[t] for ray in rays], c) for t in range(dim)):
            return False
    content = gcd(*chi.exponents)
    return all(t.order == content for t in kernel.torsion)


def _exponents_ok(exps, facets, pts, rays, offsets):
    points = oracle.lattice_points(list(facets), pts)
    return ([m for m, _ in exps] == points
            and all(e == tuple(oracle.dot(m, ray) + a
                               for ray, a in zip(rays, offsets))
                    for m, e in exps))


# -- cli ----------------------------------------------------------------------


class Cli(Workload):
    """``toriparam.cli.main(argv)`` in-process, output checked against the
    library's answer for the same input."""

    name = "cli"
    GRID = {"points": 2, "monomials": 2, "group": 2, "resolve": 2,
            "irreducible": 2, "compose": 2, "decompose": 2, "verify": 2}
    # every request reads its own quadrilateral with six lattice points and
    # seven rays after resolution, moved to a random place so that no two
    # files are alike
    FACETS, POINTS, RESOLVED_RAYS, SHIFT = 4, 6, 7, 50

    def __init__(self, workdir):
        self.workdir = workdir
        self.files = 0

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)

    def _polytope_file(self, rng):
        while True:
            pts, hull = _polygon(rng, 2, rng.randint(4, 6))
            if len(hull) != self.FACETS:
                continue
            facets, added = oracle.polygon_resolution(hull)
            if (len(facets) + len(added) == self.RESOLVED_RAYS and
                    len(oracle.lattice_points(facets, hull)) == self.POINTS):
                break
        dx, dy = (rng.randint(-self.SHIFT, self.SHIFT) for _ in range(2))
        pts = [(x + dx, y + dy) for x, y in pts]
        hull = [(x + dx, y + dy) for x, y in hull]
        facets = oracle.polygon_facets(hull)
        if rng.random() < 0.5:
            data = {"dim": 2, "vertices": [list(v) for v in hull],
                    "facets": [{"normal": list(n), "offset": a}
                               for n, a in facets]}
        else:
            # vertices only: the loader computes the hull and orders the
            # facets by normal
            data = {"dim": 2, "vertices": [list(v) for v in pts]}
            facets = sorted(facets)
        self.files += 1
        path = os.path.join(self.workdir, f"p{self.files}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path, hull, facets

    def _op(self, rng, slot):
        if slot == "verify":
            a, b, c, d = (oracle.upoly_mul((_scalar(rng),), fs[0])
                          for fs in _coprime_factors(rng, [(1,), (2,), (1,),
                                                          (1,)]))
            comps = [oracle.upoly_mul(x, y) for x, y in
                     ((a, c), (b, c), (a, d), (b, d))]
            target = "(" + ", ".join(oracle.upoly_text(h) for h in comps) + ")"
            relation = "x1*x4 - x2*x3" if rng.random() < 0.5 \
                else "x1*x4 + x2*x3"
            argv = ["verify", "--target", target, "--relation", relation,
                    "--json"]
            return self._cli_op(slot, argv, lambda: _lib_verify(target,
                                                                relation))
        path, hull, facets = self._polytope_file(rng)
        argv = [slot, path, "--json"]
        if slot in ("monomials", "group"):
            argv.append("--resolved")
        if slot in ("irreducible", "compose", "decompose"):
            r = len(facets)
            degrees = [(1,) if i % 2 == 0 else () for i in range(r)]
            entries = [oracle.upoly_mul((_scalar(rng),), fs[0] if fs else (1,))
                       for fs in _coprime_factors(rng, degrees)]
            if slot == "irreducible" and rng.random() < 0.5:
                # share entry 0's factor with another entry, which breaks
                # coprimality on every collection holding both
                j = rng.randrange(1, r)
                entries[j] = oracle.upoly_mul(entries[j], entries[0])
            tuple_text = "(" + ", ".join(oracle.upoly_text(e)
                                         for e in entries) + ")"
            if slot == "decompose":
                target = []
                for m in oracle.lattice_points(facets, hull):
                    h = (Fraction(1),)
                    for e, (n, off) in zip(entries, facets):
                        h = oracle.upoly_mul(h, oracle.upoly_pow(
                            e, oracle.dot(m, n) + off))
                    target.append(oracle.upoly_text(h))
                tuple_text = "(" + ", ".join(target) + ")"
                argv += ["--system", "delta", "--target", tuple_text]
            elif slot == "compose":
                argv += ["--system", "delta", "--tuple", tuple_text]
            else:
                argv += ["--tuple", tuple_text]
        return self._cli_op(slot, argv, lambda: _lib_answer(argv))

    def _cli_op(self, slot, argv, expected):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(out, err):
            if err is not None:
                return False
            code, text = out
            want_code, want = expected()
            return code == want_code and json.loads(text) == \
                json.loads(json.dumps(want))

        return Op(slot, run, check)


def _lib_verify(target, relation):
    h = polynomials.parse_tuple(target, None, "y")
    if not parametrization.is_rational_parametrization(h):
        return 1, {"holds": False,
                   "reason": "components share a factor or all vanish"}
    holds = parametrization.check_implicit(
        h, polynomials.parse(relation, len(h), "x"))
    return (0 if holds else 1), {"holds": holds}


def _lib_answer(argv):
    """The library's answer to one CLI request, as (exit code, JSON)."""
    P, R, S, PA = polytope, resolution, subtorus, parametrization
    render = polynomials.render
    cmd, path = argv[0], argv[1]
    opts = dict(zip(argv[3::2], argv[4::2])) if cmd in (
        "irreducible", "compose", "decompose") else {}
    with open(path, encoding="utf-8") as fh:
        p = P.LatticePolytope.from_json(json.load(fh))
    fan = P.normal_fan(p)
    if cmd == "points":
        pts = P.lattice_points(p)
        return 0, {"count": len(pts), "points": pts}
    if cmd == "resolve":
        rf = R.minimal_resolution(fan)
        data = rf.to_json()
        data["virtual_offsets"] = [vf.to_json()
                                   for vf in R.virtual_facets(p, rf)]
        return 0, data
    if cmd in ("monomials", "group"):
        frame = R.resolved_frame(p, R.minimal_resolution(fan))
        if cmd == "monomials":
            return 0, {"monomials": [
                {"m": m, "exponents": frame.monomial_exponents(m)}
                for m in P.lattice_points(p)]}
        g = S.scaling_group(frame.fan)
        return 0, {"scaling_group": g.to_json(),
                   "offset_character": S.offset_character(frame, g).exponents,
                   "rescaling_group": S.rescaling_group(frame).to_json()}
    frame = P.frame_of(p)
    if cmd == "irreducible":
        entries = polynomials.parse_tuple(opts["--tuple"], None, "y")
        ok, violated = PA.is_primitive_coprime(entries, frame.fan)
        return (0 if ok else 1), {"irreducible": ok, "violated_collections":
                                  [c.ray_indices for c in violated]}
    system = PA.full_monomial_system(frame)
    if cmd == "compose":
        entries = polynomials.parse_tuple(opts["--tuple"], None, "y")
        comp = PA.compose_system(system, PA.ParamTuple(entries[0].nvars,
                                                       entries))
        return 0, {"content": render(comp.content, "y"),
                   "components": [render(h, "y") for h in
                                  comp.parametrization.components],
                   "tuple_irreducible": comp.tuple_coprime}
    target = polynomials.parse_tuple(opts["--target"], None, "y")
    result = decomposition.decompose_univariate(target, system, frame.fan)
    return 0, {"decomposed": True, "content": render(result.content, "y"),
               "scalar": str(result.scalar),
               "tuple": [render(e, "y") for e in result.f.entries],
               "scalar_absorbed": result.absorbed,
               "normalization": result.normalization}


def make(name, workdir):
    """The named workload; ``cli`` writes its polytope files to workdir."""
    if name == "cli":
        return Cli(workdir)
    return {"roundtrip": Roundtrip, "hinted": Hinted,
            "geometry": Geometry}[name]()
