"""Monomial systems, rational parametrizations, and composition.

A system is a tuple of polynomials spanned by the point monomials of a
coordinate frame.  Composing a system with a polynomial tuple substitutes
the tuple into the facet variables; for primitive-coprime tuples the
result has trivial content and is a rational parametrization of the image
variety.

That is the paper's theorem, and ``compose_system`` uses it instead of a
gcd.  Take an irreducible p.  The rays whose entry p divides, or whose
entry is 0, hold no primitive collection, so they lie in one maximal cone
sigma.  At a vertex where every ray of sigma has exponent 0, the composed
point monomial is a product of entries off sigma: nonzero and prime to p.
So when the tuple is primitive-coprime and the system has a one-term
component at such a vertex for every maximal cone, the content is 1.
Otherwise the content is a gcd fold that starts with those vertex
components, which carry every irreducible factor when the theorem holds.

Questions that need only a yes or no, or a content that is 1, are first
put to the modular certificate ``polynomials._certify_coprime``: the
coprimality of each primitive collection, ``is_rational_parametrization``
and the content fold above.  A True from it is a proof.  When it gives up,
``gcd_many`` runs as it would without it; it is the exact fallback.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import (InternalError, LengthMismatch, NonIntegerInput,
                     VariableCountMismatch)
from .linalg import IntMat, column_lattice_canonical, rank
from .polynomials import (MultiPoly, _certify_coprime, _cleared,
                          _int_image, _integer_terms, _packed_fits,
                          _packed_value, _substitute, _substitution_bounds,
                          gcd_many, try_divide)
from .polytope import (Frame, IntVec, LatticePolytope, _int_vec, frame_of,
                       lattice_points, primitive_collections,
                       PrimitiveCollection, Fan)


def _as_frame(p: LatticePolytope | Frame) -> Frame:
    return p if isinstance(p, Frame) else frame_of(p)


def _coefficient(a) -> Fraction:
    """An int, a Fraction, or an integer or "p/q" string, as a Fraction;
    floats, bools, other types and zero denominators are refused."""
    if (isinstance(a, Fraction) or type(a) is int or isinstance(a, str)
            and re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", a)):
        return Fraction(a)
    raise NonIntegerInput(
        f"expected an integer or a \"p/q\" coefficient, got {a!r}")


@dataclass(frozen=True)
class LatticePolynomial:
    """A polynomial written in the point-monomial basis of a frame:
    a map from lattice points to rational coefficients."""

    frame: Frame
    coefficients: tuple[tuple[IntVec, Fraction], ...]

    def __post_init__(self):
        clean = []
        seen = set()
        for m, a in self.coefficients:
            m = _int_vec(m)
            if m in seen:
                raise ValueError(f"duplicate lattice point {m}")
            seen.add(m)
            a = _coefficient(a)
            if a != 0:
                self.frame.monomial_exponents(m)  # validates membership
                clean.append((m, a))
        clean.sort(key=lambda t: t[0])
        object.__setattr__(self, "coefficients", tuple(clean))

    @classmethod
    def single(cls, frame: Frame, m: Sequence[int]) -> "LatticePolynomial":
        return cls(frame, ((tuple(m), Fraction(1)),))

    def is_zero(self) -> bool:
        return not self.coefficients

    def single_monomial_point(self) -> Optional[IntVec]:
        """The lattice point when this is one monomial with coefficient 1."""
        if len(self.coefficients) == 1 and self.coefficients[0][1] == 1:
            return self.coefficients[0][0]
        return None

    def to_multipoly(self) -> MultiPoly:
        """Expansion in the facet variables of the frame."""
        nvars = self.frame.ray_count
        terms = {}
        for m, a in self.coefficients:
            e = self.frame.monomial_exponents(m)
            terms[e] = terms.get(e, Fraction(0)) + a
        return MultiPoly(nvars, terms)


@dataclass(frozen=True)
class ParamSystem:
    """A tuple of lattice polynomials over one frame."""

    frame: Frame
    components: tuple[LatticePolynomial, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not self.components:
            raise LengthMismatch("a system needs at least one component")
        if any(c.frame != self.frame for c in self.components):
            raise ValueError("components belong to a different frame")
        if all(c.is_zero() for c in self.components):
            raise ValueError("system components are all zero")

    @property
    def polytope(self) -> LatticePolytope:
        return self.frame.polytope

    @property
    def size(self) -> int:
        return len(self.components)

    def is_monomial(self) -> bool:
        return all(c.single_monomial_point() is not None
                   for c in self.components)

    def monomial_points(self) -> tuple[IntVec, ...]:
        pts = []
        for c in self.components:
            m = c.single_monomial_point()
            if m is None:
                raise ValueError("system has a non-monomial component")
            pts.append(m)
        return tuple(pts)

    def _vertex_order(self) -> tuple[list[int], list[int], bool]:
        """Indices of the one-term components at the frame's cone vertices,
        of the other components, and whether every maximal cone's vertex
        has such a component."""
        vertices = self.frame._cone_vertices
        first, rest, seen = [], [], set()
        for j, c in enumerate(self.components):
            m = c.coefficients[0][0] if len(c.coefficients) == 1 else None
            if m is not None and m in vertices:
                first.append(j)
                seen.add(m)
            else:
                rest.append(j)
        return first, rest, None not in vertices and seen >= set(vertices)

    def exponent_rows(self) -> list[tuple[int, IntVec]]:
        """(component index, exponent vector) for single-monomial components."""
        rows = []
        for j, c in enumerate(self.components):
            m = c.single_monomial_point()
            if m is not None:
                rows.append((j, self.frame.monomial_exponents(m)))
        return rows

    @cached_property
    def _integer_components(self) -> tuple[tuple[int, list], ...]:
        """Per component, its least common denominator L and its terms
        (L a, exponents) in the facet variables."""
        exps = self.frame.monomial_exponents
        return tuple(_integer_terms([(exps(m), a) for m, a in c.coefficients])
                     for c in self.components)

    def to_json(self) -> dict:
        if self.is_monomial():
            return {"monomials": [list(m) for m in self.monomial_points()]}
        return {"components": [
            [{"m": list(m), "a": str(a)} for m, a in c.coefficients]
            for c in self.components]}

    @classmethod
    def from_json(cls, data: dict, frame: Frame) -> "ParamSystem":
        if "monomials" in data:
            comps = tuple(LatticePolynomial.single(frame, m)
                          for m in data["monomials"])
            return cls(frame, comps)
        comps = []
        for entry in data["components"]:
            coeffs = tuple((_int_vec(t["m"]), t["a"]) for t in entry)
            comps.append(LatticePolynomial(frame, coeffs))
        return cls(frame, tuple(comps))


@dataclass(frozen=True)
class ParamTuple:
    """A tuple of parameter polynomials, one per ray of the target frame."""

    nparams: int
    entries: tuple[MultiPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            if e.nvars != self.nparams:
                raise VariableCountMismatch(
                    "all entries must use the same parameter count")

    @classmethod
    def from_text(cls, text: str, nparams: Optional[int] = None) -> "ParamTuple":
        from .polynomials import parse_tuple
        entries = parse_tuple(text, nparams, "y")
        return cls(entries[0].nvars, entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RationalParametrization:
    """A coprime, not-all-zero tuple of parameter polynomials."""

    nparams: int
    components: tuple[MultiPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        for c in self.components:
            if c.nvars != self.nparams:
                raise VariableCountMismatch("component variable count mismatch")
        if not is_rational_parametrization(self.components):
            raise ValueError("components must be coprime and not all zero")

    @classmethod
    def _trusted(cls, nparams: int, components: tuple[MultiPoly, ...]
                 ) -> "RationalParametrization":
        """Build without ``__post_init__``: for components just divided by
        their gcd, which are coprime and not all zero by construction."""
        rp = object.__new__(cls)
        object.__setattr__(rp, "nparams", nparams)
        object.__setattr__(rp, "components", components)
        return rp


def full_monomial_system(p: LatticePolytope | Frame) -> ParamSystem:
    """One single-monomial component per lattice point, in point order."""
    frame = _as_frame(p)
    comps = tuple(LatticePolynomial.single(frame, m)
                  for m in lattice_points(frame.polytope))
    return ParamSystem(frame, comps)


def subset_monomial_system(p: LatticePolytope | Frame,
                           points: Sequence[Sequence[int]]) -> ParamSystem:
    """The subsystem of point monomials for a chosen point subset.

    Two hypotheses make such a subsystem universal: the subset must span
    the whole polytope by convex hull, and its differences must generate
    the full lattice.  Failures are reported as warnings on the returned
    system, not errors; deliberately violating them is how the negative
    examples are built.
    """
    frame = _as_frame(p)
    pts = [_int_vec(m) for m in points]
    comps = tuple(LatticePolynomial.single(frame, m) for m in pts)
    warnings = []
    if not set(frame.polytope.vertices) <= set(pts):
        warnings.append("hull(points) is a proper subset of the polytope")
    base = pts[0]
    diffs = [tuple(m[i] - base[i] for i in range(len(base))) for m in pts[1:]]
    full = False
    if diffs:
        mat = IntMat.from_cols(diffs, frame.polytope.dim)
        if rank(mat) == frame.polytope.dim:
            h = column_lattice_canonical(mat)
            piv = 1
            for i in range(h.rows):
                piv *= h.at(i, i) if i < h.cols else 0
            full = abs(piv) == 1
    if not full:
        warnings.append("point differences do not generate the full lattice")
    return ParamSystem(frame, comps, tuple(warnings))


def is_primitive_coprime(f: ParamTuple | Sequence[MultiPoly], fan: Fan
                         ) -> tuple[bool, tuple[PrimitiveCollection, ...]]:
    """Check coprimality of the entries along every primitive collection.

    Checking the minimal collections suffices: a gcd over a superset
    divides the gcd over any subset.  By the gcd(0,...,0) = 0 convention a
    collection whose entries all vanish fails.  A collection is coprime
    when the modular certificate proves it; only when that gives up is the
    gcd computed.
    """
    entries = f.entries if isinstance(f, ParamTuple) else tuple(f)
    if len(entries) != fan.ray_count:
        raise LengthMismatch(
            f"{len(entries)} entries for {fan.ray_count} rays")
    violated = []
    for coll in primitive_collections(fan):
        polys = [entries[i] for i in coll.ray_indices]
        if _certify_coprime(polys):
            continue
        g = gcd_many(polys)
        if not (g.is_constant() and not g.is_zero()):
            violated.append(coll)
    return (not violated, tuple(violated))


@dataclass(frozen=True)
class Composition:
    """Result of substituting a tuple into a system.

    ``raw`` holds the substituted components and ``content`` their gcd
    (normalized); the reduced parametrization satisfies raw = content *
    reduced exactly.  For a primitive-coprime tuple over a system with a
    one-term component at a vertex of every maximal cone the content is 1
    by the paper's theorem (see the module docstring), and no gcd is
    taken; otherwise the content is the gcd of ``raw``, which is 1 without
    a gcd when the modular certificate proves ``raw`` coprime.
    """

    content: MultiPoly
    parametrization: RationalParametrization
    tuple_coprime: bool
    raw: tuple[MultiPoly, ...] = field(compare=False, repr=False)

    def raw_components(self) -> tuple[MultiPoly, ...]:
        return self.raw


def _raw_components(p_sys: ParamSystem, f: ParamTuple) -> list[MultiPoly]:
    """f substituted into every component, in the ring; each power f_i^e
    is built once and each point monomial once."""
    frame = p_sys.frame
    powers: list[dict[int, MultiPoly]] = [{} for _ in f.entries]
    monomials: dict[IntVec, MultiPoly] = {}
    one = MultiPoly.one(f.nparams)

    def power_of(m: IntVec) -> MultiPoly:
        out = monomials.get(m)
        if out is None:
            out = one
            for q, table, e in zip(f.entries, powers,
                                   frame.monomial_exponents(m)):
                if e:
                    if e not in table:
                        table[e] = q ** e
                    out = table[e] if out is one else out * table[e]
            monomials[m] = out
        return out

    raw = []
    for comp in p_sys.components:
        total = MultiPoly.zero(f.nparams)
        for m, a in comp.coefficients:
            total = total + power_of(m).scale(a)
        raw.append(total)
    return raw


def _remove_content(raw: Sequence[MultiPoly], order: Sequence[int],
                    trivial: bool = False
                    ) -> tuple[MultiPoly, list[MultiPoly]]:
    """The content of ``raw`` and the components divided by it.

    The content is 1 when ``trivial`` says so or the certificate proves
    the components, taken in ``order``, coprime; the reduced components
    are then ``raw`` itself.  Otherwise it is their gcd, taken in
    ``order``, and each component is divided by it exactly.
    """
    ordered = [raw[j] for j in order]
    if trivial or _certify_coprime(ordered):
        return MultiPoly.one(raw[0].nvars), list(raw)
    content = gcd_many(ordered)
    if content.is_zero():
        raise ValueError("composition is identically zero; the tuple "
                         "maps into the excluded coordinate locus")
    reduced = []
    for h in raw:
        q = try_divide(h, content)
        if q is None:
            raise InternalError("a component is not divisible by the gcd "
                                "of all components")
        reduced.append(q)
    return content, reduced


def compose_system(p_sys: ParamSystem, f: ParamTuple) -> Composition:
    """Substitute f into every component and split off the content.

    Each power f_i^e is built once and each point monomial once.  The
    content is 1 without a gcd when the theorem in the module docstring
    applies or the certificate proves the components coprime; otherwise
    it is the gcd of the composed components, taken vertex components
    first.
    """
    frame = p_sys.frame
    if len(f) != frame.ray_count:
        raise LengthMismatch(
            f"tuple has {len(f)} entries, frame has {frame.ray_count} rays")
    raw = _raw_components(p_sys, f)
    coprime, _ = is_primitive_coprime(f, frame.fan)
    first, rest, vertices_covered = p_sys._vertex_order()
    content, reduced = _remove_content(raw, first + rest,
                                       coprime and vertices_covered)
    return Composition(content,
                       RationalParametrization._trusted(f.nparams,
                                                        tuple(reduced)),
                       coprime, tuple(raw))


def is_rational_parametrization(h: Sequence[MultiPoly]) -> bool:
    """Components not all zero with trivial gcd."""
    if not h:
        return False
    if _certify_coprime(h):
        return True
    g = gcd_many(list(h))
    return g.is_constant() and not g.is_zero()


def same_parametrization(a: Sequence[MultiPoly], b: Sequence[MultiPoly]
                         ) -> bool:
    """Whether two coprime tuples define the same projective map.

    By the coprimality convention this happens exactly when the tuples
    differ by one nonzero constant across all components.
    """
    if len(a) != len(b):
        return False
    scale: Optional[Fraction] = None
    for x, y in zip(a, b):
        if x.is_zero() != y.is_zero():
            return False
        if x.is_zero():
            continue
        q = try_divide(y, x)
        if q is None or not q.is_constant():
            return False
        c = q.constant_value()
        if c == 0:
            return False
        if scale is None:
            scale = c
        elif c != scale:
            return False
    return scale is not None


def check_implicit(h: Sequence[MultiPoly], relation: MultiPoly) -> bool:
    """Substitute the components into a relation and test for zero.

    With the components' integer images H_j = d_j h_j and a common
    multiple W of the denominators, W * relation(h) = sum_e k_e prod_j
    H_j^(e_j) is an integer polynomial, and its value at the packed point
    of ``polynomials`` is zero exactly when it is (the lemma there).  Only
    when that value would pass the packed size cap, or the components
    differ in their variable count, is the relation expanded in the ring.
    """
    if relation.nvars != len(h):
        raise VariableCountMismatch(
            f"relation uses {relation.nvars} variables for {len(h)} components")
    if not h:
        return False
    nparams = h[0].nvars
    if all(comp.nvars == nparams for comp in h):
        images = [_int_image(comp) for comp in h]
        _, terms = _cleared(*_integer_terms(relation.terms()), images)
        norm, degrees = _substitution_bounds(terms, images, nparams)
        B, D = norm.bit_length() + 1, max(degrees)
        if _packed_fits(B, D, nparams):
            values = [_packed_value(im.terms, B, D) for im in images]
            return _substitute(terms, values, {}) == 0
    total = MultiPoly.zero(nparams)
    for e, c in relation.terms():
        term = MultiPoly.constant(nparams, c)
        for comp, k in zip(h, e):
            if k:
                term = term * comp ** k
        total = total + term
    return total.is_zero()

