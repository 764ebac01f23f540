"""Diagonalizable subgroups of coordinate tori and their characters.

The scaling group of a complete fan is the kernel of the monomial map cut
out by the ray matrix; it acts on the homogeneous coordinates so that the
quotient recovers the variety.  Subgroups are stored symbolically: an
exponent matrix parametrizes the free part (column j gives the exponents of
parameter j in each ambient coordinate) and torsion factors are cyclic,
each given by a generator exponent vector and an order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import (DimensionMismatch, LengthMismatch, NonConstantRatio,
                     NonConstantScalar, NotEquivalent, ZeroScalar)
from .linalg import (IntMat, column_lattice_canonical, hermite_normal_form,
                     saturated_kernel_basis)
from .polynomials import MultiPoly, try_divide
from .polytope import Fan, Frame, LatticePolytope, frame_of


@dataclass(frozen=True)
class TorsionGen:
    """Cyclic factor: the element whose i-th coordinate is zeta^exponents[i]
    for a fixed primitive root of unity zeta of the given order."""

    exponents: tuple[int, ...]
    order: int

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("torsion order must be at least 2")
        object.__setattr__(self, "exponents",
                           tuple(int(x) % self.order for x in self.exponents))


@dataclass(frozen=True)
class SubtorusDescription:
    """Parametrized subgroup of an ambient torus, with optional torsion."""

    ambient_dim: int
    exponent_matrix: IntMat
    torsion: tuple[TorsionGen, ...] = ()

    def __post_init__(self):
        if self.exponent_matrix.rows != self.ambient_dim:
            raise DimensionMismatch("exponent matrix must have one row per "
                                    "ambient coordinate")
        for t in self.torsion:
            if len(t.exponents) != self.ambient_dim:
                raise DimensionMismatch("torsion generator length mismatch")

    @property
    def params(self) -> int:
        return self.exponent_matrix.cols

    def point(self, values: Sequence) -> tuple[Fraction, ...]:
        """Ambient coordinates of the free-part element with the given
        parameter values (all nonzero rationals)."""
        vals = [Fraction(v) for v in values]
        if len(vals) != self.params:
            raise DimensionMismatch("one value per parameter required")
        if any(v == 0 for v in vals):
            raise ZeroScalar("group elements have nonzero coordinates")
        out = []
        for i in range(self.ambient_dim):
            x = Fraction(1)
            for j, v in enumerate(vals):
                e = self.exponent_matrix.at(i, j)
                if e:
                    x *= v ** e
            out.append(x)
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "ambient": self.ambient_dim,
            "params": self.params,
            "exponents": self.exponent_matrix.to_rows(),
            "torsion": [{"exponents": list(t.exponents), "order": t.order}
                        for t in self.torsion],
        }


class Character(NamedTuple):
    """A character on a parameter torus, recorded by its exponent vector."""

    exponents: tuple[int, ...]

    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.exponents)


class GroupPoint(NamedTuple):
    """A rational point of a subgroup, in parameter and ambient coordinates."""

    params: tuple[Fraction, ...]
    ambient: tuple[Fraction, ...]


def scaling_group(f: Fan) -> SubtorusDescription:
    """The subgroup of the coordinate torus acting trivially on the variety.

    It is the kernel of the monomial map whose exponent matrix has the ray
    generators as columns; the rays of a complete fan span the lattice, so
    the kernel is a saturated subtorus of dimension rays - dim.
    """
    return SubtorusDescription(f.ray_count, f._ray_kernel, ())


def character_from_offsets(g: SubtorusDescription,
                           offsets: Sequence[int]) -> Character:
    """Restrict the ambient character with the given exponents to g."""
    if len(offsets) != g.ambient_dim:
        raise DimensionMismatch("one offset per ambient coordinate required")
    e = g.exponent_matrix
    return Character(tuple(sum(map(mul, offsets, e.col(j)))
                           for j in range(e.cols)))


def offset_character(p: LatticePolytope | Frame,
                     g: SubtorusDescription) -> Character:
    """The character of g given by the facet offsets (resolved frames use
    their per-ray offsets)."""
    frame = p if isinstance(p, Frame) else frame_of(p)
    return character_from_offsets(g, frame.offsets)


def rescaling_group(frame: Frame) -> SubtorusDescription:
    """Kernel of the frame's offset character on its scaling group.

    These are exactly the coordinate rescalings connecting different tuples
    with the same composition; a resolved frame's extra rays and offsets
    are accounted for automatically.
    """
    g = scaling_group(frame.fan)
    return character_kernel(g, offset_character(frame, g))


def character_kernel(g: SubtorusDescription, chi: Character
                     ) -> SubtorusDescription:
    """Kernel of t -> t^chi on g's parameter torus, in ambient coordinates.

    The kernel is a subtorus of dimension params-1 together with a cyclic
    factor of order gcd(chi); the trivial character returns g itself.
    Only torsion-free g is supported (all groups built here are).
    """
    if g.torsion:
        raise ValueError("character kernels are computed on torsion-free "
                         "subgroups")
    if len(chi.exponents) != g.params:
        raise DimensionMismatch("character length does not match parameters")
    if chi.is_trivial():
        return g
    h, u = hermite_normal_form(IntMat.from_rows([list(chi.exponents)]))
    d = h.at(0, 0)
    free_cols = [u.col(j) for j in range(1, g.params)]
    if free_cols:
        ambient = [g.exponent_matrix.mul_vec(c) for c in free_cols]
        free = column_lattice_canonical(
            IntMat.from_cols(ambient, g.ambient_dim))
    else:
        free = IntMat(g.ambient_dim, 0, ())
    torsion: tuple[TorsionGen, ...] = ()
    if d > 1:
        gen = g.exponent_matrix.mul_vec(u.col(0))
        if any(x % d for x in gen):
            torsion = (TorsionGen(tuple(x % d for x in gen), d),)
    return SubtorusDescription(g.ambient_dim, free, torsion)


def _rational_root(c: Fraction, n: int) -> Optional[Fraction]:
    """Exact n-th root of a nonzero rational, or None."""
    from sympy import integer_nthroot

    if n == 1:
        return c
    negative = c < 0
    if negative and n % 2 == 0:
        return None
    mag = abs(c)
    rn, okn = integer_nthroot(mag.numerator, n)
    rd, okd = integer_nthroot(mag.denominator, n)
    if not (okn and okd):
        return None
    root = Fraction(int(rn), int(rd))
    return -root if negative else root


def solve_character(g: SubtorusDescription, chi: Character,
                    c) -> Optional[GroupPoint]:
    """Find a rational point mu of g with mu^chi = c, if one exists.

    Requires c to be an exact rational d-th power (d = gcd of chi), sign
    permitting; returns None otherwise so the caller can carry the scalar
    explicitly.
    """
    c = Fraction(c)
    if c == 0:
        raise ZeroScalar("character values are nonzero")
    if chi.is_trivial():
        raise ValueError("cannot solve against the trivial character")
    if len(chi.exponents) != g.params:
        raise DimensionMismatch("character length does not match parameters")
    h, u = hermite_normal_form(IntMat.from_rows([list(chi.exponents)]))
    d = h.at(0, 0)
    root = _rational_root(c, d)
    if root is None:
        return None
    direction = u.col(0)
    params = tuple(root ** e for e in direction)
    ambient_exps = g.exponent_matrix.mul_vec(direction)
    ambient = tuple(root ** e for e in ambient_exps)
    return GroupPoint(params, ambient)


def rescale(mu: Sequence, entries: Sequence[MultiPoly]
            ) -> tuple[MultiPoly, ...]:
    """Coordinate-wise scaling of a polynomial tuple by a group element."""
    if len(mu) != len(entries):
        raise LengthMismatch("one scalar per tuple entry required")
    scalars = []
    for x in mu:
        if isinstance(x, MultiPoly):
            if not x.is_constant():
                raise NonConstantScalar(
                    "group elements act by constant scalars only")
            x = x.constant_value()
        x = Fraction(x)
        if x == 0:
            raise ZeroScalar("group elements have nonzero coordinates")
        scalars.append(x)
    return tuple(p.scale(s) for p, s in zip(entries, scalars))


def annihilator_generators(g: SubtorusDescription,
                           support: Optional[Sequence[int]] = None
                           ) -> list[tuple[int, ...]]:
    """Generators of the lattice of monomial relations holding on g.

    A vector w is returned when prod_i mu_i^{w_i} = 1 for every element mu
    of g; membership in g is equivalent to satisfying all of them.  With
    ``support`` given, only relations supported on those coordinates are
    produced (used when some tuple entries are zero and unconstrained).
    """
    r = g.ambient_dim
    rows: list[list[int]] = []
    aux = len(g.torsion)
    e = g.exponent_matrix
    for j in range(e.cols):
        rows.append([e.at(i, j) for i in range(r)] + [0] * aux)
    for t, tor in enumerate(g.torsion):
        row = list(tor.exponents) + [0] * aux
        row[r + t] = tor.order
        rows.append(row)
    if support is not None:
        outside = sorted(set(range(r)) - set(support))
        for i in outside:
            row = [0] * (r + aux)
            row[i] = 1
            rows.append(row)
    if not rows:
        rows = [[0] * (r + aux)]
    kernel = saturated_kernel_basis(IntMat.from_rows(rows))
    return [kernel.col(j)[:r] for j in range(kernel.cols)]


def contains_point(g: SubtorusDescription, mu: Sequence,
                   support: Optional[Sequence[int]] = None) -> bool:
    """Exact membership test for a rational tuple via monomial relations.

    With ``support``, coordinates outside it are existentially quantified
    (the test asks whether some completion lies in g).
    """
    vals = [Fraction(x) for x in mu]
    if len(vals) != g.ambient_dim:
        raise LengthMismatch("coordinate count mismatch")
    idx = range(g.ambient_dim) if support is None else support
    for w in annihilator_generators(g, support):
        prod = Fraction(1)
        for i in idx:
            if w[i]:
                prod *= vals[i] ** w[i]
        if prod != 1:
            return False
    return True


def find_rescaling(f: Sequence[MultiPoly], f2: Sequence[MultiPoly],
                   g: SubtorusDescription) -> tuple[Fraction, ...]:
    """Constant scalars mu in g with f2 = mu . f, coordinate-wise.

    Raises NonConstantRatio when some ratio f2_i/f_i is not a nonzero
    constant, and NotEquivalent when the ratio tuple exists but lies
    outside g.  Entries that are zero on both sides are unconstrained and
    reported as 1.
    """
    if len(f) != len(f2) or len(f) != g.ambient_dim:
        raise LengthMismatch("tuple lengths must match the ambient dimension")
    ratios: list[Fraction] = []
    support: list[int] = []
    for i, (a, b) in enumerate(zip(f, f2)):
        if a.is_zero() and b.is_zero():
            ratios.append(Fraction(1))
            continue
        if a.is_zero() or b.is_zero():
            raise NotEquivalent(f"entry {i} vanishes on one side only")
        q = try_divide(b, a)
        if q is None or not q.is_constant():
            raise NonConstantRatio(f"entry {i}: ratio is not a constant")
        ratios.append(q.constant_value())
        support.append(i)
    if not contains_point(g, ratios, support):
        raise NotEquivalent("the ratio tuple lies outside the subgroup")
    return tuple(ratios)


def subgroup_contains(a: SubtorusDescription, b: SubtorusDescription) -> bool:
    """Whether every element of a lies in b (exact, via relations)."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    relations = annihilator_generators(b)
    e = a.exponent_matrix
    for j in range(e.cols):
        col = e.col(j)
        if any(sum(w[i] * col[i] for i in range(a.ambient_dim)) != 0
               for w in relations):
            return False
    for tor in a.torsion:
        for w in relations:
            if sum(w[i] * tor.exponents[i]
                   for i in range(a.ambient_dim)) % tor.order:
                return False
    return True


def subgroups_equal(a: SubtorusDescription, b: SubtorusDescription) -> bool:
    return subgroup_contains(a, b) and subgroup_contains(b, a)


# -- display ------------------------------------------------------------------------

_PARAM_NAMES = ("λ", "μ", "ν")
_TORSION_NAMES = ("ε", "η", "θ")


def parameter_names(k: int) -> list[str]:
    return [(_PARAM_NAMES[j] if j < 3 else f"t{j + 1}") for j in range(k)]


def _power_str(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def format_character(chi: Character, names: Optional[Sequence[str]] = None
                     ) -> str:
    names = list(names) if names else parameter_names(len(chi.exponents))
    parts = [_power_str(n, e) for n, e in zip(names, chi.exponents) if e != 0]
    return "*".join(parts) if parts else "1"


def format_subgroup(g: SubtorusDescription) -> str:
    """Tuple-style rendering, e.g. ``(λ, μ, ν, λ*μ, μ*ν)`` with torsion
    side conditions appended."""
    names = parameter_names(g.params)
    tnames = [(_TORSION_NAMES[t] if t < 3 else f"ε{t + 1}")
              for t in range(len(g.torsion))]
    coords = []
    for i in range(g.ambient_dim):
        parts = []
        for j in range(g.params):
            e = g.exponent_matrix.at(i, j)
            if e:
                parts.append(_power_str(names[j], e))
        for t, tor in enumerate(g.torsion):
            e = tor.exponents[i] % tor.order
            if e:
                parts.append(_power_str(tnames[t], e))
        coords.append("*".join(parts) if parts else "1")
    text = "(" + ", ".join(coords) + ")"
    conditions = [f"{tnames[t]}^{tor.order} = 1"
                  for t, tor in enumerate(g.torsion)]
    if conditions:
        text += " with " + ", ".join(conditions)
    return text
