"""Recover a polynomial tuple from a composed parametrization.

Up to content and a scalar, each component of a target H is a monomial in
the unknown tuple entries, so the multiplicities mu of every irreducible
factor of H solve E.x = mu for the factor's orders x >= 0, E being the
system's exponent matrix; the scalars solve the multiplicative analogue
prime by prime.  Orders of a primitive-coprime tuple are supported on one
cone (a ray set outside every cone holds a primitive collection), so they
are searched cone by cone in the box [0, max mu].  The bound is proved for
every ray with a positive column entry (x_rho * E_j,rho <= mu_j) and
assumed for rays zero on every nonzero row.  The first order combination
passing exact verification wins; exhaustion means the target does not
factor through the system over the rationals.

A univariate target is not factored.  The vertex components of a
composition hold every irreducible factor (see ``parametrization``), so
every row is split by exact division over a squarefree, pairwise coprime
base of the vertex rows (``polynomials._coprime_base``), one base per
parameter, so that rows which each use one parameter decompose too.  When
some row does not split, the base is built from every row, and every row
splits.  On a single-monomial system, the only kind this path accepts,
the search over the base elements answers as the search over the
irreducibles would:

- every choice of per-factor orders x with E.x = mu composes to the
  target once content and fitted scalars are applied, so verification
  can only fail on primitive-coprimality;
- primitive-coprimality is a condition on each factor's own orders, given
  the fixed zero entries, so the first combination that verifies in
  product order is each factor's first good orders;
- the irreducibles inside one base element share its multiplicities in
  every row, so they have exactly its solution list, and the base search
  returns the same tuple, or the same NoPreimage;
- the cone walks of an element and of its irreducibles are identical, so
  when the elements come in the order of their first irreducibles the
  node cap falls on the same factor, and the base search tries no more
  combinations before ``_CANDIDATE_CAP``.  The factors are ordered by
  their terms, and a product of irreducibles may sort elsewhere; only the
  budgets can then tell the two searches apart.

Verification builds no polynomial.  By the paper's theorem a candidate's
composition is, component by component, a sum of constants times products
of tuple entries, so target = content * scalar * composition is one
identity between integer polynomials per component, decided by packing
both sides into one integer each (the lemma in ``polynomials``).  Factor
hints are divided out the same way: packed integer divisions give the
multiplicities, and a coefficient bound proves the factorization they
imply.  Inputs whose packed integers would pass ``_PACKED_BITS`` take the
ring path: the composition expanded in the ring, and hints divided out by
``try_divide``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import (BudgetExceeded, IncompleteHints, LengthMismatch,
                     MultiParameterUnsupported, NoPreimage,
                     NotMonomialSystem)
from .linalg import IntMat, _particular, _reduce, solve_integer_linear
from .polynomials import (Factorization, MultiPoly, _Image, _cleared,
                          _coprime_base, _int_image, _packed_fits,
                          _packed_value, _substitute, _substitution_bounds,
                          factor_over, normalized, try_divide)
from .parametrization import (ParamSystem, ParamTuple, _raw_components,
                              _remove_content, is_primitive_coprime)
from .polytope import Fan
from .subtorus import offset_character, scaling_group, solve_character

_CANDIDATE_CAP = 2000
_WALK_NODE_CAP = 200_000


@dataclass(frozen=True)
class DecompositionResult:
    """Exact identity: target = content * scalar * composed(system, tuple)."""

    content: MultiPoly
    scalar: Fraction
    f: ParamTuple
    absorbed: bool
    normalization: str


def decompose_univariate(h_raw: Sequence[MultiPoly], p_sys: ParamSystem,
                         fan: Fan) -> DecompositionResult:
    """Decompose a one-parameter target against a single-monomial system.

    Raises NoPreimage when no primitive-coprime preimage exists over the
    rationals (for instance when the recovery would require radicals), and
    MultiParameterUnsupported when a component uses two parameters (supply
    factor hints in that case).
    """
    if not p_sys.is_monomial():
        raise NotMonomialSystem(
            "this entry point requires single-monomial components")
    target = _reduce_target(h_raw, p_sys)
    return _search(target, fan, _split_over_base(target))


def _split_over_base(target: _Target) -> dict[int, Factorization]:
    """Every row split over a coprime base of the vertex rows, or of every
    row when some row does not split over that."""
    rows = [target.reduced[j] for j in target.order]
    if any(len(h.used_variables()) > 1 for h in rows):
        raise MultiParameterUnsupported(
            "a component mixes parameters after content extraction; "
            "supply factor hints")
    base = _coprime_bases(rows[:target.vertex_rows])
    split = [factor_over(h, base) for h in rows]
    if None in split:
        base = _coprime_bases(rows)
        split = [factor_over(h, base) for h in rows]
    return dict(zip(target.order, split))


def _coprime_bases(rows: Sequence[MultiPoly]) -> list[MultiPoly]:
    """A coprime base of the rows in each parameter, concatenated."""
    by_param: dict[tuple[int, ...], list[MultiPoly]] = {}
    for h in rows:
        by_param.setdefault(h.used_variables(), []).append(h)
    return [b for used, polys in by_param.items() if used
            for b in _coprime_base(polys)]


def decompose_with_hints(h_raw: Sequence[MultiPoly], p_sys: ParamSystem,
                         fan: Fan, factor_hints: Sequence[MultiPoly]
                         ) -> DecompositionResult:
    """Decompose against a system using caller-supplied irreducible factors.

    Hints must jointly factor every single-monomial component of the
    target (after content extraction); components spanned by several
    monomials are not factored but checked exactly in the verification
    step.  Works for any number of parameters.
    """
    hints = []
    for hint in factor_hints:
        if hint.is_constant():
            raise IncompleteHints("constant hints are meaningless")
        hints.append(normalized(hint))
    images = [_int_image(hint) for hint in hints]

    def factor_with_hints(poly: MultiPoly) -> Factorization:
        fac = _packed_factorization(poly, hints, images)
        if fac is not None:
            return fac
        factors = []
        rest = poly
        for hint in hints:
            mult = 0
            while True:
                q = try_divide(rest, hint)
                if q is None:
                    break
                rest = q
                mult += 1
            if mult:
                factors.append((hint, mult))
        if not rest.is_constant():
            raise IncompleteHints(
                "hints leave a non-constant cofactor behind")
        return Factorization(rest.constant_value(), tuple(factors))

    target = _reduce_target(h_raw, p_sys)
    return _search(target, fan, {j: factor_with_hints(target.reduced[j])
                                 for j in target.order})


def _packed_factorization(poly: MultiPoly, hints: Sequence[MultiPoly],
                          images: Sequence[_Image]
                          ) -> Optional[Factorization]:
    """What dividing poly by each hint in turn, as often as it divides,
    finds, found by dividing packed integers; None when the guard below
    does not prove it.

    The hints are primitive.  P = den * poly is an integer polynomial of
    degree at most D in each variable, and B leaves room both for
    2^(sum of P's degrees) |P|_1, a bound on |c| prod |h|_1^m when P = c
    prod h^m (Mahler), and for every hint that may divide P.  The integer
    P(K) is divided by each h(K) while the remainder is zero and P has the
    degree for one more h; c is what is left.  When |c| prod |h|_1^m +
    |P|_1 < 2^(B-2), the lemma in ``polynomials`` makes P = c prod h^m an
    identity.  The division loop then finds the same multiplicities: it
    divides h out at least m times, and once more only if h divides what
    is left, c prod (later hints)^m, an integer polynomial, so that
    (Gauss's lemma) h(K) divides its value, which the integer loop refuted.
    An integer h(K) may divide where h does not: u + 1 divides v + 1 when
    the packed v is an odd power of the packed u.  Then the guard fails,
    and the variables are packed once more in reverse order.
    """
    n = poly.nvars
    if any(hint.nvars != n for hint in hints):
        return None
    p = _int_image(poly)
    D = max(p.degrees)
    B = sum(p.degrees) + p.norm.bit_length() + 3
    usable = []
    for hint, im in zip(hints, images):
        # a hint of higher degree than poly does not divide it; for the
        # others |h(K)| >= 2, so the division loops end
        if all(map(int.__le__, im.degrees, p.degrees)):
            usable.append((hint, im))
            B = max(B, (im.norm + 1).bit_length() + 1)
    if not _packed_fits(B, D, n):
        return None
    for step in (1, -1)[:n]:
        value = _packed_value([(e[::step], c) for e, c in p.terms], B, D)
        found = []
        norm = 1
        room = list(p.degrees)
        for hint, im in usable:
            h = _packed_value([(e[::step], c) for e, c in im.terms], B, D)
            cap = min(r // d for r, d in zip(room, im.degrees) if d)
            mult = 0
            while mult < cap:
                q, r = divmod(value, h)
                if r:
                    break
                value, mult = q, mult + 1
            if mult:
                found.append((hint, mult))
                norm *= im.norm ** mult
                room = [r - mult * d for r, d in zip(room, im.degrees)]
        if abs(value) * norm + p.norm < 1 << (B - 2):
            return Factorization(Fraction(value, p.den), tuple(found))
    return None


class _Target(NamedTuple):
    """A target divided by its content, and the rows decomposition reads."""

    h_raw: tuple[MultiPoly, ...]
    content: MultiPoly
    reduced: list[MultiPoly]
    rows: list[tuple[int, tuple[int, ...]]]  # nonzero single-monomial rows
    order: list[int]       # their indices, vertex rows first
    vertex_rows: int       # how many of ``order`` are vertex rows
    active: list[int]      # rays not forced to zero
    p_sys: ParamSystem


def _reduce_target(h_raw: Sequence[MultiPoly], p_sys: ParamSystem
                   ) -> _Target:
    h_raw = tuple(h_raw)
    if len(h_raw) != p_sys.size:
        raise LengthMismatch(
            f"target has {len(h_raw)} components, system has {p_sys.size}")
    if all(h.is_zero() for h in h_raw):
        raise ValueError("target components are all zero")
    r = p_sys.frame.ray_count

    first, rest, _ = p_sys._vertex_order()
    content, reduced = _remove_content(h_raw, first + rest)

    mono_rows = p_sys.exponent_rows()
    if not mono_rows:
        raise NotMonomialSystem(
            "decomposition needs at least one single-monomial component")
    nonzero_rows = [(j, e) for j, e in mono_rows if not reduced[j].is_zero()]
    zero_rows = [(j, e) for j, e in mono_rows if reduced[j].is_zero()]

    # Entries forced to zero: rays appearing only in vanished components.
    allowed_zero = {i for i in range(r)
                    if all(e[i] == 0 for _, e in nonzero_rows)}
    zero_entries: set[int] = set()
    for j, e in zero_rows:
        hitters = [i for i in allowed_zero if e[i] > 0]
        if not hitters:
            raise NoPreimage(
                f"component {j} vanishes but no tuple entry can explain it")
        zero_entries.update(hitters)
    active = [i for i in range(r) if i not in zero_entries]

    nonzero = {j for j, _ in nonzero_rows}
    vertex = [j for j in first if j in nonzero]
    order = vertex + [j for j in rest if j in nonzero]
    return _Target(h_raw, content, reduced, nonzero_rows, order, len(vertex),
                   active, p_sys)


def _search(target: _Target, fan: Fan,
            factorizations: dict[int, Factorization]) -> DecompositionResult:
    """The first order combination that verifies, given every row's
    factorization; NoPreimage when none does."""
    h_raw, content, p_sys = target.h_raw, target.content, target.p_sys
    nonzero_rows, active = target.rows, target.active
    nparams = h_raw[0].nvars
    r = p_sys.frame.ray_count
    factors: list[MultiPoly] = []
    for j, _ in nonzero_rows:
        for fac, _mult in factorizations[j].factors:
            if fac not in factors:
                factors.append(fac)

    if nonzero_rows:
        exp_matrix = IntMat.from_rows([[e[i] for i in active]
                                       for _, e in nonzero_rows])
        units = [factorizations[j].unit for j, _ in nonzero_rows]
        fit = _fit_scalars(exp_matrix, units)
        if fit is None:
            raise NoPreimage("the component scalars do not factor through "
                             "the system over the rationals")
        scalar, coeffs = fit
    else:
        exp_matrix = None
        scalar, coeffs = Fraction(1), [Fraction(1)] * len(active)

    per_factor_candidates: list[list[tuple[int, ...]]] = []
    for fac in factors:
        mults = [_multiplicity(factorizations[j], fac)
                 for j, _ in nonzero_rows]
        candidates = _cone_solutions(exp_matrix, mults, fan, active)
        if not candidates:
            raise NoPreimage(
                "no nonnegative integer orders match the factor "
                "multiplicities (the preimage would need radicals or lies "
                "in the excluded locus)")
        per_factor_candidates.append(candidates)

    tried = 0
    for combo in itertools.product(*per_factor_candidates):
        tried += 1
        if tried > _CANDIDATE_CAP:
            # refusing to answer beats a false negative
            raise BudgetExceeded("too many order assignments to verify "
                                 "for this system/target combination")
        entries: list[MultiPoly] = []
        for pos, i in enumerate(active):
            ent = MultiPoly.one(nparams)
            for fac, orders in zip(factors, combo):
                if orders[pos]:
                    ent = ent * fac ** orders[pos]
            entries.append(ent.scale(coeffs[pos]))
        full = _expand_entries(entries, active, r, nparams)
        result = _verify(h_raw, content, scalar, full, p_sys, fan, nparams)
        if result is not None:
            return result
    raise NoPreimage("no primitive-coprime preimage reproduces the target "
                     "exactly over the rationals")


def _multiplicity(fac: Factorization, poly: MultiPoly) -> int:
    for f, mult in fac.factors:
        if f == poly:
            return mult
    return 0


def _cone_solutions(exp_matrix: IntMat, rhs: Sequence[int], fan: Fan,
                    active: Sequence[int]) -> list[tuple[int, ...]]:
    """Sorted solutions x >= 0 of exp_matrix.x = rhs, entries at most
    max(rhs) > 0, whose support (columns are the active rays) lies in a cone.

    A ray positive in a row with right-hand side 0 has order 0, as the
    matrix and the orders are nonnegative.  Each maximal cone's other rays
    are solved and walked on their own; the node cap spans all cones.
    """
    bound = max(rhs)
    dead = {pos for j, mu in enumerate(rhs) if mu == 0
            for pos, e in enumerate(exp_matrix.row(j)) if e > 0}
    position = {ray: pos for pos, ray in enumerate(active) if pos not in dead}
    cones = {frozenset(position[i] for i in cone.ray_indices
                       if i in position) for cone in fan.max_cones}
    nodes = 0
    out = set()
    # a support inside another one has its solutions found there too
    for support in (sorted(c) for c in cones
                    if c and not any(c < o for o in cones)):
        sub = IntMat.from_rows([[exp_matrix.at(j, pos) for pos in support]
                                for j in range(exp_matrix.rows)])
        solved = solve_integer_linear(sub, rhs)
        if solved is not None:
            found, nodes = _box_walk(*solved, bound, nodes)
            for x in found:
                lift = dict(zip(support, x))
                out.add(tuple(lift.get(pos, 0)
                              for pos in range(exp_matrix.cols)))
    return sorted(out)


def _box_walk(particular: Sequence[int], kernel: IntMat, bound: int,
              nodes: int) -> tuple[list[tuple[int, ...]], int]:
    """Every x = particular + kernel.t in [0, bound]^n, and the node count.

    The kernel is in column Hermite form: column j is zero above its pivot
    row p_j, and the pivots increase and are positive.  So row p_j bounds
    t_j exactly once t_0..t_{j-1} are chosen, and choosing t_j fixes the
    rows before p_{j+1}, which prune the walk.
    """
    cols = [kernel.col(j) for j in range(kernel.cols)]
    pivots = [next(i for i, v in enumerate(c) if v) for c in cols]
    fixed = list(zip([0] + [p + 1 for p in pivots], pivots + [len(particular)]))
    out = []

    def walk(j, x):
        nonlocal nodes
        nodes += 1
        if nodes > _WALK_NODE_CAP:
            raise BudgetExceeded("order-matching search region is too "
                                 "large for this system/target combination")
        if not all(0 <= v <= bound for v in x[slice(*fixed[j])]):
            return
        if j == len(cols):
            out.append(tuple(x))
            return
        p, col = pivots[j], cols[j]
        for t in range(-(x[p] // col[p]), (bound - x[p]) // col[p] + 1):
            walk(j + 1, [a + t * b for a, b in zip(x, col)])

    walk(0, list(particular))
    return out, nodes


def _fit_scalars(exp_matrix: IntMat, units: Sequence[Fraction]
                 ) -> Optional[tuple[Fraction, list[Fraction]]]:
    """Solve scalar * prod_i c_i^{E_ji} = unit_j multiplicatively over Q.

    Exponent vectors are solved prime by prime (and for the sign, modulo
    2); the extra all-ones column carries the global scalar.  Every prime
    solves against one Hermite form of the augmented matrix.
    """
    nrows = exp_matrix.rows
    ncols = exp_matrix.cols
    aug_rows = [[1] + list(exp_matrix.row(j)) for j in range(nrows)]
    reduced = _reduce(IntMat.from_rows(aug_rows))

    import sympy

    primes = set()
    for u in units:
        primes.update(sympy.factorint(u.numerator).keys())
        primes.update(sympy.factorint(u.denominator).keys())
    primes.discard(-1)

    log_c = Fraction(1)
    logs = [Fraction(1)] * ncols
    for p in sorted(primes):
        rhs = [_valuation(u, p) for u in units]
        vec = _particular(*reduced, rhs)
        if vec is None:
            return None
        log_c *= Fraction(p) ** vec[0]
        for i in range(ncols):
            logs[i] *= Fraction(p) ** vec[1 + i]

    sign_rows = [row + [2 if t == k else 0 for t in range(nrows)]
                 for k, row in enumerate(aug_rows)]
    sign_rhs = [0 if u > 0 else 1 for u in units]
    svec = _particular(*_reduce(IntMat.from_rows(sign_rows)), sign_rhs)
    if svec is None:
        return None
    if svec[0] % 2:
        log_c = -log_c
    for i in range(ncols):
        if svec[1 + i] % 2:
            logs[i] = -logs[i]
    return log_c, logs


def _valuation(x: Fraction, p: int) -> int:
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _expand_entries(entries: list[MultiPoly], active: list[int], r: int,
                    nparams: int) -> list[MultiPoly]:
    full = [MultiPoly.zero(nparams)] * r
    for pos, i in enumerate(active):
        full[i] = entries[pos]
    return full


def _packed_reproduces(h_raw: Sequence[MultiPoly], content: MultiPoly,
                       scalar: Fraction, tup: ParamTuple, p_sys: ParamSystem
                       ) -> Optional[bool]:
    """Whether each target component is content * scalar * its raw
    composition sum a prod_i f_i^(e_i), decided on packed integers; None
    when they would pass the packed size cap.

    With the integer images T = d_T target, C = d_C content and F_i of the
    entries, R = W raw = sum k prod_i F_i^(e_i) is an integer polynomial,
    and the identity reads T d_C W den(scalar) = C R num(scalar) d_T.  One B
    and one D cover both sides of every component, so each entry is packed
    once and each power of it is taken once.
    """
    n = tup.nparams
    images = [_int_image(f) for f in tup.entries]
    cont = _int_image(content)
    rows = []
    bound = D = 0
    for target, comp in zip(h_raw, p_sys._integer_components):
        t = _int_image(target)
        w, terms = _cleared(*comp, images)
        norm, degrees = _substitution_bounds(terms, images, n)
        lhs = cont.den * w * scalar.denominator
        rhs = scalar.numerator * t.den
        bound = max(bound, t.norm * lhs + cont.norm * norm * abs(rhs))
        D = max(D, *t.degrees, *map(int.__add__, cont.degrees, degrees))
        rows.append((t.terms, lhs, terms, rhs))
    B = bound.bit_length() + 1
    if not _packed_fits(B, D, n):
        return None
    values = [_packed_value(im.terms, B, D) for im in images]
    c_value = _packed_value(cont.terms, B, D)
    powers: dict = {}
    return all(_packed_value(t_terms, B, D) * lhs
               == c_value * _substitute(terms, values, powers) * rhs
               for t_terms, lhs, terms, rhs in rows)


def _verify(h_raw: Sequence[MultiPoly], content: MultiPoly, scalar: Fraction,
            entries: list[MultiPoly], p_sys: ParamSystem, fan: Fan,
            nparams: int) -> Optional[DecompositionResult]:
    tup = ParamTuple(nparams, tuple(entries))
    coprime, _ = is_primitive_coprime(tup, fan)
    if not coprime:
        return None
    same = _packed_reproduces(h_raw, content, scalar, tup, p_sys)
    if same is None:
        scaled_content = content.scale(scalar)
        same = all(raw * scaled_content == target for target, raw
                   in zip(h_raw, _raw_components(p_sys, tup)))
    if not same:
        return None
    scalar_out = scalar
    absorbed = scalar == 1
    if not absorbed:
        group = scaling_group(fan)
        chi = offset_character(p_sys.frame, group)
        point = None
        if not chi.is_trivial():
            point = solve_character(group, chi, scalar)
        if point is not None:
            # nonzero constant factors change no gcd, so tup stays coprime
            tup = ParamTuple(nparams,
                             tuple(e.scale(c) for e, c
                                   in zip(tup.entries, point.ambient)))
            scalar_out = Fraction(1)
            absorbed = True
    if scalar == 1:
        tail = "no scalar to absorb"
    elif absorbed:
        tail = "scalar absorbed into the tuple"
    else:
        tail = "scalar left explicit (no rational root)"
    note = ("tuple is determined up to the composition-invariant subgroup; "
            + tail)
    return DecompositionResult(content, scalar_out, tup, absorbed, note)
