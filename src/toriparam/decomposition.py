"""Recover a polynomial tuple from a composed parametrization.

Up to content and a scalar, each component of a target H is a monomial in
the unknown tuple entries, so the multiplicities mu of every irreducible
factor of H solve E.x = mu for the factor's orders x >= 0, E being the
system's exponent matrix; the scalars solve the multiplicative analogue
prime by prime.  The vertex components of a composition hold every
irreducible factor (see ``parametrization``), so they are factored first
and the other univariate components are split by exact division over the
factors found, with a factorization only where a cofactor is left.
Orders of a primitive-coprime tuple are supported on one cone (a ray set
outside every cone holds a primitive collection), so they are searched
cone by cone in the box [0, max mu].  The bound is proved for every ray
with a positive column entry (x_rho * E_j,rho <= mu_j) and assumed for
rays zero on every nonzero row.  The first order combination passing
exact verification wins; exhaustion means the target does not factor
through the system over the rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import (BudgetExceeded, IncompleteHints, InternalError,
                     LengthMismatch, MultiParameterUnsupported, NoPreimage,
                     NotMonomialSystem, NotUnivariate)
from .linalg import IntMat, _particular, _reduce, solve_integer_linear
from .polynomials import (Factorization, MultiPoly, _certify_coprime,
                          factor_over, factor_univariate, gcd_many,
                          normalized, try_divide)
from .parametrization import (ParamSystem, ParamTuple, compose_system,
                              is_primitive_coprime)
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
    MultiParameterUnsupported when more than one parameter appears (supply
    factor hints in that case).
    """
    if not p_sys.is_monomial():
        raise NotMonomialSystem(
            "this entry point requires single-monomial components")

    found: list[MultiPoly] = []

    def factorizer(poly: MultiPoly) -> Factorization:
        # _decompose passes vertex rows first, and they hold every
        # irreducible factor of a composition, so a later row that splits
        # over the factors found so far needs no factorization of its own.
        fac = factor_over(poly, found)
        if fac is None:
            try:
                fac = factor_univariate(poly)
            except NotUnivariate as exc:
                raise MultiParameterUnsupported(
                    "a component mixes parameters after content "
                    "extraction; supply factor hints") from exc
            found.extend(q for q, _ in fac.factors if q not in found)
        return fac

    return _decompose(h_raw, p_sys, fan, factorizer)


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

    def factor_with_hints(poly: MultiPoly) -> Factorization:
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

    return _decompose(h_raw, p_sys, fan, factor_with_hints)


def _decompose(h_raw: Sequence[MultiPoly], p_sys: ParamSystem, fan: Fan,
               factorizer: Callable[[MultiPoly], Factorization]
               ) -> DecompositionResult:
    """The shared decomposition; ``factorizer`` gets the nonzero
    single-monomial rows of the reduced target, vertex rows first."""
    h_raw = tuple(h_raw)
    if len(h_raw) != p_sys.size:
        raise LengthMismatch(
            f"target has {len(h_raw)} components, system has {p_sys.size}")
    if all(h.is_zero() for h in h_raw):
        raise ValueError("target components are all zero")
    nparams = h_raw[0].nvars
    r = p_sys.frame.ray_count

    order, _ = p_sys._vertex_order()
    ordered = [h_raw[j] for j in order]
    content = (MultiPoly.one(nparams) if _certify_coprime(ordered)
               else gcd_many(ordered))
    reduced = []
    for h in h_raw:
        q = try_divide(h, content)
        if q is None:
            raise InternalError("a target component is not divisible by "
                                "the gcd of all components")
        reduced.append(q)

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

    # Factor the surviving single-monomial components.
    nonzero = {j for j, _ in nonzero_rows}
    factorizations = {j: factorizer(reduced[j]) for j in order
                      if j in nonzero}
    irreducibles: list[MultiPoly] = []
    for j, _ in nonzero_rows:
        for fac, _mult in factorizations[j].factors:
            if fac not in irreducibles:
                irreducibles.append(fac)

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
    for fac in irreducibles:
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
            for fac, orders in zip(irreducibles, combo):
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


def _verify(h_raw: Sequence[MultiPoly], content: MultiPoly, scalar: Fraction,
            entries: list[MultiPoly], p_sys: ParamSystem, fan: Fan,
            nparams: int) -> Optional[DecompositionResult]:
    tup = ParamTuple(nparams, tuple(entries))
    coprime, _ = is_primitive_coprime(tup, fan)
    if not coprime:
        return None
    comp = compose_system(p_sys, tup)
    scaled_content = content.scale(scalar)
    for target, raw in zip(h_raw, comp.raw_components()):
        if raw * scaled_content != target:
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
