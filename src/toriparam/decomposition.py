"""Recover a polynomial tuple from a composed parametrization.

Given a target tuple H and a monomial system, each component of H is (up
to content and a scalar) a monomial in the unknown tuple entries, so the
multiplicity of every irreducible factor of H solves an integer linear
system through the system's exponent matrix, and the scalars solve the
multiplicative analogue prime by prime.  The kernel of the exponent matrix
is exactly the exponent lattice of the composition-invariant subgroup, so
candidate solutions are enumerated over a bounded kernel region and the
first candidate passing exact verification wins; exhaustion means the
target does not factor through the system over the rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import sympy

from .errors import (IncompleteHints, InternalError, LengthMismatch,
                     MultiParameterUnsupported, NoPreimage,
                     NotMonomialSystem, NotUnivariate)
from .linalg import IntMat, determinant, solve_integer_linear
from .polynomials import (Factorization, MultiPoly, factor_univariate,
                          gcd_many, normalized, try_divide)
from .parametrization import (ParamSystem, ParamTuple, compose_system,
                              is_primitive_coprime)
from .polytope import Fan
from .subtorus import offset_character, scaling_group, solve_character

_CANDIDATE_CAP = 2000


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

    def factorizer(poly: MultiPoly) -> Factorization:
        try:
            return factor_univariate(poly)
        except NotUnivariate as exc:
            raise MultiParameterUnsupported(
                "a component mixes parameters after content extraction; "
                "supply factor hints") from exc

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
    h_raw = tuple(h_raw)
    if len(h_raw) != p_sys.size:
        raise LengthMismatch(
            f"target has {len(h_raw)} components, system has {p_sys.size}")
    if all(h.is_zero() for h in h_raw):
        raise ValueError("target components are all zero")
    nparams = h_raw[0].nvars
    r = p_sys.frame.ray_count

    content = gcd_many(list(h_raw))
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
    factorizations = {j: factorizer(reduced[j]) for j, _ in nonzero_rows}
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
        candidates = _nonnegative_solutions(exp_matrix, mults)
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
            raise ValueError("too many order assignments to verify for "
                             "this system/target combination")
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


def _nonnegative_solutions(exp_matrix: IntMat, rhs: Sequence[int]
                           ) -> list[tuple[int, ...]]:
    """All nonnegative integer solutions with entries at most max(rhs).

    Entry orders of a genuine preimage never exceed the largest factor
    multiplicity on the right-hand side, so the solution set is the integer
    lattice of a box section of the solution plane.  Kernel coefficients
    are bounded exactly through an invertible submatrix of the kernel
    basis, which keeps the search sound even when the particular solution
    lies far from the box.
    """
    solved = solve_integer_linear(exp_matrix, list(rhs))
    if solved is None:
        return []
    particular, kernel = solved
    bound = max(rhs) if rhs else 0
    ranges = _coefficient_ranges(particular, kernel, bound)
    if ranges is None:
        raise ValueError("order-matching search region is too large for "
                         "this system/target combination")
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


def _coefficient_ranges(particular: Sequence[int], kernel: IntMat,
                        bound: int) -> Optional[list[range]]:
    """Per-coordinate coefficient ranges covering every solution in the box
    0 <= particular + kernel.t <= bound."""
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
    adj = _adjugate(sub)
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
        if total_size > 200_000:
            return None
    return ranges


def _adjugate(m: IntMat) -> list[list[int]]:
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


def _fit_scalars(exp_matrix: IntMat, units: Sequence[Fraction]
                 ) -> Optional[tuple[Fraction, list[Fraction]]]:
    """Solve scalar * prod_i c_i^{E_ji} = unit_j multiplicatively over Q.

    Exponent vectors are solved prime by prime (and for the sign, modulo
    2); the extra all-ones column carries the global scalar.
    """
    nrows = exp_matrix.rows
    ncols = exp_matrix.cols
    aug_rows = [[1] + list(exp_matrix.row(j)) for j in range(nrows)]
    aug = IntMat.from_rows(aug_rows)

    primes = set()
    for u in units:
        primes.update(sympy.factorint(u.numerator).keys())
        primes.update(sympy.factorint(u.denominator).keys())
    primes.discard(-1)

    log_c = Fraction(1)
    logs = [Fraction(1)] * ncols
    for p in sorted(primes):
        rhs = [_valuation(u, p) for u in units]
        solved = solve_integer_linear(aug, rhs)
        if solved is None:
            return None
        vec = solved[0]
        log_c *= Fraction(p) ** vec[0]
        for i in range(ncols):
            logs[i] *= Fraction(p) ** vec[1 + i]

    sign_rows = [row + [2 if t == k else 0 for t in range(nrows)]
                 for k, row in enumerate(aug_rows)]
    sign_rhs = [0 if u > 0 else 1 for u in units]
    solved = solve_integer_linear(IntMat.from_rows(sign_rows), sign_rhs)
    if solved is None:
        return None
    svec = solved[0]
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
    for target, raw in zip(h_raw, comp.raw_components()):
        if raw.scale(scalar) * content != target:
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
            tup = ParamTuple(nparams,
                             tuple(e.scale(c) for e, c
                                   in zip(tup.entries, point.ambient)))
            coprime, _ = is_primitive_coprime(tup, fan)
            if coprime:
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
