"""Sparse multivariate polynomials with exact rational coefficients.

One polynomial engine backs everything here: a ``MultiPoly`` wraps an
element of sympy's sparse polynomial ring over QQ in graded lexicographic
order, one ring per variable count, built on first use.  Arithmetic,
exact division, gcd and univariate factorization all run in that ring;
only the squarefree coprime base of univariate polynomials
(``_coprime_base``) runs on sympy's dense integer routines.
This module adds immutability, the text grammar and the normalization
conventions (gcd has content 1 and positive leading coefficient, factors
are monic, gcd(0, ..., 0) = 0); coefficients leave it as ``Fraction``.
sympy is imported with the first ring, so a process that builds no
polynomial never loads it.

Exact division is long division that stops at the first remainder term
the divisor's leading term does not divide.  Coprimality has a one-sided
test besides the gcd, ``_certify_coprime``: restrict every polynomial to
the fixed line l(t) = a t + b and read it modulo the prime P = 2^61 - 1.
If some f keeps its degree there (its top-degree form f_top has f_top(a)
nonzero mod P) and the images have gcd 1 in GF(P)[t], the gcd over the
rationals is a constant.  For let h be the primitive integer gcd: h o l
mod P divides every image, and h_top(a) divides f_top(a), so h o l mod P
has degree deg h, which a unit gcd forces to 0.  This is the modular
argument of Brown's gcd algorithm (JACM 1971), used only to prove a gcd
trivial; when it proves nothing, callers compute the gcd.

Identities between polynomials that are known term by term are decided on
packed integers (Kronecker substitution): ``_int_image`` clears a
polynomial's denominators, and ``_packed_value`` evaluates the integer
image at u_v = 2^(B (D+1)^v), a sum of shifted coefficients that Python
computes with native integer arithmetic.  The lemma: a nonzero integer
polynomial f of degree at most D in each variable, whose coefficients lie
below 2^(B-1) in absolute value, does not vanish there.  For the exponents
e with 0 <= e_v <= D are the base-(D+1) digits of distinct k(e) = sum_v
e_v (D+1)^v, so f(K) = sum_k c_k 2^(B k) with distinct k.  If c_t is the
nonzero coefficient of the largest k, then |c_t| 2^(B t) >= 2^(B t), while
the lower terms add up to at most (2^(B-1) - 1)(2^(B t) - 1)/(2^B - 1) <
2^(B t).  So two polynomials within those bounds are equal exactly when
their values are (Schoenhage, EUROCAM 1982; Harvey, J. Symbolic Comput. 44,
2009).  Coefficients are bounded by 1-norms, as |fg|_inf <= |f|_1 |g|_1,
and the ring path is taken instead when B (D+1)^n passes ``_PACKED_BITS``.

Every use of the paper's substitution h = sum a prod_i f_i^(e_i) goes
through two functions here, reading the integer terms (L a, e) of
``_integer_terms``: ``_expand`` builds h in the ring, for
``compose_system``, and ``_reproduces`` decides target = content * scalar
* h on packed integers, for ``decomposition._verify`` and, with target 0,
for ``check_implicit``.  ``_split`` writes the rows of both decompositions
as a unit times powers of given elements, a coprime base or factor hints.
The kernel depends on how many variables a row uses.  Rows in one
variable divide on integer coefficient lists, whose quotients shrink as
they go, while a packed row is one long integer that every division
copies (on the rows of ((u+1)^n, 1, 1, 1), packed division was 5 times
slower at n = 300 and 19 times at n = 600).  Rows in more variables
divide on packed integers, as their dense lists would be mostly zeros.
No other module knows the packed format.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import (NotUnivariate, ParseError, VariableCountMismatch,
                     ZeroPolynomial)

if TYPE_CHECKING:
    from sympy.polys.rings import PolyElement, PolyRing

Exponents = tuple[int, ...]

# A ring with n generators holds n exponent tuples of length n, so the
# width is capped rather than letting one request allocate quadratically.
MAX_VARIABLES = 1000
# Parenthesized groups nest at most this deep in polynomial text.
MAX_NESTING = 100

_RINGS: dict[int, PolyRing] = {}


def _ring(nvars: int) -> PolyRing:
    ring = _RINGS.get(nvars)
    if ring is None:
        if nvars < 1:
            raise VariableCountMismatch(
                "polynomials need at least one variable")
        if nvars > MAX_VARIABLES:
            raise VariableCountMismatch(
                f"{nvars} variables exceed the supported {MAX_VARIABLES}")
        # sympy loads with the first ring; every other use of these names
        # runs on a polynomial, so after some ring exists.
        global QQ, ZZ
        from sympy.polys.domains import QQ, ZZ
        from sympy.polys.orderings import grlex
        from sympy.polys.rings import PolyRing
        ring = _RINGS[nvars] = PolyRing(f"v_0:{nvars}", QQ, grlex)
    return ring


def _fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _qq(c):
    c = Fraction(c)
    return QQ(c.numerator, c.denominator)


_set = object.__setattr__


def _wrap(nvars: int, p: PolyElement) -> "MultiPoly":
    """A MultiPoly around a ring element, with no per-term work."""
    self = object.__new__(MultiPoly)
    _set(self, "nvars", nvars)
    _set(self, "_p", p)
    _set(self, "_hash", None)
    return self


class MultiPoly:
    """Immutable sparse polynomial in ``nvars`` variables over the rationals."""

    __slots__ = ("nvars", "_p", "_hash")

    def __init__(self, nvars: int, terms: dict[Exponents, Fraction] | None = None):
        ring = _ring(nvars)
        clean = {}
        for e, c in (terms or {}).items():
            if len(e) != nvars:
                raise VariableCountMismatch(
                    f"exponent tuple {e} does not have {nvars} entries")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = Fraction(c)
            if c != 0:
                clean[tuple(int(x) for x in e)] = QQ(c.numerator,
                                                     c.denominator)
        _set(self, "nvars", nvars)
        _set(self, "_p", ring.dtype(clean))
        _set(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        e = [0] * nvars
        e[index] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exponents: Sequence[int], coeff=1) -> "MultiPoly":
        return cls(nvars, {tuple(exponents): Fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    def terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order."""
        return [(e, _fraction(c)) for e, c in self._p.terms()]

    def is_zero(self) -> bool:
        return not self._p

    def is_constant(self) -> bool:
        return self._p.is_ground

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coefficient((0,) * self.nvars)

    def total_degree(self) -> int:
        return max(map(sum, self._p), default=-1)

    def leading_coefficient(self) -> Fraction:
        return _fraction(self._p.LC)

    def used_variables(self) -> tuple[int, ...]:
        used = set()
        for e in self._p:
            for i, x in enumerate(e):
                if x > 0:
                    used.add(i)
        return tuple(sorted(used))

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        c = self._p.get(tuple(exponents))
        return Fraction(0) if c is None else _fraction(c)

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and dict.__eq__(self._p, other._p))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self._p.items())))
            _set(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {render(self)!r})"

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise VariableCountMismatch(
                f"{self.nvars} variables vs {other.nvars}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return _wrap(self.nvars, self._p + other._p)

    def __neg__(self) -> "MultiPoly":
        return _wrap(self.nvars, -self._p)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return _wrap(self.nvars, self._p - other._p)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return _wrap(self.nvars, self._p * other._p)

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:  # the ring refuses 0**0; here it is 1
            return MultiPoly.one(self.nvars)
        return _wrap(self.nvars, self._p ** k)

    def scale(self, c) -> "MultiPoly":
        return _wrap(self.nvars, self._p.mul_ground(_qq(c)))

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise VariableCountMismatch(
                f"point has {len(point)} coordinates, need {self.nvars}")
        gens = self._p.ring.gens
        return _fraction(self._p.subs(list(zip(gens, map(_qq, point)))).LC)


def _primitive(f: PolyElement) -> PolyElement:
    """f over its content, with a positive graded-lex leading coefficient."""
    _, f = f.primitive()
    return -f if f.LC < 0 else f


def normalized(p: MultiPoly) -> MultiPoly:
    """Scale to content 1 and positive graded-lex leading coefficient."""
    return _wrap(p.nvars, _primitive(p._p))


def try_divide(p: MultiPoly, d: MultiPoly) -> Optional[MultiPoly]:
    """Exact quotient p/d, or None when d does not divide p.

    Long division stops at the first remainder whose leading monomial
    lm(d) does not divide: when d divides p, every remainder is
    (q - partial quotient) * d, whose leading monomial lm(d) divides.
    """
    p._check(d)
    if d.is_zero():
        return None
    if d.is_constant():
        return _wrap(p.nvars, p._p.quo_ground(d._p.LC))
    f, g = p._p, d._p
    term_div = f._term_div()
    lead = g.leading_expv()
    lead = (lead, g[lead])
    q, r = f.ring.zero, f.copy()
    while r:
        e = r.leading_expv()
        term = term_div((e, r[e]), lead)
        if term is None:
            return None
        q = q._iadd_monom(term)
        r = r._iadd_poly_monom(g, (term[0], -term[1]))
    return _wrap(p.nvars, q)


def gcd_multi(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """gcd normalized to content 1 and positive leading coefficient.

    Follows the convention gcd(0, 0) = 0; gcd(p, 0) is the normalized p.
    """
    p._check(q)
    f, g = p._p, q._p
    if len(f) < 2 or len(g) < 2:  # zero, a constant or a monomial
        return _wrap(p.nvars, _primitive(f.gcd(g)))
    # The ring's gcd over QQ also converts both cofactors back from ZZ and
    # makes the gcd monic; only the gcd of the integer images is kept.
    # dmp_inner_gcd falls back to a PRS gcd where the heuristic gcd fails.
    zz = f.ring.clone(domain=ZZ)
    h, _, _ = zz.dmp_inner_gcd(f.clear_denoms()[1].set_ring(zz),
                               g.clear_denoms()[1].set_ring(zz))
    return _wrap(p.nvars, _primitive(h).set_ring(f.ring))


def gcd_many(polys: Sequence[MultiPoly]) -> MultiPoly:
    """Fold of gcd_multi over a nonempty sequence."""
    if not polys:
        raise ValueError("gcd of an empty sequence")
    g = MultiPoly.zero(polys[0].nvars)
    for p in polys:
        g = gcd_multi(g, p)
        if g.is_constant() and not g.is_zero():
            break
    return g


# The prime of _certify_coprime.
_P = 2 ** 61 - 1


def _mod_p(c) -> Optional[int]:
    """A rational coefficient n/d as n * d^-1 mod P; None when P | d."""
    n, d = c.numerator, c.denominator
    if d == 1:
        return n % _P
    if not d % _P:
        return None
    return n * pow(d, -1, _P) % _P


def _times_line(f: list[int], i: int, k: int) -> list[int]:
    """f times (a_i t + b_i)^k mod P, coefficient lists low degree first.

    On the line of _certify_coprime variable i is (1009 + 2i) t + 101 + 2i.
    1009 is prime, so the line's rational points of small height lie at
    integer t, away from the small points where entries tend to vanish.
    """
    a, b = 1009 + 2 * i, 101 + 2 * i
    for _ in range(k if f else 0):
        f = [(b * x + a * y) % _P for x, y in zip(f + [0], [0] + f)]
    return f


def _line_image(terms: list) -> list[int]:
    """sum c * prod_i (a_i t + b_i)^e_i mod P over the terms (e, c), low
    degree first: Horner's rule in one used variable after another, from
    the last."""
    used = sorted({i for e, _ in terms for i, x in enumerate(e) if x})
    images = {e: [c] for e, c in terms}
    for i in reversed(used):
        groups: dict[tuple, list] = {}
        for e, f in images.items():
            groups.setdefault(e[:i], []).append((e[i], f))
        images = {}
        for key, members in groups.items():
            members.sort(key=lambda m: m[0], reverse=True)
            out, top = [], members[0][0]
            for k, f in members:
                out = _times_line(out, i, top - k)
                top = k
                out.extend([0] * (len(f) - len(out)))
                for j, x in enumerate(f):
                    out[j] = (out[j] + x) % _P
            images[key] = _times_line(out, i, top)
    (image,) = images.values()
    return image


def _gf_gcd(f: list[int], g: list[int]) -> list[int]:
    """A gcd in GF(P)[t] of coefficient lists, low degree first and with
    no trailing zeros (the zero polynomial is [])."""
    while g:
        dg = len(g) - 1
        r = list(f)
        inv = pow(g[-1], -1, _P)
        for i in range(len(r) - 1, dg - 1, -1):
            c = r[i] * inv % _P
            if c:
                k = i - dg
                for j in range(dg):
                    r[k + j] = (r[k + j] - c * g[j]) % _P
        del r[dg:]
        while r and not r[-1]:
            r.pop()
        f, g = g, r
    return f


def _certify_coprime(polys: Sequence[MultiPoly]) -> bool:
    """True only when the gcd of polys is proved a nonzero constant.

    The test and its proof are in the module docstring; in one variable
    the line is the identity.  False means "not proved": the gcd may still
    be 1.  A nonzero constant in polys is proof at once, and a coefficient
    whose denominator P divides gives up.
    """
    if any(p._p and p._p.is_ground for p in polys):
        return True
    g: list[int] = []
    kept_degree = False
    for p in polys:
        f = p._p
        if not f:
            continue
        terms = []
        for e, c in f.items():
            c = _mod_p(c)
            if c is None:
                return False
            terms.append((e, c))
        if p.nvars == 1:
            image = [0] * (f.degree() + 1)
            for (k,), c in terms:
                image[k] = c
        else:
            image = _line_image(terms)
        while image and not image[-1]:
            image.pop()
        kept_degree = kept_degree or len(image) - 1 == max(map(sum, f))
        g = _gf_gcd(image, g)
        if kept_degree and len(g) == 1:
            return True
    return False


# Packed values longer than this many bits take the ring path instead.
_PACKED_BITS = 1 << 23


class _Image(NamedTuple):
    """den * p for the least common denominator den of p's coefficients."""
    den: int
    terms: list[tuple[Exponents, int]]
    norm: int                  # the 1-norm of den * p
    degrees: tuple[int, ...]   # the degree in each variable, 0 for p = 0


def _int_image(p: MultiPoly) -> _Image:
    f = p._p
    den = lcm(*(c.denominator for c in f.values()))
    terms = [(e, c.numerator * (den // c.denominator)) for e, c in f.items()]
    degrees = tuple(map(max, zip(*f))) if f else (0,) * p.nvars
    return _Image(den, terms, sum(abs(c) for _, c in terms), degrees)


def _packed_value(terms: Sequence[tuple[Exponents, int]], B: int, D: int
                  ) -> int:
    """The integer terms' polynomial at u_v = 2^(B (D+1)^v), for exponents
    at most D (the lemma in the module docstring)."""
    w = D + 1
    total = 0
    for e, c in terms:
        k = 0
        for x in reversed(e):
            k = k * w + x
        total += c << (B * k)
    return total


def _packed_fits(B: int, D: int, nvars: int) -> bool:
    return B * (D + 1) ** nvars <= _PACKED_BITS


def _integer_terms(terms: Sequence[tuple[Sequence[int], Fraction]]
                   ) -> tuple[int, list]:
    """L and the terms (L a, e) for the terms (e, a), L the least common
    denominator of the a."""
    L = lcm(*(a.denominator for _, a in terms))
    return L, [(a.numerator * (L // a.denominator), e) for e, a in terms]


def _substitute(terms: Sequence[tuple[int, Sequence[int]]],
                values: Sequence[int], powers: dict) -> int:
    """sum k prod_i values_i^(e_i) over the terms (k, e); ``powers`` keeps
    values_i^x under (i, x) for the next call."""
    total = 0
    for k, e in terms:
        for i, x in enumerate(e):
            if x:
                p = powers.get((i, x))
                if p is None:
                    p = powers[i, x] = values[i] ** x
                k *= p
        total += k
    return total


def _expand(comps: Sequence[tuple[int, Sequence]],
            entries: Sequence[MultiPoly]) -> list[MultiPoly]:
    """Per (L, terms) in ``comps``, sum (k / L) prod_i f_i^(e_i) over the
    integer terms (k, e), the f_i being the entries, in the ring of the
    first entry; each power f_i^x and each product of powers is built
    once.  An entry with another variable count is refused where a term
    first uses it."""
    n = entries[0].nvars
    ring = _ring(n)
    powers: dict[tuple[int, int], PolyElement] = {}
    products: dict[tuple, PolyElement] = {}
    out = []
    for L, terms in comps:
        total = ring.zero
        for k, e in terms:
            p = products.get(e)
            if p is None:
                for i, x in enumerate(e):
                    if x:
                        q = powers.get((i, x))
                        if q is None:
                            f = entries[i]
                            if f.nvars != n:
                                raise VariableCountMismatch(
                                    f"{n} variables vs {f.nvars}")
                            q = powers[i, x] = f._p ** x
                        p = q if p is None else p * q
                products[e] = p = ring.one if p is None else p
            total += p if k == L else p.mul_ground(QQ(k, L))
        out.append(_wrap(n, total))
    return out


def _reproduces(targets: Sequence[MultiPoly], content: MultiPoly,
                scalar: Fraction, comps: Sequence[tuple[int, Sequence]],
                entries: Sequence[MultiPoly]) -> bool:
    """Whether each target is content * scalar * its sum of ``_expand``.

    Take the integer images T = d_T target, C = d_C content and F_i = d_i
    f_i of the entries, and t_i the largest exponent of f_i in a sum.
    W = L prod_i d_i^(t_i) turns the sum into the integer polynomial R =
    sum k prod_i d_i^(t_i - e_i) F_i^(e_i) = sum k' prod_i F_i^(e_i), and
    the identity reads T d_C W den(scalar) = C R num(scalar) d_T.  |R|_1 is
    at most sum |k'| prod_i |F_i|_1^(e_i), and R's degrees are at most its
    terms'.  One B and one D cover both sides of every target, so each
    entry is packed once and each power of it is taken once.  Entries of
    different variable counts, and packed values that would pass the size
    cap, are compared in the ring.
    """
    n = entries[0].nvars
    if all(f.nvars == n for f in entries):
        images = [_int_image(f) for f in entries]
        cont = _int_image(content)
        rows = []
        bound = D = 0
        for target, (L, terms) in zip(targets, comps):
            t = _int_image(target)
            if any(im.den != 1 for im in images):
                tops = [max(col) for col in zip(*(e for _, e in terms))]
                L *= prod(im.den ** x for im, x in zip(images, tops))
                terms = [(k * prod(im.den ** (x - y) for im, x, y
                                   in zip(images, tops, e)), e)
                         for k, e in terms]
            norm = 0
            D = max(D, *t.degrees, *cont.degrees)
            for k, e in terms:
                degrees = cont.degrees
                for im, x in zip(images, e):
                    if x:
                        k *= im.norm ** x
                        degrees = [a + x * d
                                   for a, d in zip(degrees, im.degrees)]
                norm += abs(k)
                D = max(D, *degrees)
            lhs = cont.den * L * scalar.denominator
            rhs = scalar.numerator * t.den
            bound = max(bound, t.norm * lhs + cont.norm * norm * abs(rhs))
            rows.append((t.terms, lhs, terms, rhs))
        B = bound.bit_length() + 1
        if _packed_fits(B, D, n):
            values = [_packed_value(im.terms, B, D) for im in images]
            c_value = _packed_value(cont.terms, B, D)
            powers: dict = {}
            return all(_packed_value(t_terms, B, D) * lhs
                       == c_value * _substitute(terms, values, powers) * rhs
                       for t_terms, lhs, terms, rhs in rows)
    scaled = content.scale(scalar)
    return all(raw * scaled == target
               for target, raw in zip(targets, _expand(comps, entries)))


class Factorization(NamedTuple):
    unit: Fraction
    factors: tuple[tuple[MultiPoly, int], ...]

    def expand(self, nvars: int) -> MultiPoly:
        out = MultiPoly.constant(nvars, self.unit)
        for f, k in self.factors:
            out = out * f ** k
        return out


def factor_univariate(p: MultiPoly) -> Factorization:
    """Complete factorization of a univariate polynomial over the rationals.

    Returns monic irreducible factors with multiplicities and a rational
    unit whose product reconstructs p exactly.  Constants factor as the
    unit alone.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    used = p.used_variables()
    if len(used) > 1:
        raise NotUnivariate(f"polynomial uses variables {used}")
    if not used:
        return Factorization(p.constant_value(), ())
    var = used[0]
    line = _ring(1).dtype({(e[var],): c for e, c in p._p.items()})
    unit, factor_list = line.factor_list()
    ring = p._p.ring

    def lift(k: int) -> Exponents:
        e = [0] * p.nvars
        e[var] = k
        return tuple(e)

    factors = []
    for f, mult in factor_list:
        unit *= f.LC ** mult
        monic = ring.dtype({lift(k): c for (k,), c in f.monic().items()})
        factors.append((_wrap(p.nvars, monic), mult))
    factors.sort(key=lambda fk: _factor_order(fk[0]))
    return Factorization(_fraction(unit), tuple(factors))


def _factor_order(f: MultiPoly):
    # by the ascending graded-lex term list, the reverse of the ring's order
    return f._p.terms()[::-1]


def _int_coefficients(p: MultiPoly, var: int) -> list[int]:
    """p, a polynomial in variable ``var`` alone, as the coefficient list
    (leading first) of its primitive integer multiple."""
    terms = {e[var]: _fraction(c) for e, c in p._p.items()}
    d = lcm(*(c.denominator for c in terms.values()))
    f = [0] * (max(terms) + 1)
    for k, c in terms.items():
        f[-1 - k] = c.numerator * (d // c.denominator)
    g = gcd(*f)
    return [x // g for x in f]


def _exact_quotient(f: list[int], g: list[int]) -> Optional[list[int]]:
    """f / g for integer coefficient lists (leading first), or None when g
    does not divide f; with g primitive, an integer quotient exists exactly
    when a rational one does (Gauss's lemma)."""
    m = len(g)
    if len(f) < m:
        return None
    r = list(f)
    q = []
    for i in range(len(f) - m + 1):
        c, rem = divmod(r[i], g[0])
        if rem:
            return None
        q.append(c)
        if c:
            for j in range(1, m):
                r[i + j] -= c * g[j]
    return None if any(r[len(q):]) else q


def _coprime_base(polys: Sequence[MultiPoly]) -> list[MultiPoly]:
    """Monic, squarefree, pairwise coprime polynomials such that each of
    ``polys`` is a constant times a product of their powers, in the order
    of ``factor_univariate``'s factors; the polynomials use at most one
    variable, the same one, and constants (zero included) add nothing.

    Each polynomial's squarefree parts s_k (Yun's algorithm, f = c prod
    s_k^k) are refined into the base one at a time: a part a that meets a
    base element b in a nonconstant g = gcd(a, b) replaces b by g and b/g
    and goes on as a/g.  As a and b are squarefree, g is coprime to a/g
    and to b/g, and it is coprime to the other elements, which are coprime
    to b; so the base stays pairwise coprime, and every s_k stays a
    product of its elements.  Hence the irreducible factors inside one
    element share their multiplicity in every input, and no factorization
    is needed (Bernstein, "Factoring into coprimes in essentially linear
    time", J. Algorithms 2005, refines the same way in quasi-linear time).
    """
    from sympy.polys.euclidtools import dup_inner_gcd
    from sympy.polys.sqfreetools import dup_sqf_list

    used = {v for p in polys for v in p.used_variables()}
    if len(used) > 1:
        raise NotUnivariate(f"polynomials use variables {sorted(used)}")
    if not used:
        return []
    var = used.pop()
    base: list[list[int]] = []
    seen = set()
    for p in polys:
        if p.is_constant():
            continue
        f = _int_coefficients(p, var)
        # an input equal to an earlier one up to a constant adds nothing
        key = tuple(f) if f[0] > 0 else tuple(-c for c in f)
        if key in seen:
            continue
        seen.add(key)
        for a, _ in dup_sqf_list(f, ZZ)[1]:
            refined = []
            for b in base:
                if len(a) > 1:
                    g, a, b_rest = dup_inner_gcd(a, b, ZZ)
                    if len(g) > 1:
                        refined.append(g)
                        b = b_rest
                if len(b) > 1:
                    refined.append(b)
            if len(a) > 1:
                refined.append(a)
            base = refined
    nvars = polys[0].nvars
    ring = polys[0]._p.ring
    out = []
    for b in base:
        top = len(b) - 1
        e = [0] * nvars
        terms = {}
        for i, c in enumerate(b):
            if c:
                e[var] = top - i
                terms[tuple(e)] = QQ(c, b[0])
        out.append(_wrap(nvars, ring.dtype(terms)))
    return sorted(out, key=_factor_order)


def _split(rows: Sequence[MultiPoly], elements: Sequence[MultiPoly]
           ) -> list[Optional[tuple[Fraction, list[int]]]]:
    """Each row as a unit times powers of ``elements``: the unit and the
    multiplicities, aligned with ``elements``, or None when a nonconstant
    cofactor is left.  The elements are primitive, or monic in one
    variable; each divides in list order, as often as it divides, and an
    element with another variable count is refused.

    A row in one variable divides on primitive integer coefficient lists,
    by the elements in that variable alone (no other element divides it),
    each read once; its unit is LC(row) / prod LC(e)^m.  Rows in more
    variables go to ``_split_packed``; the module docstring says why.
    """
    lines: dict[int, list] = {}
    images = None
    out = []
    for p in rows:
        for e in elements:
            p._check(e)
        used = p.used_variables()
        if len(used) > 1:
            if images is None:
                images = [_int_image(e) for e in elements]
            out.append(_split_packed(p, elements, images))
            continue
        mults = [0] * len(elements)
        if not used:
            out.append((p.constant_value(), mults))
            continue
        var = used[0]
        line = lines.get(var)
        if line is None:
            line = lines[var] = [
                (i, _int_coefficients(e, var), e.leading_coefficient())
                for i, e in enumerate(elements) if e.used_variables() == used]
        rest = _int_coefficients(p, var)
        unit = p.leading_coefficient()
        for i, g, lc in line:
            m = 0
            while (q := _exact_quotient(rest, g)) is not None:
                rest, m = q, m + 1
            if m:
                mults[i] = m
                if lc != 1:
                    unit /= lc ** m
        out.append(None if len(rest) > 1 else (unit, mults))
    return out


def _split_packed(poly: MultiPoly, elements: Sequence[MultiPoly],
                  images: Sequence[_Image]
                  ) -> Optional[tuple[Fraction, list[int]]]:
    """``_split`` of one row, first on packed integers.

    P = den * row is an integer polynomial of degree at most D in each
    variable, and B leaves room both for 2^(sum of P's degrees) |P|_1, a
    bound on |c| prod |h|_1^m when P = c prod h^m for the integer images h
    of the elements (Mahler), and for every element that may divide P.
    The integer P(K) is divided by each h(K) while the remainder is zero
    and P has the degree for one more h; c is what is left.  When |c| prod
    |h|_1^m + |P|_1 < 2^(B-2), the lemma in the module docstring makes P =
    c prod h^m an identity.  Division in the ring finds the same
    multiplicities: it divides h out at least m times, and once more only
    if h divides what is left, c prod (later elements)^m, an integer
    polynomial, so that (Gauss's lemma) h(K) divides its value, which the
    integer loop refuted.  An integer h(K) may divide where h does not: u +
    1 divides v + 1 when the packed v is an odd power of the packed u.
    Then the guard fails, and the variables are packed once more in
    reverse order.  When that fails too, or the packed values would pass
    the size cap, ``try_divide`` divides in the ring.
    """
    p = _int_image(poly)
    D = max(p.degrees)
    B = sum(p.degrees) + p.norm.bit_length() + 3
    usable = []
    for i, im in enumerate(images):
        # an element of higher degree than poly does not divide it; for the
        # others |h(K)| >= 2, so the division loops end
        if all(map(int.__le__, im.degrees, p.degrees)):
            usable.append((i, im))
            B = max(B, (im.norm + 1).bit_length() + 1)
    for step in (1, -1) if _packed_fits(B, D, poly.nvars) else ():
        value = _packed_value([(e[::step], c) for e, c in p.terms], B, D)
        mults = [0] * len(elements)
        norm = scale = 1
        room = list(p.degrees)
        for i, im in usable:
            h = _packed_value([(e[::step], c) for e, c in im.terms], B, D)
            cap = min(r // d for r, d in zip(room, im.degrees) if d)
            m = 0
            while m < cap:
                q, r = divmod(value, h)
                if r:
                    break
                value, m = q, m + 1
            if m:
                mults[i] = m
                norm *= im.norm ** m
                scale *= im.den ** m
                room = [r - m * d for r, d in zip(room, im.degrees)]
        if abs(value) * norm + p.norm < 1 << (B - 2):
            return Fraction(value * scale, p.den), mults
    mults = [0] * len(elements)
    rest = poly
    for i, e in enumerate(elements):
        while (q := try_divide(rest, e)) is not None:
            rest, mults[i] = q, mults[i] + 1
    return (rest.constant_value(), mults) if rest.is_constant() else None


# -- text grammar --------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[xy]\d+|u|v)"
                       r"|(?P<op>[-+*^()/]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _var_index(name: str, pos: int) -> tuple[str, int]:
    if name == "u":
        return "y", 0
    if name == "v":
        return "y", 1
    kind, idx = name[0], int(name[1:])
    if idx < 1:
        raise ParseError(f"variable index must start at 1: {name}", pos)
    return kind, idx - 1


def _inferred_width(tokens) -> int:
    """The largest variable index among the tokens, at least 1."""
    width = 1
    for kind, val, _ in tokens:
        if kind == "var":
            width = max(width, {"u": 1, "v": 2}.get(val) or int(val[1:]))
    return width


class _Parser:
    """Recursive descent straight into ring elements of a fixed width."""

    def __init__(self, text: str, nvars: Optional[int], kind: Optional[str]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nvars = nvars
        self.kind = kind
        self.depth = 0
        self.width = _inferred_width(self.tokens) if nvars is None else nvars
        # a width below 1 is refused once parsing is done, so that errors
        # in the text are still reported first
        self.ring = _ring(max(self.width, 1))

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> PolyElement:
        poly = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return poly

    def expr(self):
        poly = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                poly = poly + rhs if val == "+" else poly - rhs
            else:
                return poly

    def term(self):
        poly = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                poly = poly * self.unary()
            else:
                return poly

    def unary(self):
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                if val == "-":
                    sign = -sign
            else:
                break
        poly = self.power()
        return -poly if sign == -1 else poly

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            k = int(val)
            return base ** k if k else self.ring.one
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            num = _digits_int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, pos3 = self.take()
                if k3 != "int":
                    raise ParseError("denominator must be an integer", pos3)
                den = _digits_int(v3)
                if den == 0:
                    raise ParseError("zero denominator", pos3)
                return self.ring.ground_new(QQ(num, den))
            return self.ring.ground_new(QQ(num))
        if kind == "var":
            vkind, idx = _var_index(val, pos)
            if self.kind is None:
                self.kind = vkind
            elif self.kind != vkind:
                raise ParseError(
                    f"variable {val!r} mixes kinds ({vkind!r} vs {self.kind!r})", pos)
            if self.nvars is not None and idx >= self.nvars:
                raise ParseError(
                    f"variable {val!r} exceeds the declared count {self.nvars}", pos)
            return self.ring.gens[idx]
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nest deeper than {MAX_NESTING} levels", pos)
            self.depth += 1
            poly = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return poly
        raise ParseError(f"unexpected token {val!r}", pos)


def parse(text: str, nvars: Optional[int] = None,
          kind: Optional[str] = None) -> MultiPoly:
    """Parse polynomial text.

    Variables are ``x1..xN`` (facet variables) or ``y1..yD`` (parameters,
    with ``u``/``v`` accepted as aliases for ``y1``/``y2``); literals are
    integers or ``p/q`` rationals; operators are ``+ - * ^`` with
    parentheses nested at most ``MAX_NESTING`` deep.  When ``nvars`` is
    omitted the variable count is inferred from the largest index used
    (at least 1).
    """
    parser = _Parser(text, nvars, kind)
    poly = parser.parse()
    _ring(parser.width)  # refuses a width below 1
    return _wrap(parser.width, poly)


# Below 640 digits str(int) is exempt from Python's digit limit, whatever
# sys.set_int_max_str_digits says; 10**600 stays clear of it.
_STR_SAFE = 10 ** 600


def int_str(n: int) -> str:
    """str(n) with no limit on the digit count.

    Splits n by divmod on a power of 10 near half its digits until the
    pieces are short enough for str(), so Python's limit on int-to-str
    conversion (4300 digits by default) never applies.
    """
    if -_STR_SAFE < n < _STR_SAFE:
        return str(n)
    if n < 0:
        return "-" + int_str(-n)
    k = n.bit_length() * 3 // 20  # about half the decimal digits
    hi, lo = divmod(n, 10 ** k)
    return int_str(hi) + int_str(lo).zfill(k)


def _digits_int(digits: str) -> int:
    """int(digits) for a string of decimal digits of any length.

    The inverse of ``int_str``: the string is split near the middle until
    the pieces are short enough for int(), and the pieces are joined by a
    power of 10, so Python's limit on str-to-int conversion never applies.
    """
    if len(digits) <= 600:  # below 640 digits, as in int_str
        return int(digits)
    k = len(digits) // 2
    return _digits_int(digits[:-k]) * 10 ** k + _digits_int(digits[-k:])


def rational_str(c) -> str:
    """``p`` or ``p/q`` for a rational c, with no limit on the digits."""
    num = int_str(c.numerator)
    return num if c.denominator == 1 else f"{num}/{int_str(c.denominator)}"


def variable_names(nvars: int, kind: str) -> list[str]:
    if kind == "y" and nvars <= 2:
        return ["u", "v"][:nvars]
    return [f"{kind}{i + 1}" for i in range(nvars)]


def _power_product(names: Sequence[str], e: Sequence[int]) -> str:
    return "*".join(f"{names[i]}^{k}" if k > 1 else names[i]
                    for i, k in enumerate(e) if k > 0)


def render_monomial(exponents: Sequence[int], kind: str = "x") -> str:
    """``render(MultiPoly.monomial(len(exponents), exponents), kind)``,
    without building a polynomial (and so without loading sympy)."""
    names = variable_names(len(exponents), kind)
    return _power_product(names, exponents) or "1"


def render(p: MultiPoly, kind: str = "x") -> str:
    """Deterministic text form: descending graded-lex, canonical spacing."""
    if p.is_zero():
        return "0"
    names = variable_names(p.nvars, kind)
    pieces = []
    for e, c in p._p.terms():
        vars_part = _power_product(names, e)
        mag = abs(c)
        if not vars_part:
            body = rational_str(mag)
        elif mag == 1:
            body = vars_part
        else:
            body = f"{rational_str(mag)}*{vars_part}"
        pieces.append(("-" if c < 0 else "+", body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def parse_tuple(text: str, nvars: Optional[int] = None,
                kind: str = "y") -> tuple[MultiPoly, ...]:
    """Parse a parenthesized comma-separated tuple of polynomials.

    All entries share one variable count: the declared ``nvars`` or the
    largest index used across the whole tuple.
    """
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    return _parse_entries(_split_top_level(stripped), nvars, kind)


def _parse_entries(texts: Sequence[str], nvars: Optional[int], kind: str
                   ) -> tuple[MultiPoly, ...]:
    """Each text parsed once, at ``nvars`` or else at its own inferred
    width, the narrower results then padded into the widest ring."""
    if nvars is not None:
        return tuple(parse(text, nvars, kind) for text in texts)
    polys = [parse(text, None, kind) for text in texts]
    width = max((p.nvars for p in polys), default=1)
    ring = _ring(width)
    return tuple(p if p.nvars == width else _wrap(width, ring.dtype(
        {e + (0,) * (width - p.nvars): c for e, c in p._p.items()}))
        for p in polys)


def _split_top_level(text: str) -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parenthesis", 0)
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    if not parts or any(not s.strip() for s in parts):
        raise ParseError("empty tuple entry", 0)
    return parts