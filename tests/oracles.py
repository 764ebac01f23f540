"""Reference computations that the library no longer runs itself.

``tuple_power`` substitutes a tuple into one point monomial, the term by
term composition that ``compose_system`` replaced with its cached powers.
``raw_components`` is that composition with the powers cached per point,
which ``polynomials._expand`` replaced, and ``packed_reproduces`` is the
identity check of ``decomposition._verify`` (its packed integers, and the
ring comparison it fell back to), which ``polynomials._reproduces``
replaced, with the helpers ``cleared`` and ``substitution_bounds`` that
it used.  ``factor_over`` and ``split_by_hints`` are the row splitters of
``decompose_univariate`` and ``decompose_with_hints``, which
``polynomials._split`` replaced.  Tests compare the library against them.
"""

from fractions import Fraction
from math import prod

from toriparam.errors import IncompleteHints, LengthMismatch
from toriparam.polynomials import (Factorization, MultiPoly, _exact_quotient,
                                   _factor_order, _int_coefficients,
                                   _int_image, _packed_fits, _packed_value,
                                   _substitute, try_divide)
from toriparam.polytope import frame_of


def tuple_power(f, m, p):
    """Substitute the tuple into the point monomial of m: prod f_i^{e_i}."""
    frame = frame_of(p)
    entries = f.entries if hasattr(f, "entries") else tuple(f)
    if len(entries) != frame.ray_count:
        raise LengthMismatch(
            f"{len(entries)} entries for {frame.ray_count} rays")
    out = MultiPoly.one(entries[0].nvars)
    for q, e in zip(entries, frame.monomial_exponents(m)):
        if e:
            out = out * q ** e
    return out


def raw_components(p_sys, f):
    """f substituted into every component, in the ring; each power f_i^e
    is built once and each point monomial once."""
    frame = p_sys.frame
    powers = [{} for _ in f.entries]
    monomials = {}
    one = MultiPoly.one(f.nparams)

    def power_of(m):
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


def cleared(L, terms, images):
    """W and the terms (k, e) of W sum (k_0 / L) prod_i g_i^(e_i) over the
    integer terms (k_0, e), written in the images F_i = d_i g_i of the g_i
    so that it is sum k prod_i F_i^(e_i)."""
    if all(im.den == 1 for im in images):
        return L, terms
    tops = [max(col) for col in zip(*(e for _, e in terms))]
    return L * prod(im.den ** t for im, t in zip(images, tops)), [
        (k * prod(im.den ** (t - x) for im, t, x in zip(images, tops, e)), e)
        for k, e in terms]


def substitution_bounds(terms, images, nvars):
    """A bound on the 1-norm of sum k prod_i F_i^(e_i) over the terms
    (k, e), and a bound on its degree in each variable."""
    norm = 0
    degrees = [0] * nvars
    for k, e in terms:
        b = abs(k)
        deg = [0] * nvars
        for im, x in zip(images, e):
            if x:
                b *= im.norm ** x
                for v, d in enumerate(im.degrees):
                    deg[v] += x * d
        norm += b
        degrees = list(map(max, degrees, deg))
    return norm, degrees


def packed_reproduces(h_raw, content, scalar, tup, p_sys):
    """Whether each target component is content * scalar * its raw
    composition: on packed integers with one B and one D for every
    component when they fit, else by ``raw_components`` in the ring."""
    n = tup.nparams
    images = [_int_image(f) for f in tup.entries]
    cont = _int_image(content)
    rows = []
    bound = D = 0
    for target, comp in zip(h_raw, p_sys._integer_components):
        t = _int_image(target)
        w, terms = cleared(*comp, images)
        norm, degrees = substitution_bounds(terms, images, n)
        lhs = cont.den * w * scalar.denominator
        rhs = scalar.numerator * t.den
        bound = max(bound, t.norm * lhs + cont.norm * norm * abs(rhs))
        D = max(D, *t.degrees, *map(int.__add__, cont.degrees, degrees))
        rows.append((t.terms, lhs, terms, rhs))
    B = bound.bit_length() + 1
    if _packed_fits(B, D, n):
        values = [_packed_value(im.terms, B, D) for im in images]
        c_value = _packed_value(cont.terms, B, D)
        powers = {}
        return all(_packed_value(t_terms, B, D) * lhs
                   == c_value * _substitute(terms, values, powers) * rhs
                   for t_terms, lhs, terms, rhs in rows)
    scaled_content = content.scale(scalar)
    return all(raw * scaled_content == target for target, raw
               in zip(h_raw, raw_components(p_sys, tup)))


def factor_over(rows, irreducibles):
    """Each of ``rows`` split over ``irreducibles`` by exact division
    alone, when the row uses at most one variable and is a constant times
    a product of their powers; None for it otherwise.

    ``irreducibles`` may be any list of monic, pairwise coprime, squarefree
    polynomials; the factors of a row are sorted by ``_factor_order``.  The
    divisions run on primitive integer coefficient lists, and the unit is
    the row's leading coefficient, as every element is monic.
    """
    elements = {}
    for f in irreducibles:
        if len(used := f.used_variables()) == 1:
            elements.setdefault(used, []).append(
                (f, _int_coefficients(f, used[0])))
    out = []
    for p in rows:
        used = p.used_variables()
        if len(used) != 1:
            out.append(None if used or p.is_zero()
                       else Factorization(p.constant_value(), ()))
            continue
        rest = _int_coefficients(p, used[0])
        found = []
        for f, g in elements.get(used, ()):
            mult = 0
            while (q := _exact_quotient(rest, g)) is not None:
                rest, mult = q, mult + 1
            if mult:
                found.append((f, mult))
        found.sort(key=lambda fk: _factor_order(fk[0]))
        out.append(None if len(rest) > 1 else
                   Factorization(p.leading_coefficient(), tuple(found)))
    return out


def split_by_hints(rows, hints):
    """Each row divided by each primitive hint in turn, as often as it
    divides: the hints that divide, with their multiplicities, and the
    constant left; IncompleteHints when a row leaves a nonconstant
    cofactor.  Every row is divided on packed integers first, by the
    proof of ``polynomials._split_packed``, and in the ring when the
    guard fails for both packings or the packed values would not fit."""
    images = [_int_image(hint) for hint in hints]
    out = []
    for poly in rows:
        n = poly.nvars
        p = _int_image(poly)
        D = max(p.degrees)
        B = sum(p.degrees) + p.norm.bit_length() + 3
        usable = []
        for hint, im in zip(hints, images):
            if all(map(int.__le__, im.degrees, p.degrees)):
                usable.append((hint, im))
                B = max(B, (im.norm + 1).bit_length() + 1)
        fits = (all(hint.nvars == n for hint in hints)
                and _packed_fits(B, D, n))
        for step in (1, -1)[:n] if fits else ():
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
                out.append(Factorization(Fraction(value, p.den),
                                         tuple(found)))
                break
        else:
            found = []
            rest = poly
            for hint in hints:
                mult = 0
                while (q := try_divide(rest, hint)) is not None:
                    rest, mult = q, mult + 1
                if mult:
                    found.append((hint, mult))
            if not rest.is_constant():
                raise IncompleteHints(
                    "hints leave a non-constant cofactor behind")
            out.append(Factorization(rest.constant_value(), tuple(found)))
    return out
