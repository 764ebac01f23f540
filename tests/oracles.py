"""Reference computations that the library no longer runs itself.

``tuple_power`` substitutes a tuple into one point monomial, the term by
term composition that ``compose_system`` replaced with its cached powers.
``raw_components`` is that composition with the powers cached per point,
which ``polynomials._expand`` replaced, and ``packed_reproduces`` is the
identity check of ``decomposition._verify`` (its packed integers, and the
ring comparison it fell back to), which ``polynomials._reproduces``
replaced, with the helpers ``cleared`` and ``substitution_bounds`` that
it used.  Tests compare the library against them.
"""

from math import prod

from toriparam.errors import LengthMismatch
from toriparam.polynomials import (MultiPoly, _int_image, _packed_fits,
                                   _packed_value, _substitute)
from toriparam.polytope import Frame, frame_of


def tuple_power(f, m, p):
    """Substitute the tuple into the point monomial of m: prod f_i^{e_i}."""
    frame = p if isinstance(p, Frame) else frame_of(p)
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
