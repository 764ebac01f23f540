"""Reference computations that the library no longer runs itself.

``tuple_power`` substitutes a tuple into one point monomial, the term by
term composition that ``compose_system`` replaced with its cached powers.
Tests compare the library against it.
"""

from toriparam.errors import LengthMismatch
from toriparam.polynomials import MultiPoly
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
