"""Reference geometry and polynomial helpers, independent of toriparam.

The generators use these to build inputs of a stated size without calling
the package, and the checks use them to verify the package's geometric
answers exactly.  Everything is plain integer / Fraction arithmetic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def det(rows):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- polygons -----------------------------------------------------------------


def hull2(points):
    """Convex hull vertices in counterclockwise order (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def polygon_facets(hull):
    """Inward primitive normals and offsets, one per edge of a ccw hull;
    edge i runs from hull[i] to hull[i + 1]."""
    out = []
    for i, p in enumerate(hull):
        q = hull[(i + 1) % len(hull)]
        n = primitive((p[1] - q[1], q[0] - p[0]))
        out.append((n, -dot(p, n)))
    return out


def _egcd(a, b):
    old_r, r, old_x, x, old_y, y = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def cone_resolution(u, w):
    """Rays strictly inside cone(u, w), det(u, w) > 0, that its minimal
    resolution adds, from u toward w (Hirzebruch-Jung walk: each next ray p
    has det(prev, p) = 1 and 0 <= det(p, w) < det(prev, w))."""
    out = []
    d = det2(u, w)
    while d > 1:
        _, x, y = _egcd(u[0], -u[1])   # u0*x - u1*y = 1
        p = (y, x)
        t = -(det2(p, w) // d)
        p = (p[0] + t * u[0], p[1] + t * u[1])
        out.append(p)
        u, d = p, det2(p, w)
    return out


def polygon_resolution(hull):
    """(facets, added rays) of a ccw polygon's minimal resolution.  The
    vertex hull[i] sits between edges i - 1 and i."""
    facets = polygon_facets(hull)
    added = []
    for i in range(len(hull)):
        u, w = facets[i - 1][0], facets[i][0]
        if det2(u, w) < 0:
            u, w = w, u
        added.extend(cone_resolution(u, w))
    return facets, added


def polygon_smooth(hull):
    facets = polygon_facets(hull)
    return all(abs(det2(facets[i - 1][0], facets[i][0])) == 1
               for i in range(len(hull)))


def angle_order(rays):
    """Indices of 2-D rays sorted counterclockwise from the positive x axis."""
    def key(i):
        x, y = rays[i]
        # the L1-normalised x coordinate falls on the upper half-plane and
        # rises on the lower one
        if y > 0 or (y == 0 and x > 0):
            return 0, Fraction(-x, abs(x) + abs(y))
        return 1, Fraction(x, abs(x) + abs(y))
    return sorted(range(len(rays)), key=key)


def fan2_collections(rays):
    """Primitive collections of a complete 2-D fan whose cones join
    angularly adjacent rays: all rays for three rays, else the
    non-adjacent pairs."""
    r = len(rays)
    if r == 3:
        return {(0, 1, 2)}
    order = angle_order(rays)
    adjacent = {frozenset((order[k], order[(k + 1) % r])) for k in range(r)}
    return {(i, j) for i, j in itertools.combinations(range(r), 2)
            if frozenset((i, j)) not in adjacent}


# -- 3-D point sets -----------------------------------------------------------


def _cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def facets3(points):
    """Facets (inward primitive normal, offset) of conv(points) in 3-D."""
    out = set()
    for p1, p2, p3 in itertools.combinations(points, 3):
        n = _cross3(tuple(b - a for a, b in zip(p1, p2)),
                    tuple(b - a for a, b in zip(p1, p3)))
        if n == (0, 0, 0):
            continue
        base = dot(p1, n)
        above = below = False
        for p in points:
            s = dot(p, n) - base
            above |= s > 0
            below |= s < 0
        if above and below:
            continue
        if below:
            n = tuple(-x for x in n)
        n = primitive(n)
        out.add((n, -dot(p1, n)))
    return out


def vertices3(points, facets):
    """Points tight on three facets with independent normals."""
    out = set()
    for p in points:
        tight = [n for n, a in facets if dot(p, n) + a == 0]
        if any(det(t) for t in itertools.combinations(tight, 3)):
            out.add(tuple(p))
    return out


def minimal_nonfaces(r, cones):
    """Primitive collections of a fan given as ray-index sets of its
    maximal cones: the minimal sets lying in no cone.  Each is a face plus
    one ray, so only those candidates are tested."""
    cone_sets = [frozenset(c) for c in cones]
    faces = set()
    for c in cone_sets:
        for k in range(len(c) + 1):
            faces.update(frozenset(s) for s in itertools.combinations(c, k))
    out = set()
    for f in faces:
        for j in range(r):
            if j in f:
                continue
            s = f | {j}
            if s in faces:
                continue
            if all((s - {i}) in faces for i in s):
                out.add(tuple(sorted(s)))
    return out


def lattice_points(facets, points):
    """Integer points of {m : <m, n> + a >= 0}, searched in the bounding
    box of the given points, in lexicographic order."""
    dim = len(points[0])
    lows = [min(p[i] for p in points) for i in range(dim)]
    highs = [max(p[i] for p in points) for i in range(dim)]
    return [m for m in itertools.product(*(range(lo, hi + 1)
                                           for lo, hi in zip(lows, highs)))
            if all(dot(m, n) + a >= 0 for n, a in facets)]


# -- univariate polynomials ---------------------------------------------------
# Coefficient tuples, lowest degree first, over the rationals.


def upoly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def upoly_pow(a, k):
    out = (Fraction(1),)
    for _ in range(k):
        out = upoly_mul(out, a)
    return out


def upoly_text(a, var="u"):
    """Text in the package's polynomial grammar, e.g. ``3/2*u^2 - u + 4``."""
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = Fraction(a[e])
        if c == 0:
            continue
        mag = abs(c)
        num = f"{mag.numerator}" if mag.denominator == 1 else \
            f"{mag.numerator}/{mag.denominator}"
        mono = "" if e == 0 else (var if e == 1 else f"{var}^{e}")
        if not mono:
            body = num
        elif mag == 1:
            body = mono
        else:
            body = f"{num}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text
