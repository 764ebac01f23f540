"""Identities decided on packed integers, against the ring arithmetic they
replace.

``polynomials._reproduces`` decides target = content * scalar *
composition by one packed integer per component, for
``decomposition._verify`` and for ``check_implicit`` (relation(h) = 0);
``polynomials._split`` finds the hint multiplicities of
``decompose_with_hints`` by integer division on rows in several
variables (the lemma is in the ``polynomials`` docstring), and
``polynomials._expand`` is the ring expansion that compose and the ring
paths share.  The oracles below are
the ring computations these replaced: compose-and-compare, the greedy
``try_divide`` loop, the expanded relation, and ``tests/oracles.py``'s
``raw_components`` and ``packed_reproduces``.  Each case is also run with
the packed size cap at 0, which sends every caller down the ring path, and
must come out the same.
"""

import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import toriparam.decomposition as decomposition
import toriparam.parametrization as parametrization
import toriparam.polynomials as polynomials
from oracles import packed_reproduces, raw_components
from toriparam.decomposition import decompose_univariate, decompose_with_hints
from toriparam.errors import (IncompleteHints, ToriparamError,
                              VariableCountMismatch)
from toriparam.parametrization import (LatticePolynomial, ParamSystem,
                                       ParamTuple, check_implicit,
                                       compose_system, full_monomial_system,
                                       subset_monomial_system)
from toriparam.polynomials import (Factorization, MultiPoly, _expand,
                                   _int_image, _packed_value, _reproduces,
                                   _split, normalized, try_divide)
from toriparam.polytope import frame_of, lattice_points, polytope_from_vertices

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

FRAMES = {name: frame_of(polytope_from_vertices(2, verts)) for name, verts in (
    ("square", [(0, 0), (1, 0), (1, 1), (0, 1)]),
    ("triangle2", [(0, 0), (2, 0), (0, 2)]),
    ("pentagon", [(1, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]))}


def _steiner() -> ParamSystem:
    """(x1^2 + x2^2 + x3^2, x1*x2, x2*x3, x3*x1): a ``components`` system."""
    frame = FRAMES["triangle2"]
    point = {frame.monomial_exponents(m): m
             for m in lattice_points(frame.polytope)}
    one = Fraction(1)
    return ParamSystem(frame, (
        LatticePolynomial(frame, ((point[2, 0, 0], one),
                                  (point[0, 2, 0], one),
                                  (point[0, 0, 2], one))),
        LatticePolynomial.single(frame, point[1, 1, 0]),
        LatticePolynomial.single(frame, point[0, 1, 1]),
        LatticePolynomial.single(frame, point[1, 0, 1])))


def _mixed() -> ParamSystem:
    """Rational coefficients and a repeated point over the square."""
    frame = FRAMES["square"]
    pts = lattice_points(frame.polytope)
    return ParamSystem(frame, (
        LatticePolynomial(frame, ((pts[0], Fraction(-3, 4)),
                                  (pts[3], Fraction(5, 6)))),
        LatticePolynomial.single(frame, pts[1]),
        LatticePolynomial(frame, ((pts[1], Fraction(2)),
                                  (pts[2], Fraction(-1, 3)))),
        LatticePolynomial.single(frame, pts[3])))


SYSTEMS = [full_monomial_system(frame) for frame in FRAMES.values()]
SYSTEMS += [_steiner(), _mixed()]


@contextmanager
def ring_path():
    """Every packed caller takes its ring path inside the block."""
    with mock.patch.object(polynomials, "_PACKED_BITS", 0):
        yield


# -- strategies ----------------------------------------------------------------

COEFFS = st.sampled_from([1, -1, 2, -3, 5, 7, -12]) | st.fractions(
    min_value=-9, max_value=9, max_denominator=6).filter(bool)


@st.composite
def polys(draw, n, max_terms=3, max_degree=2, zero=True):
    exps = st.tuples(*[st.integers(0, max_degree)] * n)
    terms = draw(st.dictionaries(exps, COEFFS, min_size=0 if zero else 1,
                                 max_size=max_terms))
    return MultiPoly(n, terms)


def perturbed(draw, p):
    """p with one coefficient changed, or one term added."""
    n = p.nvars
    e = draw(st.tuples(*[st.integers(0, 3)] * n))
    return p + MultiPoly(n, {e: draw(COEFFS)})


# -- oracles -------------------------------------------------------------------


def compose_and_compare(h_raw, content, scalar, tup, p_sys):
    """The comparison ``_verify`` made before packing."""
    try:
        raw = compose_system(p_sys, tup).raw_components()
    except ValueError:  # the composition is identically zero
        raw = [MultiPoly.zero(tup.nparams)] * p_sys.size
    scaled_content = content.scale(scalar)
    return all(r * scaled_content == t for r, t in zip(raw, h_raw))


def division_loop(poly, hints):
    """``factor_with_hints`` before packing: divide by each hint in turn as
    often as it divides."""
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
        raise IncompleteHints("hints leave a non-constant cofactor behind")
    return Factorization(rest.constant_value(), tuple(factors))


def ring_relation(h, relation):
    """``check_implicit`` before packing: expand relation(h) in the ring."""
    nparams = h[0].nvars
    total = MultiPoly.zero(nparams)
    for e, c in relation.terms():
        term = MultiPoly.constant(nparams, c)
        for comp, k in zip(h, e):
            if k:
                term = term * comp ** k
        total = total + term
    return total.is_zero()


def reproduces(h_raw, content, scalar, tup, p_sys):
    return _reproduces(h_raw, content, scalar, p_sys._integer_components,
                       tup.entries)


def split_one(poly, hints):
    """``_split`` of one row, stated as ``division_loop`` states it."""
    (got,) = _split([poly], hints)
    if got is None:
        raise IncompleteHints("hints leave a non-constant cofactor behind")
    unit, mults = got
    return Factorization(unit, tuple((h, m) for h, m in zip(hints, mults)
                                     if m))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ToriparamError, ValueError) as exc:
        return type(exc).__name__, str(exc)


# -- the lemma -----------------------------------------------------------------


@given(st.integers(1, 3), st.integers(1, 40), st.integers(0, 3), st.data())
@SETTINGS
def test_nonzero_polynomial_within_the_bound_does_not_vanish(n, B, D, data):
    top = (1 << (B - 1)) - 1
    exps = st.tuples(*[st.integers(0, D)] * n)
    coeffs = st.sampled_from([top, -top, 1, -1, 0]) | st.integers(-top, top)
    terms = data.draw(st.dictionaries(exps, coeffs, min_size=1, max_size=6))
    value = _packed_value(list(terms.items()), B, D)
    assert (value == 0) == all(c == 0 for c in terms.values())


def test_the_bound_is_needed():
    """2^B - u vanishes at u = 2^B: a coefficient of 2^B is too large."""
    for B in (1, 5, 64):
        assert _packed_value([((0,), 1 << B), ((1,), -1)], B, 1) == 0


def test_int_image():
    p = polynomials.parse("1/2*u^2*v - 3/4*v^3 + 5", 2, "y")
    im = _int_image(p)
    assert im.den == 4
    assert sorted(im.terms) == sorted([((2, 1), 2), ((0, 3), -3), ((0, 0), 20)])
    assert im.norm == 25 and im.degrees == (2, 3)
    zero = _int_image(MultiPoly.zero(3))
    assert zero == (1, [], 0, (0, 0, 0))


# -- _verify -------------------------------------------------------------------


@given(st.sampled_from(SYSTEMS), st.integers(1, 3), st.data())
@SETTINGS
def test_verdict_matches_compose_and_compare(p_sys, n, data):
    r = p_sys.frame.ray_count
    tup = ParamTuple(n, tuple(data.draw(polys(n)) for _ in range(r)))
    content = data.draw(polys(n, max_terms=2, max_degree=1, zero=False))
    scalar = data.draw(COEFFS.map(Fraction))
    try:
        raw = compose_system(p_sys, tup).raw_components()
    except ValueError:
        raw = [MultiPoly.zero(n)] * p_sys.size
    target = [h * content.scale(scalar) for h in raw]
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, p_sys.size - 1))
        target[j] = perturbed(data.draw, target[j])
    want = compose_and_compare(target, content, scalar, tup, p_sys)
    assert reproduces(target, content, scalar, tup, p_sys) is want
    with ring_path():
        assert reproduces(target, content, scalar, tup, p_sys) is want


def test_verdict_at_large_coefficients():
    """Coefficients far beyond a machine word, and a perturbation in the
    lowest bit of one of them."""
    p_sys = SYSTEMS[1]
    big = 2 ** 200 - 1
    tup = ParamTuple(1, (polynomials.parse(f"{big}*u + 1", 1, "y"),
                         polynomials.parse(f"u - {big}", 1, "y"),
                         polynomials.parse(f"-{big}/7", 1, "y")))
    content, scalar = MultiPoly.one(1), Fraction(big, 3)
    raw = compose_system(p_sys, tup).raw_components()
    target = [h.scale(scalar) for h in raw]
    assert reproduces(target, content, scalar, tup, p_sys)
    for j in range(len(target)):
        bad = list(target)
        bad[j] = bad[j] + MultiPoly.constant(1, Fraction(1, 3))
        assert not reproduces(bad, content, scalar, tup, p_sys)


def test_verdict_bits_are_not_short():
    """A difference 2^b - 2^j u vanishes at u = 2^(b-j): were B ever at
    most b - j, some such perturbation would be accepted."""
    p_sys = SYSTEMS[0]
    tup = ParamTuple(1, tuple(polynomials.parse(t, 1, "y")
                              for t in ("u + 3", "1", "2*u - 1", "1")))
    raw = compose_system(p_sys, tup).raw_components()
    one = MultiPoly.one(1)
    for b in range(1, 90):
        for j in range(12):
            bad = [raw[0] + MultiPoly(1, {(0,): 2 ** b, (1,): -2 ** j})]
            bad += raw[1:]
            assert not reproduces(bad, one, Fraction(1), tup, p_sys)
            h = [polynomials.parse("u", 1, "y"), one]
            relation = MultiPoly(2, {(0, 1): 2 ** b, (1, 0): -2 ** j})
            assert not check_implicit(h, relation)


@given(st.sampled_from(SYSTEMS[:3]), st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_decompose_unchanged_on_the_ring_path(p_sys, data):
    """Round trips answer the same with and without packing."""
    r = p_sys.frame.ray_count
    lin = st.tuples(COEFFS, COEFFS).map(
        lambda ab: MultiPoly(1, {(1,): ab[0], (0,): ab[1]}))
    tup = ParamTuple(1, tuple(data.draw(lin | st.just(MultiPoly.one(1)))
                              for _ in range(r)))
    try:
        target = compose_system(p_sys, tup).raw_components()
    except ValueError:
        return
    if data.draw(st.booleans()):
        target = list(target)
        target[0] = perturbed(data.draw, target[0])
    fan = p_sys.frame.fan
    packed = outcome(decompose_univariate, target, p_sys, fan)
    with ring_path():
        ring = outcome(decompose_univariate, target, p_sys, fan)
    assert packed == ring


# -- the substitution engine ----------------------------------------------------

# the full, subset and ``components`` systems above, and a subset system
# whose points miss a vertex and repeat one
ENGINE_SYSTEMS = SYSTEMS + [subset_monomial_system(
    FRAMES["pentagon"], [(0, 0), (1, 1), (0, 0), (-1, 0), (1, -1)])]


@st.composite
def substitutions(draw):
    p_sys = draw(st.sampled_from(ENGINE_SYSTEMS))
    n = draw(st.integers(1, 3))
    r = p_sys.frame.ray_count
    return p_sys, ParamTuple(n, tuple(draw(polys(n)) for _ in range(r)))


@given(substitutions())
@SETTINGS
def test_expand_matches_raw_components(case):
    p_sys, tup = case
    got = _expand(p_sys._integer_components, tup.entries)
    assert got == raw_components(p_sys, tup)
    assert all(h.nvars == tup.nparams for h in got)


@given(substitutions(), st.data())
@SETTINGS
def test_reproduces_matches_the_oracle(case, data):
    """Verdicts on compositions times a content and a scalar, with and
    without one coefficient perturbed, packed and in the ring."""
    p_sys, tup = case
    n = tup.nparams
    content = data.draw(polys(n, max_terms=2, max_degree=1, zero=False))
    scalar = data.draw(COEFFS.map(Fraction))
    target = [h * content.scale(scalar) for h in raw_components(p_sys, tup)]
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, p_sys.size - 1))
        target[j] = perturbed(data.draw, target[j])
    want = packed_reproduces(target, content, scalar, tup, p_sys)
    assert reproduces(target, content, scalar, tup, p_sys) is want
    with ring_path():
        assert packed_reproduces(target, content, scalar, tup, p_sys) is want
        assert reproduces(target, content, scalar, tup, p_sys) is want


# -- hint multiplicities -------------------------------------------------------


@st.composite
def factor_pool(draw, n):
    """Distinct primitive polynomials of degree at most 1 in each of n
    variables."""
    out = []
    for _ in range(draw(st.integers(2, 4))):
        f = normalized(draw(polys(n, max_terms=3, max_degree=1, zero=False)))
        if not f.is_constant() and f not in out:
            out.append(f)
    return out


@given(st.integers(1, 3), st.data())
@SETTINGS
def test_hint_factorization_matches_the_division_loop(n, data):
    pool = data.draw(factor_pool(n))
    if not pool:
        return
    mults = [data.draw(st.integers(0, 3)) for _ in pool]
    poly = MultiPoly.constant(n, data.draw(COEFFS))
    for f, m in zip(pool, mults):
        poly = poly * f ** m
    hints = list(pool)
    kind = data.draw(st.sampled_from(
        ["complete", "incomplete", "duplicate", "not coprime", "shuffled"]))
    if kind == "incomplete":
        del hints[data.draw(st.integers(0, len(hints) - 1))]
    elif kind == "duplicate":
        hints.insert(data.draw(st.integers(0, len(hints))),
                     data.draw(st.sampled_from(pool)))
    elif kind == "not coprime":
        f, g = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        hints.insert(data.draw(st.integers(0, len(hints))), normalized(f * g))
    elif kind == "shuffled":
        hints = data.draw(st.permutations(hints))
    want = outcome(division_loop, poly, hints)
    assert outcome(split_one, poly, hints) == want
    with ring_path():
        assert outcome(split_one, poly, hints) == want
    p_sys = data.draw(st.sampled_from(SYSTEMS))
    fan = p_sys.frame.fan
    entries = []
    for _ in range(p_sys.frame.ray_count):
        entry = MultiPoly.constant(n, data.draw(COEFFS))
        for f in pool:
            entry = entry * f ** data.draw(st.integers(0, 1))
        entries.append(entry)
    try:
        target = compose_system(p_sys, ParamTuple(n, tuple(entries))) \
            .raw_components()
    except ValueError:
        return
    packed = outcome(decompose_with_hints, target, p_sys, fan, hints)
    with ring_path():
        ring = outcome(decompose_with_hints, target, p_sys, fan, hints)
    assert packed == ring


def test_incomplete_hints_raise_from_the_loop(monkeypatch):
    """The packed guard proves nothing for an incomplete hint list, so the
    ring division runs on the row in two variables, and decomposition
    raises."""
    poly = polynomials.parse("(u + v)^2*(u + 2*v + 1)", 2, "y")
    hints = [polynomials.parse("u + v", 2, "y")]
    target = [poly] + [MultiPoly.one(2)] * 3
    divisors = []

    def recording(p, d):
        divisors.append(d)
        return try_divide(p, d)

    monkeypatch.setattr(polynomials, "try_divide", recording)
    with pytest.raises(IncompleteHints):
        decompose_with_hints(target, SYSTEMS[0], FRAMES["square"].fan, hints)
    assert divisors == hints * 3
    with pytest.raises(IncompleteHints):
        division_loop(poly, hints)


def test_cyclotomic_coincidence_is_refused(monkeypatch):
    """u + 1 divides v + 1 at the packed point whenever the packed v is an
    odd power of the packed u (here D + 1 = 5).  The guard refuses what the
    first packing finds, and the second packing, with the variables in
    reverse order, finds the division loop's answer without a ring
    division."""
    B, D = 16, 4
    pack = [((1, 0), 1), ((0, 0), 1)], [((0, 1), 1), ((0, 0), 1)]
    u1, v1 = (_packed_value(terms, B, D) for terms in pack)
    assert v1 % u1 == 0
    poly = polynomials.parse("(v + 1)^2*(u + v + 1)^2", 2, "y")
    hints = [polynomials.parse(t, 2, "y")
             for t in ("u + 1", "v + 1", "u + v + 1")]
    want = division_loop(poly, hints)
    monkeypatch.setattr(polynomials, "try_divide", None)
    got = split_one(poly, hints)
    assert got == want
    assert [m for _, m in got.factors] == [2, 2]


# -- check_implicit ------------------------------------------------------------


@given(st.integers(1, 3), st.integers(1, 4), st.data())
@SETTINGS
def test_check_implicit_matches_the_ring(n, k, data):
    h = [data.draw(polys(n)) for _ in range(k)]
    relation = data.draw(polys(k, max_terms=4, max_degree=3))
    if data.draw(st.booleans()):
        # relation - relation(h) at a point of the image: a relation that
        # holds for the constant tuple, so a mix of true and false cases
        h = [MultiPoly.constant(n, c) for c in
             data.draw(st.lists(COEFFS, min_size=k, max_size=k))]
        value = ring_value(h, relation)
        relation = relation - MultiPoly.constant(k, value)
    want = ring_relation(h, relation)
    assert check_implicit(h, relation) is want
    with ring_path():
        assert check_implicit(h, relation) is want


def ring_value(h, relation):
    total = Fraction(0)
    for e, c in relation.terms():
        for comp, x in zip(h, e):
            c *= comp.constant_value() ** x
        total += c
    return total


def test_check_implicit_known_relations():
    parse = polynomials.parse
    h = [parse(t, 2, "y") for t in ("u^2", "u*v", "v^2", "1/3*u + v")]
    assert check_implicit(h, parse("x1*x3 - x2^2", 4, "x"))
    assert not check_implicit(h, parse("x1*x3 - x2^2 + 1/5", 4, "x"))
    assert check_implicit(h, parse("x4^2 - 1/9*x1 - 2/3*x2 - x3", 4, "x"))
    assert not check_implicit(h, parse("x4^2 - 1/9*x1 - 2/3*x2 - x3 + x1*x4",
                                       4, "x"))


def test_check_implicit_mixed_variable_counts():
    """Components of different variable counts go to the ring, which
    answers where no term mixes them and refuses where one does."""
    parse = polynomials.parse
    h = [parse("u", 1, "y"), parse("u*v", 2, "y")]
    for text in ("x1^2 - x1", "x1 - x1", "3*x1*x2 - 1", "x2^2 + x1"):
        relation = parse(text, 2, "x")
        want = outcome(ring_relation, h, relation)
        assert outcome(check_implicit, h, relation) == want
    assert outcome(check_implicit, h, parse("x2", 2, "x")) == (
        VariableCountMismatch.__name__, "1 variables vs 2")


# -- what the benchmark workloads no longer do ----------------------------------

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def _run_ops(workload, blocks=3):
    ran = 0
    for k in range(blocks):
        for op in workload.block(7, f"count{k}", list(workload.GRID)):
            out = err = None
            try:
                out = op.run()
            except Exception as exc:
                err = exc
            assert op.check(out, err), (op.kind, err)
            ran += 1
    return ran


@pytest.mark.parametrize("name", ["roundtrip", "hinted"])
def test_verify_composes_nothing_on_the_benchmark_frames(name, tmp_path,
                                                         monkeypatch):
    """Every frame of both workloads is verified on packed integers: no
    ``compose_system`` call and no ring expansion inside ``_verify``."""
    workload = workloads.make(name, str(tmp_path))
    workload.setup()
    inside, seen, verified = [], [], []
    verify = decomposition._verify

    def spying_verify(*args):
        inside.append(True)
        try:
            result = verify(*args)
        finally:
            inside.pop()
        verified.append(result is not None)
        return result

    def counting(fn, label):
        def wrapper(*args, **kwargs):
            if inside:
                seen.append(label)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(decomposition, "_verify", spying_verify)
    monkeypatch.setattr(parametrization, "compose_system",
                        counting(parametrization.compose_system, "compose"))
    monkeypatch.setattr(polynomials, "_expand",
                        counting(polynomials._expand, "ring"))
    assert _run_ops(workload) == 3 * len(workload.GRID)
    assert seen == []
    assert any(verified)


def test_complete_hints_divide_nothing(tmp_path, monkeypatch):
    """On the hinted workload, whose hints are complete, decomposition
    calls no ``try_divide``: the content is 1 and is not divided out, and
    the hint multiplicities come from integer division alone."""
    workload = workloads.make("hinted", str(tmp_path))
    workload.setup()
    divisors = []

    def recording(p, d):
        divisors.append(d)
        return try_divide(p, d)

    monkeypatch.setattr(polynomials, "try_divide", recording)
    monkeypatch.setattr(parametrization, "try_divide", recording)
    _run_ops(workload)
    assert divisors == []
