"""The modular coprimality certificate and the call sites that use it.

``polynomials._certify_coprime`` restricts each polynomial to a fixed line
l(t) = a t + b, reads it modulo P = 2^61 - 1 and takes a gcd in GF(P)[t].
A True from it must be a proof: the gcd over the rationals is then a
nonzero constant.  The sets below include the cases that defeat the
restriction (a common factor vanishing on the line, top forms vanishing at
a, coefficients that P divides), where the test must give up and the wired
call sites must fall back to ``gcd_many`` and answer as it does.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import toriparam.decomposition as decomposition
import toriparam.parametrization as parametrization
import toriparam.polytope as polytope
from toriparam.decomposition import decompose_univariate, decompose_with_hints
from toriparam.errors import NoPreimage
from toriparam.parametrization import (LatticePolynomial, ParamSystem,
                                       ParamTuple, compose_system,
                                       full_monomial_system,
                                       is_primitive_coprime,
                                       is_rational_parametrization)
from toriparam.polynomials import (_P, MultiPoly, _certify_coprime, gcd_many,
                                   parse)
from toriparam.polytope import (frame_of, lattice_points, normal_fan,
                                polytope_from_vertices,
                                primitive_collections)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

# The line of the certificate: variable i restricts to a_i t + b_i.
A = [1009 + 2 * i for i in range(3)]
B = [101 + 2 * i for i in range(3)]


def _linear(n, coeffs, const):
    terms = {(0,) * n: Fraction(const)}
    for i, c in enumerate(coeffs):
        e = [0] * n
        e[i] = 1
        terms[tuple(e)] = Fraction(c)
    return MultiPoly(n, terms)


def vanishing_on_line(n):
    """a_2 (x_1 - b_1) - a_1 (x_2 - b_2): zero on the whole line."""
    return _linear(n, [A[1], -A[0]] + [0] * (n - 2),
                   A[0] * B[1] - A[1] * B[0])


def top_form_vanishing(n, const):
    """A linear form whose top-degree part a_2 x_1 - a_1 x_2 is zero at a."""
    return _linear(n, [A[1], -A[0]] + [0] * (n - 2), const)


def is_unit(g):
    return g.is_constant() and not g.is_zero()


COEFFS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.integers(-10 ** 40, 10 ** 40),                  # huge
    st.builds(lambda k, c: k * _P + c, st.integers(-3, 3),
              st.integers(-2, 2)),                     # numerator P | n - c
    st.builds(lambda k: Fraction(k, _P), st.integers(1, 3)))  # P | denom


@st.composite
def polys(draw, n, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.lists(st.integers(0, max_deg), min_size=n,
                                max_size=n)))
        terms[e] = Fraction(draw(COEFFS))
    return MultiPoly(n, terms)


@st.composite
def poly_sets(draw):
    n = draw(st.integers(1, 3))
    members = draw(st.lists(polys(n), min_size=1, max_size=4))
    kind = draw(st.sampled_from(["plain", "plain", "shared", "on line",
                                 "top form", "top form P"]))
    if kind == "shared":
        shared = draw(polys(n, 2, 2))
    elif kind == "on line" and n > 1:
        shared = vanishing_on_line(n)
    elif kind == "top form" and n > 1:
        shared = top_form_vanishing(n, draw(st.integers(-5, 5)))
    elif kind == "top form P":
        # the top coefficient vanishes mod P, so the factor loses degree
        shared = _linear(n, [_P] + [0] * (n - 1), draw(st.integers(1, 5)))
    else:
        return members
    return [m * shared for m in members]


class TestCertificate:
    @SETTINGS
    @given(poly_sets())
    def test_a_proof_implies_a_unit_gcd(self, members):
        if _certify_coprime(members):
            assert is_unit(gcd_many(members))

    def test_proves_common_cases(self):
        for texts, n in ((["u + 1", "u + 2"], 1), (["u*v + 3", "u + 2"], 2),
                         (["u", "v"], 2), (["y1 + y3", "y2 - 1"], 3),
                         (["u^2 + 1", "0", "u - 5"], 1),
                         (["u + 1", "7/2"], 1), (["3"], 2)):
            assert _certify_coprime([parse(t, n, "y") for t in texts]), texts

    def test_gives_up(self):
        u = parse("u", 1, "y")
        assert not _certify_coprime([MultiPoly.zero(2), MultiPoly.zero(2)])
        assert not _certify_coprime([u])
        assert not _certify_coprime([u * u, u * (u + MultiPoly.one(1))])
        # a denominator that P divides
        assert not _certify_coprime([u.scale(Fraction(1, _P)),
                                     u + MultiPoly.one(1)])

    def test_factor_losing_degree_mod_p(self):
        # h = P u + 1 restricts to 1 mod P, so the images are coprime; only
        # the degree check keeps the test from a false proof
        h = _linear(1, [_P], 1)
        members = [h * parse("u + 3", 1, "y"), h * parse("u + 5", 1, "y")]
        assert not is_unit(gcd_many(members))
        assert not _certify_coprime(members)

    @pytest.mark.parametrize("n", [2, 3])
    def test_adversarial_sets_are_not_proved(self, n):
        u, v = parse("y1 + 2", n, "y"), parse("y2 - 7", n, "y")
        # a common factor that is zero on the line: every image is zero
        h = vanishing_on_line(n)
        assert not _certify_coprime([h * u, h * v])
        # a common factor whose restriction is a nonzero constant
        h = top_form_vanishing(n, 1)
        assert not _certify_coprime([h * u, h * v])
        # coprime, but no member keeps its degree on the line
        assert not _certify_coprime([top_form_vanishing(n, 1),
                                     top_form_vanishing(n, 2)])
        # coprime, but both vanish at l(0) = b
        assert not _certify_coprime([_linear(n, [1], -B[0]),
                                     _linear(n, [0, 1], -B[1])])

    def test_agrees_with_gcd_on_random_sets(self):
        rng = random.Random(20)
        proved = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            common = MultiPoly.one(n)
            if rng.random() < 0.4:
                common = _random_poly(rng, n, 2, 3) or common
            members = [_random_poly(rng, n, 3, rng.randint(1, 4)) * common
                       for _ in range(rng.randint(1, 4))]
            unit = is_unit(gcd_many(members))
            certified = _certify_coprime(members)
            assert unit or not certified
            proved += certified
            # random coprime sets are not special on the line
            assert certified == unit
        assert proved > 50


def _random_poly(rng, n, deg, count):
    terms = {}
    for _ in range(count):
        e = [0] * n
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
    return MultiPoly(n, terms)


# -- wired call sites ----------------------------------------------------------


def _count(monkeypatch, module, name="gcd_many", calls=None):
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _oracle_primitive_coprime(entries, fan):
    violated = tuple(c for c in primitive_collections(fan)
                     if not is_unit(gcd_many([entries[i]
                                              for i in c.ray_indices])))
    return not violated, violated


SQUARE = frame_of(polytope_from_vertices(2, [(0, 0), (1, 0), (1, 1),
                                             (0, 1)]))
PENTAGON = frame_of(polytope_from_vertices(
    2, [(1, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]))


@st.composite
def entry_tuples(draw):
    frame = draw(st.sampled_from([SQUARE, PENTAGON]))
    n = draw(st.integers(1, 3))
    pool = [vanishing_on_line(n), top_form_vanishing(n, 1),
            top_form_vanishing(n, 2), _linear(n, [1], -B[0]),
            _linear(n, [0, 1], -B[1])] if n > 1 else \
        [_linear(1, [_P], 1), _linear(1, [1], -B[0])]
    pool += [parse(t, n, "y") for t in ("y1 + 1", "y1 - 2", "y1^2 + 1")]
    pool.append(MultiPoly.zero(n))
    entries = tuple(draw(st.sampled_from(pool)) * draw(st.sampled_from(pool))
                    if draw(st.booleans()) else draw(st.sampled_from(pool))
                    for _ in range(frame.ray_count))
    return frame, entries


class TestCallSites:
    @SETTINGS
    @given(entry_tuples())
    def test_primitive_coprime_matches_the_gcd_path(self, case):
        frame, entries = case
        assert is_primitive_coprime(entries, frame.fan) == \
            _oracle_primitive_coprime(entries, frame.fan)

    @SETTINGS
    @given(poly_sets())
    def test_rational_parametrization_matches_the_gcd_path(self, members):
        assert is_rational_parametrization(members) == \
            is_unit(gcd_many(members))

    def test_fallback_runs_when_the_certificate_gives_up(self, monkeypatch):
        calls = _count(monkeypatch, parametrization)
        # coprime, but neither member keeps its degree on the line
        coprime = [top_form_vanishing(2, 1), top_form_vanishing(2, 2)]
        assert is_rational_parametrization(coprime)
        assert len(calls) == 1
        # the collections {0, 2} and {1, 3} of the square
        h = vanishing_on_line(2)
        one = MultiPoly.one(2)
        ok, violated = is_primitive_coprime((h, *coprime, h * h), SQUARE.fan)
        assert not ok and [c.ray_indices for c in violated] == [(0, 3)]
        assert len(calls) == 3
        ok, _ = is_primitive_coprime((one, one, one, one), SQUARE.fan)
        assert ok and len(calls) == 3

    def test_compose_content_falls_back(self, monkeypatch):
        # the entries share a factor that is zero on the line
        h = vanishing_on_line(2)
        f = ParamTuple(2, (h, h, h * parse("u + 1", 2, "y"), h))
        calls = _count(monkeypatch, parametrization)
        comp = compose_system(full_monomial_system(SQUARE), f)
        assert not comp.tuple_coprime
        assert comp.content == gcd_many(list(comp.raw))
        assert len(calls) == 3

    def test_decompose_content_matches_the_gcd_path(self, monkeypatch):
        p = polytope_from_vertices(2, [(0, 0), (2, 0), (0, 2)])
        system = full_monomial_system(frame_of(p))
        rng = random.Random(7)
        targets = []
        for _ in range(12):
            entries = tuple(parse(f"u + {rng.randint(-5, 5)}", 1, "y")
                            ** rng.randint(0, 2) for _ in range(3))
            raw = compose_system(system, ParamTuple(1, entries)).raw
            extra = parse(rng.choice(["1", "u - 9", "u^2 + 3"]), 1, "y")
            targets.append(tuple(h * extra for h in raw))

        def outcome(target):
            try:
                return decompose_univariate(target, system, normal_fan(p))
            except NoPreimage as exc:
                return str(exc)

        fast = [outcome(t) for t in targets]
        # the target's content is taken in parametrization, as compose's
        monkeypatch.setattr(parametrization, "_certify_coprime",
                            lambda polys: False)
        assert fast == [outcome(t) for t in targets]


# -- counting ------------------------------------------------------------------


def test_collections_are_found_once_per_fan(monkeypatch):
    calls = _count(monkeypatch, polytope, "_find_primitive_collections")
    p = polytope_from_vertices(2, [(0, 0), (3, 0), (3, 2), (1, 2)])
    frame = frame_of(p)
    system = full_monomial_system(frame)
    for shift in range(3):
        f = ParamTuple(1, tuple(parse(f"u + {shift + i}", 1, "y")
                                for i in range(frame.ray_count)))
        raw = compose_system(system, f).raw
        decompose_univariate(raw, system, frame.fan)
        primitive_collections(frame.fan)
    assert len(calls) == 1


def test_workload_composes_take_no_gcd(monkeypatch, tmp_path):
    """A primitive-coprime compose on the frames of the ``roundtrip`` and
    ``hinted`` benchmark workloads calls no gcd anywhere."""
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads
    calls = []
    for name, module in list(sys.modules.items()):
        if name == "toriparam" or name.startswith("toriparam."):
            for attr in ("gcd_many", "gcd_multi"):
                if hasattr(module, attr):
                    _count(monkeypatch, module, attr, calls)
    rng = random.Random(3)
    roundtrip = workloads.make("roundtrip", str(tmp_path))
    roundtrip.setup()
    hinted = workloads.make("hinted", str(tmp_path))
    hinted.setup()
    composed = 0
    for _ in range(4):
        for system in roundtrip.systems.values():
            r = system.frame.ray_count
            degrees = [roundtrip.FACTORS[i % 4] for i in range(r)]
            f = ParamTuple(1, tuple(
                workloads._uni_entry(fs, workloads._scalar(rng))
                for fs in workloads._coprime_factors(rng, degrees)))
            assert compose_system(system, f).tuple_coprime
            composed += 1
        for system in hinted.systems.values():
            r = system.frame.ray_count
            f = ParamTuple(2, tuple(
                workloads._bi_entry(i, rng.choice((-1, 1)) * rng.randint(1, 6))
                .scale(workloads._scalar(rng)) for i in range(r)))
            assert compose_system(system, f).tuple_coprime
            composed += 1
    assert composed and calls == []


# -- the pre-check in decomposition._verify ------------------------------------


def test_verify_keeps_its_primitive_coprime_precheck(monkeypatch):
    """``_verify`` still asks ``is_primitive_coprime`` about each
    candidate.  The all-zero candidate here fails that pre-check; with the
    pre-check patched out it reaches the identity test, which refuses it
    too, so the search still ends in NoPreimage."""
    frame = frame_of(polytope_from_vertices(2, [(0, 0), (2, 0), (0, 2)]))
    point = {frame.monomial_exponents(m): m
             for m in lattice_points(frame.polytope)}
    one = Fraction(1)
    single = LatticePolynomial.single
    steiner = ParamSystem(frame, (
        LatticePolynomial(frame, ((point[2, 0, 0], one),
                                  (point[0, 2, 0], one),
                                  (point[0, 0, 2], one))),
        single(frame, point[1, 1, 0]), single(frame, point[0, 1, 1]),
        single(frame, point[1, 0, 1])))
    q = parse("u^2 + v + 1", 2, "y")
    zero = MultiPoly.zero(2)
    target = (q, zero, zero, zero)
    with pytest.raises(NoPreimage):
        decompose_with_hints(target, steiner, frame.fan, [q])
    asked = []

    def recording(tup, fan):
        asked.append(tup.entries)
        return is_primitive_coprime(tup, fan)

    monkeypatch.setattr(decomposition, "is_primitive_coprime", recording)
    with pytest.raises(NoPreimage):
        decompose_with_hints(target, steiner, frame.fan, [q])
    assert asked == [(zero, zero, zero)]
    monkeypatch.setattr(decomposition, "is_primitive_coprime",
                        lambda tup, fan: (True, ()))
    with pytest.raises(NoPreimage):
        decompose_with_hints(target, steiner, frame.fan, [q])
