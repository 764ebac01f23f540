"""``decompose_univariate`` against the decomposition that factors every row.

``decompose_univariate`` splits every row of the reduced target over a
squarefree, pairwise coprime base of its vertex rows in each parameter,
or of every row when some row does not split over that, and factors
nothing.  The oracle below is the former ``_decompose`` body, which gave
every row to the factorizer; both must return the same result or raise
the same error with the same message, on compositions and on targets
that are not.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from toriparam.decomposition import (_CANDIDATE_CAP, DecompositionResult,
                                     _cone_solutions, _expand_entries,
                                     _fit_scalars, _multiplicity, _verify,
                                     decompose_univariate)
from toriparam.errors import (BudgetExceeded, InternalError, LengthMismatch,
                              MultiParameterUnsupported, NoPreimage,
                              NotFullDimensional, NotMonomialSystem,
                              NotUnivariate)
from toriparam.linalg import IntMat
from toriparam.parametrization import (ParamTuple, compose_system,
                                       full_monomial_system,
                                       subset_monomial_system)
from toriparam.polynomials import (MultiPoly, factor_over,
                                   factor_univariate, gcd_many, parse, render,
                                   try_divide)
from toriparam.polytope import (frame_of, lattice_points, normal_fan,
                                polytope_from_vertices)
from toriparam.resolution import minimal_resolution, resolved_frame

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


# -- oracle ------------------------------------------------------------------

def oracle_factorizer(poly):
    try:
        return factor_univariate(poly)
    except NotUnivariate as exc:
        raise MultiParameterUnsupported(
            "a component mixes parameters after content extraction; "
            "supply factor hints") from exc


def oracle_decompose(h_raw, p_sys, fan, factorizer=oracle_factorizer):
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

    allowed_zero = {i for i in range(r)
                    if all(e[i] == 0 for _, e in nonzero_rows)}
    zero_entries = set()
    for j, e in zero_rows:
        hitters = [i for i in allowed_zero if e[i] > 0]
        if not hitters:
            raise NoPreimage(
                f"component {j} vanishes but no tuple entry can explain it")
        zero_entries.update(hitters)
    active = [i for i in range(r) if i not in zero_entries]

    factorizations = {j: factorizer(reduced[j]) for j, _ in nonzero_rows}
    irreducibles = []
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

    per_factor_candidates = []
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
            raise BudgetExceeded("too many order assignments to verify "
                                 "for this system/target combination")
        entries = []
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


# -- cases -------------------------------------------------------------------

FACTORS = ["u + 1", "u - 1", "u + 2", "u - 2", "u^2 + 1", "u", "u^2 - 2",
           "u + 3"]
SOLIDS = ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
           (0, 0, -1)],
          [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])


@st.composite
def frames(draw):
    kind = draw(st.sampled_from(["polygon", "polygon", "resolved", "solid"]))
    if kind == "solid":
        return frame_of(polytope_from_vertices(3, draw(st.sampled_from(
            SOLIDS))))
    pts = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                        min_size=3, max_size=5, unique=True))
    try:
        p = polytope_from_vertices(2, pts)
    except NotFullDimensional:
        p = polytope_from_vertices(2, [(0, 0), (1, 0), (0, 1)] + pts)
    if kind == "polygon":
        return frame_of(p)
    return resolved_frame(p, minimal_resolution(normal_fan(p)))


def _poly(draw, nparams=1):
    e = MultiPoly.constant(nparams, draw(st.sampled_from([1, 2, -3, 6])))
    for t in draw(st.lists(st.sampled_from(FACTORS), max_size=2)):
        e = e * parse(t, nparams, "y")
    return e


@st.composite
def cases(draw):
    frame = draw(frames())
    pts = lattice_points(frame.polytope)
    if draw(st.integers(0, 3)):
        system = full_monomial_system(frame)
    else:
        chosen = draw(st.lists(st.sampled_from(pts), min_size=1,
                               max_size=len(pts), unique=True))
        system = subset_monomial_system(frame, chosen)
    f = ParamTuple(1, tuple(
        MultiPoly.zero(1) if draw(st.integers(0, 12)) == 0 else _poly(draw)
        for _ in range(frame.ray_count)))
    kind = draw(st.sampled_from(["composition", "content", "random",
                                 "perturbed", "two parameters",
                                 "split parameters"]))
    if kind == "random":
        return system, tuple(_poly(draw) for _ in range(system.size))
    try:
        raw = list(compose_system(system, f).raw)
    except ValueError:            # the tuple maps into the excluded locus
        return system, tuple(_poly(draw) for _ in range(system.size))
    if kind == "content":
        g = _poly(draw)
        raw = [h * g for h in raw]
    elif kind == "perturbed":
        j = draw(st.integers(0, len(raw) - 1))
        raw[j] = raw[j] * parse(draw(st.sampled_from(FACTORS)), 1, "y")
    elif kind == "two parameters":
        raw = [_in_variable(h, 0) for h in raw]
        j = draw(st.integers(0, len(raw) - 1))
        raw[j] = raw[j] * parse("v + 1", 2, "y")
    elif kind == "split parameters":
        # some entries use only v; the same zero entries compose again
        f = ParamTuple(2, tuple(_in_variable(e, draw(st.integers(0, 1)))
                                for e in f.entries))
        raw = list(compose_system(system, f).raw)
    return system, tuple(raw)


def _in_variable(h, var):
    """h, a polynomial in u, as one in variable ``var`` of (u, v)."""
    return MultiPoly(2, {(e[0], 0) if var == 0 else (0, e[0]): c
                         for e, c in h.terms()})


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:      # the outcomes compared include the error
        return type(exc).__name__, str(exc)
    assert isinstance(result, DecompositionResult)
    return (render(result.content, "y"), str(result.scalar),
            tuple(render(e, "y") for e in result.f.entries),
            result.absorbed, result.normalization)


class TestAgainstFactorEveryRow:
    @SETTINGS
    @given(cases())
    def test_same_result_or_error(self, case):
        system, target = case
        fan = system.frame.fan
        assert (_outcome(decompose_univariate, target, system, fan)
                == _outcome(oracle_decompose, target, system, fan))

    def test_non_vertex_rows_are_not_factored(self, monkeypatch):
        import toriparam.polynomials as polynomials
        p = polytope_from_vertices(2, [(0, 0), (3, 0), (0, 3)])
        system = full_monomial_system(frame_of(p))
        f = ParamTuple.from_text("(u + 1, u - 2, u^2 + 1)")
        target = compose_system(system, f).raw
        factored = []
        real = polynomials.factor_univariate

        def counting(poly):
            factored.append(poly)
            return real(poly)

        monkeypatch.setattr(polynomials, "factor_univariate", counting)
        result = decompose_univariate(target, system, frame_of(p).fan)
        assert factored == []
        assert (_outcome(lambda: result)
                == _outcome(oracle_decompose, target, system,
                            frame_of(p).fan))


ROW_FACTORS = ["u + 1", "2*u + 1", "3*u - 2", "u^2 + 1", "u^2 - 2", "u",
               "u^3 + u + 1"]


@st.composite
def rows(draw):
    chosen = draw(st.lists(st.sampled_from(ROW_FACTORS), max_size=4))
    p = MultiPoly.constant(1, draw(st.sampled_from([1, -2, Fraction(3, 4)])))
    for t in chosen:
        p = p * parse(t, 1, "y") ** draw(st.integers(1, 3))
    known = draw(st.lists(st.sampled_from(ROW_FACTORS), max_size=5))
    irreducibles = []
    for t in known:
        for q, _ in factor_univariate(parse(t, 1, "y")).factors:
            if q not in irreducibles:
                irreducibles.append(q)
    return p, irreducibles


class TestFactorOver:
    @SETTINGS
    @given(rows())
    def test_matches_factor_univariate_or_refuses(self, case):
        p, irreducibles = case
        expected = factor_univariate(p)
        got = factor_over(p, irreducibles)
        if all(q in irreducibles for q, _ in expected.factors):
            assert got == expected
        else:
            assert got is None

    def test_two_variables_are_refused(self):
        u1 = parse("u + 1", 2, "y")
        v1 = parse("v + 1", 2, "y")
        assert factor_over(u1 * v1, [u1, v1]) is None
        assert factor_over(v1 ** 2, [u1]) is None
        assert factor_over(v1 ** 2, [v1]) == factor_univariate(v1 ** 2)

    def test_zero_and_constants(self):
        u1 = parse("u + 1", 1, "y")
        assert factor_over(MultiPoly.zero(1), [u1]) is None
        assert factor_over(MultiPoly.constant(1, -3), [u1]) == \
            factor_univariate(MultiPoly.constant(1, -3))
