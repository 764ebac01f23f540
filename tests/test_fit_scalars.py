"""``_fit_scalars`` solves against one Hermite form, without factoring.

The oracle is an earlier body, which factored every numerator and
denominator and called ``solve_integer_linear`` once per prime on the same
augmented matrix.  ``_fit_scalars`` solves once per element of a coprime
base of those integers instead; the particular solutions are linear in
the right-hand side, so the scalars must be identical.
"""

from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from toriparam.decomposition import _fit_scalars, _valuation
from toriparam.linalg import IntMat, _particular, _reduce, \
    solve_integer_linear

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def oracle_fit_scalars(exp_matrix, units):
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


SMALL = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 25, 7 ** 3])


@st.composite
def fits(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    matrix = IntMat.from_rows([draw(st.lists(st.integers(0, 3), min_size=cols,
                                             max_size=cols))
                               for _ in range(rows)])
    units = [Fraction(draw(SMALL), draw(SMALL)) * draw(st.sampled_from([1, -1]))
             for _ in range(rows)]
    return matrix, units


class TestOneHermiteForm:
    @SETTINGS
    @given(fits())
    def test_same_scalars_as_per_prime_solves(self, case):
        matrix, units = case
        assert _fit_scalars(matrix, units) == oracle_fit_scalars(matrix, units)

    @SETTINGS
    @given(fits(), st.lists(st.integers(-6, 6), min_size=4, max_size=4))
    def test_particular_matches_solve(self, case, rhs):
        matrix, _ = case
        rhs = rhs[:matrix.rows]
        solved = solve_integer_linear(matrix, rhs)
        assert _particular(*_reduce(matrix), rhs) == \
            (None if solved is None else solved[0])


FACTORINT = sympy.factorint


class TestNoFactoring:
    """Units (P, 1, P), with P a product of two 22-digit primes, took
    seconds when every unit was factored."""

    P1 = sympy.nextprime(10 ** 21 + 7 * 10 ** 12)
    P2 = sympy.nextprime(3 * 10 ** 21 + 11)

    def known_factorint(self, n):
        """``sympy.factorint`` for products of P1, P2 and small primes."""
        out = {}
        for p in (self.P1, self.P2):
            while n % p == 0:
                n //= p
                out[p] = out.get(p, 0) + 1
        out.update(FACTORINT(n))
        return out

    @pytest.mark.parametrize("rows, units", [
        ([[1, 0], [0, 1], [1, 0]], [1, Fraction(1), 1]),
        ([[1, 0], [0, 1], [1, 0]], [1, Fraction(2, 9), -1]),
        ([[2, 1], [0, 2], [1, 3]], [4, 1, 2]),
        ([[2, 0], [0, 2], [2, 2]], [1, 1, 1]),
        ([[1, 1], [2, 0], [0, 1]], [Fraction(1, 2), 6, 1]),
    ])
    def test_semiprime_units(self, rows, units):
        P = self.P1 * self.P2
        units = [Fraction(u) * P ** k for u, k in zip(units, (1, 0, 1))]
        matrix = IntMat.from_rows(rows)
        with mock.patch.object(sympy, "factorint", self.known_factorint):
            want = oracle_fit_scalars(matrix, units)
        with mock.patch.object(sympy, "factorint",
                               side_effect=AssertionError("factored")):
            assert _fit_scalars(matrix, units) == want

    def test_perfect_powers_share_their_root(self):
        """P^2 and P^3 make the base element P, whose system is solvable
        although the one of P^2 alone is not."""
        P = self.P1 * self.P2
        matrix = IntMat.from_rows([[2], [3]])
        units = [Fraction(P ** 2), Fraction(P ** 3)]
        with mock.patch.object(sympy, "factorint", self.known_factorint):
            want = oracle_fit_scalars(matrix, units)
        assert want is not None
        with mock.patch.object(sympy, "factorint",
                               side_effect=AssertionError("factored")):
            assert _fit_scalars(matrix, units) == want
