"""``_fit_scalars`` solves every prime against one Hermite form.

The oracle is the former body, which called ``solve_integer_linear`` once
per prime on the same augmented matrix.  The transform is the same, so
the particular solutions, and with them the scalars, must be identical.
"""

from fractions import Fraction

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
