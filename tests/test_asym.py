"""Asymptotic machinery: expansions, rational fitting, the polynomial
table, the uniform product law and the majorant recursion.

The polynomial table frozen below was produced by the overdetermined fit
in table2_fit across nine exponent patterns and three independent closed
formulas, with at least three surplus rows satisfied exactly; the probe
script against large-X values of pi*C confirms the p-dependent entries.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext

import pytest

import psiclass
from psiclass import asym
from psiclass.asym import (
    LARGEST_CAP,
    ONE_POINT_CAP,
    PiLinear,
    RationalFunctionOfG,
    TABLE2_CAP,
    _ln_basis,
    _pi_bound,
    _rref,
    chat_poly,
    corollary1_deviation,
    ctilde_poly,
    f_bound,
    fit_rational,
    largest_series,
    lemma6_check,
    mult_poly_json,
    one_point_series,
    solve_linear_exact,
    table2_monomials,
    theorem2_product,
)
from psiclass.closed import (
    close_terms,
    four_point,
    four_point_terms,
    one_point_c,
    three_point,
    three_point_terms,
)
from psiclass.exact import ONE, Q, ZERO, pi_interval, pi_value, to_decimal

from oracles import (
    compose,
    f_bound_reference,
    fit_rational_reference,
    lemma6_check_reference,
    mult_poly_eval,
    one_point_series_by_ratio,
    rf_value,
    rref_reference,
)

# ----------------------------------------------------------------------
# Series.
# ----------------------------------------------------------------------

ONE_POINT_COEFFS = [
    Q(1),
    Q(-17, 36),
    Q(1, 2592),
    Q(-557, 279936),
    Q(-86543, 40310784),
]

LARGEST_COEFFS = [
    Q(1),
    Q(-2, 9),
    Q(-238, 2025),
    Q(-198149, 2733750),
    Q(-1636229, 24603750),
    Q(-634956973, 5535843750),
    Q(-5031906167099, 14946778125000),
]


def test_one_point_series_frozen():
    s = one_point_series(6)
    assert s.coeffs[: len(ONE_POINT_COEFFS)] == tuple(ONE_POINT_COEFFS)


def test_one_point_series_two_routes_agree():
    """Stirling assembly vs the ratio functional equation; completely
    different derivations, identical coefficients."""
    a = one_point_series(8)
    b = one_point_series_by_ratio(8)
    assert a.coeffs[:9] == b.coeffs[:9]


def test_cancellation_check_is_live(monkeypatch):
    # Without the Gamma(2g - 1) factor the g ln g, ln g, g and log terms of
    # the one-point sum no longer cancel, and the exact check must say so.
    real = asym.log_gamma_expansion

    def drop_one(a, b, K):
        return asym._terms({}, K) if (a, b) == (2, -1) else real(a, b, K)

    monkeypatch.setattr(asym, "log_gamma_expansion", drop_one)
    with pytest.raises(ArithmeticError, match="cancellation failed: .*g ln g: 2"):
        one_point_series(4)


def test_ln_basis():
    assert _ln_basis(60, "g ") == {"g ln2": 2, "g ln3": 1, "g ln5": 1}
    assert _ln_basis(1) == {}
    with pytest.raises(ValueError, match="not 2-3-5-smooth"):
        _ln_basis(7)
    with pytest.raises(ValueError, match="non-positive"):
        _ln_basis(0)


def test_one_point_series_numeric_probe():
    # Series truncation vs exact pi*C(3g-2) at g = 60.
    g = 60
    s = one_point_series(ONE_POINT_CAP)
    with localcontext() as ctx:
        ctx.prec = 40
        approx = sum(
            Decimal(int(c.numerator)) / Decimal(int(c.denominator)) / Decimal(g) ** i
            for i, c in enumerate(s.coeffs)
        )
        exact = pi_value(40).value * to_decimal(one_point_c(3 * g - 2), 40).value
        assert abs(approx - exact) < Decimal("1e-19")


def test_largest_series_frozen():
    # Up to LARGEST_CAP, the top order the CLI prints.
    assert largest_series(LARGEST_CAP).coeffs == tuple(LARGEST_COEFFS)


def test_pi_gamma_series_probe():
    # pi*gamma(X) along odd X = 2g-1, against the exact one-point value:
    # the one-point series reindexed at g = (X+1)/2, as table2_fit builds it.
    s = one_point_series(6).reindex(2, -1)
    g = 60
    x = 2 * g - 1
    with localcontext() as ctx:
        ctx.prec = 40
        approx = sum(
            Decimal(int(c.numerator)) / Decimal(int(c.denominator)) / Decimal(x) ** i
            for i, c in enumerate(s.coeffs)
        )
        exact = pi_value(40).value * to_decimal(one_point_c(3 * g - 2), 40).value
        assert abs(approx - exact) < Decimal("1e-13")


# ----------------------------------------------------------------------
# Exact linear algebra and rational fitting.
# ----------------------------------------------------------------------


def test_solve_linear_exact():
    rows = [[Q(2), Q(1)], [Q(1), Q(3)], [Q(3), Q(4)]]
    rhs = [Q(5), Q(10), Q(15)]
    sol = solve_linear_exact(rows, rhs)
    assert sol == [Q(1), Q(3)]
    with pytest.raises(ValueError, match="inconsistent"):
        solve_linear_exact([[ONE], [ONE]], [ONE, Q(2)])
    with pytest.raises(ValueError, match="underdetermined"):
        solve_linear_exact([[ONE, ONE]], [Q(2)])


def test_fit_rational_recovers_function():
    target = RationalFunctionOfG([Q(1), ZERO, Q(1)], [Q(3), Q(2)])  # (1+g^2)/(3+2g)
    samples = [(Q(g), rf_value(target, g)) for g in range(1, 30)]
    fitted = fit_rational(samples)
    assert rf_value(fitted, 101) == rf_value(target, 101)
    # Monic denominator normalization.
    assert fitted.den[-1] == ONE


def test_fit_rational_rejects_non_rational():
    # 18 samples cap the degree at 8.
    samples = [(Q(g), Q(2) ** g) for g in range(1, 19)]
    with pytest.raises(ValueError, match=r"not rational within cap \(18 samples\)"):
        fit_rational(samples)


def test_fit_rational_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate sample points"):
        fit_rational([(ONE, ONE), (ONE, ONE)])


def test_fit_rational_rejects_non_integral_points():
    target = RationalFunctionOfG([Q(1), ZERO, Q(1)], [Q(3), Q(2)])  # (1+g^2)/(3+2g)
    samples = [(Q(2 * g + 1, 2), rf_value(target, Q(2 * g + 1, 2))) for g in range(1, 30)]
    with pytest.raises(ValueError, match="sample points must be integers"):
        fit_rational(samples)


@pytest.mark.parametrize(
    "matrix, rhs",
    [([[1], [2]], [3]), ([[1]], [3, 4]), ([], [])],
    ids=["row-without-rhs", "rhs-without-row", "empty"],
)
def test_solve_linear_exact_rejects_mismatched_input(matrix, rhs):
    with pytest.raises(ValueError):
        solve_linear_exact(matrix, rhs)


def _random_matrix(rng: random.Random, m: int, n: int, shape: str) -> list:
    """An m x n integer matrix with the structure named by ``shape``."""
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    if shape == "swap":  # the first pivot sits below the first row
        rows[0][0] = 0
        rows[-1][0] = rng.choice([-3, -1, 2, 7])
    elif shape == "zero-column":
        c = rng.randrange(n)
        for row in rows:
            row[c] = 0
    elif shape == "deficient" and m >= 2:  # one row a combination of two
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % (m - 1)])]
    return rows


_SHAPES = ("plain", "swap", "zero-column", "deficient")


def test_rref_matches_reference():
    rng = random.Random(1968)
    for trial in range(200):
        shape = _SHAPES[trial % len(_SHAPES)]
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        rows = _random_matrix(rng, m, n, shape)
        red, pivots, det = _rref(rows)
        ref, ref_pivots = rref_reference(rows)
        assert pivots == ref_pivots, rows
        assert det
        for r in range(m):
            assert [Q(v, det) for v in red[r]] == ref[r], rows
            if r < len(pivots):
                assert red[r][pivots[r]] == det


def test_solve_linear_exact_matches_reference():
    rng = random.Random(22)
    outcomes = set()
    for trial in range(200):
        shape = _SHAPES[trial % len(_SHAPES)]
        n = rng.randint(1, 5)
        m = n + rng.randint(0, 3)
        matrix = [
            [Q(v, rng.randint(1, 5)) for v in row]
            for row in _random_matrix(rng, m, n, shape)
        ]
        x = [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
        if trial % 3 == 0:  # usually breaks consistency
            rhs[-1] += 1
        ref, pivots = rref_reference([row + [b] for row, b in zip(matrix, rhs)])
        if n in pivots:
            want = "inconsistent"
        elif len(pivots) != n:
            want = "underdetermined"
        else:
            want = [ref[r][n] for r in range(n)]
        try:
            got = solve_linear_exact(matrix, rhs)
        except ValueError as err:
            got = str(err).split()[0]
        assert got == want, (matrix, rhs)
        outcomes.add(want if isinstance(want, str) else "unique")
    assert outcomes == {"inconsistent", "underdetermined", "unique"}


def test_fit_rational_matches_reference():
    rng = random.Random(7)
    for trial in range(40):
        dp, dq = rng.randint(0, 3), rng.randint(0, 3)
        num = [Q(rng.randint(-5, 5)) for _ in range(dp)] + [Q(rng.randint(1, 5))]
        den = [Q(rng.randint(0, 5)) for _ in range(dq)] + [Q(rng.randint(1, 5))]
        f = RationalFunctionOfG(tuple(num), tuple(den))  # den > 0 for g >= 1
        points = rng.sample(range(1, 60), 16)
        if trial % 5 == 0:  # not rational at these degrees
            samples = [(g, Q(2) ** g) for g in points]
        else:
            samples = [(g, rf_value(f, g)) for g in points]
        try:  # 16 samples cap the degree at 7
            want = fit_rational_reference(samples, max_degree=7)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err).split("(")[0]):
                fit_rational(samples)
            continue
        got = fit_rational(samples)
        assert got == want, samples
        assert all(rf_value(got, g) == v for g, v in samples)
    # Samples of (g+1)(g+2)/((g+1)(g+3)): the fit has no gcd step, yet the
    # first vector it accepts is the reduced pair, returned monic.
    samples = [(g, Q((g + 1) * (g + 2), (g + 1) * (g + 3))) for g in range(1, 9)]
    want = RationalFunctionOfG((Q(2), ONE), (Q(3), ONE))
    assert fit_rational(samples) == fit_rational_reference(samples) == want


def test_series_at_infinity():
    f = RationalFunctionOfG([Q(1)], [Q(1), Q(1)])  # 1/(1+g)
    s = f.series_at_infinity(4)
    assert s.coeffs == (ZERO, Q(1), Q(-1), Q(1), Q(-1))


# ----------------------------------------------------------------------
# The polynomial table.
# ----------------------------------------------------------------------

P0 = (0, 0, 0, 0)


def _p(e2=0, e3=0, e4=0, e5=0):
    return (e2, e3, e4, e5)


CTILDE_EXPECTED = {
    0: {P0: ONE},
    1: {P0: Q(-17, 18)},
    2: {P0: Q(613, 648), _p(e2=1): Q(-5, 18)},
    3: {P0: Q(-33713, 34992), _p(e2=1): Q(535, 324), _p(e3=1): Q(35, 27)},
    4: {
        P0: Q(2424889, 2519424),
        _p(e2=1): Q(-25025, 11664),
        _p(e2=2): Q(1225, 648),
        _p(e3=1): Q(-3325, 1944),
        _p(e4=1): Q(-1225, 216),
        _p(e5=1): Q(-385, 216),
    },
}

CHAT_EXPECTED = {
    0: {P0: ONE},
    1: {},
    2: {_p(e2=1): Q(-5, 18)},
    3: {_p(e2=1): Q(25, 18), _p(e3=1): Q(35, 27)},
    4: {
        _p(e2=1): Q(-185, 324),
        _p(e2=2): Q(1225, 648),
        _p(e3=1): Q(-35, 72),
        _p(e4=1): Q(-1225, 216),
        _p(e5=1): Q(-385, 216),
    },
}


def test_table_polynomials_frozen():
    for k in range(0, TABLE2_CAP + 1):
        assert ctilde_poly(k) == CTILDE_EXPECTED[k], k
        assert chat_poly(k) == CHAT_EXPECTED[k], k


def test_chat_vanishes_on_primitive_patterns():
    # With every multiplicity p_d equal zero (the one-point pattern),
    # C/gamma tends to 1 with no power corrections: every chat_k (k >= 1)
    # evaluates to 0.
    for k in range(1, TABLE2_CAP + 1):
        assert mult_poly_eval(chat_poly(k), (0, 0, 0, 0)) == ZERO


def test_ctilde_constants_match_one_point_reindexed():
    # At p = 0 the family degenerates to the one-point class; the constant
    # terms are the 1/X-reindexed one-point coefficients.
    s = one_point_series(TABLE2_CAP)
    # g = (X+1)/2 for n = 1, i.e. 1/g = (2/X) / (1 + 1/X).
    from psiclass.series import SeriesInvX

    inv_g = SeriesInvX([ZERO, Q(2)], order=TABLE2_CAP) / SeriesInvX(
        [ONE, ONE], order=TABLE2_CAP
    )
    reindexed = compose(s, inv_g)
    for k in range(0, TABLE2_CAP + 1):
        assert mult_poly_eval(ctilde_poly(k), (0, 0, 0, 0)) == reindexed.coeffs[k], k


@pytest.mark.parametrize("pattern", [(2, 2), (2, 3), (2, 2, 2), (2, 2, 3)])
def test_fit_term_tables_match_direct_calls(pattern):
    # The fit builds a pattern's closed-formula terms once and closes them
    # at every genus it samples; each value must be the public formula's.
    n = len(pattern) + 1
    if n == 3:
        build, direct, genera = three_point_terms, three_point, asym._FIT_GENERA
        assert (genera[0], genera[-1]) == (4, 40)
    else:
        build, direct, genera = four_point_terms, four_point, asym._FIT_GENERA_FOUR_POINT
        assert (genera[0], genera[-1]) == (4, 25)
    terms = build(*pattern)
    for g in genera:
        dn = 3 * g - 3 + n - sum(pattern)
        # The pattern holds the smaller entries, as the term window takes them.
        assert dn >= max(pattern), (pattern, g)
        d = pattern + (dn,)
        assert close_terms(terms, pattern, dn) == direct(d), d


def test_monomial_budget():
    # Weight cap: sum e_d (2d+1) <= max(0, 3k-1).
    for k in range(0, TABLE2_CAP + 1):
        cap = max(0, 3 * k - 1)
        for mono in table2_monomials(k):
            w = sum(e * (2 * d + 1) for e, d in zip(mono, (2, 3, 4, 5)))
            assert w <= cap, (k, mono)
    assert table2_monomials(0) == [(0, 0, 0, 0)]
    assert len(table2_monomials(4)) >= 6


def test_mult_poly_json_shape():
    payload = mult_poly_json(2, ctilde_poly(2))
    assert payload["k"] == 2
    monos = payload["monomials"]
    assert {"exponents": {}, "coefficient": "613/648"} in monos
    assert {"exponents": {"p2": 1}, "coefficient": "-5/18"} in monos
    assert len(monos) == 2


# ----------------------------------------------------------------------
# Product law, deviations, majorant.
# ----------------------------------------------------------------------


def test_theorem2_product_values():
    assert theorem2_product((0, 5)) == Q(11, 9)
    assert theorem2_product((2, 3)) == ONE  # no zeros: empty product
    with pytest.raises(ValueError, match="degenerate product"):
        theorem2_product((0, 0, 0, 1, 1, 1))


def test_corollary1_deviation_decreasing_in_g():
    for k in range(0, 3):
        vals = [corollary1_deviation(g, k, 30).value for g in (4, 5, 6)]
        assert vals[0] > vals[1] > vals[2], (k, vals)


def test_corollary1_rejects_bad_args():
    with pytest.raises(ValueError):
        corollary1_deviation(1, 0)
    with pytest.raises(ValueError):
        corollary1_deviation(3, -1)


def test_f_bound_base_and_step():
    assert f_bound(5, 2) == PiLinear(ONE, ZERO)
    assert f_bound(7, 9) == PiLinear(ONE, ZERO)
    # One step of the recursion: f(8,3) = (2/3)f(7,2) + (1/3)f(7,4) + 4/(7*6)
    assert f_bound(8, 3) == PiLinear(ONE, Q(2, 21))


def test_f_bound_matches_recursive_form():
    for X in range(1, 61):
        for n in range(1, 61):
            assert f_bound(X, n) == f_bound_reference(X, n), (X, n)
    # Going back down in X restarts the rows from X = 1.
    assert f_bound(9, 4) == f_bound_reference(9, 4)


def test_lemma6_small_range():
    ok, excess = lemma6_check(xmax=60, nmax=40)
    assert ok
    # The excess statistic is a certified upper bound for X(f - 1/pi).
    assert excess > ZERO


def test_pi_bound_takes_the_safe_end():
    # The majorant keeps r = 1, so lemma6_check alone never tells the ends apart.
    lo, hi = pi_interval(5)
    ends = ((lo.numerator, lo.denominator), (hi.numerator, hi.denominator))
    for r in (-3, 0, 2):
        for s in (-1, 0, 5):
            vals = (Q(r) / lo + s, Q(r) / hi + s)
            for upper, want in ((True, max(vals)), (False, min(vals))):
                num, den = _pi_bound(r, s, upper, ends)
                assert den > 0 and Q(num, den) == want, (r, s, upper)


# Row X stores one column for X <= 7 and X - 5 from X = 8 on: fewer than
# nmax + 1 at (7, 50), (30, 200) and (100, 120), more at (60, 40) and (120, 10).
@pytest.mark.parametrize(
    "xmax, nmax", [(60, 40), (100, 120), (7, 50), (30, 200), (120, 10)]
)
def test_lemma6_matches_rational_loop(xmax, nmax):
    assert lemma6_check(xmax=xmax, nmax=nmax) == lemma6_check_reference(xmax, nmax)


@pytest.mark.parametrize("xmax, nmax", [(0, 5), (-3, 5), (10, 0)])
def test_lemma6_rejects_empty_range(xmax, nmax):
    with pytest.raises(ValueError):
        lemma6_check(xmax=xmax, nmax=nmax)


def test_majorant_does_not_recurse():
    """Deep X under a recursion limit far below X, in a fresh interpreter."""
    code = (
        "import sys\n"
        "from psiclass.asym import f_bound, lemma6_check\n"
        "sys.setrecursionlimit(150)\n"
        "f = f_bound(300, 3)\n"
        "assert sys.getrecursionlimit() == 150\n"
        "ok, excess = lemma6_check(xmax=300, nmax=5)\n"
        "assert sys.getrecursionlimit() == 150\n"
        "print(ok, f)\n"
    )
    src = os.path.dirname(os.path.dirname(psiclass.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"True {f_bound(300, 3)}\n"
