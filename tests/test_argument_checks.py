"""The argument checks that no other test reaches: each names its message,
or returns ZERO where a formula has no class to count.

The branches that only a broken invariant reaches are planted in
test_failure_branches.py: lemma6_check's and lemma7_check's failure
branches and dvv's odd-separable ArithmeticError.  Left out are
table2_fit's surplus-row check and the big-endian byteswap in dvv._counts.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from psiclass.asym import (
    RationalFunctionOfG,
    corollary1_deviation,
    f_bound,
    log_gamma_expansion,
)
from psiclass.cli import main
from psiclass.closed import (
    close_terms,
    four_point,
    n_point,
    three_point,
    three_point_terms,
)
from psiclass.exact import ONE, Q, ZERO, pi_interval, to_decimal
from psiclass.harness import check_c4_inequalities, check_omega11_identity
from psiclass.painleve import (
    cg_asymptotic_series,
    painleve_coeff,
    theorem_a_constant,
    theorem_a_estimate,
)
from psiclass.series import SeriesInvX


def _cli(*argv):
    """(exit code, stderr) of one CLI command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


_CASES = {
    "log_gamma_a0": (
        lambda: log_gamma_expansion(0, 0, 3),
        "log_gamma_expansion needs a >= 1",
    ),
    "series_at_infinity_deg": (
        lambda: RationalFunctionOfG((ONE, ONE), (ONE,)).series_at_infinity(3),
        "series at infinity needs deg num <= deg den",
    ),
    "f_bound_x0": (lambda: f_bound(0, 1), "f_bound needs X >= 1 and n >= 1"),
    "to_decimal_p0": (lambda: to_decimal(Q(1, 3), 0), "precision must be positive"),
    "pi_interval_0": (
        lambda: pi_interval(0),
        "digits out of range for the stored constant",
    ),
    "c4_non_geometric": (
        lambda: check_c4_inequalities((2, 2)),
        "check_c4_inequalities needs a geometric vector",
    ),
    # genus_of((-1, 1, 3)) is 1: the sign is what makes it non-geometric.
    "omega11_negative_entry": (
        lambda: check_omega11_identity((-1, 1, 3)),
        "check_omega11_identity needs a geometric vector",
    ),
    "painleve_coeff_neg": (lambda: painleve_coeff(-1), "painleve_coeff needs g >= 0"),
    "cg_series_13": (
        lambda: cg_asymptotic_series(13),
        "cg_asymptotic_series supports 1 <= K <= 12",
    ),
    "theorem_a_g0": (
        lambda: theorem_a_estimate(0),
        "theorem_a_estimate needs g >= 1",
    ),
    # The decimal helpers add 10 guard digits to a pi stored to 100, so
    # each takes precision 1 to 90 and names its own argument.
    "theorem_a_constant_p0": (
        lambda: theorem_a_constant(0),
        "theorem_a_constant needs 1 <= precision <= 90",
    ),
    "theorem_a_constant_p91": (
        lambda: theorem_a_constant(91),
        "theorem_a_constant needs 1 <= precision <= 90",
    ),
    "theorem_a_constant_p200": (
        lambda: theorem_a_constant(200),
        "theorem_a_constant needs 1 <= precision <= 90",
    ),
    "corollary1_p0": (
        lambda: corollary1_deviation(2, 0, 0),
        "corollary1_deviation needs 1 <= precision <= 90",
    ),
    "corollary1_p91": (
        lambda: corollary1_deviation(2, 0, 91),
        "corollary1_deviation needs 1 <= precision <= 90",
    ),
    "theorem_a_estimate_p0": (
        lambda: theorem_a_estimate(5, 0),
        "theorem_a_estimate needs precision >= 1",
    ),
    "theorem_a_estimate_order_neg": (
        lambda: theorem_a_estimate(5, 30, -1),
        "theorem_a_estimate needs 0 <= correction_order <= 12",
    ),
    "theorem_a_estimate_order_13": (
        lambda: theorem_a_estimate(5, 30, 13),
        "theorem_a_estimate needs 0 <= correction_order <= 12",
    ),
    "series_order_neg": (
        lambda: SeriesInvX([ONE], -1),
        "series order must be >= 0",
    ),
    "series_empty": (
        lambda: SeriesInvX([]),
        "empty coefficient list and no order given",
    ),
    "monomial_neg": (
        lambda: SeriesInvX.monomial(ONE, -1, 3),
        "monomial exponent must be >= 0",
    ),
    "exp_constant": (
        lambda: SeriesInvX([ONE, ONE], 3).exp(),
        "exp requires zero constant term",
    ),
    "log_constant": (
        lambda: SeriesInvX([Q(2)], 3).log(),
        "log requires constant term 1",
    ),
    # sum d = 7 with n = 3 is off the geometric genera.
    "close_terms_off": (lambda: close_terms(three_point_terms(1, 2), (1, 2), 4), ZERO),
    "three_point_neg": (lambda: three_point((-1, 2, 2)), ZERO),
    "three_point_off": (lambda: three_point((1, 1, 2)), ZERO),
    "four_point_neg": (lambda: four_point((-1, 1, 2, 2)), ZERO),
    "four_point_off": (lambda: four_point((1, 1, 1, 2)), ZERO),
    "n_point_neg": (lambda: n_point((-1, 2, 3, 4, 5)), ZERO),
    "n_point_off": (lambda: n_point((1, 1, 1, 1, 2)), ZERO),
    # sum d = 0 with n = 6: g = 1 + (0 - 6)/3 = -1.
    "n_point_g_neg": (lambda: n_point((0,) * 6), ZERO),
    "cli_negative_entry": (
        lambda: _cli("compute", "--", "-1,2"),
        (2, "error: index entries must be nonnegative integers\n"),
    ),
}


@pytest.mark.parametrize("call, expected", _CASES.values(), ids=_CASES.keys())
def test_argument_checks(call, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == expected
    else:
        assert call() == expected
