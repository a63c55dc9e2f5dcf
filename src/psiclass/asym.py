"""Large-genus asymptotics: Stirling jets, series fitting, the universal
polynomial table, deviation bounds and the majorant f(X, n).

The centerpiece is the expansion machinery for pi*C along one-parameter
families.  Two closed families are expanded symbolically:

  * one_point_series:  pi*C(3g-2)     as a series in 1/g,
  * largest_series:    pi*C(2^(3g-3)) as a series in 1/g (via Painleve I).

Both work by assembling log C from Gamma factors: each lnGamma(a g + b) is
expanded with Stirling's series into a LogExpansion, one map from the term
names g ln g, ln g, g, g ln2, g ln3, g ln5, ln2, ln3, ln5 and lnpi to exact
rational coefficients, plus a pure 1/g-tail.  All terms must cancel except
a single -ln pi; the code verifies that cancellation exactly rather than
assuming it, then exponentiates the tail.

For mixed families (a fixed pattern of small exponents plus one growing
entry) the ratio C(pattern, d_n)/C(3g-2) is an honest rational function of
g; fit_rational recovers it exactly from samples with surplus validation
points.  Each fit builds a three- or four-point pattern's closed-formula
terms once (the pattern holds the smaller entries, which alone set them)
and closes them at every sampled d_n, and computes C(3g-2) once per
sampled genus for all patterns.  The resulting series, reindexed from 1/g
to 1/X via g = (X + 2 - n)/2 (1/g = 2x/(1 - (n-2)x) with x = 1/X, one
SeriesInvX.reindex), yields the coefficients c~_k (of pi*C) and
c^_k (of C/gamma(X)).  Solving the pattern grid against the allowed
monomials in the multiplicities p_2..p_5 gives the universal polynomials;
the linear system is overdetermined by at least three rows and must be
satisfied exactly.  Both eliminations (the fit's homogeneous systems and
the table's solve) are Bareiss's fraction-free Gauss-Jordan on rows
cleared to integers: every division is exact, and a rational is built
only from the final determinant.

The majorant f(X, n) = r/pi + s runs on integers: each X-row holds the
numerators of r and s over one common denominator (see _majorant_row) and
is built from the row below, so neither f_bound nor lemma6_check recurses.
f_bound keeps no state: each call builds rows 1..X and its PiLinear of
rationals at the boundary.  lemma6_check compares against the pi interval
by integer cross-multiplication and builds one rational, the excess bound.
"""

from __future__ import annotations

from decimal import localcontext
from functools import cache, partial
from itertools import product
from math import comb, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .closed import (
    close_terms,
    four_point_terms,
    one_point_c,
    three_point_terms,
    two_point_zograf,
)
from .dvv import c_value
from .exact import (
    HPDecimal,
    ONE,
    Q,
    ZERO,
    bernoulli,
    exp_decimal,
    pi_interval,
    pi_value,
    rat_str,
    rounded,
    to_decimal,
)
from .painleve import cg_asymptotic_series
from .series import SeriesInvX

# ----------------------------------------------------------------------
# Stirling machinery.
# ----------------------------------------------------------------------


def _ln_basis(a: int, prefix: str = "") -> Dict[str, object]:
    """ln(a) over {ln2, ln3, ln5} for a positive 5-smooth integer a, each
    term name prefixed by ``prefix`` ("g " for the logs linear in g)."""
    if a < 1:
        raise ValueError("logarithm of a non-positive value")
    out: Dict[str, object] = {}
    rest = a
    for p in (2, 3, 5):
        while rest % p == 0:
            name = f"{prefix}ln{p}"
            out[name] = out.get(name, ZERO) + ONE
            rest //= p
    if rest != 1:
        raise ValueError(f"{a} is not 2-3-5-smooth")
    return out


def _dict_add(a: Dict, b: Dict, scale=ONE) -> Dict:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, ZERO) + scale * v
        if w:
            out[k] = w
        elif k in out:
            del out[k]
    return out


class LogExpansion:
    """An expansion  sum_t terms[t] * t + tail(1/g)  with rational
    coefficients over the term names

        g ln g, ln g, g, g ln2, g ln3, g ln5, ln2, ln3, ln5, lnpi.

    This is exactly the shape of ln Gamma(a g + b) and hence of log C along
    closed families; sums of these stay in the class.  ``terms`` holds the
    nonzero coefficients only.
    """

    __slots__ = ("terms", "tail")

    def __init__(self, terms: Dict, tail: SeriesInvX):
        self.terms = terms
        self.tail = tail

    def __add__(self, other: "LogExpansion") -> "LogExpansion":
        return LogExpansion(_dict_add(self.terms, other.terms), self.tail + other.tail)

    def __sub__(self, other: "LogExpansion") -> "LogExpansion":
        return self + other.scale(-ONE)

    def scale(self, c) -> "LogExpansion":
        return LogExpansion(_dict_add({}, self.terms, c), self.tail * c)

    def pure_tail_or_raise(self, allow: Optional[Dict] = None) -> SeriesInvX:
        """Verify every term but the tail cancels (up to ``allow``)."""
        leftover = _dict_add(self.terms, allow or {}, -ONE)
        if leftover:
            raise ArithmeticError(
                "expected cancellation failed: "
                + ", ".join(f"{t}: {c}" for t, c in leftover.items())
            )
        return self.tail


def _terms(terms: Dict, K: int) -> LogExpansion:
    """The given terms with a zero tail of order K."""
    return LogExpansion(_dict_add({}, terms), SeriesInvX.zero(K))


def log_gamma_expansion(a: int, b, K: int) -> LogExpansion:
    """ln Gamma(a g + b) as a LogExpansion with tail order K (a >= 1 integer,
    2-3-5-smooth; b rational)."""
    if a < 1:
        raise ValueError("log_gamma_expansion needs a >= 1")
    b = Q(b)
    r, half = b / a, Q(1, 2)
    # (a g + b - 1/2) ln(a g + b) - (a g + b) + ln(2 pi)/2, with
    # ln(a g + b) = ln a + ln g + sum_{m>=1} L[m] g^-m,  L[m] = -(-r)^m / m.
    L = [ZERO] + [-((-r) ** m) / m for m in range(1, K + 2)]
    tail = [ZERO] + [a * L[m + 1] + (b - half) * L[m] for m in range(1, K + 1)]
    # Bernoulli tail sum_k B_2k z^(1-2k) / (2k (2k-1)) in z = a g + b,
    # re-expanded in 1/g.
    for k in range(1, (K + 1) // 2 + 1):
        t_k = bernoulli(2 * k) / (2 * k * (2 * k - 1) * Q(a) ** (2 * k - 1))
        for j in range(K - 2 * k + 2):
            tail[2 * k - 1 + j] += t_k * comb(2 * k - 2 + j, j) * (-r) ** j
    # The rest: a (g ln g + g ln a - g) + (b - 1/2) ln(a g) + (ln2 + lnpi)/2.
    lead = {"g ln g": Q(a), "g": Q(-a), "ln2": half, "lnpi": half}
    terms = _dict_add(lead, _ln_basis(a, "g "), a)
    terms = _dict_add(terms, {"ln g": ONE} | _ln_basis(a), b - half)
    return LogExpansion(terms, SeriesInvX(tail))


# ----------------------------------------------------------------------
# The two closed one-parameter families.
# ----------------------------------------------------------------------

ONE_POINT_CAP = 10
LARGEST_CAP = 6


def one_point_series(K: int) -> SeriesInvX:
    """pi * C(3g-2) as a 1/g-series with exact rational coefficients.

    From C(3g-2) = 3 (6g-2)! / (2^(3g-1) (3g-1)! 54^g g! (2g-2)!); the
    g ln g, ln g, g and constant parts must cancel to exactly -ln pi.

    >>> one_point_series(1).coeffs[1] == Q(-17, 36)
    True
    """
    if not 1 <= K <= ONE_POINT_CAP:
        raise ValueError(f"order must be between 1 and {ONE_POINT_CAP}")
    E = (
        log_gamma_expansion(6, -1, K)
        - log_gamma_expansion(3, 0, K)
        - log_gamma_expansion(1, 1, K)
        - log_gamma_expansion(2, -1, K)
        + _terms({"ln2": ONE, "ln3": ONE, "g ln2": Q(-3)}, K)  # 3 / 2^(3g-1)
        - _terms({"g ln2": ONE, "g ln3": Q(3)}, K)  # 54^g
    )
    tail = E.pure_tail_or_raise(allow={"lnpi": -ONE})
    return tail.exp()


def largest_series(K: int) -> SeriesInvX:
    """pi * C(2, ..., 2) with 3g-3 twos, as a 1/g-series.

    Combines the Painleve bridge with c_g ~ A 50^g Gamma(g)^2 (1 + sum b_j
    g^-j), A = sqrt(3/5)/(2 pi^2); all non-tail parts must cancel exactly.

    >>> largest_series(1).coeffs[1] == Q(-2, 9)
    True
    """
    if not 1 <= K <= LARGEST_CAP:
        raise ValueError(f"order must be between 1 and {LARGEST_CAP}")
    b_series = SeriesInvX([ONE] + list(cg_asymptotic_series(K)), K)
    E = (
        _terms({"ln3": Q(1, 2), "ln5": Q(-1, 2), "ln2": -ONE, "lnpi": -ONE}, K)  # pi A
        + _terms({"g ln2": ONE, "g ln5": Q(2)}, K)  # 50^g
        + log_gamma_expansion(1, 0, K).scale(Q(2))
        + LogExpansion({}, b_series.log())
        + _terms({"g ln5": Q(3), "ln5": Q(-3)}, K)  # 5^(3g-3)
        + log_gamma_expansion(3, -2, K)
        - _terms({"g ln2": ONE}, K)  # 2^g
        - _terms({"g ln3": Q(3), "ln3": Q(-2)}, K)  # 3^(3g-2)
        - log_gamma_expansion(5, -4, K)
        - log_gamma_expansion(5, -2, K)  # ln(5g-3) = lnGamma(5g-2) - lnGamma(5g-3)
        + log_gamma_expansion(5, -3, K)
    )
    tail = E.pure_tail_or_raise()
    return tail.exp()


# ----------------------------------------------------------------------
# Fraction-free elimination and exact rational-function fitting.
# ----------------------------------------------------------------------


def _rref(rows: List[List[int]]) -> Tuple[List[List[int]], List[int], int]:
    """Fraction-free reduced row echelon form of an integer matrix.

    Bareiss's Gauss-Jordan elimination: each step cross-multiplies by the
    new pivot and divides exactly by the previous one, so every entry stays
    an integer (a minor of the input).  Returns (rows, pivot columns, det):
    every pivot row ends with det in its pivot column, and rows[r][c] / det
    is the entry of the rational reduced form.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    det = 1
    r = 0
    for c in range(ncols):
        pick = next((i for i in range(r, m) if rows[i][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(m):
            if i != r:
                f = rows[i][c]
                rows[i] = [(p * a - f * b) // det for a, b in zip(rows[i], prow)]
        det = p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots, det


def _integer_row(row: Sequence) -> List[int]:
    """A row of rationals scaled by the lcm of its denominators."""
    row = [Q(v) for v in row]
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def solve_linear_exact(matrix: Sequence[Sequence], rhs: Sequence) -> List:
    """Solve A x = b exactly; A may be overdetermined but must be consistent
    with a unique solution.

    Each row is cleared to integers and eliminated fraction-free; the
    solution is one division by the determinant per unknown.

    >>> solve_linear_exact([[2, 1], [1, 3], [3, 4]], [5, 10, Q(15)])
    [Fraction(1, 1), Fraction(3, 1)]
    """
    if not matrix:
        raise ValueError("empty linear system")
    aug = [_integer_row([*row, b]) for row, b in zip(matrix, rhs, strict=True)]
    red, pivots, det = _rref(aug)
    ncols = len(aug[0]) - 1
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) != ncols:
        raise ValueError("underdetermined linear system")
    sol = [ZERO] * ncols
    for r, c in enumerate(pivots):
        sol[c] = Q(red[r][ncols], det)
    return sol


def _poly_eval(coeffs: Sequence, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_normalize(coeffs: List) -> List:
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


class RationalFunctionOfG(NamedTuple):
    """P(g)/Q(g) with exact rational coefficients, stored lowest-terms with
    monic denominator, so equal functions are equal tuples (fit_rational
    returns them so without a gcd step)."""

    num: Tuple
    den: Tuple

    def series_at_infinity(self, K: int) -> SeriesInvX:
        dp, dq = len(self.num) - 1, len(self.den) - 1
        if dp > dq:
            raise ValueError("series at infinity needs deg num <= deg den")
        nh = [ZERO] * (dq - dp) + list(reversed(self.num))
        dh = list(reversed(self.den))
        return SeriesInvX(nh, K) / SeriesInvX(dh, K)


def fit_rational(samples: Sequence[Tuple[int, object]]) -> RationalFunctionOfG:
    """Recover the exact rational function through (g_i, q_i) samples.

    Climbs degrees d = 0, 1, ...: solves the homogeneous linear system
    P(g_i) - q_i Q(g_i) = 0 (deg P = deg Q = d) on 2d+1 samples and accepts
    only if the result reproduces every remaining sample as well.  m samples
    cap d at m/2 - 1, leaving one to validate; past it the fit raises.  With
    q_i = a_i/b_i the rows are (b_i g_i^j | -a_i g_i^j), eliminated
    fraction-free, and the null vector and every sample check stay on
    integers.

    The accepted pair is already coprime, so only the monic scaling is
    left: a common factor would give a lower-degree representation, which
    the climb would have accepted first.

    >>> f = fit_rational([(g, Q(1 + g * g, 3 + 2 * g)) for g in range(1, 8)])
    >>> f.num, f.den
    ((Fraction(1, 2), Fraction(0, 1), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 1)))
    """
    points = []
    for g, v in samples:
        gi, v = int(g), Q(v)
        if gi != g:
            raise ValueError("sample points must be integers")
        points.append((gi, v.numerator, v.denominator))
    if len(set(g for g, _, _ in points)) != len(points):
        raise ValueError("duplicate sample points")
    for d in range(len(points) // 2):
        need = 2 * d + 1
        rows = []
        for g, a, b in points[:need]:
            pows = [g**j for j in range(d + 1)]
            rows.append([b * p for p in pows] + [-a * p for p in pows])
        red, pivots, det = _rref(rows)
        ncols = 2 * d + 2
        free = next(c for c in range(ncols) if c not in pivots)
        vec = [0] * ncols
        vec[free] = det
        for r, c in enumerate(pivots):
            vec[c] = -red[r][free]
        num = _poly_normalize(vec[: d + 1])
        den = _poly_normalize(vec[d + 1 :])
        ok = True
        for g, a, b in points:
            dv = _poly_eval(den, g)
            if not dv or b * _poly_eval(num, g) != a * dv:
                ok = False
                break
        if not ok:
            continue
        inv = ONE / den[-1]
        return RationalFunctionOfG(
            tuple(c * inv for c in num), tuple(c * inv for c in den)
        )
    raise ValueError(f"not rational within cap ({len(points)} samples)")


# ----------------------------------------------------------------------
# Universal polynomials in the multiplicities p_2..p_5 (the table fit).
# ----------------------------------------------------------------------

TABLE2_CAP = 4

PATTERNS: Tuple[tuple, ...] = (
    (),
    (2,),
    (2, 2),
    (3,),
    (4,),
    (5,),
    (2, 3),
    (2, 2, 2),
    (2, 2, 3),
)

_PVALS = (2, 3, 4, 5)
_PWEIGHTS = tuple(2 * d + 1 for d in _PVALS)

MultPoly = Dict[Tuple[int, int, int, int], object]


def _mono_order(exps: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    """The table's monomial order: by weight sum e_d (2d+1), then exponents."""
    return sum(e * w for e, w in zip(exps, _PWEIGHTS)), exps


def table2_monomials(k: int) -> List[Tuple[int, int, int, int]]:
    """Exponent tuples (e_2, e_3, e_4, e_5) with sum e_d (2d+1) <= max(0, 3k-1)."""
    bound = max(0, 3 * k - 1)
    ranges = [range(bound // w + 1) for w in _PWEIGHTS]
    return sorted(
        (t for t in product(*ranges) if _mono_order(t)[0] <= bound),
        key=_mono_order,
    )


def _pattern_pvec(pattern: tuple) -> Tuple[int, int, int, int]:
    return tuple(sum(1 for v in pattern if v == d) for d in _PVALS)


def _mono_value(exps: Tuple[int, ...], pvec: Tuple[int, ...]):
    acc = ONE
    for e, p in zip(exps, pvec):
        if e:
            acc *= Q(p) ** e
    return acc


# The genera a fit samples: 4..40, and 4..25 for four points.
_FIT_GENERA = range(4, 41)
_FIT_GENERA_FOUR_POINT = range(4, 26)


def _pattern_ctilde_series(
    pattern: tuple, one_point: SeriesInvX, one_point_cs: Dict[int, object]
) -> SeriesInvX:
    """pi*C(pattern, d_n) as a 1/X-series for the family d_n = 3g-3+n-|pattern|.

    ``one_point`` is one_point_series(K) and ``one_point_cs`` maps each
    sampled g to one_point_c(3g-2), both shared by every pattern of a fit;
    the result has order K.  A three- or four-point pattern builds its
    closed-formula terms once (the pattern holds the smaller entries) and
    closes them at every sampled d_n.
    """
    n = len(pattern) + 1
    K = one_point.order
    if n == 1:
        ser_g = SeriesInvX.one(K)
    else:
        if n == 2:
            value = partial(two_point_zograf, pattern[0])
        else:
            build = three_point_terms if n == 3 else four_point_terms
            value = partial(close_terms, build(*pattern), pattern)
        genera = _FIT_GENERA if n <= 3 else _FIT_GENERA_FOUR_POINT
        samples = [
            (g, value(3 * g - 3 + n - sum(pattern)) / one_point_cs[g])
            for g in genera
        ]
        ser_g = fit_rational(samples).series_at_infinity(K)
    # 1/g -> 1/X via g = (X + 2 - n)/2, i.e. 1/g = 2x/(1 - (n-2)x)
    return (ser_g * one_point).reindex(2, n - 2)


@cache
def table2_fit() -> Dict[str, Dict[int, MultPoly]]:
    """Fit the universal polynomials for orders 1..TABLE2_CAP.

    Returns {"ctilde": {k: MultPoly}, "chat": {k: MultPoly}} where ctilde_k
    are the 1/X^k coefficients of pi*C(d) and chat_k those of C(d)/gamma(X).
    Every fit is overdetermined by >= 3 pattern rows and must hold exactly.
    Memoized: computed once.  One one_point_series(TABLE2_CAP) serves every
    pattern row and pi*gamma(X), its reindex at g = (X+1)/2.
    """
    one_point = one_point_series(TABLE2_CAP)
    one_point_cs = {g: one_point_c(3 * g - 2) for g in _FIT_GENERA}
    ctilde_rows = {
        p: _pattern_ctilde_series(p, one_point, one_point_cs) for p in PATTERNS
    }
    pg = one_point.reindex(2, -1)
    chat_rows = {p: ser / pg for p, ser in ctilde_rows.items()}
    result: Dict[str, Dict[int, MultPoly]] = {"ctilde": {}, "chat": {}}
    for name, rows in (("ctilde", ctilde_rows), ("chat", chat_rows)):
        for k in range(1, TABLE2_CAP + 1):
            monos = table2_monomials(k)
            if len(PATTERNS) - len(monos) < 3:
                raise ArithmeticError(
                    f"fit for k={k} lacks the required 3 surplus rows"
                )
            matrix = [
                [_mono_value(m, _pattern_pvec(p)) for m in monos]
                for p in PATTERNS
            ]
            rhs = [rows[p].coeffs[k] for p in PATTERNS]
            sol = solve_linear_exact(matrix, rhs)
            result[name][k] = {
                m: c for m, c in zip(monos, sol) if c
            }
    return result


def _table_poly(name: str, k: int) -> MultPoly:
    if not 0 <= k <= TABLE2_CAP:
        raise ValueError(f"k must be between 0 and {TABLE2_CAP}")
    if k == 0:
        return {(0, 0, 0, 0): ONE}
    return table2_fit()[name][k]


def ctilde_poly(k: int) -> MultPoly:
    """The universal polynomial c~_k (coefficient of X^-k in pi*C)."""
    return _table_poly("ctilde", k)


def chat_poly(k: int) -> MultPoly:
    """The universal polynomial c^_k (coefficient of X^-k in C/gamma)."""
    return _table_poly("chat", k)


def mult_poly_json(k: int, poly: MultPoly) -> dict:
    """JSON-ready form: exponents mapped by name, coefficients as "p/q"."""
    monos = []
    for exps in sorted(poly, key=_mono_order):
        named = {
            f"p{d}": e for d, e in zip(_PVALS, exps) if e
        }
        monos.append({"exponents": named, "coefficient": rat_str(poly[exps])})
    return {"k": k, "monomials": monos}


# ----------------------------------------------------------------------
# Pointwise bounds and deviations.
# ----------------------------------------------------------------------


def theorem2_product(d: Sequence[int]):
    """prod_{j=1}^{p0} (1 + (2 + j - p0)/(3X - 3 p1 - 3 j)) for the vector d,

    where p0 and p1 count 0- and 1-entries and X = X(d); the uniform
    approximation pi*C(d) ~ product at large X.  A vanishing denominator
    raises (degenerate product).
    """
    p0 = sum(1 for v in d if v == 0)
    p1 = sum(1 for v in d if v == 1)
    threeX = 2 * sum(d) + len(d)
    acc = ONE
    for j in range(1, p0 + 1):
        den = threeX - 3 * p1 - 3 * j
        if den == 0:
            raise ValueError("degenerate product")
        acc *= ONE + Q(2 + j - p0, den)
    return acc


def corollary1_deviation(g: int, k: int, precision: int = 50) -> HPDecimal:
    """| pi C(0^k, 2^(3g-3+k)) e^(k^2/(30g)) - 1 | at the given precision."""
    if g < 2 or k < 0:
        raise ValueError("corollary1_deviation needs g >= 2, k >= 0")
    d = (0,) * k + (2,) * (3 * g - 3 + k)
    c = c_value(d)
    pi = pi_value(precision + 10)
    ek = exp_decimal(Q(k * k, 30 * g), precision + 10)
    cd = to_decimal(c, precision + 10)
    with localcontext() as ctx:
        ctx.prec = precision + 10
        val = abs(pi.value * cd.value * ek.value - 1)
    return rounded(val, precision)


class PiLinear(NamedTuple):
    """A number of the form r/pi + s with exact rational r, s."""

    r: object
    s: object


# One row of the majorant, (D, R, S): f(X, n) = R[i]/(D pi) + S[i]/D at
# i = min(n, len(R)) - 1, all integers with D > 0.
MajorantRow = Tuple[int, List[int], List[int]]


def _majorant_row(X: int, prev: Optional[MajorantRow]) -> MajorantRow:
    """Row X of the majorant from row X - 1 (``prev``, unused for X <= 7).

    Off the base strata, f(X, n) only reads f(X-1, n-1) and f(X-1, n+1), so
    a value with n >= X - 5 never reaches n <= 2 on its way down to X = 7
    and does not depend on n: row X >= 8 stores n = 1..X-5, its last entry
    standing for every larger n, and rows X <= 7 store a single entry.  The
    row denominator is lcm(3 D_{X-1}, (X-1)(X-2)).
    """
    if X <= 7:
        return 1, [1], [0]
    d0, r0, s0 = prev
    w = (X - 1) * (X - 2)
    den = lcm(3 * d0, w)
    m = den // (3 * d0)
    t = 4 * (den // w)
    last = len(r0) - 1
    rs, ss = [den, den], [0, 0]
    for n in range(3, X - 4):
        a, b = min(n - 2, last), min(n, last)  # f(X-1, n-1), f(X-1, n+1)
        rs.append(m * (2 * r0[a] + r0[b]))
        ss.append(m * (2 * s0[a] + s0[b]) + t)
    return den, rs, ss


def f_bound(X: int, n: int) -> PiLinear:
    """The recursive majorant: f = 1/pi on the strata X <= 7 or n <= 2, else

        f(X, n) = (2/3) f(X-1, n-1) + (1/3) f(X-1, n+1) + 4/((X-1)(X-2)).

    Stateless: each call builds rows 1..X upward (see _majorant_row).
    """
    if X < 1 or n < 1:
        raise ValueError("f_bound needs X >= 1 and n >= 1")
    row = None
    for x in range(1, X + 1):
        row = _majorant_row(x, row)
    den, rs, ss = row
    i = min(n, len(rs)) - 1
    return PiLinear(Q(rs[i], den), Q(ss[i], den))


def _pi_bound(r: int, s: int, upper: bool, ends) -> Tuple[int, int]:
    """An upper or lower bound of r/pi + s as (num, den) with den > 0.

    ``ends`` holds (numerator, denominator) of lo and hi, lo < pi < hi; the
    bound takes the end that is safe for the sign of r.
    """
    pn, pd = ends[(r >= 0) != upper]
    return r * pd + s * pn, pn


# The smallest X at which lemma6_check bounds the scaled excess, property (3).
EXCESS_XMIN = 50


def lemma6_check(xmax: int = 200, nmax: int = 120) -> Tuple[bool, object]:
    """Interval-verify the majorant's three properties up to (xmax, nmax):

    (1) 1/pi <= f(X, n) <= 1, (2) f(X, n) nondecreasing in n, and (3) the
    scaled excess X (f(X, n) - 1/pi) over n <= X/5, 50 <= X, stays bounded.
    Returns (all checks passed, certified upper bound for the excess); the
    bound is 0, and certifies nothing, when xmax < 50 (EXCESS_XMIN).

    Each bound of r/pi + s is taken at the end of the pi interval that makes
    it safe, which depends on the sign of r; all comparisons are integer
    cross-multiplications on the rows' numerators.

    n runs over the columns a row stores, up to nmax + 1.  A column past
    them repeats the row's last entry, so (1) would repeat that entry's
    outcome and (2) would compare equal entries; (3) never reaches them,
    since X // 5 < X - 5, the stored count, for X >= 50.
    """
    if xmax < 1 or nmax < 1:
        raise ValueError("lemma6_check needs xmax >= 1 and nmax >= 1")
    lo, hi = pi_interval(50)
    ends = ((lo.numerator, lo.denominator), (hi.numerator, hi.denominator))

    ok = True
    ex_num, ex_den = 0, 1  # the excess bound so far, ex_num / ex_den
    row: Optional[MajorantRow] = None
    for X in range(1, xmax + 1):
        row = _majorant_row(X, row)
        den, rs, ss = row
        prev_r = prev_s = 0
        for n in range(1, min(nmax + 1, len(rs)) + 1):
            r, s = rs[n - 1], ss[n - 1]  # f(X, n) = (r/pi + s) / den
            # (1) f - 1/pi >= 0 and f <= 1; (2) f(X, n) - f(X, n-1) >= 0.
            if (
                _pi_bound(r - den, s, False, ends)[0] < 0
                or _pi_bound(r, s - den, True, ends)[0] > 0
            ):
                ok = False
            if n > 1 and _pi_bound(r - prev_r, s - prev_s, False, ends)[0] < 0:
                ok = False
            prev_r, prev_s = r, s
            if X >= EXCESS_XMIN and n <= X // 5:
                num, pn = _pi_bound(r - den, s, True, ends)
                num, pn = X * num, pn * den
                if num * ex_den > ex_num * pn:
                    ex_num, ex_den = num, pn
    return ok, Q(ex_num, ex_den)
