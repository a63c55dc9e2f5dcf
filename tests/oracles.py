"""Reference evaluators that the tests compare the library against.

Each one reaches its value by a slower or more transparent route than the
code under test: a single DVV expansion at a chosen pivot, that expansion
with every ordered pair and split summed and halved, the whole recursion
at a former pivot rule of the engine (a 0, else the largest entry; or
rule E, a 0, else the smallest entry above 2, else a 2), the n-point
trace sum without window or permutation pruning, the four-point sum
without its middle-bracket window, series substitution by Horner
composition instead of the closed-form reindex, the one-point series from
its ratio functional equation instead of Stirling jets, the Painleve I
correction series from the whole residual series at each step, and the
rational-valued forms of the closed-formula matrices and traces, the
Painleve I recursion and residual, the majorant and the linear
elimination and rational fitting that the library computes on integers.

It also holds the views of library data that only tests read: a memo's
entries by key tuple (memo_items), the rational entries of the integer
matrices (matrix_coeff), the trace of a product of them (trace_product),
the trace-normalized coefficients a(k) (a_value) and the evaluation of a
table polynomial (mult_poly_eval).  Last come the polynomial gcd that
reduces the reference fit and the Theorem 2 deviation sweep
(theorem2_family, theorem2_deviation_sweep), which only tests run.
The memo loader closes the file: cache_load_reference reads a memo file
line by line, each line parsed and checked on its own, where cache_load
accepts the body in one bulk pass.  The partition enumerator has its
recursive form (partitions_reference, one generator frame per part), and
the primitive classes their order by an explicit colex sort
(primitive_vectors_reference).
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_right
from decimal import Decimal, localcontext
from itertools import product as _iproduct
from math import comb, factorial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from psiclass.asym import (
    MultPoly,
    PiLinear,
    RationalFunctionOfG,
    _mono_value,
    _poly_eval,
    _poly_normalize,
    theorem2_product,
)
from psiclass.closed import (
    _c_prefactor,
    _common_den,
    _imul,
    _int_matrix,
    _perm_data,
    _trace_with,
)
from psiclass.dvv import (
    DVec,
    MemoCache,
    _c_scale,
    _decode,
    _encode,
    _expand,
    c_value,
    canonical_tuple,
    default_cache,
    genus_of,
    multiset_splits,
    n_value,
    x_int,
)
from psiclass.exact import (
    ONE,
    Q,
    ZERO,
    odd_double_factorial,
    pi_interval,
    pi_value,
    rounded,
    to_decimal,
)
from psiclass.painleve import painleve_coeff
from psiclass.partitions import partitions
from psiclass.series import SeriesInvX


def memo_items(cache: MemoCache) -> list:
    """(key tuple, N) pairs of the memo, in the order they were stored."""
    return [(_decode(code), n) for code, n in cache.table.items()]


def c_value_with_pivot(d: DVec, pivot_pos: int, cache: Optional[MemoCache] = None):
    """Debug entry point: expand C(d) once at the entry ``d[pivot_pos]``.

    ``d`` is sorted, as the expansion requires, and the pivot moves to the
    sorted position of the same value; no dilaton stripping is applied to
    ``d`` itself, so a pivot at a 1 is expanded too.  Recursive sub-values
    come from the memoized engine, and the expansion's N is converted to C
    at the end.  Exists to let tests check that every pivot choice yields
    the same value.
    """
    t = tuple(sorted(d))
    g = genus_of(t)
    if g is None:
        return ZERO
    X = x_int(t)
    if X is not None and X < 2:
        # X = 1 vectors are the base cases and admit no expansion (X - 1 = 0).
        return c_value(t, cache)
    return Q(n_value_with_pivot(t, t.index(d[pivot_pos]), cache), _c_scale(g, X))


def n_value_with_pivot(
    t: tuple,
    pivot_pos: int,
    cache: Optional[MemoCache] = None,
    table=None,
    yielded: Optional[list] = None,
) -> int:
    """N(t) from one ``_expand`` of the sorted geometric t (X >= 2) at
    ``t[pivot_pos]``.

    The expansion reads ``table`` (by default the memo of ``cache``) itself
    and yields each child that misses; this driver answers every one with
    ``n_value`` on ``cache``, and appends it to ``yielded`` when given.
    """
    if table is None:
        table = (default_cache() if cache is None else cache).table
    expansion = _expand(_encode(t), table, {}, t[pivot_pos])
    n = None
    while True:
        try:
            child = _decode(expansion.send(n))
        except StopIteration as done:
            return done.value
        if yielded is not None:
            yielded.append(child)
        n = n_value(child, cache)


def former_pivot_pos(key: tuple) -> int:
    """The pivot the engine once chose in the sorted key: a 0 when present,
    else the largest entry."""
    return 0 if key[0] == 0 else len(key) - 1


def rule_e_pivot_pos(key: tuple) -> int:
    """The pivot of rule E, which the engine chose in the sorted key before
    its rule read the count of 2s: a 0 when present, else the smallest
    entry above 2, else (all twos) a 2."""
    if key[0] == 0:
        return 0
    i = bisect_right(key, 2)
    return i if i < len(key) else 0


def n_value_by_rule(d: DVec, cache: MemoCache, rule) -> int:
    """N(d) by the recursion at the position ``rule(key)`` of each sorted
    key, ``rule`` one of ``former_pivot_pos`` and ``rule_e_pivot_pos``.

    Recursive, one frame per expansion, so only for shallow vectors.  Every
    key it expands goes into ``cache`` when its expansion completes, as in
    the engine, so the memo it leaves is the one that rule builds.
    """
    key = canonical_tuple(d)
    if genus_of(key) is None or x_int(key) < 1 or key[0] < 0:
        return 0
    code = _encode(key)
    if code in cache.table:
        n = cache.table[code]
    elif x_int(key) == 1:  # a base case, (0, 0, 0) or (1,)
        n = n_value(key, cache)
    else:
        expansion = _expand(code, cache.table, {}, key[rule(key)])
        child_n = None
        while True:
            try:
                child = expansion.send(child_n)
            except StopIteration as done:
                n = cache.table[code] = done.value
                break
            child_n = n_value_by_rule(_decode(child), cache, rule)
    x = x_int(key)
    for i in range(len(d) - len(key)):
        n *= 3 * (x + i)
    return n


def expand_ordered_reference(
    t: tuple, pivot_pos: int, cache: Optional[MemoCache] = None
) -> int:
    """N(t) from one DVV expansion at ``t[pivot_pos]`` as the recursion is
    written: one linear term per entry of rest, the connected and separable
    terms over every ordered pair (a, b), the separable ones over every
    ordered split of rest with its multiplicity, and the separable sum
    halved at the end, checked to be exact.

    Children are read from ``n_value``, which takes any vector (zero off
    geometry), so no residue, genus or dilaton shortcut is applied.
    """
    g = genus_of(t)
    p = t[pivot_pos]
    rest = t[:pivot_pos] + t[pivot_pos + 1 :]
    total = sum(
        (2 * v + 1) * n_value(rest[:j] + (v + p - 1,) + rest[j + 1 :], cache)
        for j, v in enumerate(rest)
    )
    separable = 0
    for a in range(p - 1):
        b = p - 2 - a
        total += 12 * g * n_value((a, b) + rest, cache)
        for (left, right), ways in multiset_splits(rest):
            g1 = genus_of((a,) + left)
            if g1 is None:
                continue
            separable += (
                ways
                * comb(g, g1)
                * n_value((a,) + left, cache)
                * n_value((b,) + right, cache)
            )
    half, odd = divmod(separable, 2)
    assert not odd, (t, pivot_pos)
    return total + half


def matrix_coeff_reference(k: int) -> tuple:
    """A_k as a flat (a, b, c, d) tuple, each entry built as a rational from
    its closed form in the closed module's docstring."""
    if k <= -2:
        return (ZERO, ZERO, ZERO, ZERO)
    r = k % 3
    if r == 1:
        g = (k + 2) // 3
        x = Q(
            odd_double_factorial(6 * g - 5),
            2 * 24 ** (g - 1) * factorial(g - 1),
        )
        return (-x, ZERO, ZERO, x)
    g = (k + 1) // 3 if r == 2 else k // 3
    q = Q(odd_double_factorial(6 * g - 1), 24**g * factorial(g))
    if r == 0:
        return (ZERO, -q, ZERO, ZERO)
    return (ZERO, ZERO, q * Q(6 * g + 1, 6 * g - 1), ZERO)


def matrix_coeff(k: int) -> tuple:
    """The library's A_k as a flat (a, b, c, d) tuple of rationals, read
    from closed._int_matrix; zero for k <= -2."""
    a, b, c, d, den = _int_matrix(k)
    return (Q(a, den), Q(b, den), Q(c, den), Q(d, den))


def trace_product(ks: Sequence[int]):
    """tr(A_{k_1} ... A_{k_n}) as one rational, by a plain product of the
    library's integer matrices."""
    m = (1, 0, 0, 1, 1)
    for k in ks:
        m = _imul(m, _int_matrix(k))
    return Q(m[0] + m[3], m[4])


def a_value(ks: Sequence[int]):
    """a(k) = 2^(2g) tr(A_{k_1}..A_{k_n}) / (3^(2g+n-2) (2g+n-3)!).

    Zero when any k_i <= -2, when g(k) is not a non-negative integer, or
    when 2g + n - 3 < 0.
    """
    ks = tuple(ks)
    n = len(ks)
    if any(v <= -2 for v in ks):
        return ZERO
    t = sum(ks) - n
    if t % 3:
        return ZERO
    g = 1 + t // 3
    if g < 0 or 2 * g + n - 3 < 0:
        return ZERO
    tr = trace_product(ks)
    if not tr:
        return ZERO
    return tr * _c_prefactor(g, n)


def _mat_mul(m1: tuple, m2: tuple) -> tuple:
    a, b, c, d = m1
    e, f, g, h = m2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def trace_product_reference(ks: Sequence[int]):
    """tr(A_{k_1} ... A_{k_n}) as a plain product of rational matrices, in
    the given order: no canonical key, no cache, no early exit."""
    m = (ONE, ZERO, ZERO, ONE)
    for k in ks:
        m = _mat_mul(m, matrix_coeff_reference(k))
    return m[0] + m[3]


def _omega(ds: tuple, sigma: tuple, mask: tuple, ks: tuple) -> int:
    """The partial-sum weight of one permutation, from scratch:
    max(0, min over S+ of PS - max over S- of PS)."""
    ps = 0
    lo = None
    hi = None
    for q in range(len(ds)):
        ps += ds[sigma[q]] - ks[q]
        if mask[q]:
            if lo is None or ps < lo:
                lo = ps
        else:
            if hi is None or ps > hi:
                hi = ps
    if lo is None:
        return 0
    w = lo - hi
    return w if w > 0 else 0


def n_point_reference(d: Sequence[int]):
    """Unpruned n_point over the full window k_i in [-1, sum d + n], each
    trace weighted by all (n-1)! permutations through _omega.  The integer
    weight comes first: a trace is formed only where it is nonzero, since a
    zero-weight term adds zero.

    Exponentially slower; exists so tests can confirm that the windows and
    the live-permutation prune drop only zero-weight terms.
    """
    n = len(d)
    ds = tuple(sorted(d))
    s = sum(ds)
    if (s - n) % 3:
        return ZERO
    g = 1 + (s - n) // 3
    if g < 0:
        return ZERO
    total = ZERO
    perms = _perm_data(n)
    window = range(-1, s + n + 1)
    for head in _iproduct(window, repeat=n - 1):
        kn = s - sum(head)
        if kn < -1 or kn > s + n:
            continue
        ks = head + (kn,)
        w = 0
        for sigma, sign, mask in perms:
            om = _omega(ds, sigma, mask, ks)
            if om:
                w += sign * om
        if w:
            total += w * trace_product_reference(ks)
    return total * _c_prefactor(g, n)


def four_point_reference(d: Sequence[int]):
    """four_point over its whole k4 >= d4 + 1 window: every (k1, k2, k3)
    with k1 + k2 + k3 <= d1 + d2 + d3 - 1 and A_k1 A_k2 != 0 evaluates all
    three brackets, including the triples with k1 >= d1 where two of them
    vanish."""

    def m_floor(*entries: int) -> int:
        return max(0, min(entries))

    d1, d2, d3, d4 = sorted(d)
    s = d1 + d2 + d3 + d4
    if min(d) < 0 or (s - 4) % 3:
        return ZERO
    g = 1 + (s - 4) // 3
    budget = d1 + d2 + d3 - 1
    D = _common_den(4, s)
    acc = 0
    for k1 in range(-1, budget + 3):
        a1 = _int_matrix(k1)
        for k2 in range(-1, budget - k1 + 2):
            m12 = _imul(a1, _int_matrix(k2))
            if not (m12[0] or m12[1] or m12[2] or m12[3]):
                continue
            for k3 in range(-1, budget - k1 - k2 + 1):
                k4 = s - k1 - k2 - k3
                e4 = k4 - d4
                br = (
                    m_floor(d1 - k1, d1 + d2 - k1 - k2, e4)
                    - m_floor(d1 - k2, d1 + d2 - k2 - k3, d1 + d3 - k1 - k2, e4)
                    - m_floor(d1 - k1, d2 - k3, k2 - d3, e4)
                )
                if br:
                    tr, den = _trace_with(_imul(m12, _int_matrix(k3)), k4)
                    acc += br * tr * (D // den)
    return Q(2 * acc, D) * _c_prefactor(g, 4)


def series_sub(a: SeriesInvX, b: SeriesInvX) -> SeriesInvX:
    """a - b, truncated to the smaller order."""
    return a + b * -1


def compose(outer: SeriesInvX, inner: SeriesInvX) -> SeriesInvX:
    """outer(inner(u)) by Horner's rule, K series products; the inner
    series must have zero constant term."""
    if inner.coeffs[0]:
        raise ValueError("composition needs inner constant term 0")
    K = min(outer.order, inner.order)
    inner = SeriesInvX(inner.coeffs, K)
    result = SeriesInvX([outer.coeffs[K]], K)
    for j in range(K - 1, -1, -1):
        result = result * inner + SeriesInvX([outer.coeffs[j]], K)
    return result


def one_point_series_by_ratio(K: int) -> SeriesInvX:
    """The same series recovered without any Stirling machinery.

    The exact ratio R(g) = C(3g+1)/C(3g-2) = (6g+3)(6g+1)(6g-1) /
    (54 (g+1) 2g (2g-1)) forces s(1/(g+1)) = s(1/g) R(g); matching
    coefficients with s(0) = 1 determines every s_j.  Serves as an
    independent oracle for one_point_series.
    """
    Kp = K + 1
    num = SeriesInvX([Q(216), Q(108), Q(-6), Q(-3)], Kp)
    den = SeriesInvX([Q(216), Q(108), Q(-108)], Kp)
    R = num / den
    inner = SeriesInvX([ZERO] + [(-ONE) ** j for j in range(Kp)], Kp)  # x/(1+x)
    s = [ONE] + [ZERO] * K
    for J in range(1, K + 1):
        ser = SeriesInvX(s, Kp)
        resid = series_sub(compose(ser, inner), ser * R)
        s[J] = resid.coeffs[J + 1] / J
    return SeriesInvX(s, K)


def rref_reference(rows: List[List]) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form over rationals, each pivot row scaled to a
    leading 1; returns the rows and the pivot columns."""
    rows = [[Q(v) for v in r] for r in rows]
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pick = next((i for i in range(r, m) if rows[i][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def _poly_divmod(a: List, b: List) -> Tuple[List, List]:
    a = list(a)
    out = [ZERO] * max(1, len(a) - len(b) + 1)
    inv = ONE / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        f = a[i + len(b) - 1] * inv
        out[i] = f
        if f:
            for j, bv in enumerate(b):
                a[i + j] -= f * bv
    return _poly_normalize(out), _poly_normalize(a)


def _poly_gcd(a: List, b: List) -> List:
    a, b = _poly_normalize(list(a)), _poly_normalize(list(b))
    while b != [ZERO] and any(b):
        _, r = _poly_divmod(a, b)
        a, b = b, _poly_normalize(r)
    inv = ONE / a[-1]
    return [c * inv for c in a]


def rf_value(f: RationalFunctionOfG, g):
    """f.num(g) / f.den(g), exactly."""
    return _poly_eval(f.num, Q(g)) / _poly_eval(f.den, Q(g))


def fit_rational_reference(samples, max_degree: int = 40) -> RationalFunctionOfG:
    """fit_rational's degree climb with rational rows (1, g, .. | -v, -v g, ..)
    reduced by rref_reference and every sample checked in rationals."""
    samples = [(Q(g), Q(v)) for g, v in samples]
    for d in range(0, max_degree + 1):
        need = 2 * d + 1
        if need + 1 > len(samples):
            break
        rows = []
        for g, v in samples[:need]:
            pows = [g**j for j in range(d + 1)]
            rows.append(pows + [-v * p for p in pows])
        red, pivots = rref_reference(rows)
        free = next(c for c in range(2 * d + 2) if c not in pivots)
        vec = [ZERO] * (2 * d + 2)
        vec[free] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -red[r][free]
        num = _poly_normalize(vec[: d + 1])
        den = _poly_normalize(vec[d + 1 :])
        f = RationalFunctionOfG(tuple(num), tuple(den))
        if not any(den) or any(not _poly_eval(den, g) or rf_value(f, g) != v for g, v in samples):
            continue
        gcd = _poly_gcd(num, den)
        if len(gcd) > 1:
            num, _ = _poly_divmod(num, gcd)
            den, _ = _poly_divmod(den, gcd)
        return RationalFunctionOfG(
            tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)
        )
    raise ValueError(f"not rational within cap (degree {max_degree})")


def mult_poly_eval(poly: MultPoly, pvec: Tuple[int, int, int, int]):
    """A table polynomial at the multiplicities pvec = (p_2, p_3, p_4, p_5)."""
    acc = ZERO
    for exps, c in poly.items():
        acc += c * _mono_value(exps, pvec)
    return acc


_CG_REF: List = [Q(-1), Q(2), Q(98)]


def painleve_coeff_reference(g: int):
    """c_g by the recursion over the full convolution range, in rationals."""
    while len(_CG_REF) <= g:
        m = len(_CG_REF)
        conv = ZERO
        for h in range(2, m - 1):
            conv += _CG_REF[h] * _CG_REF[m - h]
        _CG_REF.append(50 * (m - 1) ** 2 * _CG_REF[m - 1] + conv / 2)
    return _CG_REF[g]


def p1_residual_reference(g: int):
    """The Painleve I residual c_g e_g (e_g - 1) + (1/16) sum c_{g1} c_{g2},
    e_g = (1 - 5g)/2, in rationals over painleve_coeff."""
    e = Q(1 - 5 * g, 2)
    acc = painleve_coeff(g) * e * (e - 1)
    conv = ZERO
    for g1 in range(0, g + 2):
        conv += painleve_coeff(g1) * painleve_coeff(g + 1 - g1)
    return acc + conv / 16


def cg_asymptotic_series_reference(K: int) -> List:
    """[b_1, ..., b_K] by building the whole residual series at each step:
    S - S(x/(1-x)) - sum_h pref_h S(x/(1-hx)), of which step J reads the
    x^(J+1) coefficient."""
    N = K + 1
    b = [ONE] + [ZERO] * K
    H = (K + 1) // 2
    prefs = []
    for h in range(2, H + 1):
        pref = SeriesInvX.monomial(painleve_coeff(h) * Q(1, 50**h), 2 * h, N)
        for i in range(1, h + 1):
            pref = pref * SeriesInvX(
                [(m + 1) * Q(i) ** m for m in range(N + 1)], N
            )
        prefs.append((h, pref))
    for J in range(1, K + 1):
        S = SeriesInvX(b, N)
        resid = series_sub(S, S.reindex(1, 1))
        for h, pref in prefs:
            resid = series_sub(resid, pref * S.reindex(1, h))
        b[J] = resid.coeffs[J + 1] / J
    return b[1:]


_FB_REF: Dict[Tuple[int, int], PiLinear] = {}


def f_bound_reference(X: int, n: int) -> PiLinear:
    """The majorant by its defining recursion, one memoized call per (X, n)."""
    if X <= 7 or n <= 2:
        return PiLinear(ONE, ZERO)
    hit = _FB_REF.get((X, n))
    if hit is not None:
        return hit
    a = f_bound_reference(X - 1, n - 1)
    b = f_bound_reference(X - 1, n + 1)
    val = PiLinear(
        Q(2, 3) * a.r + Q(1, 3) * b.r,
        Q(2, 3) * a.s + Q(1, 3) * b.s + Q(4, (X - 1) * (X - 2)),
    )
    _FB_REF[(X, n)] = val
    return val


def _pi_bounds(f: PiLinear, lo, hi):
    """(lower, upper) bounds of r/pi + s for lo < pi < hi."""
    if f.r >= 0:
        return f.r / hi + f.s, f.r / lo + f.s
    return f.r / lo + f.s, f.r / hi + f.s


def lemma6_check_reference(xmax: int, nmax: int, digits: int = 50):
    """lemma6_check's three properties and excess bound, in rationals over
    f_bound_reference."""
    lo, hi = pi_interval(digits)
    ok = True
    excess = ZERO
    for X in range(1, xmax + 1):
        prev = None
        for n in range(1, nmax + 2):
            f = f_bound_reference(X, n)
            if _pi_bounds(PiLinear(f.r - 1, f.s), lo, hi)[0] < 0:
                ok = False
            if _pi_bounds(f, lo, hi)[1] > 1:
                ok = False
            if prev is not None:
                step = PiLinear(f.r - prev.r, f.s - prev.s)
                if _pi_bounds(step, lo, hi)[0] < 0:
                    ok = False
            prev = f
            if X >= 50 and n <= X // 5:
                up = _pi_bounds(PiLinear(X * (f.r - 1), X * f.s), lo, hi)[1]
                if up > excess:
                    excess = up
    return ok, excess


def theorem2_family(g: int, max_zeros: int = 6) -> Iterator[Tuple[int, ...]]:
    """Genus-g vectors made of k zeros (k <= max_zeros) plus parts >= 2.

    1-entries are dilaton-invariant for both C and the product bound, so
    this family covers the general statement without double counting.
    """
    for k in range(0, max_zeros + 1):
        # sum(d) = 3g - 3 + n with n = k + m parts, zeros contribute 0
        # parts >= 2: sum = 3g - 3 + k + m over m parts, each >= 2, i.e.
        # partitions of 3g - 3 + k into m parts after the shift by 1.
        m_total = 3 * g - 3 + k
        if m_total <= 0:
            continue
        for p in partitions(m_total):
            yield (0,) * k + tuple(v + 1 for v in reversed(p))


def theorem2_deviation_sweep(
    g_min: int = 2,
    g_max: int = 5,
    max_zeros: int = 6,
    digits: int = 50,
) -> Tuple[Decimal, Tuple[int, ...]]:
    """max over the family of g * |pi C(d) / product(d) - 1| plus argmax."""
    work = digits + 10
    pi = pi_value(work)
    worst = Decimal(0)
    arg: Tuple[int, ...] = ()
    with localcontext() as ctx:
        ctx.prec = work
        for g in range(g_min, g_max + 1):
            for d in theorem2_family(g, max_zeros):
                prod = theorem2_product(d)
                c = c_value(d)
                dev = abs(
                    pi * to_decimal(c, work) / to_decimal(prod, work) - 1
                ) * g
                if dev > worst:
                    worst, arg = dev, d
    return rounded(worst, digits), arg


_MEMO_HEADER = re.compile(r"dvvcache v2 entries=([0-9]+) sha256=([0-9a-f]{64})")
_MEMO_HEX = re.compile(r"[1-9a-f][0-9a-f]*")


def cache_load_reference(source) -> MemoCache:
    """cache_load one line at a time: each key parsed by int() and checked
    against its canonical spelling, each value against a hex regex, in file
    order, so the first bad line raises the first error."""
    with open(source, encoding="utf-8") as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    if header.startswith("dvvcache v1"):
        raise ValueError(
            "line 1: a dvvcache v1 file, which holds C values; psiclass now"
            " stores integer N values (dvvcache v2) and no longer reads v1"
            " files: delete it and let the next run rebuild it"
        )
    head = _MEMO_HEADER.fullmatch(header)
    if head is None:
        raise ValueError(f"line 1: bad version header {header[:80]!r}")
    lines = body.split("\n")
    if lines.pop() != "":
        raise ValueError(f"line {len(lines) + 2}: the file does not end in a newline")
    if len(lines) != int(head.group(1)):
        raise ValueError(
            f"line 1: the header counts {head.group(1)} entries,"
            f" the body has {len(lines)}"
        )
    if hashlib.sha256(body.encode()).hexdigest() != head.group(2):
        raise ValueError("line 1: the body does not match the header's SHA-256")
    cache = MemoCache()
    for lineno, line in enumerate(lines, start=2):
        key_s, sep, val_s = line.partition(" = ")
        try:
            if not sep:
                raise ValueError(f"malformed entry {line[:80]!r}")
            key = tuple(int(p) for p in key_s.split(","))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if ",".join(map(str, canonical_tuple(key))) != key_s:
            raise ValueError(f"line {lineno}: non-canonical key {key_s!r}")
        if min(key) < 0 or genus_of(key) is None or x_int(key) < 2:
            raise ValueError(
                f"line {lineno}: key {key_s!r} is not a geometric vector with X >= 2"
            )
        if x_int(key) + 3 >= 2**16:
            raise ValueError(
                f"line {lineno}: key of X = {x_int(key)} is past the"
                f" recursion's range, X + 3 < {2**16}"
            )
        if not _MEMO_HEX.fullmatch(val_s):
            raise ValueError(
                f"line {lineno}: value {val_s[:80]!r} is not a positive hex integer"
            )
        if _encode(key) in cache.table:
            raise ValueError(f"line {lineno}: duplicate key {key_s!r}")
        value = int(val_s, 16)
        if len(key) == 1:
            g = (key[0] + 2) // 3
            if value != odd_double_factorial(6 * g - 3):
                raise ValueError(
                    f"line {lineno}: entry {line[:80]!r} fails"
                    f" N((3g-2,)) = (6g-3)!! at g = {g}"
                )
        cache.table[_encode(key)] = value
    return cache


def partitions_reference(
    total: int, parts: Optional[int] = None, max_part: Optional[int] = None
) -> Iterator[Tuple[int, ...]]:
    """Partitions of ``total`` in decreasing lexicographic order, by
    recursion on the largest part (one generator frame per part)."""
    if total == 0 or parts == 0:
        if total == 0 and not parts:
            yield ()
        return
    if max_part is None or max_part > total:
        max_part = total
    lo, rest = 1, None
    if parts is not None:
        # The largest part is at least the mean and leaves room for
        # parts - 1 further parts of size >= 1.
        lo, rest = -(-total // parts), parts - 1
        max_part = min(max_part, total - rest)
    for first in range(max_part, lo - 1, -1):
        for tail in partitions_reference(total - first, rest, first):
            yield (first,) + tail


def primitive_vectors_reference(g: int) -> List[Tuple[int, ...]]:
    """The primitive classes of genus g, sorted by the colex key of their
    multiplicity vectors (count of the largest entry first)."""
    m = 3 * g - 3

    def colex_key(d: Tuple[int, ...]) -> Tuple[int, ...]:
        mult = [0] * (m + 2)
        for v in d:
            mult[v] += 1
        return tuple(reversed(mult))

    return sorted(
        (tuple(v + 1 for v in reversed(p)) for p in partitions_reference(m)),
        key=colex_key,
    )
