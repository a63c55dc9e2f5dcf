"""Reference evaluators that the tests compare the library against.

Each one reaches its value by a slower or more transparent route than the
code under test: a single DVV expansion at a chosen pivot, the n-point
trace sum without window pruning, the one-point series from its ratio
functional equation instead of Stirling jets, and the rational-valued forms
of the closed-formula matrices and traces, the Painleve I recursion and the
majorant that the library computes on integers.

It also holds the views of library data that only tests read: the rational
entries of the integer matrices (matrix_coeff), the trace-normalized
coefficients a(k) (a_value) and the evaluation of a table polynomial
(mult_poly_eval).
"""

from __future__ import annotations

from itertools import product as _iproduct
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from psiclass.asym import MultPoly, PiLinear, _mono_value
from psiclass.closed import (
    _c_prefactor,
    _int_matrix,
    _omega,
    _perm_data,
    trace_product,
)
from psiclass.dvv import (
    DVec,
    MemoCache,
    _c_scale,
    _expand,
    c_value,
    default_cache,
    genus_of,
    n_value,
    x_int,
)
from psiclass.exact import ONE, Q, ZERO, odd_double_factorial, pi_interval
from psiclass.series import SeriesInvX


def c_value_with_pivot(d: DVec, pivot_pos: int, cache: Optional[MemoCache] = None):
    """Debug entry point: expand C(d) once at the entry ``d[pivot_pos]``.

    ``d`` is sorted, as the expansion requires, and the pivot moves to the
    sorted position of the same value; no dilaton stripping is applied to
    ``d`` itself, so a pivot at a 1 is expanded too.  Recursive sub-values
    come from the memoized engine, and the expansion's N is converted to C
    at the end.  Exists to let tests check that every pivot choice yields
    the same value.

    The expansion reads the memo itself and yields each child that misses;
    this driver answers every one with ``n_value``.
    """
    t = tuple(sorted(d))
    g = genus_of(t)
    if g is None:
        return ZERO
    X = x_int(t)
    if X is not None and X < 2:
        # X = 1 vectors are the base cases and admit no expansion (X - 1 = 0).
        return c_value(t, cache)
    table = (default_cache() if cache is None else cache).table
    expansion = _expand(t, t.index(d[pivot_pos]), table, {})
    n = None
    while True:
        try:
            child = expansion.send(n)
        except StopIteration as done:
            return Q(done.value, _c_scale(g, X))
        n = n_value(child, cache)


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


def n_point_reference(d: Sequence[int]):
    """Unpruned n_point over the full window k_i in [-1, sum d + n].

    Exponentially slower; exists so tests can confirm that the pruned
    enumeration drops only zero-weight terms.
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
        tr = trace_product_reference(ks)
        if not tr:
            continue
        w = 0
        for sigma, sign, mask in perms:
            om = _omega(ds, sigma, mask, ks)
            if om:
                w += sign * om
        if w:
            total += w * tr
    return total * _c_prefactor(g, n)


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
        resid = ser.compose(inner) - ser * R
        s[J] = resid.coeffs[J + 1] / J
    return SeriesInvX(s, K)


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
