"""Reference evaluators that the tests compare the library against.

Each one reaches its value by a slower or more transparent route than the
code under test: a single DVV expansion at a chosen pivot, the n-point
trace sum without window pruning, and the one-point series from its ratio
functional equation instead of Stirling jets.
"""

from __future__ import annotations

from itertools import product as _iproduct
from typing import Optional, Sequence

from psiclass.closed import _c_prefactor, _omega, _perm_data, trace_product
from psiclass.dvv import (
    DVec,
    MemoCache,
    _c_scale,
    _expand,
    c_value,
    default_cache,
    genus_of,
    x_int,
)
from psiclass.exact import ONE, Q, ZERO
from psiclass.series import SeriesInvX


def c_value_with_pivot(d: DVec, pivot_pos: int, cache: Optional[MemoCache] = None):
    """Debug entry point: expand C(d) once at ``d[pivot_pos]``, as given.

    No sorting or dilaton stripping is applied to ``d`` itself, so the pivot
    index is meaningful; recursive sub-values go through the memoized
    engine, and the expansion's N is converted to C at the end.  Exists to
    let tests check that every pivot choice yields the same value.
    """
    if cache is None:
        cache = default_cache()
    t = tuple(d)
    g = genus_of(t)
    if g is None:
        return ZERO
    X = x_int(t)
    if X is not None and X < 2:
        # X = 1 vectors are the base cases and admit no expansion (X - 1 = 0).
        return c_value(t, cache)
    return Q(_expand(t, pivot_pos, cache), _c_scale(g, X))


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
        tr = trace_product(ks)
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
