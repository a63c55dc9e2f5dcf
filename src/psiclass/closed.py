"""Closed formulas for psi-class intersection numbers via 2x2 matrix traces.

Everything here evaluates the same normalized quantity C(d) as the recursion
in dvv.py, but along a completely different route: finitely many terms built
from traces of products of explicit 2x2 matrices A_k with rational entries.
The test suite pins the two routes against each other; neither module
imports the other.

The matrices are the coefficients of a formal series M(lambda) =
sum_k A_k lambda^{-k}; writing k in residue classes mod 3 (k >= -1, zero
matrix below that):

    k = 3g - 2 (g >= 1):  diag(-x_g, x_g),  x_g = (6g-5)!!/(2*24^(g-1)*(g-1)!)
    k = 3g     (g >= 0):  upper entry -q_g, q_g = (6g-1)!!/(24^g*g!)
    k = 3g - 1 (g >= 0):  lower entry  r_g = ((6g+1)/(6g-1))*q_g

The trace-normalized numbers

    a(k_1..k_n) = 2^(2g) tr(A_{k_1}...A_{k_n}) / (3^(2g+n-2)*(2g+n-3)!),

with g = g(k) = 1 + (sum k - n)/3, are the universal coefficients of the
n-point closed formulas: the two-point sum, the three- and four-point
formulas with floor weights M(e) = max(0, min e), and the general n-point
sum over permutations with partial-sum weights (n_point below).

The matrices are held on integers: A_k as four integer entries over one
positive denominator (24^h h!, doubled for the diagonal family, with
h = (k+1)//3), built from the double factorials directly.  The entries are
not reduced to lowest terms, and need not be: products multiply entries
and denominators as integers, and every formula sums on integers over one
common denominator (_common_den) that each product's unreduced denominator
already divides, then builds one rational on return.  A gcd per matrix
would only shrink numbers that the common denominator scales back up.

Enumeration windows: every formula's floor/weight structure forces the
k-slot paired with the largest d-entry to exceed that entry, so the
remaining k's have bounded sum and the term count depends only on the
smaller entries of d, not on the genus.  Inputs are sorted so the largest
entry sits in that slot, and the two-point sums run over the smaller
entry whatever the argument order; the values are symmetric (tests check
this), only the work depends on the ordering.

Every trace formula goes in two steps on that split.  A term table lists
(weight, k_1 + .. + k_{n-1}, A_{k_1}..A_{k_{n-1}}) over the smaller
entries alone: window, weights and partial products never read the
largest entry.  One loop (_trace_sum) closes each trace at k_n = sum d -
(k_1 + .. + k_{n-1}) over _common_den.  two_point_bdy divides it by the
double factorials; close_terms multiplies it by the prefactor of a(k) for
the three-point, four-point and n_point tables, the first two carrying
their formula's factor 2 in the weights.  A caller that varies only the
largest entry, as the asym table fit does, builds the table once.

The four-point sum narrows its window further.  Two of its three brackets
vanish once k1 reaches the smallest entry d1, so from there on the loops
run only over the window where the remaining bracket's floor arguments are
all positive; every triple they skip has three zero brackets.

Inside its window the general n-point sum also prunes permutations: each
permutation's weight is a minimum over some partial sums less a maximum
over the others, and fixing one more k can only lower the first or raise
the second, so a permutation whose weight is already zero stays zero for
every completion.  The enumeration carries the live permutations down and
skips each k that leaves none, before any matrix product or trace.
"""

from __future__ import annotations

from itertools import accumulate, permutations
from math import comb, factorial
from typing import Dict, List, Sequence, Tuple

from .exact import Q, ZERO, odd_double_factorial

IMat = Tuple[int, int, int, int, int]  # (a, b, c, d, den): [[a, b], [c, d]] / den

_ZERO_IMAT: IMat = (0, 0, 0, 0, 1)

_INT_MATS: Dict[int, IMat] = {}


def _int_matrix(k: int) -> IMat:
    """A_k as integer entries over the denominator 24^h h! (2 24^h h! for
    the diagonal family), h = (k + 1) // 3, not reduced to lowest terms.

    The nonzero entries are -+x_{h+1} = -+(6h+1)!!/(2 24^h h!), -q_h =
    -(6h-1)!!/(24^h h!) and r_h = ((6h+1)/(6h-1)) q_h, whose numerator
    (6h+1) (6h-1)!!/(6h-1) is an exact integer division ((6h+1) (6h-3)!!,
    and -1 at h = 0).  No formula needs lowest terms: each sums over
    _common_den, a multiple of every product of these denominators (see
    there), and builds one rational at the end.
    """
    if k <= -2:
        return _ZERO_IMAT
    hit = _INT_MATS.get(k)
    if hit is not None:
        return hit
    h = (k + 1) // 3
    den = 24**h * factorial(h)
    dfact = odd_double_factorial(6 * h - 1)
    r = k % 3
    if r == 1:
        x = (6 * h + 1) * dfact
        m: IMat = (-x, 0, 0, x, 2 * den)
    elif r == 0:
        m = (0, -dfact, 0, 0, den)
    else:
        m = (0, 0, (6 * h + 1) * dfact // (6 * h - 1), 0, den)
    _INT_MATS[k] = m
    return m


def _imul(m1: IMat, m2: IMat) -> IMat:
    a, b, c, d, p = m1
    e, f, g, h, q = m2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, p * q)


def _trace_with(m: IMat, k: int) -> Tuple[int, int]:
    """tr(m A_k) as (numerator, denominator), without forming the product."""
    e, f, g, h, den = _int_matrix(k)
    return m[0] * e + m[1] * g + m[2] * f + m[3] * h, m[4] * den


def _common_den(n: int, s: int) -> int:
    """2^n 24^H H! with H = (s + n)//3: a multiple of the denominator of
    every product of n matrices A_k (k >= -1) with sum k = s.

    den(A_k) divides 2 24^h h! with h = (k+1)//3, and the h's of such a
    product sum to at most H, so the product of the h! divides H!.
    """
    H = (s + n) // 3
    return 2**n * 24**H * factorial(H)


def _c_prefactor(g: int, n: int):
    return Q(4**g, 3 ** (2 * g + n - 2) * factorial(2 * g + n - 3))


# One term of a closed trace sum: (weight, k_1 + .. + k_{n-1}, A_{k_1} ..
# A_{k_{n-1}}).  A table lists the terms with a nonzero weight and product
# over the smaller entries; the largest entry, and with it k_n, is left open.
Term = Tuple[int, int, IMat]


def _trace_sum(terms: Sequence[Term], n: int, s: int):
    """sum of w tr(A_{k_1} .. A_{k_n}) over the terms, each closed at k_n =
    s - (its k-sum), on integers over _common_den(n, s)."""
    D = _common_den(n, s)
    acc = 0
    for w, ksum, m in terms:
        tr, den = _trace_with(m, s - ksum)
        if tr:
            acc += w * tr * (D // den)
    return Q(acc, D)


def one_point_c(m: int):
    """C(m) for a single marking: 3 (6g-3)!! / (54^g g! (2g-2)!) at m = 3g-2.

    >>> one_point_c(4) == Q(35, 144)
    True
    """
    if m < 0 or m % 3 != 1:
        return ZERO
    g = (m + 2) // 3
    return Q(
        3 * odd_double_factorial(6 * g - 3),
        54**g * factorial(g) * factorial(2 * g - 2),
    )


def two_point_bdy(d1: int, d2: int):
    """The intersection number <psi_1^{d1} psi_2^{d2}> by the two-point sum

        sum_{l=0}^{lo} (lo + 1 - l) tr(A_{l-1} A_{3g-l}) / ((2d1+1)!! (2d2+1)!!)

    of matrix traces, with d1 + d2 = 3g - 1 and lo = min(d1, d2).  Zero
    when d1 + d2 is not 2 mod 3.
    """
    if d1 < 0 or d2 < 0:
        return ZERO
    s = d1 + d2
    if s % 3 != 2:
        return ZERO
    lo = min(d1, d2)
    terms = [(lo + 1 - l, l - 1, _int_matrix(l - 1)) for l in range(lo + 1)]
    dfact = odd_double_factorial(2 * d1 + 1) * odd_double_factorial(2 * d2 + 1)
    return _trace_sum(terms, 2, s) / dfact


def two_point_zograf(d1: int, d2: int):
    """C(d1, d2) by Zograf's two-point formula, d1 + d2 = 3g - 1:

        C = (1/(54^g (2g-1)! g)) sum_{d=-1}^{min(d1,d2)-1} eta_{g,d},

    eta_{g,d} = (6g-3-2d)!! (2d+1)!! w(g,d) with w depending on d mod 3 and
    out-of-range factorial reciprocals contributing zero.  The sum runs on
    integers: g! w(g,d) is a binomial times a small factor, and the two
    double factorials are stepped from one term to the next.
    """
    if d1 < 0 or d2 < 0:
        return ZERO
    s = d1 + d2
    if s % 3 != 2:
        return ZERO
    g = (s + 1) // 3
    acc = 0
    hi, lo = odd_double_factorial(6 * g - 1), 1  # (6g-3-2d)!!, (2d+1)!! at d = -1
    for d in range(-1, min(d1, d2)):
        if (d + 1) % 3 == 0:
            j = (d + 1) // 3
            w = (g - 2 * j) * comb(g, j)
        elif d % 3 == 0:
            w = -2 * g * comb(g - 1, d // 3)
        else:
            w = 2 * g * comb(g - 1, (d - 1) // 3)
        acc += hi * lo * w
        hi //= 6 * g - 3 - 2 * d
        lo *= 2 * d + 3
    return Q(acc, 54**g * factorial(2 * g - 1) * g * factorial(g))


def three_point_terms(d1: int, d2: int) -> List[Term]:
    """The terms of the three-point sum over its smaller entries d1 <= d2.

    The weight 2 M(d1-k1, d1+d2-k1-k2) does not read d3, and both floor
    arguments must be positive, so k1 <= d1 - 1 and k1 + k2 <= d1 + d2 - 1:
    O(d1 (d1 + d2)) terms, whatever the largest entry.
    """
    terms: List[Term] = []
    for k1 in range(-1, d1):
        m1 = d1 - k1
        a1 = _int_matrix(k1)
        for k2 in range(-1, d1 + d2 - k1):
            m12 = _imul(a1, _int_matrix(k2))
            if m12[0] or m12[1] or m12[2] or m12[3]:
                terms.append((2 * min(m1, d1 + d2 - k1 - k2), k1 + k2, m12))
    return terms


def four_point_terms(d1: int, d2: int, d3: int) -> List[Term]:
    """The terms of the four-point sum over its smaller entries d1 <= d2 <= d3.

    The weight is 2 times four_point's bracket sum.  Every bracket needs
    k4 >= d4 + 1, so k1+k2+k3 <= d1+d2+d3-1, and then e4 = k4 - d4 =
    d1+d2+d3 - (k1+k2+k3): no weight reads d4.  The first and third
    brackets need k1 <= d1 - 1, so for k1 >= d1 the loops cover only the
    middle bracket's window: k2 <= min(d1 - 1, d1 + d3 - 1 - k1) and k3 <=
    d1 + d2 - 1 - k2, which leaves no k2 once k1 > d1 + d3.
    """
    budget = d1 + d2 + d3 - 1
    terms: List[Term] = []
    for k1 in range(-1, d1 + d3 + 1):
        a1 = _int_matrix(k1)
        middle_only = k1 >= d1
        k2_top = budget - k1 + 1
        if middle_only:
            k2_top = min(k2_top, d1 - 1, d1 + d3 - 1 - k1)
        for k2 in range(-1, k2_top + 1):
            m12 = _imul(a1, _int_matrix(k2))
            if not (m12[0] or m12[1] or m12[2] or m12[3]):
                continue
            k3_top = budget - k1 - k2
            if middle_only:
                k3_top = min(k3_top, d1 + d2 - 1 - k2)
            for k3 in range(-1, k3_top + 1):
                ksum = k1 + k2 + k3
                e4 = budget + 1 - ksum  # >= 1: k3 stops at budget - k1 - k2
                br = (
                    max(0, min(d1 - k1, d1 + d2 - k1 - k2, e4))
                    - max(0, min(d1 - k2, d1 + d2 - k2 - k3, d1 + d3 - k1 - k2, e4))
                    - max(0, min(d1 - k1, d2 - k3, k2 - d3, e4))
                )
                if not br:
                    continue
                m123 = _imul(m12, _int_matrix(k3))
                if m123[0] or m123[1] or m123[2] or m123[3]:
                    terms.append((2 * br, ksum, m123))
    return terms


def close_terms(terms: Sequence[Term], small: Sequence[int], dn: int):
    """C(small + (dn,)) = sum of weight * a(k) over the terms of ``small``.

    ``terms`` is the table of the smaller entries ``small`` that
    three_point_terms, four_point_terms or n_point builds, the formula's
    factor in its weights; _trace_sum closes each trace at k_n = sum(small)
    + dn - (its k-sum).  Zero off the geometric genera.
    """
    n = len(small) + 1
    s = sum(small) + dn
    if (s - n) % 3:
        return ZERO
    return _trace_sum(terms, n, s) * _c_prefactor(1 + (s - n) // 3, n)


def three_point(d: Sequence[int]):
    """C(d1, d2, d3) = 2 sum_k a(k) M(d1-k1, d1+d2-k1-k2) over sum k = sum d.

    Sorting d ascending puts the largest entry in the k3 slot: the terms
    come from the two smaller entries (three_point_terms) and are closed at
    the largest (close_terms).
    """
    if len(d) != 3:
        raise ValueError("three_point takes exactly three exponents")
    if min(d) < 0:
        return ZERO
    d1, d2, d3 = sorted(d)
    if (d1 + d2 + d3) % 3:
        return ZERO
    return close_terms(three_point_terms(d1, d2), (d1, d2), d3)


def four_point(d: Sequence[int]):
    """C(d1..d4) by the four-point closed formula

        2 sum_k a(k) [ M(d1-k1, d1+d2-k1-k2, k4-d4)
                       - M(d1-k2, d1+d2-k2-k3, d1+d3-k1-k2, k4-d4)
                       - M(d1-k1, d2-k3, k2-d3, k4-d4) ]

    over k_i >= -1 with sum k = sum d.  d is sorted ascending, so the
    window of four_point_terms, set by the three smaller entries, is as
    small as it can be; close_terms closes it at the largest.
    """
    if len(d) != 4:
        raise ValueError("four_point takes exactly four exponents")
    if min(d) < 0:
        return ZERO
    d1, d2, d3, d4 = sorted(d)
    if (d1 + d2 + d3 + d4 - 4) % 3:
        return ZERO
    return close_terms(four_point_terms(d1, d2, d3), (d1, d2, d3), d4)


def _perm_data(n: int):
    """(sigma, sign, S+ mask) for all permutations of 0..n-1 fixing n-1.

    S+ holds the positions q with sigma(q+1 cyc) > sigma(q); the sign is
    (-1)^(|S-| + 1).
    """
    out = []
    for perm in permutations(range(n - 1)):
        sigma = perm + (n - 1,)
        mask = []
        minus = 0
        for q in range(n):
            up = sigma[(q + 1) % n] > sigma[q]
            mask.append(up)
            if not up:
                minus += 1
        sign = 1 if (minus + 1) % 2 == 0 else -1
        out.append((sigma, sign, tuple(mask)))
    return out


def n_point(d: Sequence[int]):
    """C(d) for any n >= 1 by the general trace formula

        C(d) = sum_{sigma(n)=n} (-1)^(|S-|+1) sum_k a(k) omega(d, sigma, k),

    k_i >= -1, sum k = sum d, with the partial-sum weight

        omega = max(0, min over S+ of PS - max over S- of PS),
        PS_q = sum_{r<=q} (d_{sigma(r)} - k_r).

    Position n always lies in S- with partial sum 0 and position n-1 in S+,
    which forces k_n >= d_n + 1 for a nonzero weight; d is sorted ascending
    so the remaining k's range over sum <= d_1 + .. + d_{n-1} - 1.

    The enumeration of k_1..k_{n-1} carries the permutations still alive,
    each with lo = min over S+ of PS so far and hi = max over S- (from 0,
    position n's partial sum).  Fixing one more k can only lower lo or
    raise hi, so a permutation with lo <= hi has weight 0 for every
    completion and is dropped there.  A k that leaves none alive ends the
    loop at its position, matrix product and all: the set can empty only at
    position n-1, which is in S+ for every sigma, so a larger k there only
    lowers lo further.  A leaf enters the term table only when its weight,
    the sum of sign (lo - hi) over the survivors, is nonzero.

    n = 1 falls back to the one-point closed form.
    """
    n = len(d)
    if n == 0:
        raise ValueError("n_point needs at least one exponent")
    if min(d) < 0:
        return ZERO
    if n == 1:
        return one_point_c(d[0])
    ds = tuple(sorted(d))
    s = sum(ds)
    if (s - n) % 3 or s < n - 3:  # g = 1 + (s - n)/3 is not in Z>=0
        return ZERO
    small = ds[:-1]
    budget = sum(small) - 1
    terms: List[Term] = []

    def dfs(pos: int, ssum: int, live: list, mat: IMat) -> None:
        if pos == n - 1:
            w = sum(sign * (lo - hi) for sign, _, _, lo, hi in live)
            if w:
                terms.append((w, ssum, mat))
            return
        top = budget - ssum + (n - 2 - pos)
        for kq in range(-1, top + 1):
            ksum = ssum + kq
            alive = []
            for sign, mask, pre, lo, hi in live:
                ps = pre[pos] - ksum
                if mask[pos]:
                    if lo is None or ps < lo:
                        lo = ps
                elif ps > hi:
                    hi = ps
                if lo is None or lo > hi:
                    alive.append((sign, mask, pre, lo, hi))
            if not alive:
                break
            nm = _imul(mat, _int_matrix(kq))
            if nm[0] or nm[1] or nm[2] or nm[3]:
                dfs(pos + 1, ksum, alive, nm)

    # Per permutation: sign, S+ mask, prefix sums of small[sigma] (sigma
    # fixes n - 1), lo (None until the first S+ position) and hi.
    perms = [
        (sign, mask, tuple(accumulate(small[i] for i in sigma[:-1])), None, 0)
        for sigma, sign, mask in _perm_data(n)
    ]
    dfs(0, 0, perms, (1, 0, 0, 1, 1))
    return close_terms(terms, small, ds[-1])
