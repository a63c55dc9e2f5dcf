"""The failure branches that only a broken invariant reaches: each fault is
planted here, and the verdict it must bring is checked."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from psiclass import asym, harness
from psiclass.cli import main
from psiclass.dvv import MemoCache, _decode, _encode, n_value


def _plant_row(monkeypatch, at, edit):
    """Serve row ``at`` of the majorant through ``edit``; every other row,
    and the row each one is built from, stays the true one."""
    true_row = asym._majorant_row
    rows = {}

    def planted(X, prev):
        rows[X] = true_row(X, rows.get(X - 1))
        return edit(rows[X]) if X == at else rows[X]

    monkeypatch.setattr(asym, "_majorant_row", planted)


def _bounds(capsys):
    """(exit code, payload) of ``bounds --gmax 60``."""
    code = main(["bounds", "--gmax", "60"])
    return code, json.loads(capsys.readouterr().out)


def _swap_n2_n3(row):
    den, rs, ss = row
    assert (rs[1], ss[1]) != (rs[2], ss[2])  # f(X, 2) != f(X, 3)
    return den, [rs[0], rs[2], rs[1], *rs[3:]], [ss[0], ss[2], ss[1], *ss[3:]]


@pytest.mark.parametrize(
    "at, edit",
    [
        # (1) f <= 1 fails: f(5, n) = 2 for every n, a constant row.
        (5, lambda row: (1, [0], [2])),
        # (2) monotonicity fails: f(10, 2) and f(10, 3) trade places, so
        # every value of the row stays within [1/pi, 1].
        (10, _swap_n2_n3),
    ],
    ids=["above_one", "decreasing_in_n"],
)
def test_lemma6_check_reports_a_planted_majorant_fault(monkeypatch, capsys, at, edit):
    ok, excess = asym.lemma6_check(60)
    assert ok
    _plant_row(monkeypatch, at, edit)
    # The plant sits below EXCESS_XMIN, so the excess bound is untouched.
    assert asym.lemma6_check(60) == (False, excess)
    code, payload = _bounds(capsys)
    assert code == 1 and payload["lemma6_ok"] is False


def test_lemma7_check_reports_a_bound_below_theta(monkeypatch, capsys):
    true_bound = asym.f_bound

    def planted(X, n):
        bound = true_bound(X, n)
        if (X, n) == (7, 3):  # f <= 1, so r/pi + s - 1 <= 0 < theta_{7,3}
            return asym.PiLinear(bound.r, bound.s - 1)
        return bound

    assert harness.lemma7_check(14)
    monkeypatch.setattr(asym, "f_bound", planted)
    assert not harness.lemma7_check(14)
    code, payload = _bounds(capsys)
    assert code == 1 and payload["lemma7_ok"] is False
    assert payload["lemma6_ok"] is True


def test_lemma7_check_refuses_a_negative_pi_part(monkeypatch):
    monkeypatch.setattr(asym, "f_bound", lambda X, n: asym.PiLinear(-1, 2))
    with pytest.raises(ArithmeticError) as exc:
        harness.lemma7_check(3)
    assert str(exc.value) == "f bound with negative pi part"


def test_odd_separable_sum_is_refused():
    """An integer forgery cannot make the separable sum odd: its (I, J) and
    (J, I) terms change alike, and a term with I = J carries an even
    ``ways``.  A half-integer N + 1/2 can; search the entries of (2,2,2)'s
    memo for the ones that do."""
    base = MemoCache()
    n_value((2, 2, 2), base)
    top = _encode((2, 2, 2))
    found = []
    for code in base.table:
        if code == top:
            continue
        forged = MemoCache()
        forged.table = {c: n for c, n in base.table.items() if c != top}
        forged.table[code] += Fraction(1, 2)
        try:
            n_value((2, 2, 2), forged)
        except ArithmeticError as exc:
            found.append((_decode(code), str(exc)))
    # (0, 2) is both children of the split (2) | (2) at a = b = 0.
    assert found == [((0, 2), "odd separable sum expanding (2, 2, 2) at 2")]
