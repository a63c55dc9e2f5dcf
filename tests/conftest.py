"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest


@pytest.fixture
def uncap_int_str():
    """A function that lifts CPython's cap on int/str conversion, so a test
    can read back the digits of a value past it; the cap is restored after
    the test.  Run the code under test first, under the process's own cap.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # an interpreter without the cap
        yield lambda: None
        return
    cap = get()
    yield lambda: sys.set_int_max_str_digits(0)
    sys.set_int_max_str_digits(cap)
