"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """A setter of Python's int-to-str digit limit (0 lifts it, 640 is its
    least value); the limit the test started with is restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int digit limit")
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)
