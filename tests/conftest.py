import sys

import pytest


@pytest.fixture
def digit_limit_640():
    """Lower the interpreter's int-to-text digit limit to its minimum, 640,
    for one test, and put the old limit back afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-text digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield 640
    finally:
        sys.set_int_max_str_digits(old)
