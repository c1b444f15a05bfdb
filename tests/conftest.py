"""Shared fixtures of the program's tests."""

import pytest

import wte.engine


@pytest.fixture(autouse=True)
def fresh_skeletons():
    """Each test starts and ends with an empty skeleton memo, and so with
    no moment columns held on a skeleton (``_Skeleton.moment``), so a test
    that patches ``_Plan.glue``, ``_pairing_table`` or ``_trace_walk``
    reaches its patch, and no test reads another's entries."""
    wte.engine._skeleton.cache_clear()
    yield
    wte.engine._skeleton.cache_clear()
