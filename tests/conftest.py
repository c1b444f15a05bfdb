"""Shared fixtures of the program's tests."""

import pytest

import wte.engine


@pytest.fixture(autouse=True)
def fresh_skeletons():
    """Each test starts and ends with an empty skeleton memo, so a test
    that patches ``_Plan.glue``, ``_pairing_table`` or ``_trace_walk``
    reaches its patch, and no test reads another's skeletons."""
    wte.engine._SKELETONS.clear()
    yield
    wte.engine._SKELETONS.clear()
