"""Shared fixtures of the program's tests."""

import pytest

import wte.engine


@pytest.fixture(autouse=True)
def fresh_skeletons():
    """Each test starts and ends with empty skeleton and moment-column
    memos, so a test that patches ``_Plan.glue``, ``_pairing_table`` or
    ``_trace_walk`` reaches its patch, and no test reads another's
    entries."""
    wte.engine._skeleton.cache_clear()
    wte.engine._moment_columns.clear()
    yield
    wte.engine._skeleton.cache_clear()
    wte.engine._moment_columns.clear()
