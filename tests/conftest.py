"""Fixtures shared by the test modules."""

import pytest

from cg_uncert import bounds, coarse, numerics, specfun, states

NUMERIC_MODULES = (bounds, coarse, numerics, specfun, states)


def numeric_memos() -> list:
    """Every lru_cache-memoized function defined in the numeric modules
    (bound_L, states._tail_point and numerics._gl_nodes), each once."""
    return [f for m in NUMERIC_MODULES for f in vars(m).values()
            if hasattr(f, "cache_clear") and getattr(f, "__module__", None) == m.__name__]


@pytest.fixture
def fresh_memos():
    """Clear every numeric memo before and after the test, so that a test
    counting calls below a memo sees each one whatever ran before it;
    yields the memos."""
    memos = numeric_memos()
    for f in memos:
        f.cache_clear()
    yield memos
    for f in memos:
        f.cache_clear()
