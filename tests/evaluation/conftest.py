"""Fixtures of the evaluator tests."""

import pytest

from repro.mapping import cache as mapping_cache
from repro.util.lru import LRU


@pytest.fixture
def empty_mapping_cache(monkeypatch):
    """Swap in a fresh, empty process-wide mapping cache.

    The fixture swaps once; the returned function swaps again, so each
    evaluator of a test can start from an empty cache (and compute its
    reorderings itself).  The real cache is back after the test.
    """

    def swap() -> LRU:
        fresh = LRU(mapping_cache.MAPPING_CACHE_SIZE)
        monkeypatch.setattr(mapping_cache, "_GLOBAL_CACHE", fresh)
        return fresh

    swap()
    return swap
