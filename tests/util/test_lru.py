"""The one bounded cache every memo in the pipeline uses."""

import sys
import threading

import pytest

from repro.util.lru import LRU


def _stats(lru):
    s = lru.stats()
    return (s["hits"], s["misses"], s["evictions"])


class TestBound:
    def test_evicts_least_recently_used_first(self):
        lru = LRU(3)
        for k in "abc":
            lru.put(k, k.upper())
        assert lru.get("a") == "A"  # a is now the most recent
        assert lru.put("d", "D") == ["b"]
        assert lru.put("e", "E") == ["c"]
        assert lru.values() == ["A", "D", "E"]
        assert len(lru) == 3
        assert lru.stats() == {
            "entries": 3, "capacity": 3, "hits": 1, "misses": 0, "evictions": 2,
        }

    def test_put_returns_evicted_keys(self):
        lru = LRU(1)
        assert lru.put("a", 1) == []
        assert lru.put("a", 2) == []  # a replaced, nothing evicted
        assert lru.put("b", 3) == ["a"]
        assert lru.peek("a") is None and lru.peek("b") == 3

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_below_one_refused(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            LRU(capacity)


class TestCounters:
    def test_get_counts_and_moves(self):
        lru = LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1
        assert lru.get("zz") is None
        assert _stats(lru) == (1, 1, 0)
        assert lru.put("c", 3) == ["b"]  # the get made a the most recent

    def test_get_or_build_builds_once(self):
        lru = LRU(4)
        built = []

        def build():
            built.append(1)
            return "v"

        assert lru.get_or_build("k", build) == "v"
        assert lru.get_or_build("k", build) == "v"
        assert built == [1]
        assert _stats(lru) == (1, 1, 0)

    def test_miss_counted_after_the_build(self):
        lru = LRU(4)
        seen = []

        def build():
            seen.append(_stats(lru))
            return "v"

        lru.get_or_build("k", build)
        assert seen == [(0, 0, 0)]
        assert _stats(lru) == (0, 1, 0)

    def test_failed_build_stores_and_counts_nothing(self):
        lru = LRU(1)
        lru.put("a", 1)
        before = lru.stats()

        def build():
            raise RuntimeError("no")

        with pytest.raises(RuntimeError):
            lru.get_or_build("b", build)
        assert lru.stats() == before
        assert lru.values() == [1]

    def test_peek_neither_counts_nor_moves(self):
        lru = LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.peek("a") == 1
        assert lru.peek("zz") is None
        assert _stats(lru) == (0, 0, 0)
        assert lru.put("c", 3) == ["a"]  # a stayed the least recent


def test_threads_lose_no_count():
    lru = LRU(8)
    n_threads, rounds = 4, 2000
    calls = [0] * n_threads
    errors = []

    def worker(t):
        try:
            for i in range(rounds):
                key = (t + i) % 13
                lru.get(key)
                lru.put(key + 100, i + 1)
                lru.get_or_build(key, lambda: i + 1)
                calls[t] += 2
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert lru.hits + lru.misses == sum(calls) == 2 * n_threads * rounds
    assert len(lru) <= lru.capacity
