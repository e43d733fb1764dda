"""Prefix KV-cache trie: unit tests + Hypothesis LRU/byte invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import PrefixCache


class TestLookupSemantics:
    def test_exact_roundtrip(self):
        cache = PrefixCache(max_bytes=1000)
        assert cache.insert([1, 2, 3], "abc", nbytes=10)
        assert cache.lookup([1, 2, 3]) == (3, "abc")

    def test_deepest_prefix_wins(self):
        cache = PrefixCache(max_bytes=1000)
        cache.insert([1], "a", nbytes=1)
        cache.insert([1, 2], "ab", nbytes=1)
        cache.insert([1, 2, 3], "abc", nbytes=1)
        assert cache.lookup([1, 2, 3, 4, 5]) == (3, "abc")
        assert cache.lookup([1, 2, 9]) == (2, "ab")
        assert cache.lookup([1, 9]) == (1, "a")

    def test_miss_on_divergent_first_token(self):
        cache = PrefixCache(max_bytes=1000)
        cache.insert([1, 2], "ab", nbytes=1)
        assert cache.lookup([2, 1]) == (0, None)
        assert cache.stats.misses == 1

    def test_chunk_eligibility_gates_partial_depths(self):
        # Snapshots stored off the chunk grid are only usable for an
        # exact whole-query match — resuming prefill from them would
        # chunk at different absolute boundaries than a cold run.
        cache = PrefixCache(max_bytes=1000, chunk_size=4)
        cache.insert([1, 2, 3, 4, 5, 6], "depth6", nbytes=1)
        cache.insert([1, 2, 3, 4], "depth4", nbytes=1)
        assert cache.lookup([1, 2, 3, 4, 5, 6]) == (6, "depth6")
        assert cache.lookup([1, 2, 3, 4, 5, 6, 7]) == (4, "depth4")
        assert cache.lookup([1, 2, 3, 4, 5]) == (4, "depth4")

    def test_update_existing_key_replaces_value_and_bytes(self):
        cache = PrefixCache(max_bytes=100)
        cache.insert([1, 2], "old", nbytes=60)
        cache.insert([1, 2], "new", nbytes=30)
        assert cache.lookup([1, 2]) == (2, "new")
        assert cache.stats.bytes == 30
        assert cache.stats.entries == 1


class TestBudget:
    def test_oversized_entry_rejected(self):
        cache = PrefixCache(max_bytes=10)
        assert not cache.insert([1], "big", nbytes=11)
        assert cache.lookup([1]) == (0, None)
        assert cache.stats.rejected == 1
        assert cache.stats.bytes == 0

    def test_lru_eviction_order(self):
        cache = PrefixCache(max_bytes=30)
        cache.insert([1], "a", nbytes=10)
        cache.insert([2], "b", nbytes=10)
        cache.insert([3], "c", nbytes=10)
        cache.lookup([1])  # refresh [1]; [2] becomes LRU
        cache.insert([4], "d", nbytes=10)
        assert cache.lookup([2]) == (0, None)
        assert cache.lookup([1]) == (1, "a")
        assert cache.lookup([4]) == (1, "d")
        assert cache.stats.evictions == 1

    def test_cache_counts_its_own_series_at_the_point_of_change(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        cache = PrefixCache(max_bytes=20, registry=registry)
        cache.insert([1], "a", nbytes=10)
        cache.insert([2], "b", nbytes=10)
        cache.insert([3], "c", nbytes=10)  # evicts [1]
        cache.lookup([3])
        cache.lookup([1])
        evictions = registry.counter("engine_prefix_cache_evictions_total")
        assert evictions.value == cache.stats.evictions == 1
        assert registry.gauge("engine_prefix_cache_bytes").value == 20
        assert registry.gauge("engine_prefix_cache_hit_rate").value == 0.5
        cache.clear()
        assert registry.gauge("engine_prefix_cache_bytes").value == 0

    def test_eviction_prunes_trie_nodes(self):
        cache = PrefixCache(max_bytes=10)
        cache.insert([1, 2, 3], "a", nbytes=10)
        cache.insert([4, 5], "b", nbytes=10)  # evicts [1,2,3]
        assert list(cache._root.children) == [4]

    def test_clear(self):
        cache = PrefixCache(max_bytes=100)
        cache.insert([1, 2], "a", nbytes=10)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.bytes == 0
        assert cache.lookup([1, 2]) == (0, None)

    def test_contains(self):
        cache = PrefixCache(max_bytes=100)
        cache.insert([7, 8], "x", nbytes=1)
        assert [7, 8] in cache
        assert [7] not in cache

    def test_stats_as_dict_and_locked_snapshot(self):
        cache = PrefixCache(max_bytes=100)
        cache.insert([1, 2], "a", nbytes=10)
        cache.lookup([1, 2])
        cache.lookup([9])
        expected = {"hits": 1, "misses": 1, "evictions": 0, "rejected": 0,
                    "hit_tokens": 2, "lookup_tokens": 3, "bytes": 10,
                    "entries": 1, "hit_rate": 0.5,
                    "hit_token_rate": 2 / 3}
        assert cache.stats.as_dict() == expected
        # The locked variant reads under the cache lock — same content,
        # atomic with respect to concurrent insert/lookup/evict.
        assert cache.stats_snapshot() == expected

    def test_stats_snapshot_is_atomic_under_writers(self):
        import sys
        import threading

        # One cache serves every engine thread of a fleet: three
        # writers (more than this box has cores, switching every 10 us)
        # churn 150 distinct keys through a budget that holds 20, so
        # evictions race inserts the whole time.
        cache = PrefixCache(max_bytes=140)
        stop = threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def churn(offset):
            i = 0
            while not stop.is_set():
                cache.insert([offset + i % 50, 1], "v", nbytes=7)
                cache.lookup([offset + i % 50, 1])
                i += 1

        writers = [threading.Thread(target=churn, args=(offset,))
                   for offset in (0, 50, 100)]
        for writer in writers:
            writer.start()
        try:
            for _ in range(200):
                snap = cache.stats_snapshot()
                # Entries each cost 7 bytes: an atomic read can never
                # observe a bytes total mid-update (torn between the
                # decrement and increment of an entry replacement) —
                # nor, with concurrent inserters, one over the budget.
                assert snap["bytes"] == snap["entries"] * 7
                assert snap["bytes"] <= cache.max_bytes
        finally:
            stop.set()
            for writer in writers:
                writer.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(writer.is_alive() for writer in writers)
        assert cache.stats_snapshot()["evictions"] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PrefixCache(max_bytes=-1)
        with pytest.raises(ValueError):
            PrefixCache(max_bytes=10, chunk_size=0)
        cache = PrefixCache(max_bytes=10)
        with pytest.raises(ValueError):
            cache.insert([], "empty", nbytes=1)
        with pytest.raises(ValueError):
            cache.insert([1], "neg", nbytes=-1)


_key = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6)
_op = st.one_of(
    st.tuples(st.just("insert"), _key, st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("lookup"), _key, st.just(0)),
)


@pytest.mark.property
class TestInvariants:
    @given(budget=st.integers(min_value=0, max_value=100),
           ops=st.lists(_op, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_bytes_never_exceed_budget(self, budget, ops):
        cache = PrefixCache(max_bytes=budget, chunk_size=None)
        for kind, key, nbytes in ops:
            if kind == "insert":
                accepted = cache.insert(key, tuple(key), nbytes)
                assert accepted == (nbytes <= budget)
            else:
                depth, value = cache.lookup(key)
                if depth:
                    # Whatever comes back is a live stored prefix of
                    # the query, carrying the value stored for it.
                    assert value == tuple(key[:depth])
                    assert key[:depth] in cache
            assert cache.stats.bytes <= budget
            assert cache.stats.bytes == sum(
                entry.nbytes for entry in cache._entries.values())
            assert cache.stats.entries == len(cache._entries)

    @given(budget=st.integers(min_value=1, max_value=60),
           keys=st.lists(_key, min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_evicted_entries_never_returned(self, budget, keys):
        cache = PrefixCache(max_bytes=budget, chunk_size=None)
        for key in keys:
            cache.insert(key, tuple(key), nbytes=1)
        # Everything still stored must be retrievable at full depth;
        # everything evicted must not resolve to its own key.
        live = set(cache._entries)
        for key in keys:
            depth, value = cache.lookup(key)
            if tuple(key) in live:
                assert depth == len(key) and value == tuple(key)
            else:
                assert depth < len(key)

    @given(keys=st.lists(_key, min_size=1, max_size=20, unique_by=tuple))
    @settings(max_examples=60, deadline=None)
    def test_unbounded_budget_keeps_everything(self, keys):
        cache = PrefixCache(max_bytes=10**9, chunk_size=None)
        for key in keys:
            cache.insert(key, tuple(key), nbytes=100)
        for key in keys:
            assert cache.lookup(key) == (len(key), tuple(key))
        assert cache.stats.evictions == 0
