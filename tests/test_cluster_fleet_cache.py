"""The fleet's one prefix cache: every replica serves from the same trie.

Replicas are threads in one address space, so the router points every
engine that runs the same model object at one
:class:`~repro.serving.PrefixCache` (``docs/CLUSTER.md``).  Covered
here: a prefix prefilled through one replica is a full-depth hit on
another with no transfer step; a crash purges the shared cache and the
fleet keeps serving bit-identically; the cache's own series count once
however many engines serve from it; an MCTS tree scattered across
replicas still hits; the fleet spills to, and warms from, the single
directory a lone engine uses.
"""

import time

import pytest

from repro.cluster import ClusterConfig, Router
from repro.decoding.mcts import MCTSDecoder
from repro.decoding.reward import RewardBreakdown
from repro.durability import CacheSpill
from repro.models import GenerationConfig, generate
from repro.models.lstm import LSTMConfig, LSTMLanguageModel
from repro.obs import MetricsRegistry, NullRegistry, NullTracer
from repro.resilience import FaultInjector, FaultSpec, inject_faults
from repro.serving import EngineConfig, InferenceEngine

pytestmark = pytest.mark.cluster

CONFIG = GenerationConfig(max_new_tokens=4, seed=0)


def _model():
    return LSTMLanguageModel(LSTMConfig(vocab_size=16, d_embed=4, d_hidden=8,
                                        num_layers=1, dropout=0.0))


def _router(model, registry, replicas=2, cache_bytes=None, spill=None):
    engine_config = (EngineConfig(max_batch_size=2) if cache_bytes is None
                     else EngineConfig(max_batch_size=2,
                                       prefix_cache_bytes=cache_bytes))

    def factory(name):
        return InferenceEngine(model, engine_config, registry=registry,
                               tracer=NullTracer(), name=name)

    config = ClusterConfig(replicas=replicas, restart_backoff_seconds=0.01,
                           heartbeat_seconds=0.01)
    return Router(factory, config, registry=registry, spill=spill)


@pytest.fixture()
def model():
    return _model()


@pytest.fixture()
def registry():
    return MetricsRegistry()


def _reference(model, prompt, config=CONFIG):
    return generate(model, prompt, config, registry=NullRegistry(),
                    tracer=NullTracer())


def _cache(router):
    """The one cache; asserts every replica really serves from it."""
    caches = {id(replica.supervisor.prefix_cache)
              for replica in router._replicas.values()}
    assert len(caches) == 1
    return router._replicas["r0"].supervisor.prefix_cache


def _entry_bytes(model):
    """Bytes one 3-token prompt's snapshot costs this model's cache."""
    with InferenceEngine(model, registry=NullRegistry(),
                         tracer=NullTracer()) as probe:
        probe.generate([1, 2, 3], CONFIG)
        return probe.prefix_cache.stats.bytes


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestOneCache:
    def test_capacity_is_replicas_times_the_engine_budget(self, model,
                                                          registry):
        with _router(model, registry, replicas=3, cache_bytes=1000) as router:
            assert _cache(router).max_bytes == 3000

    def test_prefix_prefilled_on_r0_hits_on_r1(self, model, registry):
        with _router(model, registry) as router:
            prompt = [1, 2, 3]
            expected = _reference(model, prompt)
            first = router.submit(prompt, CONFIG)
            assert first.replica == "r0"  # idle fleet: name breaks the tie
            assert first.result(timeout=30) == expected
            router.drain("r0", timeout=10)
            before = _cache(router).stats_snapshot()
            second = router.submit(prompt, CONFIG)
            assert second.replica == "r1"
            assert second.result(timeout=30) == expected
            after = _cache(router).stats_snapshot()
            # Full depth, straight out of the shared trie: nothing was
            # copied, published or placed for.
            assert after["hits"] - before["hits"] == 1
            assert after["hit_tokens"] - before["hit_tokens"] == len(prompt)
            hits = registry.counter("engine_prefix_cache_hits_total")
            assert hits.labels(cache="r1").value == 1
            assert hits.labels(cache="r0").value == 0

    def test_cache_series_count_once_with_three_engines(self, model,
                                                        registry):
        # 3 engines on a cache that holds ~2 entries: evictions happen
        # under every engine, and must be counted where they happen —
        # once — not scraped per engine (3x).
        budget = int(0.7 * _entry_bytes(model))
        prompts = [[1 + i % 8, 2 + i % 3, 3] for i in range(18)]
        # A forward delay keeps work in flight, so least-queued
        # placement deterministically reaches every replica.
        injector = FaultInjector(
            {"model.forward": FaultSpec(delay_seconds=0.002)})
        with _router(model, registry, replicas=3,
                     cache_bytes=budget) as router:
            with inject_faults(injector):
                handles = [router.submit(prompt, CONFIG)
                           for prompt in prompts]
                results = [handle.result(timeout=30) for handle in handles]
            assert results == [_reference(model, p) for p in prompts]
            stats = router.stats()
            assert all(replica["dispatches"] > 0
                       for replica in stats["replicas"].values())
            snap = _cache(router).stats_snapshot()
            assert stats["prefix_cache"] == snap
        assert snap["evictions"] > 0
        assert registry.counter(
            "engine_prefix_cache_evictions_total").value == snap["evictions"]
        assert registry.gauge(
            "engine_prefix_cache_bytes").value == snap["bytes"]
        # Engines keep only the outcome of their own lookups.
        outcomes = sum(
            registry.counter(name).labels(cache=replica).value
            for name in ("engine_prefix_cache_hits_total",
                         "engine_prefix_cache_misses_total")
            for replica in ("r0", "r1", "r2"))
        assert outcomes == snap["hits"] + snap["misses"] == len(prompts)

    def test_mid_batch_kill_purges_the_cache_and_the_fleet_serves_on(
            self, model, registry):
        prompt = [1, 2, 3]
        configs = [GenerationConfig(max_new_tokens=4 if i == 0 else 8,
                                    seed=0) for i in range(4)]
        expected = [_reference(model, prompt, config) for config in configs]
        # Lookup #2 on the injector's stream is an admission into a
        # batch whose other slot is mid-decode.
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={2})})
        with _router(model, registry) as router:
            cache = _cache(router)
            router.drain("r1", timeout=10)  # all four queue on r0
            observed = []
            purge = cache.clear

            def observing_clear():
                with cache._lock:  # no survivor insert between the two
                    purge()
                    observed.append(len(cache))

            cache.clear = observing_clear
            with inject_faults(injector):
                handles = [router.submit(prompt, config)
                           for config in configs]
                assert {handle.replica for handle in handles} == {"r0"}
                router.readmit("r1")
                results = [handle.result(timeout=30) for handle in handles]
            assert results == expected
            assert sum(handle.failovers for handle in handles) >= 1
            killed = router._replicas["r0"].supervisor
            assert _wait_for(lambda: killed.restarts == 1
                             and killed.state == "serving")
            # The supervisor's "fresh cache after a crash" contract,
            # kept for a cache that outlives the engine: purged, and
            # seen empty, before the replacement was built on it.
            assert observed == [0]
            assert _cache(router) is cache
            router.drain("r1", timeout=10)
            replacement = router.submit(prompt, CONFIG)
            assert replacement.replica == "r0"
            assert replacement.result(timeout=30) == expected[0]

    def test_mcts_tree_scattered_over_both_replicas_still_hits(
            self, model, registry):
        # Sibling rollouts share prompt + node prefix exactly; they hit
        # whichever replica decodes them.  Rollouts alternate replicas
        # here (the one not draining), the worst case for per-replica
        # caches.
        with _router(model, registry) as router:
            turn = [0]

            def submit(prompt_ids, config, processors, deadline_ms):
                resting = f"r{turn[0] % 2}"
                turn[0] += 1
                router.drain(resting, timeout=10)
                try:
                    return router.generate(prompt_ids, config,
                                           processors=processors,
                                           deadline_ms=deadline_ms)
                finally:
                    router.readmit(resting)

            def reward(ids):
                total = (sum(ids) % 97) / 97.0
                return RewardBreakdown(total=total,
                                       components={"format": total})

            decoder = MCTSDecoder(
                submit=submit, reward=reward,
                build_processors=lambda preamble, budget: [])
            result = decoder.search(
                [1, 2, 3], GenerationConfig(max_new_tokens=24, seed=7,
                                            strategy="mcts",
                                            mcts_rollouts=12))
            stats = router.stats()
            assert all(replica["dispatches"] >= 6
                       for replica in stats["replicas"].values())
            hit_tokens = stats["prefix_cache"]["hit_tokens"]
            assert hit_tokens / result.prompt_tokens_submitted >= 0.5


class TestRouterCacheAwarePlacement:
    def test_dead_holder_recomputes_identically(self, model, registry):
        with _router(model, registry) as router:
            prompt = [1, 2, 3]
            expected = _reference(model, prompt)
            served = router.submit(prompt, CONFIG)
            assert served.result(timeout=30) == expected
            # Kill the replica that prefilled the prefix outright: the
            # survivor serves it bit-identically — and, the trie being
            # shared, without recomputing anything.
            router._replicas[served.replica].supervisor.stop(timeout=10)
            survivor = router.submit(prompt, CONFIG)
            assert survivor.replica != served.replica
            assert survivor.result(timeout=30) == expected
            assert router.stats()["prefix_cache"]["hit_tokens"] == len(prompt)

    def test_hit_token_rate_gauge_aggregates_fleet(self, model, registry):
        with _router(model, registry) as router:
            prompt = [1, 2, 3]
            router.generate(prompt, CONFIG)
            router.generate(prompt, CONFIG)
            fleet = router.stats()["prefix_cache"]
            assert fleet["lookup_tokens"] == 2 * len(prompt)
            assert fleet["hit_tokens"] == len(prompt)
            assert fleet["hit_token_rate"] == 0.5
            gauge = registry.gauge("cluster_cache_hit_token_rate").labels()
            assert gauge.value == 0.5

    def test_zipf_skew_routes_hot_prefixes_bit_identically(self, model,
                                                           registry):
        # A deterministic Zipf-ish mix: one hot head dominating, a tail
        # of cold one-off prompts.  Every routed output must equal the
        # single-engine reference, and every repeat of the hot prompt
        # must hit at full depth wherever it lands.
        hot = [1, 2, 3]
        workload = [hot, [4, 5], hot, [6, 7], hot, [8, 9, 10], hot, hot]
        references = {tuple(p): _reference(model, p) for p in workload}
        with _router(model, registry, replicas=3) as router:
            handles = [router.submit(prompt, CONFIG) for prompt in workload]
            for prompt, handle in zip(workload, handles):
                assert handle.result(timeout=30) == references[tuple(prompt)]
            assert router.generate(hot, CONFIG) == references[tuple(hot)]
            stats = router.stats()
            assert sum(replica["dispatches"] for replica
                       in stats["replicas"].values()) == len(workload) + 1
            assert stats["prefix_cache"]["hit_tokens"] >= len(hot)


@pytest.mark.durability
class TestFleetSpill:
    def test_fleet_and_single_engine_warm_each_other(self, model, registry,
                                                     tmp_path):
        prompt = [1, 2, 3]
        expected = _reference(model, prompt)
        directory = tmp_path / "spill"
        router = _router(model, registry,
                         spill=CacheSpill(directory, model=model))
        assert router.generate(prompt, CONFIG) == expected
        router.stop()
        assert router.last_spill_saved is True
        # One directory, the layout a lone engine writes.
        assert (directory / "CURRENT").exists()
        assert not list(directory.glob("r*"))

        with InferenceEngine(model, registry=NullRegistry(),
                             tracer=NullTracer()) as single:
            loader = CacheSpill(directory, model=model)
            assert loader.load_into(single.prefix_cache) >= 1
            assert single.generate(prompt, CONFIG) == expected
            assert single.prefix_cache.stats.hit_tokens == len(prompt)
            loader.save(single.prefix_cache)

        with _router(model, MetricsRegistry(),
                     spill=CacheSpill(directory, model=model)) as warm:
            assert len(_cache(warm)) >= 1
            assert warm.generate(prompt, CONFIG) == expected
            assert warm.stats()["prefix_cache"]["hit_tokens"] == len(prompt)

    def test_per_replica_tree_of_an_older_fleet_is_ignored(self, model,
                                                           registry,
                                                           tmp_path):
        # <spill-dir>/r0, r1 … is what fleets used to write.  It is not
        # read: a cold start, never a wrong one.
        prompt = [1, 2, 3]
        directory = tmp_path / "spill"
        with InferenceEngine(model, registry=NullRegistry(),
                             tracer=NullTracer()) as old:
            old.generate(prompt, CONFIG)
            for name in ("r0", "r1"):
                CacheSpill(directory / name, model=model).save(
                    old.prefix_cache)
        with _router(model, registry,
                     spill=CacheSpill(directory, model=model)) as router:
            assert len(_cache(router)) == 0
            assert router.generate(prompt, CONFIG) == _reference(model,
                                                                 prompt)
        assert router.last_spill_saved is True
        assert (directory / "CURRENT").exists()
