"""Router unit tests: placement, admission, rolling operations.

Failure-injection coverage (mid-decode replica kills, bit-identical
failover) lives in ``tests/test_cluster_chaos.py`` under the chaos
tier; this file covers the router's deterministic behaviour.
"""

import threading

import pytest

from repro.models import GenerationConfig, generate
from repro.models.lstm import LSTMConfig, LSTMLanguageModel
from repro.obs import MetricsRegistry, NullRegistry, NullTracer
from repro.resilience import FaultInjector, FaultSpec, OverloadShedError, \
    inject_faults
from repro.cluster import ClusterAdmissionController, ClusterConfig, Router
from repro.serving import EngineConfig, EngineStoppedError, InferenceEngine

pytestmark = pytest.mark.cluster

CONFIG = GenerationConfig(max_new_tokens=4, seed=0)


def _model():
    return LSTMLanguageModel(LSTMConfig(vocab_size=16, d_embed=4, d_hidden=8,
                                        num_layers=1, dropout=0.0))


def _router(model, registry, replicas=2, **overrides):
    defaults = dict(replicas=replicas, restart_backoff_seconds=0.01,
                    heartbeat_seconds=0.01)
    defaults.update(overrides)

    def factory(name):
        return InferenceEngine(model, EngineConfig(max_batch_size=2),
                               registry=registry, tracer=NullTracer(),
                               name=name)

    return Router(factory, ClusterConfig(**defaults), registry=registry)


@pytest.fixture()
def model():
    return _model()


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestPlacement:
    def test_distinct_prefixes_spread(self, model, registry):
        # Least-queued placement: while earlier requests are still in
        # flight (a forward delay holds them there), later ones land on
        # the idler replicas, whatever their prefixes.
        injector = FaultInjector(
            {"model.forward": FaultSpec(delay_seconds=0.02)})
        with _router(model, registry, replicas=3) as router:
            with inject_faults(injector):
                handles = [router.submit([seed, seed + 1, seed + 2], CONFIG)
                           for seed in range(1, 7)]
                assert [handle.replica for handle in handles] == [
                    "r0", "r1", "r2", "r0", "r1", "r2"]
                for handle in handles:
                    handle.result(timeout=30)

    def test_output_matches_sequential(self, model, registry):
        expected = generate(model, [1, 2, 3], CONFIG,
                            registry=NullRegistry(), tracer=NullTracer())
        with _router(model, registry) as router:
            assert router.generate([1, 2, 3], CONFIG) == expected
            assert router.submit([1, 2, 3], CONFIG).result(
                timeout=10) == expected

    def test_beam_routes_through_fleet(self, model, registry):
        beam = GenerationConfig(max_new_tokens=4, strategy="beam",
                                beam_size=2, seed=0)
        expected = generate(model, [1, 2, 3], beam,
                            registry=NullRegistry(), tracer=NullTracer())
        with _router(model, registry) as router:
            assert router.generate([1, 2, 3], beam) == expected
            with pytest.raises(ValueError):
                router.submit([1, 2, 3], beam)


class TestAdmission:
    def test_sheds_only_when_all_replicas_past_watermark(self, model,
                                                         registry):
        # Watermark of one request's cost: each replica can hold one.
        with _router(model, registry,
                     watermark_tokens=CONFIG.max_new_tokens) as router:
            injector = FaultInjector(
                {"model.forward": FaultSpec(delay_seconds=0.02)})
            with inject_faults(injector):
                first = router.submit([1, 2, 3], CONFIG)
                second = router.submit([1, 2, 3], CONFIG)  # other replica
                assert {first.replica, second.replica} == {"r0", "r1"}
                with pytest.raises(OverloadShedError) as excinfo:
                    router.submit([1, 2, 3], CONFIG)
                assert excinfo.value.retry_after >= 1
                with pytest.raises(OverloadShedError):
                    router.check_admission(CONFIG.max_new_tokens)
                first.result(timeout=30)
                second.result(timeout=30)
            # Backlog drained: the fleet admits again.
            assert len(router.generate([1, 2, 3], CONFIG)) == 4
            assert router.stats()["admission"]["shed_total"] >= 1

    def test_controller_idle_oversized_escape_hatch(self, registry):
        gate = ClusterAdmissionController(watermark_tokens=10,
                                          registry=registry)
        # Oversized cost, but r1 is idle: admit there.
        assert gate.eligible({"r0": 5, "r1": 0}, 100) == ["r1"]
        with pytest.raises(OverloadShedError):
            gate.eligible({"r0": 5, "r1": 7}, 100)

    def test_controller_disabled_watermark_admits_everything(self, registry):
        gate = ClusterAdmissionController(watermark_tokens=None,
                                          registry=registry)
        assert sorted(gate.eligible({"r0": 10**9, "r1": 10**9}, 100)) == \
            ["r0", "r1"]


class TestRollingOperations:
    def test_drain_swap_readmit_drops_nothing(self, model, registry):
        with _router(model, registry) as router:
            prompt = [1, 2, 3]
            expected = generate(model, prompt, CONFIG,
                                registry=NullRegistry(), tracer=NullTracer())
            injector = FaultInjector(
                {"model.forward": FaultSpec(delay_seconds=0.01)})
            with inject_faults(injector):
                inflight = router.submit(prompt, CONFIG)
                home = inflight.replica
                other = next(n for n in router.replica_names() if n != home)
                drained = {}

                def drain():
                    drained["seconds"] = router.drain(home, timeout=30)

                thread = threading.Thread(target=drain)
                thread.start()
                # While draining, same-prefix traffic routes elsewhere
                # and completes; the in-flight request finishes whole.
                rerouted = router.submit(prompt, CONFIG)
                assert rerouted.replica == other
                assert rerouted.result(timeout=30) == expected
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert inflight.result(timeout=30) == expected  # zero dropped
            assert drained["seconds"] >= 0.0
            old_engine = router._replicas[home].supervisor.engine
            router.swap(home)
            assert router._replicas[home].supervisor.engine is not old_engine
            # Still draining until readmitted.
            assert router.stats()["replicas"][home]["state"] == "draining"
            assert router.fleet_health()["status"] == "draining"
            router.readmit(home)
            assert router.fleet_health() == {
                "replicas": 2, "healthy": 2, "draining": 0, "status": "ok"}
            # The swapped-in engine serves from the cache the fleet
            # shares, as the swap left it: wherever the prefix lands
            # now, it is a hit — identically either way.
            assert router._replicas[home].supervisor.prefix_cache \
                is router._replicas[other].supervisor.prefix_cache
            hits = router.stats()["prefix_cache"]["hit_tokens"]
            landed = router.submit(prompt, CONFIG)
            assert landed.result(timeout=30) == expected
            assert router.stats()["prefix_cache"]["hit_tokens"] \
                == hits + len(prompt)
            # The drain was observed on the metrics histogram.
            assert registry.histogram(
                "cluster_drain_seconds").labels().count == 1

    def test_swap_requires_drain(self, model, registry):
        with _router(model, registry) as router:
            with pytest.raises(RuntimeError, match="drain"):
                router.swap("r0")

    def test_swap_can_replace_the_factory(self, registry):
        # Regression: a request diverted onto a replica swapped to
        # *other weights* used to be handed KV the old weights had
        # computed, and decoded to neither model's output.  A model
        # object the fleet was not already running gets a cache of
        # its own.
        from repro.models import distilgpt2

        def gpt(seed):
            model = distilgpt2(vocab_size=16, seed=seed, context_length=64)
            model.eval()
            return model

        def reference(model, config):
            return generate(model, prompt, config, registry=NullRegistry(),
                            tracer=NullTracer())

        model_a, model_b = gpt(0), gpt(1)
        prompt = [1 + i % 9 for i in range(34)]  # a full chunk and a bit
        # Sampled and long enough that these two near-uniform toy
        # models visibly part ways.
        sample = GenerationConfig(max_new_tokens=16, strategy="sample",
                                  seed=3)
        with _router(model_a, registry) as router:
            served = router.submit(prompt, CONFIG)
            assert served.result(timeout=30) == reference(model_a, CONFIG)
            first = served.replica
            other = next(n for n in router.replica_names() if n != first)
            router.drain(other, timeout=10)

            def new_factory(name):
                return InferenceEngine(model_b, EngineConfig(max_batch_size=2),
                                       registry=registry, tracer=NullTracer(),
                                       name=name)

            router.swap(other, engine_factory=new_factory)
            router.readmit(other)
            assert router._replicas[other].supervisor.engine.model is model_b
            router.drain(first, timeout=10)
            landed = router.submit(prompt, sample)
            assert landed.replica == other
            assert landed.result(timeout=30) == reference(model_b, sample)
            assert reference(model_b, sample) != reference(model_a, sample)
            cache_a = router._replicas[first].supervisor.prefix_cache
            cache_b = router._replicas[other].supervisor.prefix_cache
            assert cache_a is not cache_b
            kv_a = {id(value) for _, value, _ in cache_a.entries_snapshot()}
            kv_b = {id(value) for _, value, _ in cache_b.entries_snapshot()}
            assert kv_a and kv_b and not kv_a & kv_b

    def test_unknown_replica_is_a_keyerror(self, model, registry):
        with _router(model, registry) as router:
            with pytest.raises(KeyError, match="r9"):
                router.drain("r9")


class TestLifecycle:
    def test_stopped_router_refuses_submits(self, model, registry):
        router = _router(model, registry)
        router.stop()
        assert not router.running
        with pytest.raises(EngineStoppedError):
            router.submit([1, 2, 3], CONFIG)

    def test_stats_shape(self, model, registry):
        with _router(model, registry) as router:
            router.generate([1, 2, 3], CONFIG)
            stats = router.stats()
            assert set(stats["replicas"]) == {"r0", "r1"}
            for replica in stats["replicas"].values():
                assert replica["state"] == "healthy"
                assert replica["supervisor"]["restarts"] == 0
            assert stats["fleet"]["status"] == "ok"
            assert stats["prefix_cache"]["lookup_tokens"] == 3
            assert "hit_rate" in stats["prefix_cache"]
            assert sum(r["dispatches"]
                       for r in stats["replicas"].values()) == 1

    def test_per_replica_metric_labels(self, model, registry):
        with _router(model, registry) as router:
            router.generate([1, 2, 3], CONFIG)
        # The serving replica's engine + cache series carry its name.
        served = [name for name, replica
                  in router.stats()["replicas"].items()
                  if replica["dispatches"]]
        assert len(served) == 1
        tokens = registry.counter("engine_tokens_total")
        assert tokens.labels(engine=served[0], strategy="plain").value == 4
        hits = registry.counter("engine_prefix_cache_misses_total")
        assert hits.labels(cache=served[0]).value >= 1
        dispatches = registry.counter("cluster_dispatches_total")
        assert dispatches.labels(replica=served[0]).value == 1


class TestSharedWeightFleet:
    """N replicas over ONE frozen weight copy (``docs/KERNELS.md``).

    The factory closes over a single kernel-enabled transformer, so
    every replica's engine decodes through the same read-only
    :class:`~repro.nn.WeightStore` — the fleet costs ~1x model weights
    instead of ~Nx, with per-thread kernel workspaces keeping the
    replicas' concurrent decodes isolated.
    """

    @staticmethod
    def _gpt(seed=0):
        from repro.models import distilgpt2
        return distilgpt2(vocab_size=16, seed=seed, context_length=64)

    @staticmethod
    def _shared_factory(shared, registry):
        def factory(name):
            return InferenceEngine(shared, EngineConfig(max_batch_size=2),
                                   registry=registry, tracer=NullTracer(),
                                   name=name)
        return factory

    def test_shared_fleet_bit_identical_to_isolated_replicas(self, registry):
        prompts = [[1, 2, 3], [7, 6, 5, 4], [2] * 34, [9, 9, 1]]
        reference = self._gpt()
        reference.eval()
        expected = [generate(reference, p, CONFIG, registry=NullRegistry(),
                             tracer=NullTracer()) for p in prompts]

        shared = self._gpt()
        shared.enable_kernels("fp32", freeze=True)
        config = ClusterConfig(replicas=3, restart_backoff_seconds=0.01,
                               heartbeat_seconds=0.01)
        with Router(self._shared_factory(shared, registry), config,
                    registry=registry) as router:
            handles = [router.submit(p, CONFIG) for p in prompts]
            assert [h.result(timeout=30) for h in handles] == expected

    def test_fleet_weight_bytes_one_copy_when_shared(self, registry):
        single = sum(p.data.nbytes for p in self._gpt().parameters())
        shared = self._gpt()
        shared.enable_kernels("fp32", freeze=True)
        config = ClusterConfig(replicas=3, restart_backoff_seconds=0.01,
                               heartbeat_seconds=0.01)
        with Router(self._shared_factory(shared, registry), config,
                    registry=registry) as router:
            accounting = router.weight_bytes()
            assert accounting["replicas"] == 3
            assert accounting["model_copies"] == 1
            # ~1x: the kernel store references the model's own arrays.
            assert accounting["unique_bytes"] <= 1.1 * single
            assert router.stats()["weights"] == accounting

    def test_fleet_weight_bytes_n_copies_when_isolated(self, registry):
        single = sum(p.data.nbytes for p in self._gpt().parameters())

        def factory(name):
            model = self._gpt()
            model.eval()
            return InferenceEngine(model, EngineConfig(max_batch_size=2),
                                   registry=registry, tracer=NullTracer(),
                                   name=name)

        config = ClusterConfig(replicas=3, restart_backoff_seconds=0.01,
                               heartbeat_seconds=0.01)
        with Router(factory, config, registry=registry) as router:
            accounting = router.weight_bytes()
            assert accounting["model_copies"] == 3
            assert accounting["unique_bytes"] >= 3 * single

    @pytest.mark.chaos
    def test_replica_crash_reattaches_to_shared_weights(self, registry):
        # Crash a replica's engine thread mid-request: the supervisor
        # restarts it via the factory, re-attaching to the SAME shared
        # model, and the request fails over bit-identically.  The
        # frozen store guarantees the crash couldn't have corrupted
        # weights, and survivors plus the restarted replica must stay
        # bit-identical to the unfailed sequential run.
        prompt = [1, 2, 3]
        reference = self._gpt()
        reference.eval()
        expected = generate(reference, prompt, CONFIG,
                            registry=NullRegistry(), tracer=NullTracer())

        shared = self._gpt()
        kernels = shared.enable_kernels("fp32", freeze=True)
        snapshot = shared.wte.weight.data.copy()
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={0}, max_faults=1)})
        config = ClusterConfig(replicas=2, restart_backoff_seconds=0.01,
                               heartbeat_seconds=0.01)
        with Router(self._shared_factory(shared, registry), config,
                    registry=registry) as router:
            with inject_faults(injector):
                handle = router.submit(prompt, CONFIG)
                assert handle.result(timeout=30) == expected
            assert handle.failovers >= 1
            # The fleet still shares the one frozen copy after restart.
            accounting = router.weight_bytes()
            assert accounting["model_copies"] == 1
            assert kernels.store.frozen
            assert not shared.wte.weight.data.flags.writeable
            assert (shared.wte.weight.data == snapshot).all()
            # And the restarted fleet keeps serving identically.
            assert router.generate(prompt, CONFIG) == expected
