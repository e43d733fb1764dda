"""Cluster chaos: replica deaths mid-decode never lose or corrupt work.

The headline contract — ISSUE 5's acceptance bar — is the first test:
kill one replica of an N≥2 fleet *mid-batch* with a seeded
:class:`FaultInjector` and every in-flight request still completes,
with results bit-identical to a run where nothing failed.  The rest of
the suite covers the edges: the failover budget, the last-replica
case, and liveness under arbitrary seeded fault plans.
"""

import threading

import pytest

from repro.cluster import ClusterConfig, Router
from repro.models import GenerationConfig, generate
from repro.models.lstm import LSTMConfig, LSTMLanguageModel
from repro.obs import MetricsRegistry, NullRegistry, NullTracer
from repro.resilience import (FaultInjector, FaultSpec, InjectedFault,
                              inject_faults)
from repro.resilience.supervisor import EngineUnavailableError
from repro.serving import (DeadlineExceededError, EngineConfig,
                           EngineCrashedError, EngineStoppedError,
                           InferenceEngine)

pytestmark = [pytest.mark.chaos, pytest.mark.cluster]

CONFIG = GenerationConfig(max_new_tokens=4, seed=0)

TERMINAL_ERRORS = (InjectedFault, EngineCrashedError, EngineStoppedError,
                   EngineUnavailableError, DeadlineExceededError,
                   TimeoutError)


def _model():
    return LSTMLanguageModel(LSTMConfig(vocab_size=16, d_embed=4, d_hidden=8,
                                        num_layers=1, dropout=0.0))


def _cluster(**overrides):
    defaults = dict(replicas=2, restart_backoff_seconds=0.01,
                    heartbeat_seconds=0.01)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _factory(model, registry):
    def build(name):
        return InferenceEngine(model, EngineConfig(max_batch_size=2),
                               registry=registry, tracer=NullTracer(),
                               name=name)
    return build


class TestMidDecodeKill:
    def test_replica_death_mid_batch_is_bit_identical(self):
        # Four requests queue on one replica (the other is held out of
        # rotation while they are submitted, then readmitted to be the
        # survivor).  With batch size 2, request 0 (short) retires
        # first; the next admission's prefix_cache.get is call #2 on
        # the injector's deterministic index stream — the fault fires
        # there, killing the home engine thread while the other three
        # requests are mid-decode.
        model = _model()
        registry = MetricsRegistry()
        prompt = [1, 2, 3]
        configs = [GenerationConfig(max_new_tokens=4 if i == 0 else 8,
                                    seed=0) for i in range(4)]
        expected = [generate(model, prompt, config, registry=NullRegistry(),
                             tracer=NullTracer()) for config in configs]
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={2})})
        with Router(_factory(model, registry), _cluster(),
                    registry=registry) as router:
            router.drain("r1", timeout=10)
            with inject_faults(injector):
                handles = [router.submit(prompt, config)
                           for config in configs]
                home = handles[0].replica
                for handle in handles:
                    assert handle.replica == home
                router.readmit("r1")
                results = [None] * len(handles)
                # Consume one victim as a stream: across the failover
                # the replayed prefix must be deduplicated, not
                # re-yielded.
                results[1] = list(handles[1].tokens(timeout=30))
                for index in (0, 2, 3):
                    results[index] = handles[index].result(timeout=30)
            # Zero failed requests, every result byte-equal to the
            # unfailed sequential run.
            assert results == expected
            assert sum(handle.failovers for handle in handles) >= 1
            stats = router.stats()
            assert stats["replicas"][home]["failovers"] >= 1
            survivor = next(name for name in stats["replicas"]
                            if name != home)
            assert stats["replicas"][survivor]["dispatches"] >= 1
        failovers = registry.counter("cluster_failovers_total")
        assert failovers.labels(replica=home).value >= 1

    def test_failover_budget_exhaustion_surfaces_named_error(self):
        model = _model()
        registry = MetricsRegistry()
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={0})})
        with Router(_factory(model, registry),
                    _cluster(max_failovers=0),
                    registry=registry) as router:
            with inject_faults(injector):
                handle = router.submit([1, 2, 3], CONFIG)
                with pytest.raises(EngineCrashedError):
                    handle.result(timeout=10)
            # The request's budget was spent, not the fleet's health:
            # fresh requests keep serving (off the restarting replica).
            assert len(router.generate([1, 2, 3], CONFIG)) == 4

    def test_last_replica_crash_raises_the_crash_error(self):
        # One replica, no restart budget: failover has nowhere to go
        # and must surface the *original* crash error, not a router
        # internality.
        model = _model()
        registry = MetricsRegistry()
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={0})})
        with Router(_factory(model, registry),
                    _cluster(replicas=1, max_restarts=0),
                    registry=registry) as router:
            with inject_faults(injector):
                handle = router.submit([1, 2, 3], CONFIG)
                with pytest.raises(EngineCrashedError):
                    handle.result(timeout=10)


class TestClusterLiveness:
    def test_concurrent_requests_all_terminate_under_faults(self):
        # Arbitrary seeded plan across both fault points: every request
        # resolves — result or named error — within the timeout bound.
        model = _model()
        registry = MetricsRegistry()
        plan = {
            "model.forward": FaultSpec(rate=0.2, delay_seconds=0.002),
            "prefix_cache.get": FaultSpec(schedule={3, 7}, max_faults=2),
        }
        injector = FaultInjector(plan, seed=7)
        outcomes = []
        lock = threading.Lock()
        with Router(_factory(model, registry), _cluster(),
                    registry=registry) as router:

            def one_request(i):
                config = GenerationConfig(max_new_tokens=3 + i % 3, seed=i)
                try:
                    handle = router.submit([1 + i % 5, 2, 3], config)
                    outcome = ("ok", len(handle.result(timeout=30)))
                except TERMINAL_ERRORS as exc:
                    outcome = ("error", type(exc).__name__)
                with lock:
                    outcomes.append(outcome)

            with inject_faults(injector):
                threads = [threading.Thread(target=one_request, args=(i,))
                           for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(t.is_alive() for t in threads), \
                    "a routed request hung under fault injection"
        assert len(outcomes) == 6
        assert ("error", "TimeoutError") not in outcomes
