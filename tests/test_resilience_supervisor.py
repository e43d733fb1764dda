"""Engine supervision: crash detection, bounded restarts, degraded mode.

The crash vector throughout is the ``prefix_cache.get`` fault point —
it fires inside the engine's admission loop, escapes ``_run`` and kills
the engine thread, which is exactly the failure the supervisor exists
to contain.
"""

import time

import pytest

from repro.models import GenerationConfig, generate
from repro.models.lstm import LSTMConfig, LSTMLanguageModel
from repro.obs import MetricsRegistry, NullRegistry, NullTracer
from repro.resilience import (EngineSupervisor, EngineUnavailableError,
                              FaultInjector, FaultSpec, inject_faults,
                              sequential_fallback)
from repro.serving import EngineCrashedError, InferenceEngine

CONFIG = GenerationConfig(max_new_tokens=4, seed=0)


def _model():
    return LSTMLanguageModel(LSTMConfig(vocab_size=16, d_embed=4, d_hidden=8,
                                        num_layers=1, dropout=0.0))


def _supervisor(model, registry=None, **kwargs):
    registry = registry if registry is not None else MetricsRegistry()

    def factory():
        return InferenceEngine(model, registry=registry)

    kwargs.setdefault("backoff_seconds", 0.005)
    kwargs.setdefault("poll_seconds", 0.005)
    return EngineSupervisor(factory, registry=registry, **kwargs)


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestCrashRecovery:
    def test_crash_fails_request_named_then_restarts(self):
        model = _model()
        registry = MetricsRegistry()
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={0})})
        with _supervisor(model, registry=registry) as sup:
            first_engine = sup.engine
            with inject_faults(injector):
                handle = sup.submit([1, 2, 3], CONFIG)
                # The crash must resolve the request — never hang it.
                with pytest.raises(EngineCrashedError):
                    handle.result(timeout=10)
                assert _wait_for(lambda: sup.restarts == 1)
            assert sup.state == "serving"
            assert sup.engine is not first_engine
            assert sup.engine.prefix_cache is not first_engine.prefix_cache
            # The replacement serves, bit-identically to sequential.
            expected = generate(model, [1, 2, 3], CONFIG,
                                registry=NullRegistry(), tracer=NullTracer())
            assert sup.generate([1, 2, 3], CONFIG) == expected
        assert registry.counter("engine_crashes_total").value == 1
        assert registry.counter("engine_restarts_total").value == 1

    def test_restart_after_evictions_serves(self):
        # Regression: a supervised engine that had evicted even once
        # could not survive a crash — every replacement died on its
        # first admission scraping the eviction counter backwards
        # ("counters only go up") until max_restarts was spent and the
        # server answered 503 for good.
        from repro.serving import EngineConfig

        model = _model()
        registry = MetricsRegistry()
        prompts = [[1 + i, 2, 3] for i in range(4)]
        with InferenceEngine(model, registry=MetricsRegistry()) as probe:
            probe.generate(prompts[0], CONFIG)
            entry_bytes = probe.prefix_cache.stats.bytes
        small = EngineConfig(prefix_cache_bytes=int(1.5 * entry_bytes))
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={0})})
        sup = EngineSupervisor(
            lambda: InferenceEngine(model, small, registry=registry),
            registry=registry, backoff_seconds=0.005, poll_seconds=0.005)
        with sup:
            for prompt in prompts:
                sup.generate(prompt, CONFIG)
            assert sup.prefix_cache.stats.evictions >= 3
            with inject_faults(injector):
                with pytest.raises(EngineCrashedError):
                    sup.submit(prompts[0], CONFIG).result(timeout=10)
                assert _wait_for(lambda: sup.restarts == 1)
            expected = generate(model, prompts[1], CONFIG,
                                registry=NullRegistry(), tracer=NullTracer())
            assert sup.generate(prompts[1], CONFIG) == expected
            assert sup.state == "serving"
            assert sup.restarts == 1

    def test_restart_budget_exhausts_to_failed(self):
        model = _model()
        injector = FaultInjector({"prefix_cache.get": FaultSpec(rate=1.0)})
        with _supervisor(model, max_restarts=2) as sup:
            with inject_faults(injector):
                # Keep crashing whichever engine is serving until the
                # restart budget (initial + 2 replacements) runs out.
                deadline = time.monotonic() + 30
                while sup.state != "failed" and time.monotonic() < deadline:
                    if sup.state == "serving":
                        try:
                            sup.submit([1, 2], CONFIG).result(timeout=10)
                        except (EngineCrashedError, EngineUnavailableError):
                            pass
                    time.sleep(0.005)
                assert sup.state == "failed"
            assert sup.restarts == 2  # the cap held
            with pytest.raises(EngineUnavailableError):
                sup.submit([1, 2], CONFIG)
            with pytest.raises(EngineUnavailableError):
                sup.generate([1, 2], CONFIG)

    def test_degraded_fallback_serves_while_down(self):
        model = _model()
        registry = MetricsRegistry()
        injector = FaultInjector({"prefix_cache.get": FaultSpec(rate=1.0)})
        expected = generate(model, [1, 2, 3], CONFIG,
                            registry=NullRegistry(), tracer=NullTracer())
        with _supervisor(model, registry=registry, max_restarts=0,
                         fallback=sequential_fallback(model)) as sup:
            with inject_faults(injector):
                try:
                    sup.generate([9, 9], CONFIG)
                except EngineCrashedError:
                    pass
                assert _wait_for(lambda: sup.state == "failed")
                tokens, degraded = sup.generate_ex([1, 2, 3], CONFIG)
            assert degraded
            assert tokens == expected  # degraded ≠ different output
            # Streaming has no degraded mode: submit stays unavailable.
            with pytest.raises(EngineUnavailableError):
                sup.submit([1, 2], CONFIG)
        assert registry.counter("engine_degraded_requests_total").value >= 1

    def test_clean_stop_is_not_a_crash(self):
        model = _model()
        registry = MetricsRegistry()
        sup = _supervisor(model, registry=registry)
        engine = sup.engine
        engine.stop()  # external stop of the inner engine, then the sup
        time.sleep(0.05)  # give the watchdog polls a chance to misfire
        sup.stop()
        assert registry.counter("engine_crashes_total").value == 0
        assert sup.restarts == 0


class TestFailInflight:
    def test_idempotent_and_counts_once(self):
        model = _model()
        registry = MetricsRegistry()
        engine = InferenceEngine(model, registry=registry)
        try:
            injector = FaultInjector(
                {"prefix_cache.get": FaultSpec(schedule={0})})
            with inject_faults(injector):
                handle = engine.submit([1, 2], CONFIG)
                with pytest.raises(EngineCrashedError):
                    handle.result(timeout=10)
            # The engine already failed its own in-flight work; a
            # supervisor calling again must be a harmless no-op.
            assert engine.fail_inflight(EngineCrashedError("again")) == 0
            assert engine.crashed is not None
            assert engine.stats()["crashed"]
            with pytest.raises(EngineCrashedError):
                engine.submit([1, 2], CONFIG)
        finally:
            engine.stop()
        failed = registry.counter("engine_requests_total").labels(
            outcome="failed", strategy="plain")
        assert failed.value == 1

    def test_stats_report_supervisor_block(self):
        model = _model()
        with _supervisor(model, max_restarts=5) as sup:
            stats = sup.stats()
        block = stats["supervisor"]
        assert block["state"] in ("serving", "stopped")
        assert block["max_restarts"] == 5
        assert block["restarts"] == 0
        assert block["degraded_available"] is False
