"""Engine crash recovery: in-place restarts, replay of the requests a
crash interrupted, the lifetime restart budget, degraded mode.

The crash vector throughout is the ``prefix_cache.get`` fault point —
it fires inside the engine's admission loop and escapes it, which is
exactly the failure the engine's own recovery (``_recover``) exists to
contain.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import GenerationConfig, generate
from repro.models.lstm import LSTMConfig, LSTMLanguageModel
from repro.obs import ManualClock, MetricsRegistry, NullRegistry, NullTracer
from repro.resilience import (FaultInjector, FaultSpec, ResilienceConfig,
                              inject_faults)
from repro.serving import (DeadlineExceededError, EngineConfig,
                           EngineCrashedError, EngineUnavailableError,
                           InferenceEngine)

CONFIG = GenerationConfig(max_new_tokens=4, seed=0)


def _model():
    return LSTMLanguageModel(LSTMConfig(vocab_size=16, d_embed=4, d_hidden=8,
                                        num_layers=1, dropout=0.0))


def _engine(model, registry=None, engine_config=None, **knobs):
    """An engine with a restart budget (default 3, fast backoff)."""
    knobs.setdefault("restart_backoff_seconds", 0.005)
    return InferenceEngine(model, engine_config,
                           registry=(registry if registry is not None
                                     else MetricsRegistry()),
                           tracer=NullTracer(),
                           resilience=ResilienceConfig(**knobs))


def _reference(model, prompt, config=CONFIG):
    return generate(model, prompt, config, registry=NullRegistry(),
                    tracer=NullTracer())


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
        expected = _reference(model, [1, 2, 3])
        # No restart budget: the crash resolves the request with the
        # named error — never a hang, and nothing to replay it on.
        with _engine(model, registry=registry, max_restarts=0) as engine:
            with inject_faults(FaultInjector(
                    {"prefix_cache.get": FaultSpec(schedule={0})})):
                handle = engine.submit([1, 2, 3], CONFIG)
                with pytest.raises(EngineCrashedError,
                                   match="engine thread crashed"):
                    handle.result(timeout=10)
            assert engine.state == "failed"
            assert engine.crashed is not None
        # One death is one engine_crashes_total.
        assert registry.counter("engine_crashes_total").value == 1
        assert registry.counter("engine_restarts_total").value == 0
        # With budget the engine restarts in place, and the interrupted
        # request finishes on the same engine, bit-identically.
        with _engine(model, registry=registry) as engine:
            with inject_faults(FaultInjector(
                    {"prefix_cache.get": FaultSpec(schedule={0})})):
                assert engine.submit([1, 2, 3],
                                     CONFIG).result(timeout=10) == expected
            assert engine.state == "serving" and engine.restarts == 1
            assert engine.crashed is None
            assert engine.generate([1, 2, 3], CONFIG) == expected
        assert registry.counter("engine_crashes_total").value == 2
        assert registry.counter("engine_restarts_total").value == 1

    def test_restart_after_evictions_serves(self):
        # Regression: an engine that had evicted even once could not
        # survive a crash — every restart died on its first admission
        # scraping the eviction counter backwards ("counters only go
        # up") until max_restarts was spent and the server answered
        # 503 for good.
        model = _model()
        registry = MetricsRegistry()
        prompts = [[1 + i, 2, 3] for i in range(4)]
        with InferenceEngine(model, registry=MetricsRegistry()) as probe:
            probe.generate(prompts[0], CONFIG)
            entry_bytes = probe.prefix_cache.stats.bytes
        small = EngineConfig(prefix_cache_bytes=int(1.5 * entry_bytes))
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={0})})
        with _engine(model, registry=registry, engine_config=small) as engine:
            for prompt in prompts:
                engine.generate(prompt, CONFIG)
            assert engine.prefix_cache.stats.evictions >= 3
            with inject_faults(injector):
                assert engine.submit(prompts[0], CONFIG).result(
                    timeout=10) == _reference(model, prompts[0])
            expected = _reference(model, prompts[1])
            assert engine.generate(prompts[1], CONFIG) == expected
            assert engine.state == "serving"
            assert engine.restarts == 1

    def test_restart_budget_exhausts_to_failed(self):
        # The budget is the engine's lifetime: every replay of the one
        # request crashes again, and the third crash is final.
        model = _model()
        registry = MetricsRegistry()
        injector = FaultInjector({"prefix_cache.get": FaultSpec(rate=1.0)})
        with _engine(model, registry=registry, max_restarts=2) as engine:
            with inject_faults(injector):
                with pytest.raises(EngineCrashedError):
                    engine.submit([1, 2], CONFIG).result(timeout=10)
                assert engine.state == "failed"
            assert engine.restarts == 2  # the cap held
            assert registry.counter("engine_crashes_total").value == 3
            with pytest.raises(EngineUnavailableError):
                engine.submit([1, 2], CONFIG)
            with pytest.raises(EngineUnavailableError):
                engine.generate([1, 2], CONFIG)

    def test_degraded_fallback_serves_while_down(self):
        model = _model()
        registry = MetricsRegistry()
        injector = FaultInjector({"prefix_cache.get": FaultSpec(rate=1.0)})
        expected = generate(model, [1, 2, 3], CONFIG,
                            registry=NullRegistry(), tracer=NullTracer())
        with _engine(model, registry=registry, max_restarts=0,
                     degraded_fallback=True) as engine:
            with inject_faults(injector):
                # The request the crash failed falls back too.
                tokens, degraded = engine.generate_ex([9, 9], CONFIG)
                assert degraded and len(tokens) == 4
                assert engine.state == "failed"
                tokens, degraded = engine.generate_ex([1, 2, 3], CONFIG)
            assert degraded
            assert tokens == expected  # degraded ≠ different output
            # Streaming has no degraded mode: submit stays unavailable.
            with pytest.raises(EngineUnavailableError):
                engine.submit([1, 2], CONFIG)
        assert registry.counter("engine_degraded_requests_total").value == 2

    def test_clean_stop_is_not_a_crash(self):
        model = _model()
        registry = MetricsRegistry()
        engine = _engine(model, registry=registry)
        engine.stop()
        assert engine.state == "stopped" and engine.crashed is None
        assert registry.counter("engine_crashes_total").value == 0
        assert engine.restarts == 0


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
            # The engine already failed its own in-flight work; calling
            # again must be a harmless no-op.
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
        with _engine(model, max_restarts=5) as engine:
            stats = engine.stats()
        block = stats["supervisor"]
        assert block["state"] in ("serving", "stopped")
        assert block["max_restarts"] == 5
        assert block["restarts"] == 0
        assert block["degraded_available"] is False


def _mid_batch_kill(model):
    """Four requests on one batch-2 engine; request 0 (short) retires
    first, and the admission that refills its slot is lookup #2 on the
    injector's index stream — the fault fires there, crashing the loop
    while the other requests are mid-decode."""
    configs = [GenerationConfig(max_new_tokens=4 if i == 0 else 8, seed=0)
               for i in range(4)]
    expected = [_reference(model, [1, 2, 3], config) for config in configs]
    injector = FaultInjector({"prefix_cache.get": FaultSpec(schedule={2})})
    return configs, expected, injector


def _gated(model, at_call):
    """Hold ``model.next_logits`` at its ``at_call``-th call until
    ``proceed`` is set.  A lone LSTM row makes one call per prompt
    token (prefill), then one per decode step, after delivering that
    step's token."""
    forward = model.next_logits
    reached, proceed = threading.Event(), threading.Event()
    calls = [0]

    def gated(*args, **kwargs):
        calls[0] += 1
        if calls[0] == at_call:
            reached.set()
            proceed.wait(timeout=30)
        return forward(*args, **kwargs)

    model.next_logits = gated
    return reached, proceed


@pytest.mark.chaos
class TestRetryOnRestart:
    def test_replica_death_mid_batch_is_bit_identical(self):
        model = _model()
        registry = MetricsRegistry()
        configs, expected, injector = _mid_batch_kill(model)
        with _engine(model, registry=registry,
                     engine_config=EngineConfig(max_batch_size=2)) as engine:
            with inject_faults(injector):
                handles = [engine.submit([1, 2, 3], config)
                           for config in configs]
                results = [None] * len(handles)
                # One victim is consumed as a stream: across the restart
                # the replayed prefix must be skipped, not re-yielded.
                results[1] = list(handles[1].tokens(timeout=30))
                for index in (0, 2, 3):
                    results[index] = handles[index].result(timeout=30)
            # Zero failed requests, every result byte-equal to the
            # unfailed sequential run.
            assert results == expected
            assert engine.restarts == 1 and engine.state == "serving"
        assert registry.counter("engine_crashes_total").value == 1

    def test_mid_batch_kill_purges_the_cache_and_the_fleet_serves_on(self):
        model = _model()
        configs, expected, injector = _mid_batch_kill(model)
        with _engine(model,
                     engine_config=EngineConfig(max_batch_size=2)) as engine:
            cache = engine.prefix_cache
            observed = []
            clear = cache.clear

            def observing():
                # The crash empties the cache before anything replays.
                clear()
                observed.append(len(cache))

            cache.clear = observing
            with inject_faults(injector):
                handles = [engine.submit([1, 2, 3], config)
                           for config in configs]
                results = [handle.result(timeout=30) for handle in handles]
            assert results == expected
            assert observed == [0]
            assert engine.restarts == 1
            assert engine.generate([1, 2, 3], CONFIG) == expected[0]

    def test_failover_budget_exhaustion_surfaces_named_error(self):
        # Replays are bounded by the restart budget: the loop crashes
        # under the request twice, one restart is allowed, and the
        # *crash* error surfaces — named, not an engine internality.
        model = _model()
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={0, 1})})
        with _engine(model, max_restarts=1) as engine:
            with inject_faults(injector):
                handle = engine.submit([1, 2, 3], CONFIG)
                with pytest.raises(EngineCrashedError):
                    handle.result(timeout=10)
            assert engine.restarts == 1 and engine.state == "failed"
            with pytest.raises(EngineUnavailableError):
                engine.submit([1, 2, 3], CONFIG)

    def test_cancelled_request_is_not_retried(self):
        # Cancelled during the restart backoff: the replay never runs,
        # and the request is counted once, as cancelled.
        model = _model()
        registry = MetricsRegistry()
        with _engine(model, registry=registry,
                     restart_backoff_seconds=0.3) as engine:
            with inject_faults(FaultInjector(
                    {"prefix_cache.get": FaultSpec(schedule={0})})):
                handle = engine.submit([1, 2, 3], CONFIG)
                assert _wait_for(lambda: engine.state == "restarting")
                handle.cancel()
                assert handle.result(timeout=10) == []
            assert engine.restarts == 1
            assert registry.counter("engine_requests_total").labels(
                outcome="cancelled", strategy="plain").value == 1
            assert sum(child.value for _, child in registry.counter(
                "engine_requests_total").series()) == 1  # nothing replayed

    def test_no_request_outlives_its_deadline_waiting_for_a_restart(self):
        # The deadline runs on the engine's metrics clock; it expires
        # during the backoff, and the request is retired at re-admission
        # instead of being replayed.
        model = _model()
        clock = ManualClock()
        with _engine(model, registry=MetricsRegistry(clock=clock),
                     restart_backoff_seconds=0.3) as engine:
            with inject_faults(FaultInjector(
                    {"prefix_cache.get": FaultSpec(schedule={0})})):
                handle = engine.submit([1, 2, 3], CONFIG, deadline_ms=500.0)
                assert _wait_for(lambda: engine.state == "restarting")
                clock.advance(0.6)
                with pytest.raises(DeadlineExceededError) as expired:
                    handle.result(timeout=10)
            assert expired.value.deadline_ms == 500.0
            assert expired.value.tokens == []

    def test_deadline_across_a_crash_keeps_the_delivered_tokens(self):
        # Regression: a request whose deadline expired while the engine
        # restarted reported no tokens, although its handle held k — a
        # "partial" client got a 504 instead of its k tokens.
        model = _model()
        config = GenerationConfig(max_new_tokens=12, seed=0)
        oracle = _reference(model, [1, 2, 3], config)
        clock = ManualClock()
        reached, proceed = _gated(model, at_call=3 + 3)
        try:
            with _engine(model, registry=MetricsRegistry(clock=clock),
                         restart_backoff_seconds=0.3) as engine:
                with inject_faults(FaultInjector(
                        {"prefix_cache.get": FaultSpec(schedule={1})})):
                    victim = engine.submit([1, 2, 3], config,
                                           deadline_ms=500.0)
                    assert reached.wait(timeout=30)
                    # Its admission is lookup #1: the crash, with the
                    # victim three tokens in.
                    bystander = engine.submit([4, 5], CONFIG)
                    proceed.set()
                    assert _wait_for(lambda: engine.state == "restarting")
                    clock.advance(0.6)
                    with pytest.raises(DeadlineExceededError) as expired:
                        victim.result(timeout=10)
                    assert bystander.result(timeout=10) == _reference(
                        model, [4, 5])
        finally:
            proceed.set()
            del model.next_logits
        assert expired.value.tokens == oracle[:3]

    def test_validation_errors_are_raised_at_submit_not_retried(self):
        model = _model()
        with _engine(model) as engine:
            with pytest.raises(ValueError):
                engine.submit([], CONFIG)
            with pytest.raises(ValueError):
                engine.submit([1, 2], CONFIG, deadline_ms=-1.0)
            assert engine.restarts == 0

    @pytest.mark.property
    @given(kill=st.integers(0, 5),
           prompts=st.lists(st.lists(st.integers(1, 15), min_size=1,
                                     max_size=4), min_size=1, max_size=5),
           streamed=st.booleans(),
           deadline_ms=st.sampled_from([None, 60_000.0]))
    @settings(max_examples=12, deadline=None)
    def test_one_kill_anywhere_is_invisible_to_every_caller(
            self, kill, prompts, streamed, deadline_ms):
        """Crash the loop at any admission (or not at all, when the
        index is past the last lookup): every request still yields
        exactly the sequential oracle's tokens, each exactly once."""
        model = _model()
        configs = [GenerationConfig(max_new_tokens=3 + i % 4, seed=i)
                   for i in range(len(prompts))]
        expected = [_reference(model, prompt, config)
                    for prompt, config in zip(prompts, configs)]
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={kill})})
        with _engine(model, restart_backoff_seconds=0.001,
                     engine_config=EngineConfig(max_batch_size=2)) as engine:
            with inject_faults(injector):
                handles = [engine.submit(prompt, config,
                                         deadline_ms=deadline_ms)
                           for prompt, config in zip(prompts, configs)]
                results = [list(handle.tokens(timeout=30)) if streamed
                           else handle.result(timeout=30)
                           for handle in handles]
            assert results == expected
            assert engine.restarts <= 1
