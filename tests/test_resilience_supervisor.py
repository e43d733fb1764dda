"""Engine supervision: crash detection, bounded restarts, retry of the
requests a crash interrupted, degraded mode.

The crash vector throughout is the ``prefix_cache.get`` fault point —
it fires inside the engine's admission loop, escapes ``_run`` and kills
the engine thread, which is exactly the failure the supervisor exists
to contain.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import GenerationConfig, generate
from repro.models.lstm import LSTMConfig, LSTMLanguageModel
from repro.obs import ManualClock, MetricsRegistry, NullRegistry, NullTracer
from repro.resilience import (EngineSupervisor, EngineUnavailableError,
                              FaultInjector, FaultSpec, inject_faults,
                              sequential_fallback)
from repro.serving import (DeadlineExceededError, EngineConfig,
                           EngineCrashedError, InferenceEngine)

CONFIG = GenerationConfig(max_new_tokens=4, seed=0)


def _model():
    return LSTMLanguageModel(LSTMConfig(vocab_size=16, d_embed=4, d_hidden=8,
                                        num_layers=1, dropout=0.0))


def _supervisor(model, registry=None, engine_config=None, **kwargs):
    registry = registry if registry is not None else MetricsRegistry()

    def factory():
        return InferenceEngine(model, engine_config, registry=registry,
                               tracer=NullTracer())

    kwargs.setdefault("backoff_seconds", 0.005)
    kwargs.setdefault("poll_seconds", 0.005)
    return EngineSupervisor(factory, registry=registry, **kwargs)


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
        # named error — never a hang, and nothing to retry on.
        with _supervisor(model, registry=registry, max_restarts=0) as sup:
            with inject_faults(FaultInjector(
                    {"prefix_cache.get": FaultSpec(schedule={0})})):
                handle = sup.submit([1, 2, 3], CONFIG)
                with pytest.raises(EngineCrashedError):
                    handle.result(timeout=10)
            assert _wait_for(lambda: sup.state == "failed")
            time.sleep(0.05)  # more watchdog polls must not recount it
        assert registry.counter("engine_crashes_total").value == 1
        assert registry.counter("engine_restarts_total").value == 0
        # With budget the supervisor restarts, and the interrupted
        # request finishes on the replacement, bit-identically.
        with _supervisor(model, registry=registry) as sup:
            first_engine = sup.engine
            with inject_faults(FaultInjector(
                    {"prefix_cache.get": FaultSpec(schedule={0})})):
                assert sup.submit([1, 2, 3],
                                  CONFIG).result(timeout=10) == expected
            assert sup.state == "serving" and sup.restarts == 1
            assert sup.engine is not first_engine
            assert sup.engine.prefix_cache is not first_engine.prefix_cache
            assert sup.generate([1, 2, 3], CONFIG) == expected
        assert registry.counter("engine_crashes_total").value == 2
        assert registry.counter("engine_restarts_total").value == 1

    def test_failing_factory_counts_the_crash_once(self):
        # Regression: while the factory kept failing, every watchdog
        # poll re-entered the crash handler for the same dead engine and
        # counted the one death again.
        model = _model()
        registry = MetricsRegistry()
        builds = []

        def factory():
            builds.append(None)
            if len(builds) in (2, 3):
                raise RuntimeError("factory down")
            return InferenceEngine(model, registry=registry)

        sup = EngineSupervisor(factory, registry=registry, max_restarts=3,
                               backoff_seconds=0.005, poll_seconds=0.005)
        with sup:
            with inject_faults(FaultInjector(
                    {"prefix_cache.get": FaultSpec(schedule={0})})):
                # The retry outwaits the two failed rebuilds.
                assert sup.submit([1, 2, 3], CONFIG).result(
                    timeout=10) == _reference(model, [1, 2, 3])
            assert sup.state == "serving"
            assert sup.restarts == 3  # two burnt attempts + the good one
        assert len(builds) == 4
        assert registry.counter("engine_crashes_total").value == 1
        assert registry.counter("engine_restarts_total").value == 1

    def test_restart_after_evictions_serves(self):
        # Regression: a supervised engine that had evicted even once
        # could not survive a crash — every replacement died on its
        # first admission scraping the eviction counter backwards
        # ("counters only go up") until max_restarts was spent and the
        # server answered 503 for good.
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
                assert sup.submit(prompts[0], CONFIG).result(
                    timeout=10) == _reference(model, prompts[0])
            expected = _reference(model, prompts[1])
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


def _mid_batch_kill(model):
    """Four requests on one batch-2 engine; request 0 (short) retires
    first, and the admission that refills its slot is lookup #2 on the
    injector's index stream — the fault fires there, killing the engine
    thread while the other requests are mid-decode."""
    configs = [GenerationConfig(max_new_tokens=4 if i == 0 else 8, seed=0)
               for i in range(4)]
    expected = [_reference(model, [1, 2, 3], config) for config in configs]
    injector = FaultInjector({"prefix_cache.get": FaultSpec(schedule={2})})
    return configs, expected, injector


@pytest.mark.chaos
class TestRetryOnRestart:
    def test_replica_death_mid_batch_is_bit_identical(self):
        model = _model()
        registry = MetricsRegistry()
        configs, expected, injector = _mid_batch_kill(model)
        with _supervisor(model, registry=registry,
                         engine_config=EngineConfig(max_batch_size=2)) as sup:
            with inject_faults(injector):
                handles = [sup.submit([1, 2, 3], config)
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
            assert sup.restarts == 1 and sup.state == "serving"
        assert registry.counter("engine_crashes_total").value == 1

    def test_mid_batch_kill_purges_the_cache_and_the_fleet_serves_on(self):
        model = _model()
        configs, expected, injector = _mid_batch_kill(model)
        with _supervisor(model,
                         engine_config=EngineConfig(max_batch_size=2)) as sup:
            first = sup.engine
            observed = []
            fail_inflight = first.fail_inflight

            def observing(error):
                # The crashing engine empties its cache before any
                # caller can see the crash and retry.
                observed.append(len(first.prefix_cache))
                return fail_inflight(error)

            first.fail_inflight = observing
            with inject_faults(injector):
                handles = [sup.submit([1, 2, 3], config)
                           for config in configs]
                results = [handle.result(timeout=30) for handle in handles]
            assert results == expected
            assert observed and observed[0] == 0
            # The replacement serves from a cache of its own.
            assert sup.engine is not first
            assert sup.prefix_cache is not first.prefix_cache
            assert sup.generate([1, 2, 3], CONFIG) == expected[0]

    def test_failover_budget_exhaustion_surfaces_named_error(self):
        # Retries are bounded by the restart budget: the engine dies
        # under the request twice, one restart is allowed, and the
        # *crash* error surfaces — named, not a supervisor internality.
        model = _model()
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={0, 1})})
        with _supervisor(model, max_restarts=1) as sup:
            with inject_faults(injector):
                handle = sup.submit([1, 2, 3], CONFIG)
                with pytest.raises(EngineCrashedError):
                    handle.result(timeout=10)
            assert sup.restarts == 1 and sup.state == "failed"
            with pytest.raises(EngineUnavailableError):
                sup.submit([1, 2, 3], CONFIG)

    def test_cancelled_request_is_not_retried(self):
        model = _model()
        registry = MetricsRegistry()
        with _supervisor(model, registry=registry) as sup:
            with inject_faults(FaultInjector(
                    {"prefix_cache.get": FaultSpec(schedule={0})})):
                handle = sup.submit([1, 2, 3], CONFIG)
                assert _wait_for(lambda: handle.done)  # failed by the crash
                handle.cancel()
                with pytest.raises(EngineCrashedError):
                    handle.result(timeout=10)
            assert _wait_for(lambda: sup.restarts == 1)
            assert registry.counter("engine_requests_total").labels(
                outcome="failed", strategy="plain").value == 1
            assert sum(child.value for _, child in registry.counter(
                "engine_requests_total").series()) == 1  # nothing resubmitted

    def test_no_request_outlives_its_deadline_waiting_for_a_restart(self):
        # The deadline runs on the engines' metrics clock; the factory
        # blocks, so the restart the retry waits for never comes.
        model = _model()
        clock = ManualClock()
        registry = MetricsRegistry(clock=clock)
        release = threading.Event()
        builds = []

        def factory():
            builds.append(None)
            if len(builds) > 1:
                release.wait(timeout=30)
            return InferenceEngine(model, registry=registry)

        sup = EngineSupervisor(factory, registry=registry,
                               backoff_seconds=0.0, poll_seconds=0.005)
        try:
            with inject_faults(FaultInjector(
                    {"prefix_cache.get": FaultSpec(schedule={0})})):
                handle = sup.submit([1, 2, 3], CONFIG, deadline_ms=500.0)
                assert _wait_for(lambda: sup.state == "restarting")
                clock.advance(0.6)
                with pytest.raises(DeadlineExceededError) as expired:
                    handle.result(timeout=10)
            assert expired.value.deadline_ms == 500.0
        finally:
            release.set()
            sup.stop()

    def test_validation_errors_are_raised_at_submit_not_retried(self):
        model = _model()
        with _supervisor(model) as sup:
            with pytest.raises(ValueError):
                sup.submit([], CONFIG)
            with pytest.raises(ValueError):
                sup.submit([1, 2], CONFIG, deadline_ms=-1.0)
            assert sup.restarts == 0

    @pytest.mark.property
    @given(kill=st.integers(0, 5),
           prompts=st.lists(st.lists(st.integers(1, 15), min_size=1,
                                     max_size=4), min_size=1, max_size=5),
           streamed=st.booleans(),
           deadline_ms=st.sampled_from([None, 60_000.0]))
    @settings(max_examples=12, deadline=None)
    def test_one_kill_anywhere_is_invisible_to_every_caller(
            self, kill, prompts, streamed, deadline_ms):
        """Kill the engine at any admission (or not at all, when the
        index is past the last lookup): every request still yields
        exactly the sequential oracle's tokens, each exactly once."""
        model = _model()
        configs = [GenerationConfig(max_new_tokens=3 + i % 4, seed=i)
                   for i in range(len(prompts))]
        expected = [_reference(model, prompt, config)
                    for prompt, config in zip(prompts, configs)]
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={kill})})
        with _supervisor(model, backoff_seconds=0.001, poll_seconds=0.001,
                         engine_config=EngineConfig(max_batch_size=2)) as sup:
            with inject_faults(injector):
                handles = [sup.submit(prompt, config,
                                      deadline_ms=deadline_ms)
                           for prompt, config in zip(prompts, configs)]
                results = [list(handle.tokens(timeout=30)) if streamed
                           else handle.result(timeout=30)
                           for handle in handles]
            assert results == expected
            assert sup.restarts <= 1
