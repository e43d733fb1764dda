"""The engine owns its rows' KV: one slot per batch row.

Every retire path returns its row's slot, so at quiescence every slot is
free; a row admitted into a slot a longer sequence just left still gets
the sequential oracle's bits; and a steady-state decode step builds no
per-row cache handles and allocates nothing (docs/SERVING.md §4).
"""

import threading
import time
from unittest import mock

import pytest

from repro.models import GenerationConfig, GPT2State, distilgpt2, generate
from repro.nn.attention import KVCache
from repro.obs import ManualClock, MetricsRegistry, NullRegistry, NullTracer
from repro.resilience import (FaultInjector, FaultSpec, InjectedFault,
                              ResilienceConfig, inject_faults)
from repro.serving import (DeadlineExceededError, EngineConfig,
                           EngineStoppedError, InferenceEngine)

VOCAB = 32
SLOTS = 4


@pytest.fixture(scope="module")
def model():
    model = distilgpt2(vocab_size=VOCAB, seed=3, context_length=64)
    model.enable_kernels()
    return model


def _oracle(model, prompt, config):
    return generate(model, prompt, config, registry=NullRegistry(),
                    tracer=NullTracer())


def _config(tokens, **kwargs):
    return GenerationConfig(max_new_tokens=tokens, strategy="greedy",
                            seed=0, **kwargs)


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


class _StepGate:
    """Holds the engine thread at its next decode call until released."""

    def __init__(self, model):
        self.hold, self.entered = threading.Event(), threading.Event()
        self.release = threading.Event()
        forward = model.next_logits

        def gated(ids, state):
            if self.hold.is_set():
                self.hold.clear()
                self.entered.set()
                self.release.wait(timeout=30)
            return forward(ids, state)

        model.next_logits = gated

    def close(self):
        self.hold.set()
        self.entered.clear()
        self.release.clear()
        assert self.entered.wait(timeout=30)


def _all_free(engine):
    kv = engine.stats()["kv"]
    return kv["free"] == kv["slots"] == SLOTS


def test_every_retire_path_returns_its_slot(model):
    clock = ManualClock()
    long_prompt = [(7 * i) % VOCAB for i in range(30)]
    free_run = _oracle(model, [5, 9, 2], _config(12))
    stop_token = free_run[4]
    oracles = {
        "budget": ([5, 9, 2], _config(12)),
        "stop": ([5, 9, 2], _config(12, stop_token_id=stop_token)),
        "other": ([1, 4], _config(9)),
        "long": (long_prompt, _config(30)),
        "short": ([3], _config(4)),
    }
    want = {name: _oracle(model, prompt, config)
            for name, (prompt, config) in oracles.items()}
    assert want["stop"] == free_run[:free_run.index(stop_token) + 1]
    holder = _oracle(model, [8, 8], _config(40))
    engine = InferenceEngine(
        model, EngineConfig(max_batch_size=SLOTS),
        registry=MetricsRegistry(clock=clock), tracer=NullTracer(),
        resilience=ResilienceConfig(max_restarts=3,
                                    restart_backoff_seconds=0.005))
    gate = _StepGate(model)
    try:
        assert _all_free(engine)
        # Stop token and budget, sharing the batch.
        handles = {name: engine.submit(*oracles[name])
                   for name in ("budget", "stop", "other")}
        assert {name: h.result(timeout=30)
                for name, h in handles.items()} == {
            name: want[name] for name in handles}
        assert _all_free(engine)

        # A short row in the slot a longer sequence just left.
        assert engine.submit(*oracles["long"]).result(
            timeout=30) == want["long"]
        assert engine._free[-1].length > len(long_prompt)
        assert engine.submit(*oracles["short"]).result(
            timeout=30) == want["short"]
        assert _all_free(engine)

        # Cancel and deadline while queued, and cancel mid-batch, all
        # behind a held step.
        held = engine.submit([8, 8], _config(40))
        gate.close()
        cancelled = engine.submit([1, 2, 3], _config(8))
        expired = engine.submit([1, 2, 3], _config(8), deadline_ms=50)
        cancelled.cancel()
        held.cancel()
        clock.advance(1.0)
        gate.release.set()
        assert cancelled.result(timeout=30) == []
        with pytest.raises(DeadlineExceededError) as queued:
            expired.result(timeout=30)
        assert queued.value.tokens == []
        assert held.result(timeout=30) == holder[:1]
        assert _all_free(engine)

        # Deadline mid-batch: the named error carries the partial tokens.
        late = engine.submit([8, 8], _config(40), deadline_ms=1000)
        gate.close()
        clock.advance(2.0)
        gate.release.set()
        with pytest.raises(DeadlineExceededError) as mid:
            late.result(timeout=30)
        assert mid.value.tokens == holder[:1]
        assert _all_free(engine)

        # A model.forward fault fails its step's rows, not the engine:
        # call 0 is the prefill, call 1 the first decode step.
        with inject_faults(FaultInjector(
                {"model.forward": FaultSpec(schedule={1})})):
            with pytest.raises(InjectedFault):
                engine.submit([1, 4], _config(9)).result(timeout=30)
        assert _all_free(engine)

        # A prefix_cache.get crash restarts the loop in place; the
        # replayed requests still get the oracle's bits.
        with inject_faults(FaultInjector(
                {"prefix_cache.get": FaultSpec(schedule={1})})):
            first = engine.submit(*oracles["long"])
            assert _wait_for(lambda: len(first._generated) >= 1)
            second = engine.submit(*oracles["other"])
            assert first.result(timeout=30) == want["long"]
            assert second.result(timeout=30) == want["other"]
        assert engine.restarts == 1
        assert _all_free(engine)

        # stop() fails what is in flight and frees its slots.
        last = engine.submit([8, 8], _config(40))
        gate.close()
        stopper = threading.Thread(target=engine.stop)
        stopper.start()
        assert _wait_for(lambda: engine.state == "stopped")
        gate.release.set()
        stopper.join(timeout=30)
        with pytest.raises(EngineStoppedError):
            last.result(timeout=30)
        assert _all_free(engine)
    finally:
        gate.release.set()
        engine.stop()
        del model.next_logits


def test_steady_state_steps_build_no_handles_and_allocate_nothing(model):
    kernels = model.kernels
    prompts = [[(3 * r + i) % VOCAB for i in range(5 + 3 * r)]
               for r in range(8)]
    config = _config(70)
    want = [_oracle(model, prompt, config) for prompt in prompts]
    built = {"GPT2State": 0, "KVCache": 0, "reserved": 0}
    counting = threading.Event()
    steps, allocations = [], []

    def counted(cls, name):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            if counting.is_set():
                built[name] += 1
            init(self, *args, **kwargs)
        return wrapper

    reserved = KVCache.reserved

    def counted_reserved(self, capacity):
        built["reserved"] += 1
        return reserved(self, capacity)

    forward = model.next_logits

    def step(ids, rows):
        if len(ids) == 8:
            steps.append(len(steps))
            allocations.append(kernels.allocation_count)
            if len(steps) == 10:
                counting.set()
            elif len(steps) == 60:
                counting.clear()
        return forward(ids, rows)

    engine = InferenceEngine(model, EngineConfig(max_batch_size=8),
                             registry=NullRegistry(), tracer=NullTracer())
    model.next_logits = step
    try:
        with mock.patch.object(GPT2State, "__init__",
                               counted(GPT2State, "GPT2State")), \
                mock.patch.object(KVCache, "__init__",
                                  counted(KVCache, "KVCache")), \
                mock.patch.object(KVCache, "reserved", counted_reserved):
            # One admission wave: all eight rows decode side by side.
            gate = _StepGate(model)
            warm = engine.submit([1], _config(2))
            gate.close()
            handles = [engine.submit(prompt, config) for prompt in prompts]
            gate.release.set()
            warm.result(timeout=60)
            assert [h.result(timeout=60) for h in handles] == want
    finally:
        engine.stop()
        del model.next_logits
    assert len(steps) >= 60
    # No per-row handle over 50 steady-state B = 8 steps ...
    assert built["GPT2State"] == built["KVCache"] == 0
    # ... no live row's KV ever reallocated, admission included ...
    assert built["reserved"] == 0
    # ... and no workspace block allocated from the first step on.
    assert allocations[0] == allocations[-1] == kernels.allocation_count
