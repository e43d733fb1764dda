"""Request deadlines in the serving engine.

The acceptance contract: a deadline-expired request retires mid-batch
through the same path as a stop token, so the *surviving* requests'
outputs stay bit-identical to a sequential run — and the expired
request's partial tokens are a strict prefix of what it would have
produced.
"""

import threading
import time

import numpy as np
import pytest

from repro.models import (GenerationConfig, GPT2Config, GPT2Model,
                          distilgpt2, generate)
from repro.obs import ManualClock, MetricsRegistry, NullRegistry, NullTracer
from repro.serving import (DeadlineExceededError, EngineConfig,
                           InferenceEngine)
from repro.serving.engine import EngineRequest

VOCAB = 32


@pytest.fixture(scope="module")
def model():
    return distilgpt2(vocab_size=VOCAB, context_length=128)


def _prompt(seed, length):
    rng = np.random.default_rng(seed)
    return [int(t) for t in rng.integers(0, VOCAB, size=length)]


def _sequential(model, prompt, config):
    return generate(model, prompt, config,
                    registry=NullRegistry(), tracer=NullTracer())


class _GatedModel(GPT2Model):
    """Tiny GPT-2 whose prefills block until the test opens the gate."""

    def __init__(self):
        super().__init__(GPT2Config(vocab_size=16, context_length=32,
                                    d_model=16, num_layers=1, num_heads=2,
                                    d_ff=32, dropout=0.0))
        self.gate = threading.Event()
        self.entered = threading.Event()

    def prefill(self, ids, state):
        self.entered.set()
        self.gate.wait(timeout=10)
        return super().prefill(ids, state)


class TestQueuedExpiry:
    def test_expired_in_queue_fails_with_zero_tokens(self):
        # The engine clock is the registry's — a ManualClock makes the
        # expiry deterministic: the request is already past its budget
        # when the admission loop first sees it.
        registry = MetricsRegistry(clock=ManualClock())
        gated = _GatedModel()
        engine = InferenceEngine(gated, EngineConfig(max_batch_size=1),
                                 registry=registry)
        try:
            config = GenerationConfig(max_new_tokens=4, seed=0)
            blocker = engine.submit([1, 2], config)  # occupies the batch
            assert gated.entered.wait(timeout=10)
            doomed = engine.submit([3, 4], config, deadline_ms=50.0)
            registry.clock.advance(1.0)  # budget long gone
            gated.gate.set()
            with pytest.raises(DeadlineExceededError) as excinfo:
                doomed.result(timeout=30)
            assert excinfo.value.tokens == []
            assert excinfo.value.deadline_ms == 50.0
            assert len(blocker.result(timeout=30)) == 4
        finally:
            gated.gate.set()
            engine.stop()
        outcome = registry.counter("engine_requests_total").labels(
            outcome="deadline", strategy="plain")
        assert outcome.value == 1

    def test_submit_validates_deadline(self, model):
        with InferenceEngine(model) as engine:
            with pytest.raises(ValueError, match="deadline_ms"):
                engine.submit([1, 2], GenerationConfig(max_new_tokens=2),
                              deadline_ms=0)


class TestMidBatchRetirement:
    def test_survivors_bit_identical_and_partial_is_prefix(self, model):
        # The acceptance test: one doomed request expires mid-decode,
        # two survivors share its batch.  Whatever step the deadline
        # fires at, the survivors must equal a sequential run exactly
        # and the doomed request's tokens must be a prefix of its own
        # full decode.
        registry = MetricsRegistry(clock=ManualClock())
        survivors = [
            (_prompt(1, 5), GenerationConfig(max_new_tokens=12,
                                             strategy="sample", top_k=8,
                                             seed=3)),
            (_prompt(2, 7), GenerationConfig(max_new_tokens=10,
                                             strategy="greedy", seed=0)),
        ]
        doomed_prompt = _prompt(3, 6)
        doomed_config = GenerationConfig(max_new_tokens=200, seed=7)
        expected = [_sequential(model, p, c) for p, c in survivors]
        full_doomed = _sequential(model, doomed_prompt, doomed_config)
        with InferenceEngine(model, registry=registry) as engine:
            handles = [engine.submit(p, c) for p, c in survivors]
            doomed = engine.submit(doomed_prompt, doomed_config,
                                   deadline_ms=1000.0)
            # Let it produce at least one real token, then expire it.
            first = next(doomed.tokens(timeout=30))
            registry.clock.advance(2.0)
            with pytest.raises(DeadlineExceededError) as excinfo:
                doomed.result(timeout=30)
            partial = excinfo.value.tokens
            assert partial and partial[0] == first
            assert len(partial) < len(full_doomed)
            assert partial == full_doomed[:len(partial)]
            assert [h.result(timeout=60) for h in handles] == expected
            # The slot is free again: the engine keeps serving.
            after = engine.generate(_prompt(4, 4),
                                    GenerationConfig(max_new_tokens=3,
                                                     seed=1))
            assert len(after) == 3

    def test_no_deadline_requests_unaffected(self, model):
        prompt = _prompt(5, 8)
        config = GenerationConfig(max_new_tokens=8, seed=2)
        expected = _sequential(model, prompt, config)
        registry = MetricsRegistry(clock=ManualClock())
        with InferenceEngine(model, registry=registry) as engine:
            handle = engine.submit(prompt, config)
            registry.clock.advance(10_000.0)
            assert handle.result(timeout=60) == expected

    def test_generous_deadline_completes_normally(self, model):
        prompt = _prompt(6, 8)
        config = GenerationConfig(max_new_tokens=6, seed=4)
        expected = _sequential(model, prompt, config)
        with InferenceEngine(model) as engine:
            assert engine.generate(prompt, config,
                                   deadline_ms=600_000.0) == expected


class TestTokensTimeout:
    def test_spurious_wakeups_do_not_extend_the_wait(self):
        # Regression: tokens(timeout) used to restart its full wait on
        # every condition notify, so a stream of spurious wakeups kept
        # a caller blocked indefinitely.  The budget is now measured
        # against a monotonic deadline.
        request = EngineRequest(request_id=0, prompt_ids=[1],
                                config=GenerationConfig(max_new_tokens=4),
                                processors=(), submitted_at=0.0)
        stop = threading.Event()

        def heckle():
            while not stop.is_set():
                with request._cond:
                    request._cond.notify_all()
                time.sleep(0.02)

        thread = threading.Thread(target=heckle, daemon=True)
        thread.start()
        try:
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                next(request.tokens(timeout=0.2))
            elapsed = time.monotonic() - start
            # Well under the heckler's ability to keep resetting a
            # restarted 0.2 s wait forever; generous upper bound for CI.
            assert elapsed < 2.0
        finally:
            stop.set()
            thread.join(timeout=5)

    def test_result_timeout_still_enforced(self):
        request = EngineRequest(request_id=1, prompt_ids=[1],
                                config=GenerationConfig(max_new_tokens=4),
                                processors=(), submitted_at=0.0)
        with pytest.raises(TimeoutError):
            request.result(timeout=0.05)
