"""Serving engine: batching, streaming, retirement, backpressure, cache.

The load-bearing assertion throughout: whatever shares the batch,
every request's output is bit-identical to the sequential
``models.generate`` path (see ``docs/SERVING.md`` for why that holds).
"""

import contextlib
import inspect
import pathlib
import re
import threading

import numpy as np
import pytest

from repro.models import (GenerationConfig, NGramDraft, distilgpt2,
                          generate, prefill_prompt)
from repro.models.base import LanguageModel
from repro.models.gpt_neo import gpt_neo_small
from repro.models.lstm import LSTMConfig, LSTMLanguageModel
from repro.obs import (ManualClock, MetricsRegistry, NullRegistry,
                       NullTracer, Tracer)
from repro.serving import (DeadlineExceededError, EngineConfig,
                           EngineQueueFullError, EngineStoppedError,
                           InferenceEngine)

VOCAB = 32


@pytest.fixture(scope="module")
def model():
    return distilgpt2(vocab_size=VOCAB, context_length=128)


def _prompt(seed, length):
    rng = np.random.default_rng(seed)
    return [int(t) for t in rng.integers(0, VOCAB, size=length)]


def _sequential(model, prompt, config, draft=None):
    return generate(model, prompt, config, draft=draft,
                    registry=NullRegistry(), tracer=NullTracer())


def _assert_one_call_per_step(registry):
    forwards = registry.counter("engine_decode_forwards_total").value
    assert 0 < forwards <= registry.counter("engine_steps_total").value


class _StepGate:
    """Holds the engine thread inside a decode call while the test
    queues requests, so they reach the engine in one admission wave."""

    def __init__(self, model):
        self._hold, self._entered, self._release = (
            threading.Event(), threading.Event(), threading.Event())
        real = model.next_logits

        def next_logits(ids, state):
            if self._hold.is_set():
                self._hold.clear()
                self._entered.set()
                self._release.wait(timeout=30)
            return real(ids, state)

        model.next_logits = next_logits

    @contextlib.contextmanager
    def holding(self):
        self._entered.clear()
        self._release.clear()
        self._hold.set()
        assert self._entered.wait(timeout=30)
        try:
            yield
        finally:
            self._release.set()


class TestBatchedEqualsSequential:
    def test_concurrent_mixed_requests(self, model):
        requests = [
            (_prompt(i, 3 + 11 * i), GenerationConfig(
                max_new_tokens=8 + 4 * (i % 3),
                strategy="greedy" if i % 2 else "sample",
                temperature=0.8, top_k=8, top_p=0.9,
                seed=i, stop_token_id=2))
            for i in range(6)
        ]
        expected = [_sequential(model, p, c) for p, c in requests]
        with InferenceEngine(model, EngineConfig(max_batch_size=4)) as engine:
            handles = [engine.submit(p, c) for p, c in requests]
            actual = [h.result(timeout=60) for h in handles]
        assert actual == expected

    def test_sync_facade(self, model):
        prompt = _prompt(7, 10)
        config = GenerationConfig(max_new_tokens=10, seed=3)
        expected = _sequential(model, prompt, config)
        with InferenceEngine(model) as engine:
            assert engine.generate(prompt, config) == expected

    def test_unstackable_model_still_batches_scheduling(self):
        lstm = _GatedModel()
        prompts = [[1 + i, 2, 3] for i in range(3)]
        config = GenerationConfig(max_new_tokens=6, seed=0)
        lstm.gate.set()
        expected = [_sequential(lstm, p, config) for p in prompts]
        lstm.gate.clear()
        registry = MetricsRegistry()
        with InferenceEngine(lstm, registry=registry) as engine:
            # Gate the first prefill so all three requests are queued
            # before the first decode step runs.
            handles = [engine.submit(p, config) for p in prompts]
            assert lstm.entered.wait(timeout=10)
            lstm.gate.set()
            assert [h.result(timeout=60) for h in handles] == expected
        # All three ran in the same decode steps (continuous batching),
        # even though LSTM states cannot be stacked.
        occupancy = registry.histogram("engine_batch_occupancy").labels()
        assert occupancy.percentile(50) == 3

    def test_batched_prefill_equals_single(self, model):
        # Equal-length prompts admitted in one wave each prefill as
        # their own (1, T) chunks and then decode in one shared call;
        # outputs must match the one-at-a-time sequential path bit for
        # bit.
        requests = [(_prompt(100 + i, 50),
                     GenerationConfig(max_new_tokens=6, seed=i))
                    for i in range(5)]
        expected = [_sequential(model, p, c) for p, c in requests]
        registry = MetricsRegistry()
        with InferenceEngine(model, registry=registry) as engine:
            handles = [engine.submit(p, c) for p, c in requests]
            assert [h.result(timeout=60) for h in handles] == expected

    def test_prefill_error_in_a_wave_fails_only_its_request(self):
        # Regression: an equal-length cold wave used to prefill through
        # one stacked call that caught only NotImplementedError and
        # ValueError, so any other error there escaped admission and
        # crashed the engine — failing every in-flight request and
        # purging the cache.  A prefill error now fails its own request.
        model = distilgpt2(vocab_size=VOCAB, context_length=128)
        model.eval()
        config = GenerationConfig(max_new_tokens=30, seed=0)
        decoding, clean = _prompt(700, 9), _prompt(701, 12)
        expected = [_sequential(model, p, config) for p in (decoding, clean)]
        seen = set(decoding) | set(clean) | {t for e in expected for t in e}
        poison = min(set(range(VOCAB)) - seen)
        poisoned = [poison] + clean[1:]
        real_trunk = model._trunk

        def trunk(ids, *args, **kwargs):
            if poison in np.asarray(ids):
                raise RuntimeError("poisoned prefill")
            return real_trunk(ids, *args, **kwargs)

        model._trunk = trunk
        gate = _StepGate(model)
        with InferenceEngine(model, registry=MetricsRegistry()) as engine:
            first = engine.submit(decoding, config)
            next(first.tokens(timeout=30))
            with gate.holding():  # both arrive in one admission wave
                bad = engine.submit(poisoned, config)
                good = engine.submit(clean, config)
            with pytest.raises(RuntimeError, match="poisoned") as excinfo:
                bad.result(timeout=60)
            assert type(excinfo.value) is RuntimeError  # not a crash
            assert [first.result(timeout=60),
                    good.result(timeout=60)] == expected
            assert engine.crashed is None

    @pytest.mark.parametrize("kernels", [False, True],
                             ids=["tensor", "kernels"])
    def test_ragged_batch_is_one_forward_per_step(self, kernels):
        # Unequal prompts, unequal budgets, rows sliding past a 48-token
        # window at different steps: every step's plain survivors still
        # share ONE forward, and every row keeps its sequential bits.
        model = distilgpt2(vocab_size=VOCAB, context_length=48)
        model.eval()
        if kernels:
            model.enable_kernels()
        rng = np.random.default_rng(21)
        requests = [
            (_prompt(300 + i, int(rng.integers(1, 45))), GenerationConfig(
                max_new_tokens=int(rng.integers(5, 91)),
                strategy="sample" if i % 2 else "greedy",
                temperature=0.9, top_k=12, seed=i))
            for i in range(24)
        ]
        expected = [_sequential(model, p, c) for p, c in requests]
        registry = MetricsRegistry()
        with InferenceEngine(model, EngineConfig(max_batch_size=8),
                             registry=registry) as engine:
            handles = [engine.submit(p, c) for p, c in requests]
            actual = [h.result(timeout=120) for h in handles]
        assert actual == expected
        per_forward = registry.gauge("engine_tokens_per_forward").labels()
        assert per_forward.value >= 4

    @pytest.mark.parametrize("kernels", [False, True],
                             ids=["tensor", "kernels"])
    def test_mixed_batch_survivors_keep_their_bits(self, kernels):
        # Plain rows of unequal length and speculative rows of unequal
        # chunk length share one ragged forward per step, one row
        # retires on its stop token and one on an expired deadline: the
        # row set of the call changes under every survivor, their bits
        # do not, and no step makes a second model call.
        model = distilgpt2(vocab_size=VOCAB, context_length=128)
        model.eval()
        if kernels:
            model.enable_kernels()
        greedy = GenerationConfig(max_new_tokens=30, strategy="greedy",
                                  seed=0)
        draft = NGramDraft.fit(
            [_prompt(50 + i, 8) + _sequential(model, _prompt(50 + i, 8),
                                              greedy) for i in range(4)],
            VOCAB, order=3)
        stopper = _prompt(400, 17)
        stop_token = _sequential(model, stopper, greedy)[4]
        requests = [
            (_prompt(401, 3), GenerationConfig(
                max_new_tokens=26, strategy="sample", top_k=8, seed=1)),
            (stopper, GenerationConfig(
                max_new_tokens=30, strategy="greedy", seed=0,
                stop_token_id=stop_token)),
            (_prompt(402, 40), GenerationConfig(
                max_new_tokens=22, strategy="greedy", seed=2)),
            (_prompt(403, 9), GenerationConfig(
                max_new_tokens=24, strategy="greedy", seed=3,
                speculative_k=3)),
            (_prompt(404, 21), GenerationConfig(
                max_new_tokens=20, strategy="sample", top_k=8, seed=4,
                speculative_k=4)),
        ]
        expected = [_sequential(model, p, c,
                                draft=draft if c.speculative_k else None)
                    for p, c in requests]
        assert len(expected[1]) <= 5  # retires on its stop token
        doomed_prompt = _prompt(405, 12)
        doomed_config = GenerationConfig(max_new_tokens=200, seed=5)
        full_doomed = _sequential(model, doomed_prompt, doomed_config)
        registry = MetricsRegistry(clock=ManualClock())
        with InferenceEngine(model, EngineConfig(max_batch_size=8),
                             registry=registry, draft=draft) as engine:
            handles = [engine.submit(p, c) for p, c in requests]
            doomed = engine.submit(doomed_prompt, doomed_config,
                                   deadline_ms=1000.0)
            next(doomed.tokens(timeout=30))
            registry.clock.advance(2.0)
            with pytest.raises(DeadlineExceededError) as excinfo:
                doomed.result(timeout=30)
            partial = excinfo.value.tokens
            assert partial == full_doomed[:len(partial)]
            assert [h.result(timeout=60) for h in handles] == expected
        _assert_one_call_per_step(registry)

    @pytest.mark.parametrize("kernels", [False, True],
                             ids=["tensor", "kernels"])
    def test_speculative_overflow_demotes_into_the_shared_call(self,
                                                               kernels):
        # A speculative row crosses a 32-token window while plain rows
        # of unequal length share its steps: its chunk stops fitting,
        # it is demoted to a plain sliding row before the step's call
        # and rides that same call from then on — still equal to the
        # standalone speculative loop, which falls back at the same
        # token.
        model = distilgpt2(vocab_size=VOCAB, context_length=32)
        model.eval()
        if kernels:
            model.enable_kernels()
        draft = NGramDraft.fit(
            [_prompt(60 + i, 8) + _sequential(model, _prompt(60 + i, 8),
                                              GenerationConfig(
                                                  max_new_tokens=30))
             for i in range(4)], VOCAB, order=3)
        requests = [
            (_prompt(601, 10), GenerationConfig(
                max_new_tokens=40, strategy="sample", top_k=8, seed=1,
                speculative_k=4)),
            (_prompt(602, 3), GenerationConfig(
                max_new_tokens=36, strategy="sample", top_k=8, seed=2)),
            (_prompt(603, 17), GenerationConfig(
                max_new_tokens=30, strategy="greedy", seed=3)),
        ]
        expected = [_sequential(model, p, c,
                                draft=draft if c.speculative_k else None)
                    for p, c in requests]
        registry = MetricsRegistry()
        with InferenceEngine(model, EngineConfig(max_batch_size=4),
                             registry=registry, draft=draft) as engine:
            handles = [engine.submit(p, c) for p, c in requests]
            assert [h.result(timeout=60) for h in handles] == expected
        # Speculated, then demoted: its last tokens came from plain steps
        # (its first always does, from the prompt's logits).
        walked = registry.counter("spec_emitted_tokens_total").labels(
            path="engine").value
        assert 0 < walked < len(expected[0]) - 1
        _assert_one_call_per_step(registry)

    def test_beam_rejected_by_submit_but_served_by_generate(self, model):
        prompt = _prompt(1, 6)
        config = GenerationConfig(strategy="beam", beam_size=2,
                                  max_new_tokens=6)
        expected = _sequential(model, prompt, config)
        with InferenceEngine(model, registry=NullRegistry(),
                             tracer=NullTracer()) as engine:
            with pytest.raises(ValueError, match="beam"):
                engine.submit(prompt, config)
            assert engine.generate(prompt, config) == expected


class TestStreaming:
    def test_tokens_stream_matches_result(self, model):
        prompt = _prompt(5, 8)
        config = GenerationConfig(max_new_tokens=12, seed=9)
        with InferenceEngine(model) as engine:
            handle = engine.submit(prompt, config)
            streamed = list(handle.tokens(timeout=30))
            assert streamed == handle.result(timeout=1)
        assert streamed == _sequential(model, prompt, config)

    def test_stop_token_retires_mid_flight(self, model):
        # One request stops early; the other keeps decoding to its
        # budget — retirement must not disturb the survivor.
        configs = [GenerationConfig(max_new_tokens=20, strategy="greedy",
                                    stop_token_id=None, seed=0),
                   GenerationConfig(max_new_tokens=20, strategy="sample",
                                    stop_token_id=1, temperature=1.5, seed=4)]
        prompts = [_prompt(11, 4), _prompt(12, 4)]
        expected = [_sequential(model, p, c)
                    for p, c in zip(prompts, configs)]
        with InferenceEngine(model) as engine:
            handles = [engine.submit(p, c)
                       for p, c in zip(prompts, configs)]
            assert [h.result(timeout=60) for h in handles] == expected


class TestPrefixCache:
    def test_warm_cache_is_bit_identical(self, model):
        shared = _prompt(42, 40)
        config = GenerationConfig(max_new_tokens=8, seed=5)
        suffixed = shared + _prompt(43, 7)
        cold = _sequential(model, suffixed, config)
        with InferenceEngine(model) as engine:
            engine.generate(shared, config)      # seeds the cache
            warm = engine.generate(suffixed, config)
            assert warm == cold
            stats = engine.prefix_cache.stats
            assert stats.hits >= 1
            assert stats.hit_tokens >= 32  # reused a chunk-aligned prefix

    def test_one_entry_resumed_twice_in_one_wave(self):
        # Two requests for one cached prompt resume from one stored
        # entry.  Each must decode from a state object of its own: the
        # step's list-form call reads a run of one object as one
        # multi-token row.
        model = distilgpt2(vocab_size=VOCAB, context_length=128)
        model.eval()
        prompt = _prompt(710, 20)
        configs = [GenerationConfig(max_new_tokens=12, strategy="sample",
                                    top_k=8, seed=seed) for seed in (1, 2)]
        expected = [_sequential(model, prompt, c) for c in configs]
        gate = _StepGate(model)
        with InferenceEngine(model, registry=MetricsRegistry()) as engine:
            engine.generate(prompt, GenerationConfig(max_new_tokens=1))
            first = engine.submit(_prompt(711, 5),
                                  GenerationConfig(max_new_tokens=40))
            next(first.tokens(timeout=30))
            with gate.holding():
                handles = [engine.submit(prompt, c) for c in configs]
            assert [h.result(timeout=60) for h in handles] == expected
            assert engine.prefix_cache.stats.hits == 2

    def test_cache_disabled_by_zero_budget(self, model):
        prompt = _prompt(3, 40)
        config = GenerationConfig(max_new_tokens=4, seed=0)
        with InferenceEngine(model, EngineConfig(prefix_cache_bytes=0)) \
                as engine:
            first = engine.generate(prompt, config)
            second = engine.generate(prompt, config)
            assert first == second == _sequential(model, prompt, config)
            assert engine.prefix_cache.stats.hits == 0
            assert engine.prefix_cache.stats.bytes == 0

    def test_engine_serves_on_a_registry_where_another_evicted(self, model):
        # Regression: engines used to *scrape* evictions into the shared
        # counter as ``inc(cache.evictions - counter.value)``, so an
        # engine built after one that had evicted died on its first
        # admission with "counters only go up".  The cache now counts
        # an eviction where it happens.
        registry = MetricsRegistry()
        config = GenerationConfig(max_new_tokens=2, seed=0)
        prompts = [_prompt(300 + i, 8) for i in range(4)]
        with InferenceEngine(model, registry=registry) as probe:
            probe.generate(prompts[0], config)
            entry_bytes = probe.prefix_cache.stats.bytes
        small = EngineConfig(prefix_cache_bytes=int(1.5 * entry_bytes))
        with InferenceEngine(model, small, registry=registry) as first:
            for prompt in prompts:
                first.generate(prompt, config)
            evicted = first.prefix_cache.stats.evictions
        assert evicted >= 3
        counter = registry.counter("engine_prefix_cache_evictions_total")
        assert counter.value == evicted
        with InferenceEngine(model, small, registry=registry) as second:
            assert second.generate(prompts[0], config) == \
                _sequential(model, prompts[0], config)
            assert second.crashed is None
            second.generate(prompts[1], config)
            assert counter.value == (evicted
                                     + second.prefix_cache.stats.evictions)

    def test_stored_snapshots_own_their_memory(self, model):
        # Regression: snapshots from batched prefill used to be row
        # views into the stacked (batch, heads, capacity, head_dim)
        # buffer, pinning the whole batch alive while the byte budget
        # accounted one row.  Every stored array must own exactly the
        # bytes the cache charged for it.
        from repro.serving.engine import _state_nbytes
        requests = [(_prompt(200 + i, 40),
                     GenerationConfig(max_new_tokens=2, seed=i))
                    for i in range(4)]
        with InferenceEngine(model) as engine:
            handles = [engine.submit(p, c) for p, c in requests]
            for handle in handles:
                handle.result(timeout=60)
            entries = list(engine.prefix_cache._entries.values())
        assert entries
        for entry in entries:
            logits, state = entry.value
            assert _state_nbytes(entry.value) == entry.nbytes
            assert logits.base is None
            for cache in state.caches:
                assert cache.k.base is None          # owns its buffer
                assert cache.k.shape[0] == 1         # one row, not a batch
                assert cache.k.shape[2] == cache.length  # no headroom


def _assert_entry_is_cold_prefill(model, key, value):
    """A stored entry holds exactly the KV and logits of a cold prefill.

    Compares arrays, not greedy tokens: an untrained model's greedy
    decode is often one constant token, so wrong KV can still decode
    "correctly".
    """
    want_logits, want_state = prefill_prompt(model, list(key))
    logits, state = value
    np.testing.assert_array_equal(logits, want_logits)
    assert state.position == want_state.position
    for got, want in zip(state.caches, want_state.caches):
        np.testing.assert_array_equal(got.keys, want.keys)
        np.testing.assert_array_equal(got.values, want.values)


class TestOneEntryPerPrompt:
    """A prompt leaves one entry; its chunk-boundary prefixes are cut
    from it (``docs/SERVING.md`` §4)."""

    def test_long_prompt_leaves_one_entry_of_its_own_bytes(self):
        model = distilgpt2(vocab_size=VOCAB, context_length=256)
        prompt = _prompt(500, 200)
        with InferenceEngine(model) as engine:
            engine.generate(prompt, GenerationConfig(max_new_tokens=1))
            entries = engine.prefix_cache.entries_snapshot()
        # One per prompt, not one per 32-token boundary (that was 7).
        assert [key for key, _, _ in entries] == [tuple(prompt)]
        (key, (logits, state), nbytes), = entries
        _assert_entry_is_cold_prefill(model, key, (logits, state))
        kv_bytes = sum(c.keys.nbytes + c.values.nbytes for c in state.caches)
        assert nbytes == kv_bytes + logits.nbytes
        assert kv_bytes == 200 * 2 * 2 * 128 * 4  # tokens·layers·(k,v)·d·f32

    @pytest.mark.parametrize("kernels", [False, True],
                             ids=["tensor", "kernels"])
    def test_chunk_multiple_prefix_of_a_stored_prompt(self, kernels):
        # A 192-token query inside a stored 204-token prompt: the only
        # entry on its path is longer, so it is cut at the deepest chunk
        # multiple *below* the query (160) and the last chunk re-runs —
        # a cut holds no logits for position 192.
        model = distilgpt2(vocab_size=VOCAB, context_length=256)
        model.eval()
        if kernels:
            model.enable_kernels()
        stored, config = _prompt(501, 204), GenerationConfig(
            max_new_tokens=6, seed=1)
        query = stored[:192]
        expected = _sequential(model, query, config)
        with InferenceEngine(model) as engine:
            engine.generate(stored, config)
            assert engine.generate(query, config) == expected
            stats = engine.prefix_cache.stats
            assert (stats.hits, stats.hit_tokens) == (1, 160)
            entries = {key: value for key, value, _
                       in engine.prefix_cache.entries_snapshot()}
        assert set(entries) == {tuple(stored), tuple(query)}
        for key, value in entries.items():
            _assert_entry_is_cold_prefill(model, key, value)

    def test_slid_entries_are_never_cut(self):
        # A 100-token prompt on a 64-token context slides: its final
        # state's row 0 is no longer token 0, so nothing may be cut
        # from it.  It keeps its boundary entries instead (32, 64, 96)
        # and the budget here keeps only the two slid ones.
        model = distilgpt2(vocab_size=VOCAB, context_length=64)
        prompt = _prompt(502, 100)
        config = GenerationConfig(max_new_tokens=3, seed=0)
        with InferenceEngine(model) as probe:
            probe.generate(prompt, config)
            sizes = {len(key): nbytes for key, _, nbytes
                     in probe.prefix_cache.entries_snapshot()}
        assert sorted(sizes) == [32, 64, 96, 100]
        budget = sizes[96] + sizes[100]
        query = prompt[:40] + [(t + 1) % VOCAB for t in prompt[40:50]]
        with InferenceEngine(model, EngineConfig(
                prefix_cache_bytes=budget)) as engine:
            engine.generate(prompt, config)
            assert [len(key) for key, _, _
                    in engine.prefix_cache.entries_snapshot()] == [96, 100]
            assert engine.generate(query, config) == _sequential(
                model, query, config)
            stats = engine.prefix_cache.stats
            assert (stats.hits, stats.hit_tokens) == (0, 0)
            entries = {key: value for key, value, _
                       in engine.prefix_cache.entries_snapshot()}
        _assert_entry_is_cold_prefill(model, tuple(query),
                                      entries[tuple(query)])

    @pytest.mark.parametrize("family", ["lstm", "gpt_neo"])
    def test_models_that_cannot_cut_keep_boundary_entries(self, family):
        if family == "lstm":
            model = LSTMLanguageModel(LSTMConfig(
                vocab_size=VOCAB, d_embed=8, d_hidden=16, num_layers=1,
                dropout=0.0))
        else:
            model = gpt_neo_small(vocab_size=VOCAB, context_length=128)
        assert model.prefix_state(model.start_state(1), 0) is None
        prompt = _prompt(503, 70)
        query = prompt[:66] + [(t + 1) % VOCAB for t in prompt[66:70]]
        config = GenerationConfig(max_new_tokens=4, seed=2)
        with InferenceEngine(model) as engine:
            engine.generate(prompt, config)
            assert [len(key) for key, _, _
                    in engine.prefix_cache.entries_snapshot()] == [32, 64, 70]
            assert engine.generate(query, config) == _sequential(
                model, query, config)
            assert engine.prefix_cache.stats.hit_tokens == 64


class _GatedModel(LSTMLanguageModel):
    """LSTM whose first forward blocks until the test opens the gate."""

    def __init__(self):
        super().__init__(LSTMConfig(vocab_size=16, d_embed=4, d_hidden=8,
                                    num_layers=1, dropout=0.0))
        self.gate = threading.Event()
        self.entered = threading.Event()

    def next_logits(self, ids, state):
        self.entered.set()
        self.gate.wait(timeout=10)
        return super().next_logits(ids, state)


class TestBackpressureAndShutdown:
    def test_queue_full_raises(self):
        gated = _GatedModel()
        engine = InferenceEngine(gated, EngineConfig(max_batch_size=1,
                                                     max_queue=1))
        try:
            config = GenerationConfig(max_new_tokens=2, seed=0)
            first = engine.submit([1, 2], config)   # blocks in prefill
            assert gated.entered.wait(timeout=10)
            second = engine.submit([1, 2], config)  # sits in the queue
            with pytest.raises(EngineQueueFullError):
                engine.submit([1, 2], config)
            gated.gate.set()
            assert first.result(timeout=30) == second.result(timeout=30)
        finally:
            gated.gate.set()
            engine.stop()

    def test_stop_fails_pending_requests(self):
        gated = _GatedModel()
        engine = InferenceEngine(gated, EngineConfig(max_batch_size=1,
                                                     max_queue=4))
        config = GenerationConfig(max_new_tokens=2, seed=0)
        stuck = engine.submit([1, 2], config)
        assert gated.entered.wait(timeout=10)
        queued = engine.submit([3, 4], config)
        gate_release = threading.Timer(0.2, gated.gate.set)
        gate_release.start()
        engine.stop(timeout=30)
        gate_release.cancel()
        gated.gate.set()
        with pytest.raises(EngineStoppedError):
            queued.result(timeout=5)
        with pytest.raises(EngineStoppedError):
            engine.submit([1], config)
        # The in-flight request either finished or was failed — but it
        # is definitely resolved, never left hanging.
        try:
            stuck.result(timeout=5)
        except EngineStoppedError:
            pass

    def test_context_manager_stops_thread(self, model):
        with InferenceEngine(model) as engine:
            assert engine.running
        assert not engine.running

    def test_submit_racing_stop_drain_cannot_hang(self, model):
        # Regression: if stop()'s drain ran between submit's stop check
        # and its queue put, the request was never finished and a
        # result() caller with no timeout blocked forever.  Force that
        # exact interleaving and require submit to fail the request.
        engine = InferenceEngine(model)
        real_put = engine._queue.put_nowait

        def put_after_drain(item):
            engine._queue.put_nowait = real_put  # one-shot hook
            engine.stop()                        # drain sees an empty queue
            real_put(item)                       # request lands post-drain

        engine._queue.put_nowait = put_after_drain
        with pytest.raises(EngineStoppedError):
            engine.submit([1, 2], GenerationConfig(max_new_tokens=2))


class TestCancellation:
    def test_cancel_mid_flight_returns_partial(self, model):
        config = GenerationConfig(max_new_tokens=300, seed=0)
        registry = MetricsRegistry()
        with InferenceEngine(model, registry=registry) as engine:
            handle = engine.submit(_prompt(1, 4), config)
            first = next(handle.tokens(timeout=30))
            handle.cancel()
            tokens = handle.result(timeout=30)
            assert tokens[0] == first
            assert len(tokens) < 300
            # The batch slot is free again: new requests still serve.
            out = engine.generate(_prompt(2, 4),
                                  GenerationConfig(max_new_tokens=3, seed=1))
            assert len(out) == 3
        cancelled = registry.counter("engine_requests_total").labels(
            outcome="cancelled", strategy="plain")
        assert cancelled.value == 1

    def test_cancelled_queued_request_never_decodes(self):
        gated = _GatedModel()
        engine = InferenceEngine(gated, EngineConfig(max_batch_size=1))
        try:
            config = GenerationConfig(max_new_tokens=4, seed=0)
            first = engine.submit([1, 2], config)   # blocks in prefill
            assert gated.entered.wait(timeout=10)
            queued = engine.submit([3, 4], config)
            queued.cancel()
            gated.gate.set()
            assert len(first.result(timeout=30)) == 4
            assert queued.result(timeout=30) == []
        finally:
            gated.gate.set()
            engine.stop()

    def test_cancel_after_done_is_noop(self, model):
        config = GenerationConfig(max_new_tokens=3, seed=2)
        with InferenceEngine(model) as engine:
            handle = engine.submit(_prompt(9, 4), config)
            result = handle.result(timeout=60)
            handle.cancel()
            assert handle.result(timeout=1) == result


class TestValidation:
    def test_invalid_config_rejected_at_submit(self, model):
        with InferenceEngine(model) as engine:
            with pytest.raises(ValueError):
                engine.submit([1], GenerationConfig(temperature=-1.0))
            with pytest.raises(ValueError):
                engine.submit([], GenerationConfig())

    def test_out_of_range_token_id_rejected_at_submit(self, model):
        # Regression: an out-of-vocabulary id used to reach prefill.  In
        # a stacked wave its IndexError escaped the engine thread, which
        # crashed, failed the neighbour and emptied the prefix cache.
        config = GenerationConfig(max_new_tokens=4, seed=0)
        neighbour = [3, 4, 5]
        with InferenceEngine(model) as engine:
            handle = engine.submit(neighbour, config)
            for bad in ([1, 2, 99], [-1, 2, 3]):
                with pytest.raises(ValueError, match="token ids"):
                    engine.submit(bad, config)
            assert handle.result(timeout=60) == _sequential(model, neighbour,
                                                            config)
            assert engine.crashed is None

    def test_engine_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_batch_size=0).validate()
        with pytest.raises(ValueError):
            EngineConfig(prefill_chunk=0).validate()
        with pytest.raises(ValueError):
            EngineConfig(max_queue=0).validate()

    def test_stats_shape(self, model):
        with InferenceEngine(model) as engine:
            engine.generate([1, 2, 3], GenerationConfig(max_new_tokens=2))
            stats = engine.stats()
        assert stats["max_batch_size"] == EngineConfig().max_batch_size
        assert set(stats["prefix_cache"]) >= {"hits", "misses", "bytes",
                                              "hit_rate"}


class TestObservability:
    def test_metrics_and_spans_recorded(self, model):
        registry, tracer = MetricsRegistry(), Tracer()
        with InferenceEngine(model, registry=registry,
                             tracer=tracer) as engine:
            handles = [engine.submit(_prompt(i, 6),
                                     GenerationConfig(max_new_tokens=5,
                                                      seed=i))
                       for i in range(3)]
            for handle in handles:
                handle.result(timeout=60)
        completed = registry.counter("engine_requests_total").labels(
            outcome="completed", strategy="plain")
        assert completed.value == 3
        assert registry.counter("engine_tokens_total").labels(
            strategy="plain").value == 15
        assert registry.histogram("engine_ttft_seconds").labels().count == 3
        assert "engine_prefix_cache_hits_total" in registry
        prefills = [span for root in tracer.roots()
                    for span in root.find("engine.prefill")]
        assert len(prefills) == 3


def test_stacked_row_plumbing_stays_deleted():
    # One decode call per step and one prefill chunk per prompt: the
    # stacked-state hooks that fed a second call path cannot creep back.
    # The base ``prefill_stacked`` default survives only because the
    # benchmark harness wraps the attribute by name.
    src = pathlib.Path(__file__).parents[1] / "src"
    default = inspect.getsource(LanguageModel.prefill_stacked)
    gone = re.compile(r"\b(stacking_key|stack_states|split_states|"
                      r"verify_batch|forward_verify|_?prefill_stacked)\b")
    offenders = [str(path.relative_to(src))
                 for path in sorted(src.rglob("*.py"))
                 if gone.search(path.read_text("utf-8").replace(default, ""))]
    assert offenders == []
