"""Hypothesis property tests for the serving engine's equality contract.

The engine promises: for ANY request mix — random prompts, seeds,
stop-token placements, token budgets, co-batched neighbors, prefix-
cache hits — each request's output is bit-identical to the sequential
``models.generate`` path.  These tests throw randomized batches at one
long-lived engine (so the prefix cache stays warm across examples,
which is the hard case) and compare against fresh sequential runs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models import (GenerationConfig, distilgpt2, generate,
                          prefill_prompt)
from repro.nn.attention import PREFILL_CHUNK
from repro.obs import NullRegistry, NullTracer
from repro.serving import EngineConfig, InferenceEngine

pytestmark = pytest.mark.property

VOCAB = 24
MODEL = distilgpt2(vocab_size=VOCAB, seed=0, context_length=96)
# Shared across all examples on purpose: accumulated prefix-cache
# state must never change outputs.
ENGINE = InferenceEngine(
    MODEL, EngineConfig(max_batch_size=4, prefix_cache_bytes=1 << 20),
    registry=NullRegistry(), tracer=NullTracer())

# A small token alphabet makes shared prefixes (cache hits) likely.
_token = st.integers(min_value=0, max_value=VOCAB - 1)
_prompt = st.lists(_token, min_size=1, max_size=40)
_config = st.builds(
    GenerationConfig,
    max_new_tokens=st.integers(min_value=1, max_value=12),
    strategy=st.sampled_from(["greedy", "sample"]),
    temperature=st.floats(min_value=0.5, max_value=1.5),
    top_k=st.integers(min_value=0, max_value=10),
    top_p=st.floats(min_value=0.5, max_value=1.0),
    repetition_penalty=st.sampled_from([1.0, 1.2]),
    # Tiny vocab + id 3 makes mid-flight stop-token retirement common.
    stop_token_id=st.sampled_from([None, 3]),
    seed=st.integers(min_value=0, max_value=2 ** 20),
)


def _sequential(prompt, config, model=MODEL):
    return generate(model, prompt, config,
                    registry=NullRegistry(), tracer=NullTracer())


class TestEngineEqualsSequential:
    @given(requests=st.lists(st.tuples(_prompt, _config),
                             min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_batched_output_is_bit_identical(self, requests):
        expected = [_sequential(p, c) for p, c in requests]
        handles = [ENGINE.submit(p, c) for p, c in requests]
        actual = [h.result(timeout=120) for h in handles]
        assert actual == expected

    @given(prompt=_prompt, config=_config)
    @settings(max_examples=15, deadline=None)
    def test_warm_cache_replay_is_deterministic(self, prompt, config):
        first = ENGINE.generate(prompt, config)
        second = ENGINE.generate(prompt, config)  # full-prompt cache hit
        assert first == second == _sequential(prompt, config)

    @given(shared=st.lists(_token, min_size=32, max_size=40),
           suffix_a=st.lists(_token, min_size=1, max_size=10),
           suffix_b=st.lists(_token, min_size=1, max_size=10),
           config=_config)
    @settings(max_examples=10, deadline=None)
    def test_shared_prefix_requests_match(self, shared, suffix_a,
                                          suffix_b, config):
        # Two prompts sharing a >= one-chunk prefix: the second rides
        # the first's cached chunks yet must decode identically to a
        # cold sequential run.
        for suffix in (suffix_a, suffix_b):
            prompt = shared + suffix
            assert ENGINE.generate(prompt, config) == _sequential(prompt,
                                                                  config)


# One entry per prompt: a lookup below every stored prompt is cut from
# a stored entry at a chunk boundary.  Prompts share stems of random
# length — whole chunks, and past the context window so states slide —
# under budgets that evict, with and without kernels.
CUT_CONTEXT = 80
CUT_MODELS = {kernels: distilgpt2(vocab_size=VOCAB, seed=1,
                                  context_length=CUT_CONTEXT)
              for kernels in (False, True)}
CUT_MODELS[True].eval()
CUT_MODELS[True].enable_kernels()
_stem_len = st.one_of(st.sampled_from([32, 64, 96]),
                      st.integers(min_value=1, max_value=CUT_CONTEXT + 24))
_wave = st.tuples(
    st.one_of(st.sampled_from([1.0, 0.5]),          # share of the stem kept
              st.floats(min_value=0.0, max_value=1.0)),
    st.integers(min_value=0, max_value=6),         # suffix length
    st.lists(st.integers(min_value=0, max_value=2 ** 20),
             min_size=1, max_size=3))              # one row per seed


class TestCutPrefixes:
    @given(stem=_stem_len.flatmap(
               lambda n: st.lists(_token, min_size=n, max_size=n)),
           waves=st.lists(_wave, min_size=2, max_size=3),
           budget=st.sampled_from([70_000, 150_000, 400_000, 1 << 22]),
           kernels=st.booleans(),
           strategy=st.sampled_from(["greedy", "sample"]))
    @settings(max_examples=25, deadline=None)
    # A 96-token prompt slides past the 80-token window; a 50-token one
    # through its first 48 tokens must not be cut from it.
    @example(stem=list(range(VOCAB)) * 4, waves=[(1.0, 0, [0]), (0.5, 2, [1])],
             budget=1 << 22, kernels=False, strategy="greedy")
    # 70-token rows cut at 64 from a 68-token prompt, then stacked.
    @example(stem=list(range(VOCAB)) * 3, waves=[(0.9, 3, [5]),
                                                 (0.9, 5, [0, 1, 2])],
             budget=1 << 22, kernels=True, strategy="sample")
    def test_cut_hits_are_exact_and_chunk_aligned(self, stem, waves, budget,
                                                  kernels, strategy):
        model = CUT_MODELS[kernels]
        requests = []
        for wave, (share, suffix_len, seeds) in enumerate(waves):
            kept = stem[:round(share * len(stem))]
            rows = [(kept + [(seed + i) % VOCAB for i in range(suffix_len)]
                     or [wave], GenerationConfig(
                         max_new_tokens=3, strategy=strategy, seed=seed))
                    for seed in seeds]
            requests.append(rows)
        expected = [[_sequential(p, c, model) for p, c in rows]
                    for rows in requests]

        engine = InferenceEngine(
            model, EngineConfig(max_batch_size=4, prefix_cache_bytes=budget),
            registry=NullRegistry(), tracer=NullTracer())
        cache, cuts, hits = engine.prefix_cache, [], []

        def cut(value, depth):
            # Runs inside lookup, under the cache lock: the source must
            # be a stored entry at this moment.
            stored = any(entry.value is value
                         for entry in cache._entries.values())
            derived = type(engine)._cut(engine, value, depth)
            cuts.append((stored, derived))
            return derived

        def lookup(tokens, cut=None):
            depth, value = type(cache).lookup(cache, tokens, cut=cut)
            hits.append((len(tokens), depth, value))
            return depth, value

        engine._cut, cache.lookup = cut, lookup
        try:
            for rows, want in zip(requests, expected):
                # Rows of a wave are equal-length.  The engine stalls
                # on the held lock at its first lookup, so the rows
                # queued behind the first share one stacked prefill.
                with cache._lock:
                    handles = [engine.submit(p, c) for p, c in rows]
                assert [h.result(timeout=120) for h in handles] == want
            entries = cache.entries_snapshot()
        finally:
            engine.stop()
        # Tokens alone can hide wrong KV (an untrained model often
        # decodes one constant token): every entry — including those
        # prefilled from a cut — must hold a cold prefill's arrays.
        for key, (logits, state), _ in entries:
            want_logits, want_state = prefill_prompt(model, list(key))
            np.testing.assert_array_equal(logits, want_logits)
            for got, want in zip(state.caches, want_state.caches):
                np.testing.assert_array_equal(got.keys, want.keys)
                np.testing.assert_array_equal(got.values, want.values)
        assert all(stored for stored, _ in cuts)
        made = [id(derived) for _, derived in cuts if derived is not None]
        for query_len, depth, value in hits:
            if value is not None and value[0] is None:   # a cut hit
                assert depth % PREFILL_CHUNK == 0
                assert 0 < depth < query_len
                assert id(value) in made
