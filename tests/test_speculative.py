"""Speculative decoding: draft + batched verify, bit-identical greedy.

The load-bearing contracts:

* ``verify_chunk`` scores a proposed chunk in one call with *exactly*
  the logits the sequential ``next_logits`` walk produces, and every
  truncated state it returns resumes exactly like the sequential one;
* speculative greedy decoding — standalone or through the continuous-
  batching engine, alone or sharing a batch — emits the same tokens as
  plain ``models.generate``, bit for bit;
* the vectorized logits processors and the workspace-reusing sampling
  filters compute the same values as their straightforward reference
  implementations.
"""

import numpy as np
import pytest

from repro.models import (ChecklistBonus, GenerationConfig, NGramDraft,
                          RepetitionPenalty, distilgpt2, generate,
                          gpt2_medium)
from repro.models.generation import (_filter_top_k, _filter_top_p, _softmax,
                                     _workspace, prefill_prompt)
from repro.models.lstm import LSTMConfig, LSTMLanguageModel
from repro.models.ngram import NGramLanguageModel
from repro.obs import MetricsRegistry, NullRegistry, NullTracer, render_text
from repro.serving import EngineConfig, InferenceEngine
from repro.serving.engine import _state_nbytes
from repro.webapp.service import MAX_SPECULATIVE_K, _parse_generation_request

VOCAB = 32


@pytest.fixture(scope="module")
def model():
    gpt2 = distilgpt2(vocab_size=VOCAB, context_length=128)
    gpt2.eval()
    return gpt2


@pytest.fixture(scope="module")
def draft(model):
    # Fitted on the model's own greedy rollouts so proposals actually
    # get accepted; correctness must hold at any acceptance rate.
    rollouts = []
    for seed in range(6):
        prompt = _prompt(seed + 50, 8)
        out = _sequential(model, prompt, GenerationConfig(
            max_new_tokens=40, strategy="greedy", seed=0))
        rollouts.append(prompt + out)
    return NGramDraft.fit(rollouts, VOCAB, order=3)


def _prompt(seed, length):
    rng = np.random.default_rng(seed)
    return [int(t) for t in rng.integers(0, VOCAB, size=length)]


def _sequential(model, prompt, config, processors=()):
    config = GenerationConfig(**{**config.__dict__,
                                 "speculative_k": 0, "draft": None})
    return generate(model, prompt, config, processors=processors,
                    registry=NullRegistry(), tracer=NullTracer())


def _speculative(model, prompt, config, draft, processors=(),
                 registry=None):
    return generate(model, prompt, config, processors=processors,
                    draft=draft,
                    registry=registry or NullRegistry(),
                    tracer=NullTracer())


class TestVerifyChunk:
    @pytest.mark.parametrize("preset,kwargs", [
        (distilgpt2, {"vocab_size": VOCAB, "context_length": 128}),
        (gpt2_medium, {"vocab_size": 16, "context_length": 64}),
    ])
    def test_logits_match_sequential_walk(self, preset, kwargs):
        model = preset(**kwargs)
        model.eval()
        rng = np.random.default_rng(5)
        prompt = [int(t) for t in rng.integers(0, model.vocab_size, size=8)]
        chunk = [int(t) for t in rng.integers(0, model.vocab_size, size=5)]
        _, seq_state = prefill_prompt(model, prompt)
        seq_logits = []
        walk = seq_state
        for token in chunk:
            logits, walk = model.next_logits(np.asarray([token]), walk)
            seq_logits.append(logits[0])

        _, chunk_start = prefill_prompt(model, prompt)
        chunk_logits, states = model.verify_chunk(
            np.asarray([chunk]), chunk_start)
        assert chunk_logits.shape == (1, len(chunk), model.vocab_size)
        for step in range(len(chunk)):
            np.testing.assert_array_equal(chunk_logits[0, step],
                                          seq_logits[step])

    @pytest.mark.parametrize("accepted", [0, 2, 4])
    def test_truncated_states_resume_identically(self, model, accepted):
        # states[t] must continue exactly like a sequential decode that
        # consumed only chunk[:t+1] — the resume path after a partial
        # acceptance.
        prompt = _prompt(11, 9)
        chunk = _prompt(12, 5)
        _, state = prefill_prompt(model, prompt)
        _, states = model.verify_chunk(np.asarray([chunk]), state)

        _, seq_state = prefill_prompt(model, prompt)
        for token in chunk[:accepted + 1]:
            _, seq_state = model.next_logits(np.asarray([token]), seq_state)

        follow = _prompt(13, 4)
        resumed, spec_state = None, states[accepted]
        for token in follow:
            resumed, spec_state = model.next_logits(np.asarray([token]),
                                                    spec_state)
            expected, seq_state = model.next_logits(np.asarray([token]),
                                                    seq_state)
            np.testing.assert_array_equal(resumed, expected)

    def test_default_fallback_for_models_without_fast_path(self):
        # LanguageModel.verify_chunk's default walks next_logits, so
        # any model (here: LSTM) can sit behind a speculative decoder.
        lstm = LSTMLanguageModel(LSTMConfig(vocab_size=16, d_embed=4,
                                            d_hidden=8, num_layers=1,
                                            dropout=0.0))
        prompt = [1, 2, 3]
        chunk = [4, 5, 6]
        _, state = prefill_prompt(lstm, prompt)
        chunk_logits, states = lstm.verify_chunk(np.asarray([chunk]), state)

        _, walk = prefill_prompt(lstm, prompt)
        for step, token in enumerate(chunk):
            logits, walk = lstm.next_logits(np.asarray([token]), walk)
            np.testing.assert_array_equal(chunk_logits[0, step], logits[0])

    def test_context_overflow_raises(self, model):
        prompt = _prompt(1, 126)
        _, state = prefill_prompt(model, prompt)
        with pytest.raises(ValueError):
            model.verify_chunk(np.asarray([[1, 2, 3, 4]]), state)


class TestStandaloneSpeculative:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_greedy_bit_identical(self, model, draft, k):
        config = GenerationConfig(max_new_tokens=30, strategy="greedy",
                                  seed=0, speculative_k=k)
        for seed in range(3):
            prompt = _prompt(seed, 6)
            assert _speculative(model, prompt, config, draft) \
                == _sequential(model, prompt, config)

    def test_greedy_with_stop_token_and_penalty(self, model, draft):
        config = GenerationConfig(max_new_tokens=40, strategy="greedy",
                                  repetition_penalty=1.3, stop_token_id=2,
                                  seed=0, speculative_k=4)
        prompt = _prompt(21, 5)
        assert _speculative(model, prompt, config, draft) \
            == _sequential(model, prompt, config)

    def test_greedy_with_checklist_processor(self, model, draft):
        # Stateful processors see every emitted position exactly once,
        # in order, on both paths.
        config = GenerationConfig(max_new_tokens=25, strategy="greedy",
                                  seed=0, speculative_k=4)
        token_sets = [[3, 4], [7], [9, 10, 11]]
        spec = _speculative(model, _prompt(8, 6), config, draft,
                            processors=[ChecklistBonus(token_sets)])
        seq = _sequential(model, _prompt(8, 6), config,
                          processors=[ChecklistBonus(token_sets)])
        assert spec == seq

    def test_context_overflow_falls_back_to_sequential(self, draft):
        # Generation runs past the model's context window: speculation
        # turns itself off and the sliding-window path takes over,
        # still bit-identical.
        small = distilgpt2(vocab_size=VOCAB, context_length=32)
        config = GenerationConfig(max_new_tokens=40, strategy="greedy",
                                  seed=0, speculative_k=4)
        prompt = _prompt(4, 10)
        assert _speculative(small, prompt, config, draft) \
            == _sequential(small, prompt, config)

    def test_sampled_emits_valid_tokens_and_respects_budget(self, model,
                                                            draft):
        config = GenerationConfig(max_new_tokens=20, strategy="sample",
                                  temperature=0.9, top_k=8, seed=7,
                                  speculative_k=4)
        out = _speculative(model, _prompt(30, 6), config, draft)
        assert 0 < len(out) <= 20
        assert all(0 <= t < VOCAB for t in out)

    def test_metrics_recorded(self, model, draft):
        registry = MetricsRegistry()
        config = GenerationConfig(max_new_tokens=20, strategy="greedy",
                                  seed=0, speculative_k=4)
        _speculative(model, _prompt(2, 6), config, draft, registry=registry)
        acceptance = registry.histogram("spec_acceptance_rate").labels(
            path="generate")
        assert acceptance.count > 0
        per_forward = registry.gauge("spec_tokens_per_forward").labels(
            path="generate")
        assert per_forward.value >= 1.0
        text = render_text(registry)
        assert "spec_acceptance_rate" in text
        assert "spec_draft_tokens_total" in text


class TestEngineSpeculative:
    def test_mixed_batch_bit_identical(self, model, draft):
        # Speculative and plain requests, greedy and sampled, sharing
        # the same continuous batch: each comes out exactly as its
        # standalone counterpart; greedy also equals plain sequential.
        requests = []
        for index in range(6):
            config = GenerationConfig(
                max_new_tokens=15 + 5 * (index % 2),
                strategy="greedy" if index % 2 else "sample",
                temperature=0.8, top_k=8, seed=index,
                speculative_k=(0, 3, 5)[index % 3],
                stop_token_id=2 if index >= 4 else None)
            requests.append((_prompt(index, 4 + index), config))
        expected = [_speculative(model, p, c, draft)
                    if c.speculative_k else _sequential(model, p, c)
                    for p, c in requests]
        with InferenceEngine(model, EngineConfig(max_batch_size=4),
                             registry=MetricsRegistry(), tracer=NullTracer(),
                             draft=draft) as engine:
            handles = [engine.submit(p, c) for p, c in requests]
            actual = [h.result(timeout=120) for h in handles]
        assert actual == expected
        for (prompt, config), out in zip(requests, expected):
            if config.strategy == "greedy" and config.speculative_k:
                assert out == _sequential(model, prompt, config)

    def test_engine_metrics_exposed(self, model, draft):
        registry = MetricsRegistry()
        config = GenerationConfig(max_new_tokens=12, strategy="greedy",
                                  seed=0, speculative_k=4)
        with InferenceEngine(model, registry=registry, tracer=NullTracer(),
                             draft=draft) as engine:
            engine.generate(_prompt(1, 6), config)
        text = render_text(registry)
        assert 'spec_acceptance_rate_count{path="engine"}' in text
        assert "engine_tokens_per_forward" in text
        per_forward = registry.gauge("engine_tokens_per_forward").labels()
        assert per_forward.value >= 1.0

    def test_per_request_opt_out_on_speculative_engine(self, model, draft):
        # speculative_k=0 on an engine built with a draft must take the
        # plain path (and stay bit-identical to sequential).
        config = GenerationConfig(max_new_tokens=15, strategy="greedy",
                                  seed=0, speculative_k=0)
        prompt = _prompt(9, 7)
        registry = MetricsRegistry()
        with InferenceEngine(model, registry=registry, tracer=NullTracer(),
                             draft=draft) as engine:
            assert engine.generate(prompt, config) \
                == _sequential(model, prompt, config)
        acceptance = registry.histogram("spec_acceptance_rate").labels(
            path="engine")
        assert acceptance.count == 0


class TestStateNbytes:
    def test_shared_arrays_counted_once(self):
        array = np.zeros(1024, dtype=np.float64)
        assert _state_nbytes([array, array]) == array.nbytes
        assert _state_nbytes({"a": array, "b": [array, array]}) \
            == array.nbytes

    def test_distinct_arrays_summed(self):
        a = np.zeros(100, dtype=np.float64)
        b = np.zeros(50, dtype=np.float32)
        assert _state_nbytes([a, b]) == a.nbytes + b.nbytes

    def test_cyclic_state_terminates(self):
        array = np.ones(10)
        cyclic = [array]
        cyclic.append(cyclic)
        assert _state_nbytes(cyclic) == array.nbytes


def _reference_repetition(logits, generated, penalty):
    """The pre-vectorization implementation, kept as the oracle."""
    if penalty == 1.0 or not generated:
        return logits
    logits = logits.copy()
    seen = np.unique(np.asarray(generated, dtype=np.intp))
    values = logits[seen]
    logits[seen] = np.where(values > 0, values / penalty, values * penalty)
    return logits


def _reference_checklist(logits, generated, token_sets, bonus):
    """The pre-vectorization per-token-loop implementation."""
    logits = logits.copy()
    for token_ids in token_sets:
        if any(t in generated for t in token_ids):
            continue
        for token in token_ids:
            if 0 <= token < logits.shape[0]:
                logits[token] += bonus
    return logits


class TestProcessorEquivalence:
    def test_repetition_penalty_matches_reference(self):
        rng = np.random.default_rng(0)
        processor = RepetitionPenalty(1.4)
        generated = []
        for _ in range(40):  # one instance, monotonically growing history
            generated.append(int(rng.integers(0, 16)))
            logits = rng.normal(size=24)
            np.testing.assert_array_equal(
                processor(logits, generated),
                _reference_repetition(logits, generated, 1.4))

    def test_repetition_penalty_reset_on_shrunk_history(self):
        processor = RepetitionPenalty(2.0)
        logits = np.arange(8, dtype=np.float64) - 4
        processor(logits, [1, 2, 3])
        # A shorter history (a new request reusing the instance) must
        # not keep stale seen-tokens around.
        np.testing.assert_array_equal(
            processor(logits, [5]),
            _reference_repetition(logits, [5], 2.0))

    def test_checklist_bonus_matches_reference(self):
        rng = np.random.default_rng(1)
        token_sets = [[2, 3], [3, 7], [11], [40, 5], [-1, 9]]
        processor = ChecklistBonus(token_sets, bonus=1.5)
        generated = []
        for _ in range(30):
            logits = rng.normal(size=16)
            np.testing.assert_array_equal(
                processor(logits, generated),
                _reference_checklist(logits, generated, token_sets, 1.5))
            generated.append(int(rng.integers(0, 16)))
        assert processor.coverage == pytest.approx(
            sum(any(0 <= t < 16 and t in generated for t in ids)
                for ids in token_sets) / len(token_sets))


class TestWorkspaceFilters:
    def _logits_cases(self):
        rng = np.random.default_rng(2)
        yield rng.normal(size=50)
        yield np.zeros(20)  # all tied
        yield np.repeat(rng.normal(size=5), 8)  # duplicate-heavy

    def test_top_k_with_workspace_matches_allocating(self):
        for logits in self._logits_cases():
            for k in (1, 3, logits.shape[0] - 1):
                ws = _workspace(logits.shape[0])
                np.testing.assert_array_equal(
                    _filter_top_k(logits, k, ws=ws).copy(),
                    _filter_top_k(logits, k))

    def test_top_p_with_workspace_matches_allocating(self):
        for logits in self._logits_cases():
            for p in (0.1, 0.5, 0.95):
                ws = _workspace(logits.shape[0])
                np.testing.assert_array_equal(
                    _filter_top_p(logits, p, ws=ws).copy(),
                    _filter_top_p(logits, p))

    def test_softmax_with_out_matches_allocating(self):
        for logits in self._logits_cases():
            out = np.empty_like(logits)
            np.testing.assert_array_equal(_softmax(logits, out=out),
                                          _softmax(logits))


class TestRequestParsing:
    def test_speculative_k_default_and_override(self):
        payload = {"ingredients": ["garlic"]}
        _, config, _ = _parse_generation_request(payload,
                                                 default_speculative_k=4)
        assert config.speculative_k == 4
        payload["speculative_k"] = 0
        _, config, _ = _parse_generation_request(payload,
                                                 default_speculative_k=4)
        assert config.speculative_k == 0

    def test_speculative_k_over_cap_rejected(self):
        with pytest.raises(ValueError):
            _parse_generation_request(
                {"ingredients": ["garlic"],
                 "speculative_k": MAX_SPECULATIVE_K + 1})


class TestNGramDraft:
    def test_proposals_continue_fitted_sequences(self):
        draft = NGramDraft.fit([[1, 2, 3, 4, 5, 1, 2, 3, 4, 5]], 8, order=3)
        assert draft.propose([1, 2], 3) == [3, 4, 5]

    def test_propose_sampled_returns_distributions(self):
        draft = NGramDraft.fit([[1, 2, 3] * 5], 8, order=2)
        tokens, dists = draft.propose_sampled([1], 4,
                                              np.random.default_rng(0))
        assert len(tokens) == 4 and dists.shape == (4, 8)
        np.testing.assert_allclose(dists.sum(axis=1), 1.0)
        for step, token in enumerate(tokens):
            assert dists[step, token] > 0

    def test_next_distribution_public_api(self):
        model = NGramLanguageModel(12, order=3).fit([[1, 2, 3, 1, 2, 4]])
        dist = model.next_distribution([9, 9, 9, 1, 2])  # long context ok
        assert dist.shape == (12,)
        assert dist[3] > 0 and dist[4] > 0
