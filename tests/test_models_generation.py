"""Unit tests for decoding strategies (repro.models.generation)."""

import numpy as np
import pytest

from repro.models import (ChecklistBonus, GenerationConfig,
                          RepetitionPenalty, generate)
from repro.models.generation import (_filter_top_k, _filter_top_p, _softmax)
from repro.models.lstm import LSTMConfig, LSTMLanguageModel

VOCAB = 20


@pytest.fixture(scope="module")
def model():
    return LSTMLanguageModel(LSTMConfig(vocab_size=VOCAB, d_embed=8,
                                        d_hidden=16, num_layers=1,
                                        dropout=0.0))


class TestConfigValidation:
    def test_defaults_valid(self):
        GenerationConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"strategy": "quantum"},
        {"max_new_tokens": 0},
        {"temperature": 0.0},
        {"top_k": -1},
        {"top_p": 0.0},
        {"top_p": 1.5},
        {"beam_size": 0},
        {"repetition_penalty": 0.5},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GenerationConfig(**kwargs).validate()


class TestSampling:
    def test_length_respected(self, model):
        out = generate(model, [1, 2], GenerationConfig(max_new_tokens=15))
        assert len(out) == 15

    def test_greedy_deterministic(self, model):
        config = GenerationConfig(strategy="greedy", max_new_tokens=10)
        a = generate(model, [1, 2, 3], config)
        b = generate(model, [1, 2, 3], config)
        assert a == b

    def test_sampling_seed_reproducible(self, model):
        config = GenerationConfig(max_new_tokens=10, seed=7)
        assert generate(model, [1], config) == generate(model, [1], config)

    def test_different_seeds_differ(self, model):
        a = generate(model, [1], GenerationConfig(max_new_tokens=30, seed=1))
        b = generate(model, [1], GenerationConfig(max_new_tokens=30, seed=2))
        assert a != b

    def test_stop_token_halts(self, model):
        config = GenerationConfig(strategy="greedy", max_new_tokens=50)
        greedy_out = generate(model, [1, 2], config)
        stop = greedy_out[3]
        config_stop = GenerationConfig(strategy="greedy", max_new_tokens=50,
                                       stop_token_id=stop)
        out = generate(model, [1, 2], config_stop)
        assert out[-1] == stop
        assert len(out) <= len(greedy_out)

    def test_empty_prompt_raises(self, model):
        with pytest.raises(ValueError):
            generate(model, [], GenerationConfig(max_new_tokens=5))

    def test_tokens_in_vocab(self, model):
        out = generate(model, [0], GenerationConfig(max_new_tokens=40,
                                                    temperature=2.0))
        assert all(0 <= t < VOCAB for t in out)


class TestBeam:
    def test_beam_deterministic(self, model):
        config = GenerationConfig(strategy="beam", beam_size=3,
                                  max_new_tokens=8)
        assert generate(model, [1, 2], config) == generate(model, [1, 2], config)

    def test_beam_one_equals_greedy(self, model):
        beam = GenerationConfig(strategy="beam", beam_size=1, max_new_tokens=8)
        greedy = GenerationConfig(strategy="greedy", max_new_tokens=8)
        assert generate(model, [1, 2], beam) == generate(model, [1, 2], greedy)

    def test_beam_log_prob_at_least_greedy(self, model):
        """Beam search must find a sequence at least as likely as greedy."""
        from repro.nn import no_grad

        def log_prob(tokens):
            total = 0.0
            state = model.start_state(1)
            with no_grad():
                logits, state = model.next_logits(np.array([1]), state)
                for token in tokens:
                    probs = _softmax(logits[0].astype(np.float64))
                    total += np.log(probs[token] + 1e-12)
                    logits, state = model.next_logits(np.array([token]), state)
            return total

        greedy = generate(model, [1], GenerationConfig(strategy="greedy",
                                                       max_new_tokens=6))
        beam = generate(model, [1], GenerationConfig(strategy="beam",
                                                     beam_size=4,
                                                     max_new_tokens=6))
        assert log_prob(beam) >= log_prob(greedy) - 1e-6

    def test_beam_siblings_do_not_corrupt_shared_kv_cache(self):
        """Regression: transformer KV caches append in place, and beam
        siblings cut from the same parent share the parent's state
        object — without snapshotting, advancing one sibling used to
        overwrite the other's cache slot in the shared buffer.

        Reference run: identical search, but every ``next_logits`` call
        receives a deep-copied state, so no buffer is ever shared.
        """
        import copy

        from repro.models import distilgpt2

        # This exact model/config/prompt combination is verified to
        # produce a *different* (wrong) output under the pre-fix
        # shared-state advance — don't tweak it casually.
        gpt2 = distilgpt2(vocab_size=VOCAB, context_length=128)

        class _CopyStateModel:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def next_logits(self, ids, state):
                return self._inner.next_logits(ids, copy.deepcopy(state))

        config = GenerationConfig(strategy="beam", beam_size=3,
                                  max_new_tokens=12)
        expected = generate(_CopyStateModel(gpt2), [1, 2, 3], config)
        assert generate(gpt2, [1, 2, 3], config) == expected


class TestFilters:
    def test_top_k_keeps_k(self):
        logits = np.array([1.0, 5.0, 3.0, 2.0, 4.0])
        filtered = _filter_top_k(logits, 2)
        kept = np.isfinite(filtered).sum()
        assert kept == 2
        assert np.isfinite(filtered[[1, 4]]).all()

    def test_top_k_zero_disables(self):
        logits = np.arange(5.0)
        np.testing.assert_array_equal(_filter_top_k(logits, 0), logits)

    def test_top_k_larger_than_vocab(self):
        logits = np.arange(5.0)
        np.testing.assert_array_equal(_filter_top_k(logits, 50), logits)

    def test_top_p_keeps_nucleus(self):
        # one dominant token -> top_p=0.5 keeps only it
        logits = np.array([10.0, 0.0, 0.0, 0.0])
        filtered = _filter_top_p(logits, 0.5)
        assert np.isfinite(filtered).sum() == 1

    def test_top_p_one_disables(self):
        logits = np.arange(4.0)
        np.testing.assert_array_equal(_filter_top_p(logits, 1.0), logits)

    def test_top_p_always_keeps_one(self):
        logits = np.zeros(4)
        filtered = _filter_top_p(logits, 0.01)
        assert np.isfinite(filtered).sum() >= 1

    def test_softmax_normalized(self):
        probs = _softmax(np.array([1.0, 2.0, 3.0]))
        assert probs.sum() == pytest.approx(1.0)


class TestProcessors:
    def test_repetition_penalty_dampens(self):
        proc = RepetitionPenalty(2.0)
        logits = np.array([2.0, -2.0, 1.0])
        out = proc(logits, [0, 1])
        assert out[0] == pytest.approx(1.0)   # positive divided
        assert out[1] == pytest.approx(-4.0)  # negative multiplied
        assert out[2] == pytest.approx(1.0)   # untouched

    def test_repetition_penalty_noop_cases(self):
        logits = np.array([1.0, 2.0])
        assert (RepetitionPenalty(1.0)(logits, [0]) == logits).all()
        assert (RepetitionPenalty(2.0)(logits, []) == logits).all()

    def test_repetition_penalty_validation(self):
        with pytest.raises(ValueError):
            RepetitionPenalty(0.9)

    def test_checklist_boosts_until_mentioned(self):
        proc = ChecklistBonus([[5], [7]], bonus=3.0)
        logits = np.zeros(10)
        out = proc(logits, [])
        assert out[5] == 3.0 and out[7] == 3.0
        assert proc.coverage == 0.0
        # after 5 is generated, only 7 keeps the boost
        out = proc(np.zeros(10), [5])
        assert out[5] == 0.0 and out[7] == 3.0
        assert proc.coverage == 0.5

    def test_checklist_empty_coverage_one(self):
        assert ChecklistBonus([]).coverage == 1.0

    def test_checklist_resets_when_history_shrinks(self):
        # A shrinking history means a new request (or the supervisor's
        # retry of the same one on a restarted engine) is reusing the
        # instance: earlier check-offs must not leak into
        # the replay, or the replayed logits diverge from sequential.
        proc = ChecklistBonus([[5], [7]], bonus=3.0)
        proc(np.zeros(10), [5])          # 5 checked off
        assert proc.coverage == 0.5
        out = proc(np.zeros(10), [])     # history shrank: fresh run
        assert out[5] == 3.0 and out[7] == 3.0
        assert proc.coverage == 0.0
        # The replay re-checks items exactly as the first pass did.
        out = proc(np.zeros(10), [5])
        assert out[5] == 0.0 and out[7] == 3.0
        assert proc.coverage == 0.5

    def test_checklist_in_generation(self, model):
        out = generate(model, [1],
                       GenerationConfig(strategy="greedy", max_new_tokens=10),
                       processors=[ChecklistBonus([[9]], bonus=100.0)])
        assert 9 in out  # huge bonus forces the token out
