"""Hypothesis property: speculative greedy decoding is lossless.

For *any* prompt, any draft (any corpus, any n-gram order) and any
speculative depth ``k``, greedy speculative decoding must emit exactly
the tokens sequential greedy decoding emits.  The draft only ever
changes how many model forwards it takes to produce them — acceptance
rate is a performance number, never a correctness one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import GenerationConfig, NGramDraft, distilgpt2, generate
from repro.models.base import LanguageModel
from repro.obs import NullRegistry, NullTracer

pytestmark = pytest.mark.property

VOCAB = 12

_token = st.integers(min_value=0, max_value=VOCAB - 1)
_prompt = st.lists(_token, min_size=1, max_size=12)
_corpus = st.lists(st.lists(_token, min_size=2, max_size=20),
                   min_size=1, max_size=4)


class SeededModel(LanguageModel):
    """Deterministic pseudo-random model (cheap sequential oracle)."""

    def __init__(self, vocab_size: int = VOCAB, salt: int = 0) -> None:
        super().__init__(vocab_size)
        rng = np.random.default_rng(salt)
        self._table = rng.normal(size=(vocab_size, vocab_size)) * 2.0

    def start_state(self, batch_size: int):
        return None

    def next_logits(self, ids: np.ndarray, state):
        return self._table[int(ids[-1]) % self.vocab_size][None, :], state

    def verify_chunk(self, ids: np.ndarray, state):
        # Stateless: a verify call is one table row per chunk token.
        return self._table[ids % self.vocab_size], [state] * ids.shape[1]


def _run(model, prompt, draft, k, **config_kwargs):
    config = GenerationConfig(max_new_tokens=16, strategy="greedy", seed=0,
                              speculative_k=k, **config_kwargs)
    return generate(model, prompt, config, draft=draft,
                    registry=NullRegistry(), tracer=NullTracer())


class TestSpeculativeGreedyIsLossless:
    @given(prompt=_prompt, corpus=_corpus,
           k=st.integers(min_value=1, max_value=8),
           order=st.integers(min_value=1, max_value=4),
           salt=st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_any_draft_any_k_matches_sequential(self, prompt, corpus, k,
                                                order, salt):
        model = SeededModel(salt=salt)
        draft = NGramDraft.fit(corpus, VOCAB, order=order)
        assert _run(model, prompt, draft, k) == _run(model, prompt, None, 0)

    @given(prompt=_prompt, corpus=_corpus,
           k=st.integers(min_value=1, max_value=8),
           penalty=st.floats(min_value=1.0, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_with_stop_token_and_penalty(self, prompt, corpus, k, penalty):
        model = SeededModel(salt=1)
        draft = NGramDraft.fit(corpus, VOCAB, order=3)
        kwargs = {"stop_token_id": 3, "repetition_penalty": penalty}
        assert _run(model, prompt, draft, k, **kwargs) \
            == _run(model, prompt, None, 0, **kwargs)


class TestSpeculativeGreedyOnTransformer:
    """``verify_chunk`` as one slot-row call, against the real model."""

    @given(seed=st.integers(min_value=0, max_value=50),
           k=st.integers(min_value=1, max_value=8),
           order=st.integers(min_value=2, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_matches_sequential(self, seed, k, order):
        model = _transformer()
        rng = np.random.default_rng(seed)
        prompt = [int(t) for t in rng.integers(0, 16, size=1 + seed % 7)]
        corpus = [[int(t) for t in rng.integers(0, 16, size=24)]
                  for _ in range(2)]
        draft = NGramDraft.fit(corpus, 16, order=order)
        assert _run(model, prompt, draft, k) == _run(model, prompt, None, 0)


_TRANSFORMER = None


def _transformer():
    global _TRANSFORMER
    if _TRANSFORMER is None:
        _TRANSFORMER = distilgpt2(vocab_size=16, context_length=64)
        _TRANSFORMER.eval()
    return _TRANSFORMER
