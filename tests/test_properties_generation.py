"""Hypothesis property tests for decoding invariants (repro.models.generation).

The invariants the serving path relies on:

* top-k filtering keeps at most k candidates (even with tied logits);
* the top-p nucleus carries probability mass >= p;
* ``repetition_penalty=1.0`` is the identity;
* the same seed produces the same sampled continuation;
* beam search is deterministic across runs;
* a processor-free greedy pick is the float32 row's argmax, equal to
  the float64 cast's on ties, ±0, ±inf and NaN.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.models import (GenerationConfig, RepetitionPenalty, generate,
                          select_next_token)
from repro.models.base import LanguageModel
from repro.models.generation import _filter_top_k, _filter_top_p, _softmax
from repro.obs import NullRegistry, NullTracer

pytestmark = pytest.mark.property

_finite = st.floats(min_value=-30.0, max_value=30.0,
                    allow_nan=False, allow_infinity=False)
_logits = st.lists(_finite, min_size=2, max_size=64).map(
    lambda values: np.asarray(values, dtype=np.float64))
# Duplicate-heavy logits to hammer the tie-handling path.
_tied_logits = st.lists(st.integers(min_value=-3, max_value=3),
                        min_size=2, max_size=32).map(
    lambda values: np.asarray(values, dtype=np.float64))


# float32 logits rich in the values where a pick could part: repeated
# maxima, both zeros, both infinities and NaN.
_edge_logits = hnp.arrays(
    np.float32, st.tuples(st.integers(1, 6), st.integers(1, 24)),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
        st.floats(width=32)))


class SeededModel(LanguageModel):
    """Deterministic pseudo-random model: logits are a fixed function
    of the last token, so every run over the same ids is identical."""

    def __init__(self, vocab_size: int = 12, salt: int = 0) -> None:
        super().__init__(vocab_size)
        rng = np.random.default_rng(salt)
        self._table = rng.normal(size=(vocab_size, vocab_size)) * 2.0

    def start_state(self, batch_size: int):
        return None

    def next_logits(self, ids: np.ndarray, state):
        return self._table[int(ids[-1]) % self.vocab_size][None, :], state


class TestTopK:
    @given(logits=_logits, k=st.integers(min_value=1, max_value=80))
    @settings(max_examples=80, deadline=None)
    def test_keeps_at_most_k(self, logits, k):
        filtered = _filter_top_k(logits, k)
        assert np.isfinite(filtered).sum() <= max(k, 0) or k == 0

    @given(logits=_tied_logits, k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_ties_cannot_leak_past_k(self, logits, k):
        filtered = _filter_top_k(logits, k)
        assert np.isfinite(filtered).sum() == min(k, logits.shape[0])

    @given(logits=_logits, k=st.integers(min_value=1, max_value=64))
    @settings(max_examples=80, deadline=None)
    def test_kept_values_are_the_largest(self, logits, k):
        filtered = _filter_top_k(logits, k)
        kept = np.isfinite(filtered)
        if kept.all():
            return  # k >= vocab: filter disabled
        assert logits[kept].min() >= logits[~kept].max()

    @given(logits=_logits)
    @settings(max_examples=30, deadline=None)
    def test_k_zero_is_identity(self, logits):
        np.testing.assert_array_equal(_filter_top_k(logits, 0), logits)


class TestTopP:
    @given(logits=_logits,
           p=st.floats(min_value=0.01, max_value=0.999))
    @settings(max_examples=100, deadline=None)
    def test_nucleus_mass_at_least_p(self, logits, p):
        filtered = _filter_top_p(logits, p)
        kept = np.isfinite(filtered)
        assert kept.sum() >= 1
        mass = _softmax(logits)[kept].sum()
        assert mass >= p - 1e-9

    @given(logits=_logits,
           p=st.floats(min_value=0.05, max_value=0.999))
    @settings(max_examples=100, deadline=None)
    def test_nucleus_is_a_top_slice(self, logits, p):
        filtered = _filter_top_p(logits, p)
        kept = np.isfinite(filtered)
        if kept.all():
            return
        assert logits[kept].min() >= logits[~kept].max()

    @given(logits=_logits)
    @settings(max_examples=30, deadline=None)
    def test_p_one_is_identity(self, logits):
        np.testing.assert_array_equal(_filter_top_p(logits, 1.0), logits)


class TestRepetitionPenalty:
    @given(logits=_logits,
           generated=st.lists(st.integers(min_value=0, max_value=63),
                              max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_penalty_one_is_identity(self, logits, generated):
        generated = [g for g in generated if g < logits.shape[0]]
        processor = RepetitionPenalty(1.0)
        np.testing.assert_array_equal(processor(logits, generated), logits)

    @given(logits=_logits,
           generated=st.lists(st.integers(min_value=0, max_value=63),
                              min_size=1, max_size=20),
           penalty=st.floats(min_value=1.01, max_value=5.0))
    @settings(max_examples=80, deadline=None)
    def test_penalty_never_raises_seen_scores(self, logits, generated,
                                              penalty):
        generated = [g for g in generated if g < logits.shape[0]]
        processor = RepetitionPenalty(penalty)
        adjusted = processor(logits, generated)
        for token in set(generated):
            assert adjusted[token] <= logits[token] + 1e-12
        untouched = np.ones(logits.shape[0], dtype=bool)
        untouched[list(set(generated))] = False
        np.testing.assert_array_equal(adjusted[untouched], logits[untouched])


class TestGenerateDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**31),
           salt=st.integers(min_value=0, max_value=5),
           temperature=st.floats(min_value=0.5, max_value=2.0),
           top_k=st.integers(min_value=0, max_value=8),
           prompt=st.lists(st.integers(min_value=0, max_value=11),
                           min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_same_seed_same_sample(self, seed, salt, temperature, top_k,
                                   prompt):
        model = SeededModel(salt=salt)
        config = GenerationConfig(strategy="sample", max_new_tokens=8,
                                  seed=seed, temperature=temperature,
                                  top_k=top_k)
        a = generate(model, prompt, config,
                     registry=NullRegistry(), tracer=NullTracer())
        b = generate(model, prompt, config,
                     registry=NullRegistry(), tracer=NullTracer())
        assert a == b
        assert len(a) == 8
        assert all(0 <= t < model.vocab_size for t in a)

    @given(salt=st.integers(min_value=0, max_value=5),
           beam_size=st.integers(min_value=1, max_value=4),
           prompt=st.lists(st.integers(min_value=0, max_value=11),
                           min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_beam_deterministic_across_runs(self, salt, beam_size, prompt):
        model = SeededModel(salt=salt)
        config = GenerationConfig(strategy="beam", beam_size=beam_size,
                                  max_new_tokens=6)
        runs = [generate(model, prompt, config,
                         registry=NullRegistry(), tracer=NullTracer())
                for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        assert len(runs[0]) == 6

    @given(salt=st.integers(min_value=0, max_value=5),
           prompt=st.lists(st.integers(min_value=0, max_value=11),
                           min_size=1, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_greedy_matches_itself_and_beam1_prefix(self, salt, prompt):
        model = SeededModel(salt=salt)
        greedy = generate(model, prompt,
                          GenerationConfig(strategy="greedy",
                                           max_new_tokens=6),
                          registry=NullRegistry(), tracer=NullTracer())
        again = generate(model, prompt,
                         GenerationConfig(strategy="greedy",
                                          max_new_tokens=6),
                         registry=NullRegistry(), tracer=NullTracer())
        assert greedy == again


class TestGreedyPick:
    @given(logits=_edge_logits)
    @settings(max_examples=300, deadline=None)
    def test_float32_argmax_is_the_float64_pick(self, logits):
        config = GenerationConfig(strategy="greedy")
        rng = np.random.default_rng(0)
        for row in logits:
            old = int(row.astype(np.float64).argmax())
            assert select_next_token(row, [], config, [], rng) == old
