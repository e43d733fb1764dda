"""Hypothesis property tests for the fp32 inference-kernel contract.

The kernels promise: with ``mode="fp32"``, every public entry point —
full forward, chunked prefill, single-step decode, ragged decode of
rows carrying one or several known tokens (plain and speculative-verify
rows alike) — is **bit-identical** to the Tensor-graph path
(``docs/KERNELS.md``).  These tests hold two weight-identical models
(same init seed), one per path, and compare raw arrays with
``np.array_equal`` — no tolerance, ever — over randomized prompts,
batch shapes, chunk boundaries and decoding configs.  One long-lived
engine runs the kernel model so the managed step-parity workspace
path (buffer reuse across engine iterations) is exercised, not just
the conservative copy-out path.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import GenerationConfig, distilgpt2, generate
from repro.nn import attention
from repro.obs import NullRegistry, NullTracer
from repro.serving import EngineConfig, InferenceEngine

pytestmark = [pytest.mark.property, pytest.mark.kernels]

VOCAB = 24
CONTEXT = 96
# Weight-identical twins: same seed, different forward paths.
TENSOR_MODEL = distilgpt2(vocab_size=VOCAB, seed=0, context_length=CONTEXT)
TENSOR_MODEL.eval()
KERNEL_MODEL = distilgpt2(vocab_size=VOCAB, seed=0, context_length=CONTEXT)
KERNEL_MODEL.enable_kernels("fp32")
# Shared across all examples on purpose: reused workspace arenas and
# accumulated prefix-cache state must never change outputs.
ENGINE = InferenceEngine(
    KERNEL_MODEL, EngineConfig(max_batch_size=4, prefix_cache_bytes=1 << 20),
    registry=NullRegistry(), tracer=NullTracer())

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
    stop_token_id=st.sampled_from([None, 3]),
    seed=st.integers(min_value=0, max_value=2 ** 20),
)


def _sequential(model, prompt, config):
    return generate(model, prompt, config,
                    registry=NullRegistry(), tracer=NullTracer())


class TestKernelsEqualTensorPath:
    @given(prompt=_prompt, config=_config)
    @settings(max_examples=20, deadline=None)
    def test_sequential_generate_is_bit_identical(self, prompt, config):
        # Chunked prefill + one-token decode steps, arbitrary sampling
        # config: the exact tokens must come out of both paths.
        assert (_sequential(KERNEL_MODEL, prompt, config)
                == _sequential(TENSOR_MODEL, prompt, config))

    @given(seed=st.integers(min_value=0, max_value=2 ** 20),
           batch=st.integers(min_value=1, max_value=3),
           time=st.integers(min_value=1, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_full_forward_is_bit_identical(self, seed, batch, time):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, VOCAB, size=(batch, time))
        expected = TENSOR_MODEL(ids).data
        actual = KERNEL_MODEL(ids).data
        assert expected.dtype == actual.dtype == np.float32
        assert np.array_equal(expected, actual)

    @given(seed=st.integers(min_value=0, max_value=2 ** 20),
           batch=st.integers(min_value=1, max_value=3),
           prefix=st.integers(min_value=1, max_value=30),
           steps=st.integers(min_value=1, max_value=8))
    @settings(max_examples=15, deadline=None)
    def test_verify_chunk_is_bit_identical(self, seed, batch, prefix, steps):
        rng = np.random.default_rng(seed)
        prompts = rng.integers(0, VOCAB, size=(batch, prefix))
        chunk = rng.integers(0, VOCAB, size=(batch, steps))
        accept = int(rng.integers(0, steps))
        probe = rng.integers(0, VOCAB, size=(batch,))

        results = []
        for model in (TENSOR_MODEL, KERNEL_MODEL):
            rows = _slots(model, [model.prefill(row, model.start_state(1))[1]
                                  for row in prompts])
            # One call, each row's slot repeated once per chunk token.
            logits, _ = model.next_logits(
                chunk.reshape(-1), [s for s in rows for _ in range(steps)])
            # Resume from an arbitrary accepted position: the length
            # handoff must also be exact.
            for slot in rows:
                slot.length = prefix + accept + 1
            resumed, _ = model.next_logits(probe, rows)
            results.append((logits, resumed))
        (expected, expected_resumed), (actual, actual_resumed) = results
        assert np.array_equal(expected, actual)
        assert np.array_equal(expected_resumed, actual_resumed)

    @given(requests=st.lists(st.tuples(_prompt, _config),
                             min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_engine_over_kernels_matches_tensor_sequential(self, requests):
        # The engine path drives the managed workspaces: begin_step()
        # arena parity, chunked prefill, ragged decode, prefix-cache
        # inserts.  Outputs must still equal cold Tensor-path runs.
        expected = [_sequential(TENSOR_MODEL, p, c) for p, c in requests]
        handles = [ENGINE.submit(p, c) for p, c in requests]
        actual = [h.result(timeout=120) for h in handles]
        assert actual == expected


def _slots(model, states):
    """A KV arena's slots, one per state, each holding its state."""
    arena = model.kv_arena(len(states))
    for slot, state in zip(arena.slots, states):
        arena.load(slot, state.caches)
    return arena.slots


def _slot_matches(slot, state):
    """Whether ``slot`` holds exactly ``state``'s live keys and values."""
    i, n = slot.index, slot.length
    return n == state.position and all(
        np.array_equal(k[i, :, :n], c.keys[0])
        and np.array_equal(v[i, :, :n], c.values[0])
        for k, v, c in zip(slot.arena.k, slot.arena.v, state.caches))


def _ragged_states(model, seed, rows):
    """``rows`` batch-of-one states of unequal length, mixed provenance:
    private prefills, frozen compact snapshots and the empty cache.
    Returns ``(states, frozen)``."""
    rng = np.random.default_rng(seed)
    states, frozen = [], []
    while len(states) < rows:
        state = model.start_state(1)
        length = int(rng.integers(0, 41))
        if length:
            _, state = model.prefill(rng.integers(0, VOCAB, size=length),
                                     state)
            if rng.integers(0, 2):
                state = model.compact_state(state)
                frozen.append(state)
        states.append(state)
    return [states[i] for i in rng.permutation(rows)], frozen


class TestRaggedDecode:
    @given(seed=st.integers(min_value=0, max_value=2 ** 20),
           rows=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_each_row_gets_its_own_single_row_step(self, seed, rows):
        # next_logits(ids, [slot_1 … slot_B]) over unequal cache lengths:
        # row r's logits and cache are those of next_logits(ids[r:r+1],
        # s_r), on both paths, and the paths agree with each other.
        per_path = []
        for model in (TENSOR_MODEL, KERNEL_MODEL):
            states, frozen = _ragged_states(model, seed, rows)
            ragged = _slots(model, states)
            alone, _ = _ragged_states(model, seed, rows)
            before = [[(c.keys.copy(), c.values.copy()) for c in s.caches]
                      for s in frozen]
            rng = np.random.default_rng(seed + 1)
            for _ in range(2):  # the second step resumes the first's slots
                ids = rng.integers(0, VOCAB, size=rows)
                logits, _ = model.next_logits(ids, ragged)
                assert logits.shape == (rows, VOCAB)
                for r in range(rows):
                    single, alone[r] = model.next_logits(ids[r:r + 1],
                                                         alone[r])
                    assert np.array_equal(logits[r], single[0])
                    assert _slot_matches(ragged[r], alone[r])
            per_path.append(logits)
            # A frozen snapshot is copied on append, never written.
            for state, saved in zip(frozen, before):
                for cache, (keys, values) in zip(state.caches, saved):
                    assert cache.frozen
                    assert np.array_equal(cache.keys, keys)
                    assert np.array_equal(cache.values, values)
        assert np.array_equal(*per_path)

    @given(seed=st.integers(min_value=0, max_value=2 ** 20),
           counts=st.lists(st.integers(min_value=1, max_value=9),
                           min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_rows_of_several_tokens_share_one_call(self, seed, counts):
        # Rows carrying 1-9 known tokens each (plain and verify rows)
        # over unequal caches go through ONE next_logits call: every
        # position equals a sequential one-token walk of its row, the
        # state after any position resumes exactly, frozen snapshots
        # stay untouched, and both paths agree.
        rows = len(counts)
        rng = np.random.default_rng(seed + 2)
        chunks = [rng.integers(0, VOCAB, size=n) for n in counts]
        resume = [int(rng.integers(0, n)) for n in counts]
        probe = rng.integers(0, VOCAB, size=rows)
        starts = np.cumsum([0] + counts[:-1])
        per_path = []
        for model in (TENSOR_MODEL, KERNEL_MODEL):
            states, frozen = _ragged_states(model, seed, rows)
            ragged = _slots(model, states)
            before = [[(c.keys.copy(), c.values.copy()) for c in s.caches]
                      for s in frozen]
            logits, _ = model.next_logits(
                np.concatenate(chunks),
                [slot for slot, n in zip(ragged, counts) for _ in range(n)])
            assert logits.shape == (sum(counts), VOCAB)
            ends = [slot.length for slot in ragged]
            # Every row resumes from its chosen position, in one call.
            for slot, state, t in zip(ragged, states, resume):
                slot.length = state.position + t + 1
            resumed, _ = model.next_logits(probe, ragged)
            walked, _ = _ragged_states(model, seed, rows)
            for r, (chunk, start) in enumerate(zip(chunks, starts)):
                state = walked[r]
                assert ends[r] == state.position + len(chunk)
                for t, token in enumerate(chunk):
                    single, state = model.next_logits(chunk[t:t + 1], state)
                    assert np.array_equal(logits[start + t], single[0])
                    if t == resume[r]:
                        # Copies the frozen KV, so the walk goes on intact.
                        want, _ = model.next_logits(
                            probe[r:r + 1], model.snapshot_state(state))
                        assert np.array_equal(resumed[r], want[0])
            per_path.append((logits, resumed))
            for state, saved in zip(frozen, before):
                for cache, (keys, values) in zip(state.caches, saved):
                    assert cache.frozen
                    assert np.array_equal(cache.keys, keys)
                    assert np.array_equal(cache.values, values)
        (tensor_logits, tensor_resumed), (kernel_logits, kernel_resumed) = \
            per_path
        assert np.array_equal(tensor_logits, kernel_logits)
        assert np.array_equal(tensor_resumed, kernel_resumed)


class TestBatchInvariance:
    """A decoded row's bits do not depend on the batch: not on how many
    rows share its step (1..40), what they carry (plain or several
    known tokens, any cache length) or where it sits among them.  The
    probed row-class limit is forced to 3 so that chunking runs on
    distilgpt2's shapes (docs/KERNELS.md §1)."""

    @given(seed=st.integers(min_value=0, max_value=2 ** 20),
           rows=st.integers(min_value=1, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_row_bits_do_not_depend_on_the_batch(self, seed, rows):
        rng = np.random.default_rng(seed)
        model = KERNEL_MODEL
        with mock.patch.object(attention, "row_class_limit",
                               lambda k, n: 3):
            states, _ = _ragged_states(model, seed, rows)
            target = int(rng.integers(0, rows))
            counts = [1 if r == target else int(rng.integers(1, 4))
                      for r in range(rows)]
            ids = [rng.integers(0, VOCAB, size=n) for n in counts]
            alone, after = model.next_logits(
                ids[target], model.snapshot_state(states[target]))
            slots = _slots(model, states)
            logits, _ = model.next_logits(
                np.concatenate(ids),
                [slot for slot, n in zip(slots, counts) for _ in range(n)])
        row = sum(counts[:target])
        assert np.array_equal(logits[row], alone[0])
        assert _slot_matches(slots[target], after)
