"""Hypothesis property tests for the fp32 inference-kernel contract.

The kernels promise: with ``mode="fp32"``, every public entry point —
full forward, chunked prefill, stacked prefill, single-step decode,
speculative verify — is **bit-identical** to the Tensor-graph path
(``docs/KERNELS.md``).  These tests hold two weight-identical models
(same init seed), one per path, and compare raw arrays with
``np.array_equal`` — no tolerance, ever — over randomized prompts,
batch shapes, chunk boundaries and decoding configs.  One long-lived
engine runs the kernel model so the managed step-parity workspace
path (buffer reuse across engine iterations) is exercised, not just
the conservative copy-out path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import GenerationConfig, distilgpt2, generate
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
            rows = []
            for row in prompts:
                logits, state = model.prefill(row, model.start_state(1))
                rows.append(state)
            state = model.stack_states(rows)
            logits, states = model.verify_chunk(chunk, state)
            # Resume from an arbitrary accepted position: the state
            # handoff must also be exact.
            resumed, _ = model.next_logits(probe, states[accept])
            results.append((logits, resumed))
        (expected, expected_resumed), (actual, actual_resumed) = results
        assert np.array_equal(expected, actual)
        assert np.array_equal(expected_resumed, actual_resumed)

    @given(requests=st.lists(st.tuples(_prompt, _config),
                             min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_engine_over_kernels_matches_tensor_sequential(self, requests):
        # The engine path drives the managed workspaces: begin_step()
        # arena parity, stacked prefill, batched decode, prefix-cache
        # inserts.  Outputs must still equal cold Tensor-path runs.
        expected = [_sequential(TENSOR_MODEL, p, c) for p, c in requests]
        handles = [ENGINE.submit(p, c) for p, c in requests]
        actual = [h.result(timeout=120) for h in handles]
        assert actual == expected


def _ragged_states(model, seed, rows):
    """``rows`` batch-of-one states of unequal length, mixed provenance:
    row views of one stacked prefill, private prefills, frozen compact
    snapshots and the empty cache.  Returns ``(states, frozen)``."""
    rng = np.random.default_rng(seed)
    states, frozen = [], []
    stacked_rows = int(rng.integers(0, min(rows, 3) + 1))
    if stacked_rows:
        ids = rng.integers(0, VOCAB, size=(stacked_rows,
                                           int(rng.integers(1, 41))))
        _, stacked = model.prefill_stacked(ids, model.stack_states(
            [model.start_state(1) for _ in range(stacked_rows)]))
        states += model.split_states(stacked, stacked_rows)
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
        # next_logits(ids, [s_1 … s_B]) over unequal cache lengths: row
        # r's logits and cache are those of next_logits(ids[r:r+1], s_r),
        # on both paths, and the paths agree with each other.
        per_path = []
        for model in (TENSOR_MODEL, KERNEL_MODEL):
            ragged, frozen = _ragged_states(model, seed, rows)
            alone, _ = _ragged_states(model, seed, rows)
            before = [[(c.keys.copy(), c.values.copy()) for c in s.caches]
                      for s in frozen]
            rng = np.random.default_rng(seed + 1)
            for _ in range(2):  # the second step resumes the first's states
                ids = rng.integers(0, VOCAB, size=rows)
                logits, ragged = model.next_logits(ids, ragged)
                assert logits.shape == (rows, VOCAB)
                for r in range(rows):
                    single, alone[r] = model.next_logits(ids[r:r + 1],
                                                         alone[r])
                    assert np.array_equal(logits[r], single[0])
                    assert ragged[r].position == alone[r].position
                    for a, b in zip(ragged[r].caches, alone[r].caches):
                        assert np.array_equal(a.keys, b.keys)
                        assert np.array_equal(a.values, b.values)
            per_path.append(logits)
            # A frozen snapshot is copied on append, never written.
            for state, saved in zip(frozen, before):
                for cache, (keys, values) in zip(state.caches, saved):
                    assert cache.frozen
                    assert np.array_equal(cache.keys, keys)
                    assert np.array_equal(cache.values, values)
        assert np.array_equal(*per_path)
