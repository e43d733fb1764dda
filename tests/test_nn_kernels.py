"""Unit battery for the inference kernels (``repro.nn.kernels``).

Covers the pieces the property suite treats as a black box:
:class:`WeightStore` freeze semantics, attached kernels going with
frozen weights, unmanaged copy-out safety, sliding-window equality,
the tied head's padded copy following the weights, the row-class probe
and the even row split, and the zero-allocation workspace regression
gate.
"""

from unittest import mock

import numpy as np
import pytest

from repro.models import (GenerationConfig, distilgpt2, generate,
                          gpt2_medium, word_lstm)
from repro.nn import Adam, WeightStore, attention
from repro.nn.attention import row_chunks
from repro.obs import NullRegistry, NullTracer
from repro.serving import EngineConfig, InferenceEngine

pytestmark = pytest.mark.kernels

VOCAB = 32


def _model(**kwargs):
    kwargs.setdefault("vocab_size", VOCAB)
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("context_length", 96)
    return distilgpt2(**kwargs)


def _generate(model, prompt, max_new_tokens=24, **kwargs):
    config = GenerationConfig(max_new_tokens=max_new_tokens,
                              strategy="greedy", seed=0, **kwargs)
    return generate(model, prompt, config,
                    registry=NullRegistry(), tracer=NullTracer())


class TestWeightStore:
    def test_store_references_model_arrays_without_copy(self):
        model = _model()
        store = WeightStore.from_model(model)
        assert store.wte is model.wte.weight.data
        assert store.blocks[0].qkv_w is model.blocks[0].attn.qkv.weight.data
        assert store.fp32_nbytes > 0

    def test_freeze_and_release(self):
        model = _model()
        store = WeightStore.from_model(model)
        assert store.frozen
        assert not model.wte.weight.data.flags.writeable
        with pytest.raises(ValueError):
            model.wte.weight.data[0, 0] = 1.0
        store.release()
        assert not store.frozen
        assert model.wte.weight.data.flags.writeable


class TestKernelDispatch:
    def test_enable_kernels_rejects_unknown_mode(self):
        # fp32 over frozen weights is the one configuration; its
        # spelling is accepted, any other refused.
        with pytest.raises(ValueError):
            _model().enable_kernels("fp16")
        with pytest.raises(ValueError):
            _model().enable_kernels(freeze=False)
        model = _model()
        assert model.enable_kernels(mode="fp32", freeze=True).store.frozen

    def test_enable_kernels_returns_the_attached_kernels(self):
        model = _model()
        kernels = model.enable_kernels()
        assert model.enable_kernels() is kernels
        assert model.kernels is kernels and not model.training

    def test_lstm_has_no_kernel_implementation(self):
        with pytest.raises(NotImplementedError):
            word_lstm(vocab_size=VOCAB).enable_kernels()

    def test_training_mode_falls_back_to_tensor_path(self):
        model = _model()
        kernels = model.enable_kernels()
        assert not model.wte.weight.data.flags.writeable
        model.train()  # detaches the kernels and thaws the weights
        assert model.kernels is None and not kernels.store.frozen
        assert model.wte.weight.data.flags.writeable
        # Gradients still flow on the fallback path.
        loss = model(np.array([[1, 2, 3]])).sum()
        loss.backward()
        model.eval()
        assert model.kernels is None

    def test_a_single_state_decodes_one_row(self):
        # A batch decodes as slot rows of a KV arena; a state of batch
        # 2, or two ids for one state, is refused on both paths,
        # and so is a prompt prefilled into a state of batch 2.
        for kernels in (False, True):
            model = _model()
            model.eval()
            if kernels:
                model.enable_kernels()
            for batch in (1, 2):
                with pytest.raises(ValueError, match="batch-of-one"):
                    model.next_logits(np.array([1, 2]),
                                      model.start_state(batch))
            for prompt in ([1], [1, 2, 3]):
                with pytest.raises(ValueError, match="batch-of-one"):
                    model.prefill(np.array(prompt), model.start_state(2))

    def test_out_of_range_token_raises_like_tensor_path(self):
        model = _model()
        model.enable_kernels()
        with pytest.raises(IndexError, match="token id out of range"):
            model(np.array([[VOCAB]]))

    def test_unmanaged_outputs_are_defensive_copies(self):
        model = _model()
        model.enable_kernels()
        first = model(np.array([[1, 2, 3]])).data
        snapshot = first.copy()
        # A second call reuses the workspace arenas; the first result
        # must not be clobbered.
        model(np.array([[4, 5, 6, 7]]))
        assert np.array_equal(first, snapshot)

    def test_sliding_window_decode_matches_tensor_path(self):
        # Decode far past the context window: eviction + re-anchor
        # must follow the exact Tensor-path schedule.
        tensor_model = _model(context_length=32)
        tensor_model.eval()
        kernel_model = _model(context_length=32)
        kernel_model.enable_kernels()
        prompt = [1, 2, 3, 4, 5]
        assert (_generate(kernel_model, prompt, max_new_tokens=60)
                == _generate(tensor_model, prompt, max_new_tokens=60))


def _head_logits(model, prompt=(1, 2, 3)):
    """A prefill chunk's and one decode step's logits: both read the
    tied head's padded copy."""
    logits, state = model.prefill(np.array(prompt), model.start_state(1))
    step, _ = model.next_logits(np.array([4]), state)
    return np.concatenate([logits, step])


class TestHeadCopy:
    @pytest.mark.parametrize("kernels", [False, True])
    def test_decode_after_training_reads_the_trained_weights(self, kernels):
        model = _model()
        model.eval()
        if kernels:
            model.enable_kernels()
        before = _head_logits(model)  # takes the head copy
        model.train()  # detaches the kernels and thaws the weights
        assert model.kernels is None
        optimizer = Adam(model.parameters(), lr=1e-2)
        for _ in range(3):
            _head_logits(model)  # a decode before each step, in train mode
            optimizer.zero_grad()
            model(np.array([[1, 2, 3, 4]])).sum().backward()
            optimizer.step()
        model.eval()
        if kernels:
            model.enable_kernels()  # a fresh store takes the trained head
        trained = _model()
        trained.load_state_dict(model.state_dict())
        trained.eval()
        after = _head_logits(model)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, _head_logits(trained))

    @pytest.mark.parametrize("kernels", [False, True])
    def test_load_state_dict_retakes_the_head(self, kernels):
        model = _model()
        model.eval()
        if kernels:
            model.enable_kernels()
        _head_logits(model)
        other = _model(seed=1)
        other.eval()
        model.load_state_dict(other.state_dict())  # detaches the kernels
        assert model.kernels is None
        if kernels:
            model.enable_kernels()
        assert np.array_equal(_head_logits(model), _head_logits(other))

    def test_prefill_batch_refuses_a_one_token_chunk(self):
        model = _model()
        kernels = model.enable_kernels()
        state = model.start_state(1)
        with pytest.raises(ValueError, match=">= 2 tokens"):
            kernels.prefill_batch(np.array([[1]]), state.caches, 0)
        # GPT2Model.prefill takes a one-token chunk as a decode step.
        logits, _ = model.prefill(np.array([1]), state)
        assert logits.shape == (1, VOCAB)

    def test_decode_rows_refuses_a_position_past_the_context(self):
        model = _model()
        kernels = model.enable_kernels()
        with pytest.raises(IndexError):
            kernels.decode_rows(np.array([[1]]), model.kv_arena(1),
                                np.array([0]),
                                np.array([model.config.context_length]))


class TestWorkspaceReuse:
    def test_allocations_stable_across_hundred_requests(self):
        model = _model()
        kernels = model.enable_kernels()
        engine = InferenceEngine(
            model, EngineConfig(max_batch_size=4, prefix_cache_bytes=0,
                                max_queue=128),
            registry=NullRegistry(), tracer=NullTracer())
        try:
            config = GenerationConfig(max_new_tokens=8, strategy="greedy",
                                      seed=0)
            rng = np.random.default_rng(0)

            def burst(count):
                prompts = [[int(t) for t in
                            rng.integers(0, VOCAB, size=rng.integers(2, 20))]
                           for _ in range(count)]
                handles = [engine.submit(p, config) for p in prompts]
                for handle in handles:
                    handle.result(timeout=120)

            burst(8)  # warmup: preallocate() + first-step growth
            settled = kernels.allocation_count
            burst(100)
            assert kernels.allocation_count == settled
            stats = engine.stats()["kernels"]
            assert stats["weights_frozen"]
            assert stats["workspace_allocations"] == settled
        finally:
            engine.stop()

    def test_ragged_steps_allocate_nothing_after_preallocate(self):
        # preallocate(8) must cover a full ragged step — position
        # embeddings and per-row score buffers included — whatever
        # rows share it.
        model = _model()
        kernels = model.enable_kernels()
        rng = np.random.default_rng(0)
        arena = model.kv_arena(8)

        def fresh_row(slot):
            length = int(rng.integers(1, 60))
            arena.load(slot, model.prefill(
                rng.integers(0, VOCAB, size=length),
                model.start_state(1))[1].caches)

        for slot in arena.slots:
            fresh_row(slot)
        kernels.preallocate(8)
        settled = kernels.allocation_count
        for step in range(50):
            kernels.begin_step()
            if step % 3 == 0:  # a row retires, another is admitted
                fresh_row(arena.slots[int(rng.integers(0, 8))])
            live = [int(r) for r in rng.permutation(8)[:rng.integers(2, 9)]]
            model.next_logits(rng.integers(0, VOCAB, size=len(live)),
                              [arena.slots[r] for r in live])
        assert kernels.allocation_count == settled

    @pytest.mark.parametrize("rows", [1, 8])
    def test_steps_allocate_nothing_from_the_first(self, rows):
        # preallocate(8) covers every decode step from the first: a
        # lone row (with its dummy row), a full batch, and a batch whose
        # speculative row pushes the step past the probed row-class
        # limit (forced to 3 here), so its GEMMs run in chunks.
        model = _model()
        kernels = model.enable_kernels()
        rng = np.random.default_rng(rows)
        states = [model.prefill(rng.integers(0, VOCAB, size=40 + r),
                                model.start_state(1))[1]
                  for r in range(rows)]
        arena = model.kv_arena(rows)
        for slot, state in zip(arena.slots, states):
            arena.load(slot, state.caches)
        kernels.preallocate(8)
        settled = kernels.allocation_count
        with mock.patch.object(attention, "row_class_limit",
                               lambda k, n: 3):
            for step in range(6):
                kernels.begin_step()
                if rows == 1:
                    _, state = model.next_logits(
                        rng.integers(0, VOCAB, size=1), states[0])
                    states = [state]
                    continue
                spec = 5 if step % 2 else 1  # one row verifies 4 drafts
                ids = rng.integers(0, VOCAB, size=rows - 1 + spec)
                model.next_logits(ids, [arena.slots[0]] * spec
                                  + arena.slots[1:])
        assert kernels.allocation_count == settled


class TestRowClassProbe:
    @pytest.mark.parametrize("preset", [distilgpt2, gpt2_medium])
    def test_every_shape_has_a_class_of_at_least_two_rows(self, preset):
        kernels = preset(vocab_size=657).enable_kernels()
        limits = kernels.row_class_limits
        assert len(limits) == 5  # qkv, out-proj, MLP up, MLP down, head
        assert all(2 <= limit <= 32 for limit in limits.values())
        stats = kernels.stats()
        assert stats["row_class_limits"] == {
            f"{k}x{n}": limit for (k, n), limit in limits.items()}
        # The padded head: V = 657 rounded up to 672 columns.
        assert kernels.store.head.shape == (kernels.d_model, 672)
        assert stats["head_bytes"] == kernels.d_model * 672 * 4
        assert not kernels.store.head.flags.writeable

    @pytest.mark.parametrize("limit", [2, 3, 6, 15, 32])
    def test_rows_split_evenly_into_the_fewest_chunks(self, limit):
        for rows in range(2, 100):
            chunks = row_chunks(rows, limit)
            assert len(chunks) == -(-rows // limit)
            sizes = [c.stop - c.start for c in chunks]
            assert all(2 <= size <= limit for size in sizes)
            assert chunks[0].start == 0 and chunks[-1].stop == rows
            # Contiguous and even; only at limit 2 does an odd last
            # row share its chunk with the row before it.
            for a, b in zip(chunks, chunks[1:]):
                assert b.start == a.stop or (limit == 2 and b.start
                                             == a.stop - 1)
            assert max(sizes) - min(sizes) <= 1
