"""Unit battery for the inference kernels (``repro.nn.kernels``).

Covers the pieces the property suite treats as a black box:
:class:`WeightStore` sharing and freeze semantics, unmanaged copy-out
safety, sliding-window equality, and the zero-allocation workspace
regression gate.
"""

import numpy as np
import pytest

from repro.models import GenerationConfig, distilgpt2, generate, word_lstm
from repro.nn import WeightStore
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
        store.freeze()
        assert store.frozen
        assert not model.wte.weight.data.flags.writeable
        with pytest.raises(ValueError):
            model.wte.weight.data[0, 0] = 1.0
        store.release()
        assert not store.frozen
        assert model.wte.weight.data.flags.writeable

    def test_two_models_can_share_one_store(self):
        owner = _model()
        store = WeightStore.from_model(owner, freeze=True)
        twin = _model()
        twin.enable_kernels("fp32", store=store)
        assert twin.kernels.store is store
        # Sharing a store must not have copied any weight bytes.
        shared = {id(a) for a in store.weight_arrays()}
        assert id(owner.wte.weight.data) in shared
        # disable_kernels on the borrower leaves the owner's freeze.
        twin.disable_kernels()
        assert store.frozen
        store.release()


class TestKernelDispatch:
    def test_enable_kernels_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            _model().enable_kernels("fp16")

    def test_lstm_has_no_kernel_implementation(self):
        with pytest.raises(NotImplementedError):
            word_lstm(vocab_size=VOCAB).enable_kernels()

    def test_training_mode_falls_back_to_tensor_path(self):
        model = _model()
        model.enable_kernels("fp32")
        assert model._active_kernels() is not None
        model.train()
        assert model._active_kernels() is None
        # Gradients still flow on the fallback path.
        loss = model(np.array([[1, 2, 3]])).sum()
        loss.backward()
        model.eval()
        assert model._active_kernels() is not None

    def test_out_of_range_token_raises_like_tensor_path(self):
        model = _model()
        model.enable_kernels("fp32")
        with pytest.raises(IndexError, match="token id out of range"):
            model(np.array([[VOCAB]]))

    def test_unmanaged_outputs_are_defensive_copies(self):
        model = _model()
        model.enable_kernels("fp32")
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
        kernel_model.enable_kernels("fp32")
        prompt = [1, 2, 3, 4, 5]
        assert (_generate(kernel_model, prompt, max_new_tokens=60)
                == _generate(tensor_model, prompt, max_new_tokens=60))


class TestWorkspaceReuse:
    def test_allocations_stable_across_hundred_requests(self):
        model = _model()
        kernels = model.enable_kernels("fp32")
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
            assert stats["mode"] == "fp32"
            assert stats["workspace_allocations"] == settled
        finally:
            engine.stop()

    def test_ragged_steps_allocate_nothing_after_preallocate(self):
        # preallocate(8) must cover a full ragged step — position
        # embeddings and per-row score buffers included — whatever
        # rows share it.
        model = _model()
        kernels = model.enable_kernels("fp32")
        rng = np.random.default_rng(0)

        def fresh_row():
            length = int(rng.integers(1, 60))
            return model.prefill(rng.integers(0, VOCAB, size=length),
                                 model.start_state(1))[1]

        states = [fresh_row() for _ in range(8)]
        kernels.preallocate(8)
        settled = kernels.allocation_count
        for step in range(50):
            kernels.begin_step()
            if step % 3 == 0:  # a row retires, another is admitted
                states[int(rng.integers(0, len(states)))] = fresh_row()
            live = [int(r) for r in rng.permutation(8)[:rng.integers(2, 9)]]
            _, new_states = model.next_logits(
                rng.integers(0, VOCAB, size=len(live)),
                [states[r] for r in live])
            for r, state in zip(live, new_states):
                states[r] = state
        assert kernels.allocation_count == settled
