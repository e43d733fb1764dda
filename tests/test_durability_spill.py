"""Unit tests for prefix-cache spill snapshots (docs/DURABILITY.md).

Versioned commit-point layout (a crash mid-save leaves the previous
snapshot live), the model-fingerprint gate against stale KV state,
mmap array identity/aliasing, and the fail-closed unpickler.
"""

import os
import pickle

import numpy as np
import pytest

from repro.durability import CacheSpill, SpillError, model_fingerprint
from repro.models import (GenerationConfig, distilgpt2, generate,
                          prefill_prompt)
from repro.models.lstm import LSTMConfig, LSTMLanguageModel
from repro.obs import NullRegistry, NullTracer
from repro.serving import InferenceEngine, PrefixCache
from repro.serving.engine import _state_nbytes

pytestmark = pytest.mark.durability


def _model(seed=0):
    rng = np.random.default_rng(seed)
    model = LSTMLanguageModel(LSTMConfig(vocab_size=16, d_embed=4,
                                         d_hidden=8, num_layers=1,
                                         dropout=0.0))
    for param in model.parameters():
        param.data[...] = rng.normal(size=param.data.shape)
    return model


def _filled_cache(entries=4):
    cache = PrefixCache(max_bytes=1 << 20)
    for index in range(entries):
        value = {"states": np.arange(8, dtype=np.float32) + index,
                 "depth": index}
        cache.insert([1, 2, index], value, nbytes=64)
    return cache


class TestRoundTrip:
    def test_save_and_load_restores_entries_and_order(self, tmp_path):
        cache = _filled_cache()
        spill = CacheSpill(tmp_path / "spill")
        summary = spill.save(cache)
        assert summary["entries"] == 4

        restored = PrefixCache(max_bytes=1 << 20)
        assert spill.load_into(restored) == 4
        # Same keys, same payloads, same LRU (oldest-first) order.
        original = cache.entries_snapshot()
        rebuilt = restored.entries_snapshot()
        assert [key for key, _, _ in rebuilt] == [key for key, _, _
                                                  in original]
        for (_, want, _), (_, got, _) in zip(original, rebuilt):
            assert got["depth"] == want["depth"]
            assert np.array_equal(got["states"], want["states"])

    def test_loaded_arrays_are_readonly_views(self, tmp_path):
        spill = CacheSpill(tmp_path / "spill")
        spill.save(_filled_cache())
        restored = PrefixCache(max_bytes=1 << 20)
        spill.load_into(restored)
        _, value, _ = restored.entries_snapshot()[0]
        assert not value["states"].flags.writeable

    def test_aliased_arrays_stay_aliased_after_reload(self, tmp_path):
        shared = np.ones(16, dtype=np.float32)
        cache = PrefixCache(max_bytes=1 << 20)
        cache.insert([1], {"states": shared}, nbytes=64)
        cache.insert([2], {"states": shared}, nbytes=64)
        spill = CacheSpill(tmp_path / "spill")
        spill.save(cache)
        restored = PrefixCache(max_bytes=1 << 20)
        spill.load_into(restored)
        (_, first, _), (_, second, _) = restored.entries_snapshot()
        # Deduplicated by identity at save time => one payload, one view.
        assert first["states"] is second["states"]

    def test_load_without_snapshot_is_cold_start(self, tmp_path):
        spill = CacheSpill(tmp_path / "spill")
        assert spill.exists() is False
        assert spill.load_into(PrefixCache(max_bytes=1024)) == 0


class TestCommitPoint:
    def test_crash_mid_save_leaves_previous_version_live(self, tmp_path):
        spill = CacheSpill(tmp_path / "spill")
        spill.save(_filled_cache(entries=3))
        # A later save that died before rewriting CURRENT: the version
        # directory exists (even complete) but was never committed.
        orphan = tmp_path / "spill" / "v000099"
        orphan.mkdir()
        (orphan / "meta.json").write_text("{}", encoding="utf-8")
        restored = PrefixCache(max_bytes=1 << 20)
        assert spill.load_into(restored) == 3

    def test_new_save_supersedes_and_prunes_old_versions(self, tmp_path):
        spill = CacheSpill(tmp_path / "spill", keep_versions=0)
        spill.save(_filled_cache(entries=2))
        spill.save(_filled_cache(entries=4))
        current = (tmp_path / "spill" / "CURRENT").read_text("utf-8").strip()
        versions = sorted(path.name for path
                          in (tmp_path / "spill").glob("v*"))
        assert versions == [current]
        restored = PrefixCache(max_bytes=1 << 20)
        assert spill.load_into(restored) == 4


class TestFingerprintGate:
    def test_same_weights_same_fingerprint(self):
        assert model_fingerprint(_model(0)) == model_fingerprint(_model(0))

    def test_weight_change_changes_fingerprint(self):
        model = _model(0)
        before = model_fingerprint(model)
        next(iter(model.parameters())).data[...] += 1.0
        assert model_fingerprint(model) != before

    def test_mismatched_model_loads_cold(self, tmp_path):
        saver = CacheSpill(tmp_path / "spill", model=_model(0))
        saver.save(_filled_cache())
        loader = CacheSpill(tmp_path / "spill", model=_model(1))
        assert loader.load_into(PrefixCache(max_bytes=1 << 20)) == 0

    def test_matching_model_loads_warm(self, tmp_path):
        model = _model(0)
        CacheSpill(tmp_path / "spill", model=model).save(_filled_cache())
        loader = CacheSpill(tmp_path / "spill", model=_model(0))
        assert loader.load_into(PrefixCache(max_bytes=1 << 20)) == 4


class TestFailClosed:
    def test_truncated_blob_raises_spill_error(self, tmp_path):
        spill = CacheSpill(tmp_path / "spill")
        spill.save(_filled_cache())
        current = (tmp_path / "spill" / "CURRENT").read_text("utf-8").strip()
        blob = tmp_path / "spill" / current / "tensors.bin"
        blob.write_bytes(blob.read_bytes()[:8])
        with pytest.raises(SpillError):
            spill.load_into(PrefixCache(max_bytes=1 << 20))

    def test_unpickler_refuses_non_whitelisted_modules(self, tmp_path):
        spill = CacheSpill(tmp_path / "spill")
        spill.save(_filled_cache(entries=1))
        current = (tmp_path / "spill" / "CURRENT").read_text("utf-8").strip()
        (tmp_path / "spill" / current / "entries.pkl").write_bytes(
            pickle.dumps(os.system))
        with pytest.raises(SpillError):
            spill.load_into(PrefixCache(max_bytes=1 << 20))

    def test_unpickler_refuses_dangerous_builtins(self, tmp_path):
        # builtins.eval via GLOBAL+REDUCE is the classic pickle RCE;
        # only the named safe constructors may resolve from builtins.
        spill = CacheSpill(tmp_path / "spill")
        spill.save(_filled_cache(entries=1))
        current = (tmp_path / "spill" / "CURRENT").read_text("utf-8").strip()
        (tmp_path / "spill" / current / "entries.pkl").write_bytes(
            pickle.dumps(eval))
        with pytest.raises(SpillError):
            spill.load_into(PrefixCache(max_bytes=1 << 20))

    def test_unpickler_refuses_prefix_spoofed_modules(self, tmp_path):
        # "numpy_evil" must not ride in on a bare "numpy" prefix match.
        spill = CacheSpill(tmp_path / "spill")
        spill.save(_filled_cache(entries=1))
        current = (tmp_path / "spill" / "CURRENT").read_text("utf-8").strip()
        (tmp_path / "spill" / current / "entries.pkl").write_bytes(
            b"cnumpy_evil\nboom\n.")
        with pytest.raises(SpillError):
            spill.load_into(PrefixCache(max_bytes=1 << 20))


class TestEngineWarmStart:
    """Spilled GPT-2 entries served by a fresh engine (docs/SERVING.md §4)."""

    VOCAB = 32

    @pytest.fixture(scope="class")
    def gpt2(self):
        return distilgpt2(vocab_size=self.VOCAB, context_length=128)

    def _tokens(self, seed, length):
        rng = np.random.default_rng(seed)
        return [int(t) for t in rng.integers(0, self.VOCAB, size=length)]

    def _serve(self, engine, model, query, config):
        before = engine.prefix_cache.stats.hit_tokens
        assert engine.generate(query, config) == generate(
            model, query, config, registry=NullRegistry(),
            tracer=NullTracer())
        return engine.prefix_cache.stats.hit_tokens - before

    def test_boundary_entry_spill_still_serves(self, gpt2, tmp_path):
        # Spills written before one-entry-per-prompt hold an entry at
        # every chunk boundary; they load and serve as exact hits.
        prompt = self._tokens(1, 70)
        cache = PrefixCache(max_bytes=1 << 24, chunk_size=32)
        for end in (32, 64, 70):
            logits, state = prefill_prompt(gpt2, prompt[:end])
            snap, logits = gpt2.compact_state(state), logits.copy()
            cache.insert(prompt[:end], (logits, snap),
                         _state_nbytes(snap) + logits.nbytes)
        CacheSpill(tmp_path / "spill", model=gpt2).save(cache)
        config = GenerationConfig(max_new_tokens=5, seed=3)
        with InferenceEngine(gpt2, registry=NullRegistry(),
                             tracer=NullTracer()) as engine:
            assert CacheSpill(tmp_path / "spill", model=gpt2).load_into(
                engine.prefix_cache) == 3
            branch = prompt[:64] + self._tokens(2, 9)
            hits = [self._serve(engine, gpt2, query, config)
                    for query in (prompt, prompt[:64], branch)]
        assert hits == [70, 64, 64]

    def test_warm_start_cuts_from_mapped_entries(self, gpt2, tmp_path):
        prompt = self._tokens(3, 100)
        config = GenerationConfig(max_new_tokens=5, seed=4)
        with InferenceEngine(gpt2, registry=NullRegistry(),
                             tracer=NullTracer()) as first:
            first.generate(prompt, config)
            assert len(first.prefix_cache) == 1
            CacheSpill(tmp_path / "spill", model=gpt2).save(
                first.prefix_cache)
        with InferenceEngine(gpt2, registry=NullRegistry(),
                             tracer=NullTracer()) as second:
            assert CacheSpill(tmp_path / "spill", model=gpt2).load_into(
                second.prefix_cache) == 1
            (_, (_, state), _), = second.prefix_cache.entries_snapshot()
            assert all(not c.k.flags.writeable for c in state.caches)
            branch = prompt[:70] + self._tokens(5, 6)
            assert self._serve(second, gpt2, branch, config) == 64
            assert self._serve(second, gpt2, prompt[:96], config) == 64
            # The mapped entry is untouched, and still the full-hit source.
            assert self._serve(second, gpt2, prompt, config) == 100
