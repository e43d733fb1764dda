"""Golden token digests: the absolute bits of generation, pinned.

Every bit-identity test elsewhere compares two paths of this repo with
each other (kernels == Tensor graph, engine == ``models.generate``), so
a numerics change both paths share — a different GELU cube, a
reordered reduction — passes all of them.  These tests pin a sha256 of
the token lists ``models.generate`` produces for fixed models, prompts
and seeds, and require one ``InferenceEngine`` batch to reproduce the
GPT-2 ones (the engine serves GPT-2 alone).

On untrained models a last-bit change rarely flips a token, so each
digest also covers the bytes of the logits every decision was made
from, seen by a pass-through :class:`LogitsProcessor` (the engine hands
its processors the same logits as ``models.generate`` by contract).

A digest moving is not a failure of the change that moved it; it is
the change, made visible.  Re-derive the rows it moves (the assertion
message prints the new digest) and say which rows moved and why.

The bits depend on the BLAS kernel and on numpy's SIMD dispatch, so the
digests are keyed by that fingerprint.  On any other fingerprint the
tests skip with the fingerprint named; add a key for it by running them
once on the known-good code.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.models import GenerationConfig, distilgpt2, generate, word_lstm
from repro.models.generation import LogitsProcessor
from repro.obs import NullRegistry, NullTracer
from repro.serving import EngineConfig, InferenceEngine

VOCAB = 64
PROMPTS = [[1, 2, 3], [7, 11, 13, 17, 19, 23, 29, 31, 37, 41],
           [5, 60, 12, 33, 9, 48, 21]]
CONFIGS = {
    "greedy": GenerationConfig(max_new_tokens=32, strategy="greedy"),
    "sample": GenerationConfig(max_new_tokens=32, strategy="sample",
                               temperature=0.8, top_k=16, seed=5),
}
MODELS = {
    # The untrained seeded presets: weights are a function of the seed.
    "distilgpt2": lambda: distilgpt2(vocab_size=VOCAB, seed=0,
                                     context_length=128),
    "word_lstm": lambda: word_lstm(vocab_size=VOCAB, seed=0),
}
CASES = [(model, config) for model in MODELS for config in CONFIGS]
ENGINE_CASES = [(model, config) for model, config in CASES
                if model == "distilgpt2"]

DIGESTS = {
    "numpy 2.4.6; scipy-openblas 0.3.31.188.0; "
    "baseline X86_V2; dispatched X86_V3 X86_V4 AVX512_ICL AVX512_SPR": {
        # Re-recorded when decode's dense ops and tied head became
        # batch-invariant 2-D GEMMs (docs/KERNELS.md §1): every decoded
        # row now has the bits of a 2-row GEMM, not of a GEMV.
        "distilgpt2/greedy":
            "c3d1363bc13ed08a784ef728d0d5cd445aad743f7a9eaa6f8a1fa9618353a832",
        "distilgpt2/sample":
            "32711147caddbc66be2b38c3ca2febb5e67417cce04f981ab225860be86256e5",
        "word_lstm/greedy":
            "27e8ba4bb96cf10cf3c0f97be3f24c7b120a5d8da978f48e8e2aedb78a32b241",
        "word_lstm/sample":
            "e7fd33fe82037bef538c6625514df6ea17b5af1f14cc6046c7c3ea578ffdacf3",
    },
}


def _fingerprint():
    """numpy version, BLAS name and version, and the SIMD targets numpy
    dispatches to on this CPU — what the bits of a forward depend on."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 prints and cannot return it
        return None
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return (f"numpy {np.__version__}; {blas['name']} {blas['version']}; "
            f"baseline {' '.join(simd['baseline'])}; "
            f"dispatched {' '.join(simd['found'])}")


def _expected(case):
    fingerprint = _fingerprint()
    if fingerprint not in DIGESTS:
        pytest.skip(f"no golden digests for this numerics fingerprint: "
                    f"{fingerprint}")
    return DIGESTS[fingerprint][case]


class _LogitsDigest(LogitsProcessor):
    """Pass-through processor hashing the logits of every decision."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def __call__(self, logits, generated):
        self.sha.update(logits.tobytes())
        return logits


def _digest(token_lists, recorders):
    logits = [recorder.sha.hexdigest() for recorder in recorders]
    return hashlib.sha256(
        json.dumps([token_lists, logits]).encode()).hexdigest()


def _cases(cases):
    return pytest.mark.parametrize("model_name,config_name", cases,
                                   ids=[f"{m}-{c}" for m, c in cases])


class TestGoldenDigests:
    @_cases(CASES)
    def test_sequential_generate(self, model_name, config_name):
        expected = _expected(f"{model_name}/{config_name}")
        model = MODELS[model_name]()
        recorders = [_LogitsDigest() for _ in PROMPTS]
        tokens = [generate(model, prompt, CONFIGS[config_name],
                           processors=[recorder], registry=NullRegistry(),
                           tracer=NullTracer())
                  for prompt, recorder in zip(PROMPTS, recorders)]
        digest = _digest(tokens, recorders)
        assert digest == expected, f"new digest {digest}"

    @_cases(ENGINE_CASES)
    def test_engine_batch(self, model_name, config_name):
        expected = _expected(f"{model_name}/{config_name}")
        model = MODELS[model_name]()
        model.eval()
        model.enable_kernels()
        recorders = [_LogitsDigest() for _ in PROMPTS]
        with InferenceEngine(model, EngineConfig(max_batch_size=8),
                             registry=NullRegistry(),
                             tracer=NullTracer()) as engine:
            handles = [engine.submit(prompt, CONFIGS[config_name],
                                     processors=[recorder])
                       for prompt, recorder in zip(PROMPTS, recorders)]
            tokens = [handle.result(timeout=60) for handle in handles]
        digest = _digest(tokens, recorders)
        assert digest == expected, f"new digest {digest}"
