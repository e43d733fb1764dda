"""Property tests for repro.retrieval (docs/RETRIEVAL.md).

Three invariants everything downstream leans on:

* **search is the exact top-k** — for any query and ``k`` the hits are
  the head of the full score vector, best first, ties to the lower
  row;
* **embedding determinism** — the same text embeds bit-identically
  under the same config, across texts, orderings and *processes* (a
  fresh interpreter reproduces the fingerprint — CRC hashing, not
  Python's salted ``hash``);
* **RAG-off bit-identity** — ``exemplars=None`` / ``retrieve_k=0``
  generation is bit-identical to the pre-retrieval pipeline: the RAG
  prefix only exists when exemplars are actually passed.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import GenerationConfig
from repro.recipedb import generate_corpus
from repro.retrieval import (EmbeddingConfig, RecipeIndex, TextEmbedder,
                             recipe_document)

pytestmark = [pytest.mark.property, pytest.mark.retrieval]

_word = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                max_size=10)
_text = st.lists(_word, min_size=1, max_size=12).map(" ".join)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(340, seed=23)


@pytest.fixture(scope="module")
def index(corpus):
    from repro.obs import MetricsRegistry
    return RecipeIndex.from_recipes(corpus[:300],
                                    registry=MetricsRegistry())


@pytest.fixture(scope="module")
def tied_index(corpus):
    """Every document twice: each score is tied across two rows."""
    from repro.obs import MetricsRegistry
    texts = [recipe_document(recipe) for recipe in corpus[:60]]
    return RecipeIndex.build(texts * 2, registry=MetricsRegistry())


class TestANNvsOracle:
    """Search against the full-argsort oracle (the approximate index is
    gone; the class keeps its name so test ids stay stable)."""

    @given(query=_text, k=st.integers(min_value=1, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_search_equals_full_argsort(self, index, tied_index, query, k):
        """For ANY query and k, on a corpus with and without duplicate
        rows: the hits are the head of the full score vector sorted
        best first with ties to the lower row — min(k, n) of them,
        carrying exactly those float32 scores."""
        for idx in (index, tied_index):
            scores = idx.vectors @ idx.embedder.embed(query)
            rows = np.lexsort((np.arange(len(idx)), -scores))[:k]
            hits = idx.search(query, k=k)
            assert len(hits) == min(k, len(idx))
            assert ([hit.doc_id for hit in hits]
                    == [idx.doc_ids[row] for row in rows])
            assert ([hit.score for hit in hits]
                    == [float(scores[row]) for row in rows])
            assert all(a.score >= b.score for a, b in zip(hits, hits[1:]))

    @given(k=st.integers(min_value=1, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_result_size_is_min_k_n(self, index, k):
        hits = index.search("garlic chicken stew", k=k)
        assert len(hits) == min(k, len(index))


class TestEmbeddingDeterminism:
    @given(text=_text)
    @settings(max_examples=40, deadline=None)
    def test_embed_is_pure(self, text):
        a = TextEmbedder(EmbeddingConfig(seed=7))
        b = TextEmbedder(EmbeddingConfig(seed=7))
        assert np.array_equal(a.embed(text), b.embed(text))
        # Memoization must not change results: embedding other texts
        # first leaves this text's vector untouched.
        b.embed("unrelated text to warm the cache")
        assert np.array_equal(a.embed(text), b.embed(text))

    @given(texts=st.lists(_text, min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_batch_order_independent(self, texts):
        embedder = TextEmbedder()
        batch = embedder.embed_batch(texts)
        for row, text in zip(batch, texts):
            assert np.array_equal(row, TextEmbedder().embed(text))

    def test_cross_process_fingerprint(self):
        """A fresh interpreter reproduces the exact embedding bytes."""
        texts = ["butter chicken with rice",
                 "<TITLE_START> chocolate cake <TITLE_END>",
                 "miso soup with tofu and scallions"]
        local = TextEmbedder(EmbeddingConfig(seed=5)).fingerprint(texts)
        script = (
            "from repro.retrieval import TextEmbedder, EmbeddingConfig\n"
            f"texts = {texts!r}\n"
            "print(TextEmbedder(EmbeddingConfig(seed=5))"
            ".fingerprint(texts))\n")
        import repro
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src_dir})
        assert result.stdout.strip() == local
        # And a different seed is a different space.
        other = TextEmbedder(EmbeddingConfig(seed=6)).fingerprint(texts)
        assert other != local


@pytest.fixture(scope="module")
def pipeline():
    from repro.core import PipelineConfig, Ratatouille
    from repro.preprocess import preprocess
    from repro.training import TrainingConfig

    texts, _ = preprocess(generate_corpus(30, seed=31))
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=30, batch_size=4, warmup_steps=5,
                                eval_every=10**9))
    return Ratatouille.from_texts(texts, config=config)


class TestRAGOffBitIdentity:
    def test_prepare_prompt_identical_without_exemplars(self, pipeline):
        names = ["chicken", "garlic", "rice"]
        base = pipeline.prepare_prompt(names)
        off = pipeline.prepare_prompt(names, exemplars=None)
        empty = pipeline.prepare_prompt(names, exemplars=[])
        blank = pipeline.prepare_prompt(names, exemplars=["  ", ""])
        assert base[0] == off[0] == empty[0] == blank[0]
        assert base[1] == off[1] == empty[1] == blank[1]

    def test_generation_identical_without_exemplars(self, pipeline):
        names = ["chicken", "garlic"]
        config = GenerationConfig(max_new_tokens=24, seed=9)
        baseline = pipeline.generate(names, generation=config)
        again = pipeline.generate(
            names, generation=GenerationConfig(max_new_tokens=24, seed=9),
            exemplars=None)
        assert baseline.raw_text == again.raw_text

    def test_exemplars_change_prompt_but_not_parse(self, pipeline, index):
        names = ["chicken", "garlic"]
        exemplar_texts = [hit.text for hit
                          in index.search_ingredients(names, k=2)]
        base_text, base_ids, _, _ = pipeline.prepare_prompt(names)
        rag_text, rag_ids, _, _ = pipeline.prepare_prompt(
            names, exemplars=exemplar_texts)
        # The parseable prompt text is unchanged; only the token prompt
        # grows, by a deterministic prefix (prefix-cache friendliness).
        assert rag_text == base_text
        assert len(rag_ids) > len(base_ids)
        assert rag_ids[-len(base_ids):] == base_ids
        again = pipeline.prepare_prompt(names, exemplars=exemplar_texts)
        assert again[1] == rag_ids
