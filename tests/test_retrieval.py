"""Unit tests for repro.retrieval: embeddings, exact search, index,
novelty, persistence (docs/RETRIEVAL.md)."""

import json

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.recipedb import generate_corpus
from repro.retrieval import (LAYOUT_VERSION, MEMORIZED_NOVELTY_THRESHOLD,
                             EmbeddingConfig, RecipeIndex, TextEmbedder,
                             exact_top_k, exists_on_disk,
                             query_from_ingredients, recipe_document,
                             summarize_novelty)

pytestmark = pytest.mark.retrieval


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(400, seed=11)


@pytest.fixture(scope="module")
def index(corpus):
    return RecipeIndex.from_recipes(corpus[:360],
                                    registry=MetricsRegistry())


@pytest.fixture(scope="module")
def held_out(corpus):
    return corpus[360:]


class TestEmbedder:
    def test_unit_norm(self):
        embedder = TextEmbedder()
        vector = embedder.embed("butter garlic chicken with rice")
        assert vector.dtype == np.float32
        assert np.isclose(np.linalg.norm(vector), 1.0, atol=1e-5)

    def test_deterministic_same_seed(self):
        a = TextEmbedder(EmbeddingConfig(seed=3))
        b = TextEmbedder(EmbeddingConfig(seed=3))
        text = "spicy paneer tikka with naan"
        assert np.array_equal(a.embed(text), b.embed(text))

    def test_seed_changes_embedding(self):
        text = "spicy paneer tikka with naan"
        a = TextEmbedder(EmbeddingConfig(seed=0)).embed(text)
        b = TextEmbedder(EmbeddingConfig(seed=1)).embed(text)
        assert not np.array_equal(a, b)

    def test_empty_text_is_zero_vector(self):
        vector = TextEmbedder().embed("   ")
        assert np.allclose(vector, 0.0)

    def test_batch_matches_single(self):
        embedder = TextEmbedder()
        texts = ["chicken and rice", "chocolate cake", "miso soup"]
        batch = embedder.embed_batch(texts)
        for row, text in zip(batch, texts):
            assert np.array_equal(row, embedder.embed(text))

    def test_similar_texts_score_higher(self):
        embedder = TextEmbedder()
        base = embedder.embed("grilled chicken with garlic butter")
        near = embedder.embed("grilled chicken with garlic sauce")
        far = embedder.embed("chocolate raspberry layer cake")
        assert float(base @ near) > float(base @ far)

    def test_fingerprint_stable(self):
        texts = ["one recipe", "another recipe"]
        a = TextEmbedder().fingerprint(texts)
        b = TextEmbedder().fingerprint(texts)
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(dim=0).validate()
        with pytest.raises(ValueError):
            EmbeddingConfig(char_ngrams=(5, 3)).validate()


class TestANN:
    """``exact_top_k``, the one search path.  There is no approximate
    index any more; the class keeps its name so the surviving test ids
    stay stable."""

    def test_brute_force_is_exact(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((50, 16)).astype(np.float32)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        query = vectors[7]
        rows, scores = exact_top_k(vectors, query, 3)
        assert rows[0] == 7
        assert np.isclose(scores[0], 1.0, atol=1e-5)
        assert list(scores) == sorted(scores, reverse=True)
        assert np.array_equal(scores, (vectors @ query)[rows])

    def test_self_query_finds_itself(self, index):
        row = 42
        rows, _ = exact_top_k(index.vectors, index.vectors[row], 1)
        assert rows[0] == row



class TestRecipeIndex:
    def test_search_returns_ranked_hits(self, index):
        hits = index.search("chicken garlic rice", k=5)
        assert len(hits) == 5
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)
        assert [hit.rank for hit in hits] == list(range(5))

    def test_corpus_document_retrieves_itself(self, index):
        hits = index.search(index.texts[17], k=1)
        assert hits[0].doc_id == index.doc_ids[17]
        assert hits[0].score > 0.999

    def test_search_validation(self, index):
        with pytest.raises(ValueError):
            index.search("   ")
        with pytest.raises(ValueError):
            index.search("chicken", k=0)

    def test_query_from_ingredients_deterministic(self):
        names = ["Chicken Breast", "garlic", " rice "]
        assert (query_from_ingredients(names)
                == query_from_ingredients(list(names)))
        assert query_from_ingredients(["", "  "]) == ""

    def test_search_ingredients(self, index):
        hits = index.search_ingredients(["chicken", "garlic"], k=3)
        assert len(hits) == 3

    def test_novelty_of_corpus_text_is_memorized(self, index):
        report = index.novelty(index.texts[5])
        assert report.novelty < MEMORIZED_NOVELTY_THRESHOLD
        assert report.memorized
        assert report.nearest_id == index.doc_ids[5]

    def test_novelty_of_unrelated_text(self, index):
        report = index.novelty("xylophone quantum blockchain zamboni")
        assert report.novelty > 0.3
        assert not report.memorized

    def test_novelty_summary(self, index, held_out):
        reports = index.novelty_batch(
            [recipe_document(r) for r in held_out[:5]])
        summary = summarize_novelty(reports)
        assert summary.count == 5
        assert summary.min_novelty <= summary.mean_novelty <= summary.max_novelty
        assert summarize_novelty([]).count == 0

    def test_metrics_recorded(self, index):
        index.search("paneer tikka", k=2)
        index.novelty("paneer tikka masala")
        names = {family.name for family in index.registry.families()}
        assert "retrieval_searches_total" in names
        assert "retrieval_search_seconds" in names
        assert "novelty_score" in names

    def test_stats(self, index):
        stats = index.stats()
        assert stats["documents"] == len(index)
        assert stats["dim"] == index.vectors.shape[1]
        assert stats["vector_bytes"] == index.vectors.nbytes


class TestPersistence:
    def test_round_trip_bit_identical(self, index, tmp_path):
        directory = tmp_path / "idx"
        index.save(directory)
        assert exists_on_disk(directory)
        loaded = RecipeIndex.load(directory, registry=MetricsRegistry())
        assert np.array_equal(np.asarray(loaded.vectors), index.vectors)
        assert loaded.doc_ids == index.doc_ids
        assert loaded.texts == index.texts
        query = "garlic chicken with rice"
        before = [(h.doc_id, round(h.score, 6))
                  for h in index.search(query, k=10)]
        after = [(h.doc_id, round(h.score, 6))
                 for h in loaded.search(query, k=10)]
        assert before == after

    def test_load_is_mmap_by_default(self, index, tmp_path):
        directory = tmp_path / "idx_mmap"
        index.save(directory)
        loaded = RecipeIndex.load(directory, registry=MetricsRegistry())
        assert isinstance(np.asarray(loaded.vectors).base, np.memmap) or \
            isinstance(loaded.vectors, np.memmap)
        assert loaded.stats()["mmap"]
        eager = RecipeIndex.load(directory, mmap=False,
                                 registry=MetricsRegistry())
        assert not eager.stats()["mmap"]

    def test_version_mismatch_rejected(self, index, tmp_path):
        directory = tmp_path / "idx_ver"
        index.save(directory)
        meta = json.loads((directory / "meta.json").read_text())
        meta["version"] = LAYOUT_VERSION + 1
        (directory / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="layout version"):
            RecipeIndex.load(directory, registry=MetricsRegistry())

    def test_corrupt_size_rejected(self, index, tmp_path):
        directory = tmp_path / "idx_corrupt"
        index.save(directory)
        texts = json.loads((directory / "texts.json").read_text())
        (directory / "texts.json").write_text(json.dumps(texts[:-3]))
        with pytest.raises(ValueError, match="corrupt"):
            RecipeIndex.load(directory, registry=MetricsRegistry())

    def test_exists_on_disk_partial(self, index, tmp_path):
        directory = tmp_path / "idx_partial"
        index.save(directory)
        assert exists_on_disk(directory)
        (directory / "texts.json").unlink()
        assert not exists_on_disk(directory)

    def test_leftovers_of_an_earlier_writer_are_ignored(self, index,
                                                        tmp_path):
        """A v1 directory written before search went exact-only also
        holds ``ann.npz`` and ``lsh``/``bits`` keys in ``meta.json``
        (``benchmarks/e2e/.cache`` is one): it loads, and answers like
        a fresh build."""
        directory = tmp_path / "idx_old"
        index.save(directory)
        dim = index.vectors.shape[1]
        np.savez(directory / "ann.npz",
                 planes=np.zeros((10, dim, 5), dtype=np.float32),
                 codes=np.zeros((10, len(index)), dtype=np.uint64),
                 center=np.zeros(dim, dtype=np.float32))
        meta = json.loads((directory / "meta.json").read_text())
        meta["lsh"] = {"tables": 10, "bits": None, "probes": 24,
                       "target_bucket": 12, "seed": 0}
        meta["bits"] = 5
        (directory / "meta.json").write_text(json.dumps(meta))
        assert exists_on_disk(directory)
        loaded = RecipeIndex.load(directory, registry=MetricsRegistry())
        for query in ("garlic chicken with rice", index.texts[3]):
            assert ([(h.doc_id, h.score) for h in loaded.search(query, k=10)]
                    == [(h.doc_id, h.score) for h in index.search(query, k=10)])
