"""Integration tests for the retrieval surface of the backend
(docs/RETRIEVAL.md): /api/search, retrieve_k conditioning, novelty in
responses, validation -> 400, and the retrieve_k=0 bit-identity
guarantee against a retrieval-free backend."""

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.obs import MetricsRegistry
from repro.preprocess import preprocess
from repro.recipedb import generate_corpus
from repro.training import TrainingConfig
from repro.webapp import (ApiError, RatatouilleClient, Server,
                          create_backend)
from repro.webapp.backend import MAX_RETRIEVE_K, MAX_SEARCH_K

pytestmark = pytest.mark.retrieval


@pytest.fixture(scope="module")
def pipeline():
    texts, _ = preprocess(generate_corpus(30, seed=31))
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=30, batch_size=4, warmup_steps=5,
                                eval_every=10**9))
    return Ratatouille.from_texts(texts, config=config)


@pytest.fixture(scope="module")
def registry():
    return MetricsRegistry()


@pytest.fixture(scope="module")
def backend(pipeline, registry):
    index = pipeline.build_retrieval_index(registry=registry)
    app = create_backend(pipeline, registry=registry,
                         retrieval_index=index, retrieve_k=0)
    with Server(app) as server:
        yield server
    app.engine.stop()


@pytest.fixture(scope="module")
def plain_backend(pipeline):
    app = create_backend(pipeline, registry=MetricsRegistry())
    with Server(app) as server:
        yield server
    app.engine.stop()


@pytest.fixture(scope="module")
def client(backend):
    return RatatouilleClient(backend.url, retry=None)


class TestSearchEndpoint:
    def test_query_search(self, client):
        result = client.search(query="chicken with garlic", k=3)
        assert result["documents"] > 0
        assert len(result["hits"]) == 3
        scores = [hit["score"] for hit in result["hits"]]
        assert scores == sorted(scores, reverse=True)
        assert "text" not in result["hits"][0]

    def test_ingredient_search_with_text(self, client):
        result = client.search(ingredients=["garlic", "onion"], k=2,
                               include_text=True)
        assert len(result["hits"]) == 2
        assert result["hits"][0]["text"]

    def test_exact_mode(self, client):
        # Exact is the only mode: a body that still carries the old
        # `exact` field (in any spelling) is answered like one that
        # does not — it is just an unknown field.
        payload = {"query": "chicken with garlic", "k": 3}
        plain = client._request("POST", "/api/search", payload)
        for value in (True, False, "false"):
            assert client._request("POST", "/api/search",
                                   {**payload, "exact": value}) == plain
        assert "mode" not in plain

    @pytest.mark.parametrize("payload", [
        {},                                      # neither query nor list
        {"query": "   "},                        # blank query
        {"query": "x" * 2001},                   # over the length cap
        {"ingredients": []},                     # empty list
        {"query": "ok", "k": 0},                 # k too small
        {"query": "ok", "k": MAX_SEARCH_K + 1},  # k too large
        {"query": "ok", "k": "five"},            # k wrong type
        {"query": "ok", "include_text": "false"},  # flag not a JSON bool
    ])
    def test_validation_400(self, client, payload):
        with pytest.raises(ApiError) as excinfo:
            client._request("POST", "/api/search", payload)
        assert excinfo.value.status == 400

    def test_search_disabled_is_503(self, plain_backend):
        plain = RatatouilleClient(plain_backend.url, retry=None)
        with pytest.raises(ApiError) as excinfo:
            plain.search(query="anything")
        assert excinfo.value.status == 503


class TestRetrievalConditionedGeneration:
    def test_generate_carries_novelty(self, client):
        recipe = client.generate(["garlic", "onion"], max_new_tokens=12,
                                 seed=3)
        assert "novelty" in recipe
        report = recipe["novelty"]
        assert 0.0 <= report["novelty"] <= 1.0
        assert {"similarity", "nearest_id", "memorized"} <= set(report)
        assert recipe["retrieved_k"] == 0

    def test_generate_with_retrieve_k(self, client):
        recipe = client.generate(["garlic", "onion"], max_new_tokens=12,
                                 seed=3, retrieve_k=2)
        assert recipe["retrieved_k"] == 2
        assert "retrieval_degraded" not in recipe
        assert "title" in recipe

    def test_stream_final_event_carries_novelty(self, client):
        events = list(client.generate_stream(["garlic"], max_new_tokens=8,
                                             seed=1, retrieve_k=1))
        final = events[-1]
        assert final.get("done") is True
        assert "novelty" in final["recipe"]
        assert final["recipe"]["retrieved_k"] == 1

    @pytest.mark.parametrize("retrieve_k", [-1, MAX_RETRIEVE_K + 1, "two",
                                            2.5, True])
    def test_bad_retrieve_k_400(self, client, retrieve_k):
        with pytest.raises(ApiError) as excinfo:
            client.generate(["garlic"], max_new_tokens=8,
                            retrieve_k=retrieve_k)
        assert excinfo.value.status == 400

    def test_retrieve_k_without_index_400(self, plain_backend):
        plain = RatatouilleClient(plain_backend.url, retry=None)
        with pytest.raises(ApiError) as excinfo:
            plain.generate(["garlic"], max_new_tokens=8, retrieve_k=2)
        assert excinfo.value.status == 400

    def test_retrieve_k_zero_bit_identical_to_plain_backend(
            self, client, plain_backend):
        """The acceptance criterion: a retrieval-enabled backend with
        retrieve_k=0 generates byte-for-byte what a retrieval-free
        backend generates."""
        plain = RatatouilleClient(plain_backend.url, retry=None)
        payload = dict(max_new_tokens=24, seed=11, temperature=0.8)
        with_index = client.generate(["chicken", "rice"], **payload)
        without = plain.generate(["chicken", "rice"], **payload)
        assert with_index["title"] == without["title"]
        assert with_index["ingredients"] == without["ingredients"]
        assert with_index["instructions"] == without["instructions"]


class TestRetrievalOps:
    def test_health_reports_retrieval(self, client):
        health = client.health()
        assert health["retrieval"]["enabled"] is True
        assert health["retrieval"]["documents"] > 0
        assert health["retrieval"]["default_k"] == 0

    def test_health_without_index(self, plain_backend):
        plain = RatatouilleClient(plain_backend.url, retry=None)
        assert plain.health()["retrieval"]["enabled"] is False

    def test_retrieval_stats_route(self, client):
        stats = client.retrieval_stats()
        assert stats["enabled"] is True
        assert stats["documents"] > 0
        assert stats["vector_bytes"] > 0

    def test_retrieval_metrics_exposed(self, client, registry):
        client.search(query="garlic soup", k=1)
        client.generate(["garlic"], max_new_tokens=8, seed=0)
        names = {family.name for family in registry.families()}
        assert "retrieval_searches_total" in names
        assert "retrieval_search_seconds" in names
        assert "novelty_score" in names
