"""Backend serving integration: validation 400s, streaming, engine stats.

Spins up the real HTTP server with an engine-backed backend and
exercises the serving surface the way a browser would.
"""

import json
from urllib.request import urlopen

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.models import GenerationConfig
from repro.obs import MetricsRegistry, Tracer
from repro.preprocess import preprocess
from repro.recipedb import generate_corpus
from repro.training import TrainingConfig
from repro.webapp import ApiError, RatatouilleClient, Server, create_backend
from repro.webapp.framework import Request
from repro.webapp.service import MAX_NEW_TOKENS_CAP, _parse_generation_request


@pytest.fixture(scope="module")
def pipeline():
    texts, _ = preprocess(generate_corpus(25, seed=7))
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=20, batch_size=4, warmup_steps=5,
                                eval_every=10**9))
    return Ratatouille.from_texts(texts, config=config)


@pytest.fixture(scope="module")
def registry():
    return MetricsRegistry()


@pytest.fixture(scope="module")
def backend(pipeline, registry):
    app = create_backend(pipeline, registry=registry, tracer=Tracer())
    with Server(app) as server:
        yield server
    app.engine.stop()


@pytest.fixture(scope="module")
def client(backend):
    return RatatouilleClient(backend.url)


class TestValidation:
    @pytest.mark.parametrize("payload", [
        {"ingredients": []},
        {"ingredients": "garlic"},
        {"ingredients": ["x"], "temperature": 0},
        {"ingredients": ["x"], "temperature": "hot"},
        {"ingredients": ["x"], "top_k": -1},
        {"ingredients": ["x"], "top_p": 0},
        {"ingredients": ["x"], "top_p": 1.5},
        {"ingredients": ["x"], "max_new_tokens": 0},
        {"ingredients": ["x"], "max_new_tokens": MAX_NEW_TOKENS_CAP + 1},
        {"ingredients": ["x"], "max_new_tokens": None},
        {"ingredients": ["x"], "strategy": "magic"},
        {"ingredients": ["x"], "length_penalty": 3.0},
        {"ingredients": ["x"], "repetition_penalty": 0.5},
        {"ingredients": ["x"], "beam_size": 0},
        {"ingredients": ["x"] * 21},
        [1],
        "x",
    ])
    def test_bad_payloads_are_400(self, payload):
        with pytest.raises(ValueError):
            _parse_generation_request(payload)

    @pytest.mark.parametrize("path", [
        "/api/generate", "/api/generate_async", "/api/generate_stream",
        "/api/suggest", "/api/search"])
    @pytest.mark.parametrize("body", [b"[1]", b'"x"'])
    def test_non_object_body_is_400_on_every_post(self, backend, path, body):
        response = backend.app.dispatch(Request("POST", path, {}, {}, body))
        if path == "/api/search":   # no index here: refused before parsing
            assert response.status == 503
        else:
            assert response.status == 400
            assert b"JSON object" in response.body

    @pytest.mark.parametrize("limit", [None, "many", -1])
    def test_bad_suggest_limit_is_400(self, backend, limit):
        body = json.dumps({"ingredients": ["garlic"], "limit": limit})
        response = backend.app.dispatch(Request(
            "POST", "/api/suggest", {}, {}, body.encode("utf-8")))
        assert response.status == 400
        assert b"'limit'" in response.body

    def test_negative_ingredients_limit_is_400(self, backend):
        response = backend.app.dispatch(Request(
            "GET", "/api/ingredients", {"limit": ["-1"]}, {}))
        assert response.status == 400
        assert b"'limit'" in response.body

    def test_http_status_is_400(self, client):
        with pytest.raises(ApiError) as excinfo:
            client.generate(["garlic"], temperature=-2.0)
        assert excinfo.value.status == 400
        with pytest.raises(ApiError) as excinfo:
            client.generate(["garlic"], max_new_tokens=10**6)
        assert excinfo.value.status == 400

    def test_cap_boundary_is_accepted(self):
        names, config, _ = _parse_generation_request(
            {"ingredients": ["x"], "max_new_tokens": MAX_NEW_TOKENS_CAP})
        assert config.max_new_tokens == MAX_NEW_TOKENS_CAP

    def test_length_penalty_round_trips(self):
        _, config, _ = _parse_generation_request(
            {"ingredients": ["x"], "strategy": "beam", "beam_size": 2,
             "length_penalty": 1.1})
        assert config.length_penalty == 1.1
        config.validate()


class TestEngineBackedGeneration:
    def test_generate_round_trip(self, client):
        recipe = client.generate(["chicken breast", "garlic"],
                                 seed=5, max_new_tokens=40)
        assert "instructions" in recipe and "title" in recipe

    def test_seed_determinism_through_engine(self, client):
        a = client.generate(["garlic", "onion"], seed=11, max_new_tokens=30)
        b = client.generate(["garlic", "onion"], seed=11, max_new_tokens=30)
        assert a["title"] == b["title"]
        assert a["instructions"] == b["instructions"]

    def test_beam_request_served_via_fallback(self, client):
        recipe = client.generate(["garlic"], strategy="beam", beam_size=2,
                                 max_new_tokens=12, length_penalty=1.0)
        assert "instructions" in recipe

    def test_stream_endpoint_matches_blocking_endpoint(self, client):
        options = {"seed": 21, "max_new_tokens": 25}
        blocking = client.generate(["garlic", "onion"], **options)
        events = list(client.generate_stream(["garlic", "onion"], **options))
        tokens = [e for e in events if "token" in e]
        final = events[-1]
        assert final.get("done") is True
        assert len(tokens) >= 1
        assert "".join(e["text"] for e in tokens).strip()
        assert final["recipe"]["title"] == blocking["title"]
        assert final["recipe"]["instructions"] == blocking["instructions"]

    def test_stream_validates_payload(self, client):
        with pytest.raises(ApiError) as excinfo:
            list(client.generate_stream(["garlic"], temperature=-1))
        assert excinfo.value.status == 400

    def test_stream_rejects_beam(self, client):
        with pytest.raises(ApiError) as excinfo:
            list(client.generate_stream(["garlic"], strategy="beam"))
        assert excinfo.value.status == 400

    def test_engine_stats_endpoint(self, client):
        stats = client.engine_stats()
        assert stats["enabled"] is True
        assert stats["max_batch_size"] >= 1
        assert "prefix_cache" in stats

    def test_health_reports_fleet_of_one(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["healthy"] is True

    def test_engine_metrics_exposed(self, backend, registry):
        with urlopen(backend.url + "/api/metrics?format=text",
                     timeout=10) as response:
            text = response.read().decode("utf-8")
        assert "engine_requests_total" in text
        assert "engine_batch_occupancy" in text
        assert "engine_prefix_cache_hit_rate" in text
        assert "engine_ttft_seconds" in text
        payload = json.loads(urlopen(backend.url + "/api/metrics",
                                     timeout=10).read())
        names = set(payload["metrics"])
        assert {"engine_tokens_total", "engine_queue_wait_seconds"} <= names


class TestStreamCancellation:
    def test_abandoned_stream_cancels_engine_request(self, pipeline):
        # Closing the response stream (what the framework does when the
        # client disconnects mid-write) must cancel the engine request,
        # not leave it decoding to max_new_tokens in an occupied slot.
        import time

        from repro.webapp.framework import Request

        registry = MetricsRegistry()
        app = create_backend(pipeline, registry=registry, tracer=Tracer())
        try:
            payload = {"ingredients": ["garlic"], "max_new_tokens": 300,
                       "seed": 0}
            response = app.dispatch(Request(
                method="POST", path="/api/generate_stream", query={},
                headers={}, body=json.dumps(payload).encode("utf-8")))
            assert response.status == 200
            stream = iter(response.stream)
            assert next(stream).startswith(b"data:")  # tokens are flowing
            response.stream.close()                   # client went away
            cancelled = registry.counter("engine_requests_total").labels(
                outcome="cancelled", strategy="plain")
            deadline = time.monotonic() + 30
            while cancelled.value < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert cancelled.value == 1
        finally:
            app.engine.stop()


class TestEngineDisabled:
    """There is no engine-less backend any more; the sequential decoder
    survives as the oracle the served path is checked against (the
    class keeps its name so the test id stays stable)."""

    def test_engine_and_plain_agree(self, pipeline, backend):
        # Same seed through the HTTP path and the sequential oracle
        # (Ratatouille.generate): identical recipe — the bit-exactness
        # contract surfaced at the API level.
        config = GenerationConfig(max_new_tokens=30, top_k=20,
                                  temperature=0.8, seed=33)
        direct = pipeline.generate(["garlic", "onion"], generation=config)
        via_engine = RatatouilleClient(backend.url).generate(
            ["garlic", "onion"], seed=33, max_new_tokens=30)
        assert via_engine["title"] == direct.title
        assert via_engine["instructions"] == direct.instructions