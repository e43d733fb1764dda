"""Integration tests for the web application (repro.webapp).

Spins up the real HTTP services on ephemeral ports and exercises them
through the client, reproducing the Figs. 4–5 round trip.
"""

import json

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.preprocess import preprocess
from repro.recipedb import generate_corpus
from repro.training import TrainingConfig
from repro.webapp import (ApiError, App, DeploymentConfig, RatatouilleClient,
                          Request, Response, Server, ServiceSpec,
                          create_backend, create_frontend, render_compose,
                          render_dockerfile, render_page, scale_out,
                          write_deployment)


@pytest.fixture(scope="module")
def pipeline():
    texts, _ = preprocess(generate_corpus(30, seed=31))
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=30, batch_size=4, warmup_steps=5,
                                eval_every=10**9))
    return Ratatouille.from_texts(texts, config=config)


@pytest.fixture(scope="module")
def backend(pipeline):
    with Server(create_backend(pipeline)) as server:
        yield server


@pytest.fixture(scope="module")
def client(backend):
    return RatatouilleClient(backend.url)


class TestFramework:
    def test_routing_and_404(self):
        app = App()

        @app.route("/hello")
        def hello(request):
            return Response.text("hi")

        ok = app.dispatch(Request("GET", "/hello", {}, {}))
        assert ok.status == 200 and ok.body == b"hi"
        missing = app.dispatch(Request("GET", "/nope", {}, {}))
        assert missing.status == 404

    def test_method_not_allowed(self):
        app = App()

        @app.route("/only-post", methods=("POST",))
        def handler(request):
            return Response.json({})

        resp = app.dispatch(Request("GET", "/only-post", {}, {}))
        assert resp.status == 405

    def test_duplicate_route_rejected(self):
        app = App()

        @app.route("/x")
        def a(request):
            return Response.text("a")

        with pytest.raises(ValueError):
            @app.route("/x")
            def b(request):
                return Response.text("b")

    def test_value_error_becomes_400(self):
        app = App()

        @app.route("/boom")
        def boom(request):
            raise ValueError("bad input")

        resp = app.dispatch(Request("GET", "/boom", {}, {}))
        assert resp.status == 400
        assert b"bad input" in resp.body

    def test_unexpected_error_becomes_500(self):
        app = App()

        @app.route("/crash")
        def crash(request):
            raise RuntimeError("oops")

        resp = app.dispatch(Request("GET", "/crash", {}, {}))
        assert resp.status == 500

    def test_request_json_parsing(self):
        request = Request("POST", "/", {}, {}, body=b'{"a": 1}')
        assert request.json() == {"a": 1}
        with pytest.raises(ValueError):
            Request("POST", "/", {}, {}, body=b"").json()
        with pytest.raises(ValueError):
            Request("POST", "/", {}, {}, body=b"{bad").json()

    def test_server_lifecycle(self):
        app = App()

        @app.route("/ping")
        def ping(request):
            return Response.json({"pong": True})

        server = Server(app).start()
        try:
            import urllib.request
            with urllib.request.urlopen(f"{server.url}/ping", timeout=5) as r:
                assert json.loads(r.read()) == {"pong": True}
        finally:
            server.stop()

    def test_double_start_raises(self):
        server = Server(App())
        server.start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()


class TestBackendApi:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["parameters"] > 0
        assert health["lifecycle"] == "serving"
        assert health["healthy"] is True
        assert "replicas" not in health and "draining" not in health

    def test_ingredients_listing(self, client):
        items = client.ingredients(limit=10)
        assert len(items) == 10
        assert {"name", "category"} <= set(items[0])

    def test_ingredients_category_filter(self, client):
        items = client.ingredients(category="spice", limit=5)
        assert all(i["category"] == "spice" for i in items)

    def test_generate_round_trip(self, client):
        result = client.generate(["chicken breast", "garlic", "rice"],
                                 max_new_tokens=40, seed=1)
        assert "title" in result
        assert isinstance(result["instructions"], list)
        assert result["generation_seconds"] >= 0

    def test_generate_validates_input(self, client):
        with pytest.raises(ApiError) as exc:
            client.generate([])
        assert exc.value.status == 400
        with pytest.raises(ApiError):
            client.generate(["x"] * 50)  # over MAX_INGREDIENTS

    def test_generate_deterministic_seed(self, client):
        a = client.generate(["salt", "pepper"], max_new_tokens=30, seed=4)
        b = client.generate(["salt", "pepper"], max_new_tokens=30, seed=4)
        assert a["instructions"] == b["instructions"]

    def test_suggest(self, client):
        suggestions = client.suggest(["onion", "garlic"], limit=3)
        assert len(suggestions) <= 3
        for item in suggestions:
            assert item["score"] >= 0

    def test_unknown_route_404(self, backend):
        import urllib.error
        import urllib.request
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{backend.url}/api/nope", timeout=5)
        assert exc.value.code == 404


class TestFrontend:
    def test_page_embeds_backend_url(self):
        page = render_page("http://localhost:9000")
        assert "http://localhost:9000" in page
        assert "<html" in page

    def test_frontend_serves_page(self, backend):
        with Server(create_frontend(backend.url)) as front:
            import urllib.request
            with urllib.request.urlopen(f"{front.url}/", timeout=5) as r:
                body = r.read().decode()
            assert backend.url in body
            with urllib.request.urlopen(f"{front.url}/health", timeout=5) as r:
                assert json.loads(r.read())["backend"] == backend.url

    def test_decoupled_ports(self, backend):
        """Frontend and backend are separate services on separate ports."""
        with Server(create_frontend(backend.url)) as front:
            assert front.port != backend.port


class TestDeploy:
    def test_compose_two_services(self):
        compose = render_compose(DeploymentConfig())
        assert "ratatouille-backend" in compose
        assert "ratatouille-frontend" in compose
        assert "depends_on" in compose

    def test_scale_out_replicas(self):
        config = scale_out(DeploymentConfig(), backend_replicas=4)
        compose = render_compose(config)
        assert "replicas: 4" in compose
        with pytest.raises(ValueError):
            scale_out(DeploymentConfig(), 0)

    def test_dockerfile_exposes_port(self):
        text = render_dockerfile(ServiceSpec(name="svc", port=8123,
                                             command="python -m x"))
        assert "EXPOSE 8123" in text

    def test_port_conflict_rejected(self):
        bad = DeploymentConfig(
            backend=ServiceSpec(name="a", port=8000),
            frontend=ServiceSpec(name="b", port=8000))
        with pytest.raises(ValueError):
            bad.validate()

    def test_write_deployment(self, tmp_path):
        artifacts = write_deployment(DeploymentConfig(), tmp_path)
        assert artifacts["compose"].exists()
        assert (tmp_path / "ratatouille-backend" / "Dockerfile").exists()
        assert (tmp_path / "ratatouille-frontend" / "Dockerfile").exists()
