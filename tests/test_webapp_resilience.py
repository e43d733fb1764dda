"""HTTP-layer resilience: shedding, deadline mapping, degraded mode.

Engine-level deadline/crash semantics are covered in
``test_serving_deadlines.py`` and ``test_resilience_supervisor.py``;
these tests pin the *HTTP contract* — which status codes, headers and
payload fields each failure becomes at the API boundary.
"""

import json
import time

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.obs import MetricsRegistry
from repro.resilience import (FaultInjector, FaultSpec, ResilienceConfig,
                              inject_faults)
from repro.serving import DeadlineExceededError
from repro.training import TrainingConfig
from repro.webapp import Request, create_backend


@pytest.fixture(scope="module")
def pipeline():
    config = PipelineConfig(
        model_name="word-lstm",
        training=TrainingConfig(max_steps=5, batch_size=4, eval_every=10**9))
    return Ratatouille.quickstart(model_name="word-lstm", num_recipes=30,
                                  seed=0, config=config)


def _post(app, path, payload):
    return app.dispatch(Request(method="POST", path=path, query={},
                                headers={},
                                body=json.dumps(payload).encode("utf-8")))


def _get(app, path):
    return app.dispatch(Request(method="GET", path=path, query={},
                                headers={}, body=b""))


def _body(response):
    return json.loads(response.body.decode("utf-8"))


class TestAdmissionAtHttpLayer:
    @pytest.fixture()
    def app(self, pipeline):
        app = create_backend(
            pipeline, registry=MetricsRegistry(),
            resilience=ResilienceConfig(shed_watermark_tokens=64))
        yield app
        app.engine.stop()

    def test_generate_sheds_503_with_retry_after(self, app):
        app.admission.try_acquire(60)  # a big request already in flight
        try:
            response = _post(app, "/api/generate",
                             {"ingredients": ["garlic"],
                              "max_new_tokens": 16})
            assert response.status == 503
            assert float(response.headers["Retry-After"]) >= 1
            assert "overloaded" in _body(response)["error"]
        finally:
            app.admission.release(60)
        # Load drained: the same request is admitted and served.
        response = _post(app, "/api/generate",
                         {"ingredients": ["garlic"], "max_new_tokens": 16,
                          "seed": 3})
        assert response.status == 200
        assert "title" in _body(response)
        assert app.admission.queued_tokens == 0  # released after serving

    def test_async_endpoint_sheds_too(self, app):
        app.admission.try_acquire(60)
        try:
            response = _post(app, "/api/generate_async",
                             {"ingredients": ["garlic"],
                              "max_new_tokens": 16})
            assert response.status == 503
        finally:
            app.admission.release(60)

    def test_resilience_endpoint_reports_shed(self, app):
        app.admission.try_acquire(60)
        try:
            _post(app, "/api/generate",
                  {"ingredients": ["garlic"], "max_new_tokens": 16})
        finally:
            app.admission.release(60)
        payload = _body(_get(app, "/api/resilience"))
        assert payload["enabled"] is True
        assert payload["admission"]["shed_total"] == 1
        assert payload["supervisor"] is None  # not supervised


class TestDeadlineHttpMapping:
    @pytest.fixture(scope="class")
    def app(self, pipeline):
        app = create_backend(
            pipeline, registry=MetricsRegistry(),
            resilience=ResilienceConfig(default_deadline_ms=60_000.0))
        yield app
        app.engine.stop()

    def test_expiry_with_no_tokens_is_504(self, app, monkeypatch):
        def expired(*args, **kwargs):
            raise DeadlineExceededError(0, 25.0, [])

        monkeypatch.setattr(app.engine, "generate", expired)
        response = _post(app, "/api/generate",
                         {"ingredients": ["garlic"], "partial": True})
        assert response.status == 504
        assert "deadline" in _body(response)["error"]

    def test_expiry_without_opt_in_is_504_even_with_tokens(self, app,
                                                           monkeypatch):
        def expired(*args, **kwargs):
            raise DeadlineExceededError(0, 25.0, [2, 3, 4])

        monkeypatch.setattr(app.engine, "generate", expired)
        response = _post(app, "/api/generate", {"ingredients": ["garlic"]})
        assert response.status == 504

    def test_partial_opt_in_returns_200_with_flag(self, app, monkeypatch):
        def expired(*args, **kwargs):
            raise DeadlineExceededError(0, 25.0, [2, 3, 4])

        monkeypatch.setattr(app.engine, "generate", expired)
        response = _post(app, "/api/generate",
                         {"ingredients": ["garlic"], "partial": True})
        assert response.status == 200
        payload = _body(response)
        assert payload["partial"] is True
        assert payload["deadline_ms"] == 25.0
        assert "title" in payload  # whatever decoded from the prefix

    def test_server_default_deadline_is_forwarded(self, app, monkeypatch):
        seen = {}
        original = app.engine.generate

        def spy(*args, **kwargs):
            seen["deadline_ms"] = kwargs.get("deadline_ms")
            return original(*args, **kwargs)

        monkeypatch.setattr(app.engine, "generate", spy)
        payload = {"ingredients": ["garlic"], "max_new_tokens": 8, "seed": 1}
        assert _post(app, "/api/generate", payload).status == 200
        assert seen["deadline_ms"] == 60_000.0  # the configured default
        payload["deadline_ms"] = 250.0
        _post(app, "/api/generate", payload)
        assert seen["deadline_ms"] == 250.0  # the client's value wins

    @pytest.mark.parametrize("bad", [0, -5, "soon"])
    def test_bad_deadline_is_400(self, app, bad):
        response = _post(app, "/api/generate",
                         {"ingredients": ["garlic"], "deadline_ms": bad})
        assert response.status == 400
        assert "deadline_ms" in _body(response)["error"]


class TestDegradedMode:
    def test_crash_past_budget_serves_degraded(self, pipeline):
        registry = MetricsRegistry()
        app = create_backend(
            pipeline, registry=registry,
            resilience=ResilienceConfig(supervise=True, max_restarts=0,
                                        degraded_fallback=True))
        try:
            injector = FaultInjector(
                {"prefix_cache.get": FaultSpec(rate=1.0)})
            payload = {"ingredients": ["garlic"], "max_new_tokens": 8,
                       "seed": 2}
            with inject_faults(injector):
                # The engine crashes on admission; the supervisor falls
                # back to the sequential decoder and says so.
                response = _post(app, "/api/generate", payload)
            assert response.status == 200
            assert _body(response)["degraded"] is True
            assert "title" in _body(response)
            deadline = time.monotonic() + 10
            while app.engine.state != "failed" and time.monotonic() < deadline:
                time.sleep(0.01)
            block = _body(_get(app, "/api/resilience"))["supervisor"]
            assert block["state"] == "failed"
            assert block["degraded_available"] is True
            # Degraded requests keep working after the budget is gone.
            after = _post(app, "/api/generate", payload)
            assert after.status == 200
            assert _body(after)["degraded"] is True
        finally:
            app.engine.stop()


class TestResilienceEndpointDisabled:
    def test_defaults_report_disabled(self, pipeline):
        app = create_backend(pipeline, registry=MetricsRegistry())
        payload = _body(_get(app, "/api/resilience"))
        app.engine.stop()
        assert payload == {"enabled": False, "default_deadline_ms": None,
                           "admission": None, "supervisor": None}
