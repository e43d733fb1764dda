"""HTTP-layer resilience: shedding, deadline mapping, degraded mode.

Engine-level deadline/crash semantics are covered in
``test_serving_deadlines.py`` and ``test_resilience_supervisor.py``;
these tests pin the *HTTP contract* — which status codes, headers and
payload fields each failure becomes at the API boundary.
"""

import json
import threading
import time

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.models import GenerationConfig, generate
from repro.obs import ManualClock, MetricsRegistry, NullRegistry, NullTracer
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
        assert payload["admission"]["shed_total"] == 1
        assert payload["supervisor"]["state"] == "serving"


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

        monkeypatch.setattr(app.engine, "generate_ex", expired)
        response = _post(app, "/api/generate",
                         {"ingredients": ["garlic"], "partial": True})
        assert response.status == 504
        assert "deadline" in _body(response)["error"]

    def test_expiry_without_opt_in_is_504_even_with_tokens(self, app,
                                                           monkeypatch):
        def expired(*args, **kwargs):
            raise DeadlineExceededError(0, 25.0, [2, 3, 4])

        monkeypatch.setattr(app.engine, "generate_ex", expired)
        response = _post(app, "/api/generate", {"ingredients": ["garlic"]})
        assert response.status == 504

    def test_partial_opt_in_returns_200_with_flag(self, app, monkeypatch):
        def expired(*args, **kwargs):
            raise DeadlineExceededError(0, 25.0, [2, 3, 4])

        monkeypatch.setattr(app.engine, "generate_ex", expired)
        response = _post(app, "/api/generate",
                         {"ingredients": ["garlic"], "partial": True})
        assert response.status == 200
        payload = _body(response)
        assert payload["partial"] is True
        assert payload["deadline_ms"] == 25.0
        assert "title" in payload  # whatever decoded from the prefix

    def test_server_default_deadline_is_forwarded(self, app, monkeypatch):
        seen = {}
        original = app.engine.generate_ex

        def spy(*args, **kwargs):
            seen["deadline_ms"] = kwargs.get("deadline_ms")
            return original(*args, **kwargs)

        monkeypatch.setattr(app.engine, "generate_ex", spy)
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
            resilience=ResilienceConfig(max_restarts=0,
                                        degraded_fallback=True))
        try:
            injector = FaultInjector(
                {"prefix_cache.get": FaultSpec(rate=1.0)})
            payload = {"ingredients": ["garlic"], "max_new_tokens": 8,
                       "seed": 2}
            with inject_faults(injector):
                # The engine crashes on admission with no restart left;
                # it falls back to the sequential decoder and says so.
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


class TestEngineDeathMidRequest:
    """Crash the one engine while a request is mid-decode.

    The engine thread is held at the victim's ``at_call``-th model call
    until a second request is queued behind it; that request's
    admission is lookup #1 on the injector's index stream, where the
    fault crashes the loop — with the victim at least one token in.
    The word-LSTM prefills one call per prompt token, then decodes one
    call per step, after that step's token is delivered.
    """

    VICTIM = {"ingredients": ["garlic", "onion"], "strategy": "greedy",
              "max_new_tokens": 12, "seed": 9}
    BYSTANDER = {"ingredients": ["egg"], "strategy": "greedy",
                 "max_new_tokens": 6, "seed": 2}
    FIELDS = ("title", "ingredients", "instructions", "is_valid",
              "ingredient_coverage")

    def _oracle(self, pipeline, payload):
        """``(tokens, recipe fields)`` from the sequential decoder."""
        prompt_text, prompt_ids, config, processors = pipeline.prepare_prompt(
            payload["ingredients"], generation=GenerationConfig(
                strategy=payload["strategy"], seed=payload["seed"],
                max_new_tokens=payload["max_new_tokens"]))
        tokens = generate(pipeline.model, prompt_ids, config,
                          processors=processors, registry=NullRegistry(),
                          tracer=NullTracer())
        recipe = pipeline.finish_recipe(prompt_text, tokens,
                                        payload["ingredients"])
        return tokens, {name: getattr(recipe, name) for name in self.FIELDS}

    def _send(self, app, transport, payload):
        """``(status, tokens or None, body)`` of one request."""
        if transport == "async":
            accepted = _post(app, "/api/generate_async", payload)
            assert accepted.status == 202
            job_id = _body(accepted)["job_id"]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                job = _body(app.dispatch(Request(
                    method="GET", path="/api/job", query={"id": [job_id]},
                    headers={}, body=b"")))
                if job["status"] in ("done", "failed"):
                    break
                time.sleep(0.01)
            ok = job["status"] == "done"
            return (200 if ok else 500), None, job.get("result", job)
        if transport == "stream":
            response = _post(app, "/api/generate_stream", payload)
            events = [json.loads(frame.decode("utf-8")[len("data: "):])
                      for frame in response.stream]
            tokens = [event["token"] for event in events[:-1]]
            return response.status, tokens, events[-1]
        response = _post(app, "/api/generate", payload)
        return response.status, None, _body(response)

    def _kill_mid_decode(self, pipeline, app, transport, victim=VICTIM,
                         at_call=3, while_restarting=None):
        """Run ``victim`` over ``transport`` and BYSTANDER over
        ``/api/generate`` across the kill, calling ``while_restarting``
        during the restart backoff; returns both outcomes."""
        model = pipeline.model
        forward = model.next_logits
        reached, proceed = threading.Event(), threading.Event()
        calls = [0]

        def gated(*args, **kwargs):
            calls[0] += 1
            if calls[0] == at_call:
                reached.set()
                proceed.wait(timeout=30)
            return forward(*args, **kwargs)

        outcomes = {}

        def run(name, how, payload):
            outcomes[name] = self._send(app, how, payload)

        victim = threading.Thread(
            target=run, args=("victim", transport, victim))
        bystander = threading.Thread(
            target=run, args=("bystander", "sync", self.BYSTANDER))
        model.next_logits = gated
        try:
            with inject_faults(FaultInjector(
                    {"prefix_cache.get": FaultSpec(schedule={1})})):
                victim.start()
                assert reached.wait(timeout=30)
                bystander.start()
                deadline = time.monotonic() + 30
                while (app.engine.stats()["queue_depth"] < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                proceed.set()
                if while_restarting is not None:
                    while (app.engine.state != "restarting"
                           and time.monotonic() < deadline):
                        time.sleep(0.005)
                    while_restarting()
                victim.join(timeout=60)
                bystander.join(timeout=60)
        finally:
            proceed.set()
            del model.next_logits
        assert not victim.is_alive() and not bystander.is_alive()
        return outcomes["victim"], outcomes["bystander"]

    @pytest.mark.parametrize("transport", ["sync", "async", "stream"])
    def test_replica_death_mid_request_is_one_retried_response(
            self, pipeline, transport):
        # A default backend: the crash is absorbed by the engine's
        # replay — one 200, equal to the sequential oracle, and on the
        # stream every token exactly once.
        tokens, recipe = self._oracle(pipeline, self.VICTIM)
        _, bystander_recipe = self._oracle(pipeline, self.BYSTANDER)
        registry = MetricsRegistry()
        app = create_backend(pipeline, registry=registry)
        try:
            (status, streamed, body), (other_status, _, other) = (
                self._kill_mid_decode(pipeline, app, transport))
            assert status == 200 and other_status == 200
            if transport == "stream":
                assert streamed == tokens
                assert body.get("done") is True
                body = body["recipe"]
            assert {name: body[name] for name in self.FIELDS} == recipe
            assert "degraded" not in body
            assert {name: other[name]
                    for name in self.FIELDS} == bystander_recipe
            # The crash really happened — once — and was restarted from.
            assert registry.counter("engine_crashes_total").value == 1
            assert app.engine.restarts == 1
            assert _body(_get(app, "/api/health"))["status"] == "ok"
        finally:
            app.shutdown_gracefully(deadline_seconds=5)

    def test_deadline_across_the_restart_returns_the_delivered_partial(
            self, pipeline):
        # Regression: a deadline that expired while the engine restarted
        # dropped the tokens already generated — a 504, although the
        # client opted into a partial recipe and its request held k.
        k = 3
        victim = {**self.VICTIM, "deadline_ms": 500.0, "partial": True}
        prompt_text, prompt_ids = pipeline.prepare_prompt(
            victim["ingredients"], generation=GenerationConfig(
                strategy="greedy", seed=victim["seed"],
                max_new_tokens=victim["max_new_tokens"]))[:2]
        tokens, _ = self._oracle(pipeline, self.VICTIM)
        partial = pipeline.finish_recipe(prompt_text, tokens[:k],
                                         victim["ingredients"])
        clock = ManualClock()
        app = create_backend(
            pipeline, registry=MetricsRegistry(clock=clock),
            resilience=ResilienceConfig(restart_backoff_seconds=0.5))
        try:
            (status, _, body), (other_status, _, _) = self._kill_mid_decode(
                pipeline, app, "sync", victim=victim,
                at_call=len(prompt_ids) + k,
                while_restarting=lambda: clock.advance(0.6))
            assert (status, other_status) == (200, 200)
            assert body["partial"] is True and body["deadline_ms"] == 500.0
            assert {name: body[name] for name in self.FIELDS} == {
                name: getattr(partial, name) for name in self.FIELDS}
        finally:
            app.shutdown_gracefully(deadline_seconds=5)

    def test_arrivals_queue_through_a_restart(self, pipeline):
        # A request submitted during the restart backoff waits for the
        # restarted loop — it is neither refused nor served degraded,
        # although a degraded fallback is configured.
        _, recipe = self._oracle(pipeline, self.BYSTANDER)
        app = create_backend(
            pipeline, registry=MetricsRegistry(),
            resilience=ResilienceConfig(restart_backoff_seconds=0.5,
                                        degraded_fallback=True))
        outcome = {}
        first = threading.Thread(target=lambda: outcome.update(
            first=self._send(app, "sync", self.VICTIM)))
        try:
            with inject_faults(FaultInjector(
                    {"prefix_cache.get": FaultSpec(schedule={0})})):
                first.start()
                deadline = time.monotonic() + 30
                while (app.engine.state != "restarting"
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                assert app.engine.state == "restarting"
                status, _, body = self._send(app, "sync", self.BYSTANDER)
                first.join(timeout=60)
            assert status == 200
            assert {name: body[name] for name in self.FIELDS} == recipe
            assert "degraded" not in body
            assert outcome["first"][0] == 200
            assert "degraded" not in outcome["first"][2]
            assert app.engine.restarts == 1
        finally:
            app.shutdown_gracefully(deadline_seconds=5)

    def test_without_restart_budget_the_same_kill_is_a_named_502(
            self, pipeline):
        app = create_backend(pipeline, registry=MetricsRegistry(),
                             resilience=ResilienceConfig(max_restarts=0))
        try:
            (status, _, body), (other_status, _, _) = (
                self._kill_mid_decode(pipeline, app, "sync"))
            assert status == 502 and other_status == 502
            assert "engine thread crashed" in body["error"]
            health = _body(_get(app, "/api/health"))
            assert (health["status"], health["healthy"]) == ("dead", False)
            # Dead for good: later requests are refused, not hung.
            assert _post(app, "/api/generate", self.VICTIM).status == 503
        finally:
            app.shutdown_gracefully(deadline_seconds=5)

    def test_stream_without_restart_budget_ends_with_the_named_error(
            self, pipeline):
        app = create_backend(pipeline, registry=MetricsRegistry(),
                             resilience=ResilienceConfig(max_restarts=0))
        try:
            (status, streamed, last), _ = self._kill_mid_decode(
                pipeline, app, "stream")
            tokens, _ = self._oracle(pipeline, self.VICTIM)
            assert status == 200    # headers were on the wire already
            assert "engine thread crashed" in last["error"]
            assert 0 < len(streamed) < len(tokens)
            assert streamed == tokens[:len(streamed)]
        finally:
            app.shutdown_gracefully(deadline_seconds=5)


class TestOneEngineThread:
    def test_a_backend_runs_the_engine_loop_and_its_job_workers(
            self, pipeline):
        # Crash recovery runs on the engine's own thread: no watchdog.
        before = set(threading.enumerate())
        app = create_backend(pipeline, registry=MetricsRegistry())
        started = [thread for thread in threading.enumerate()
                   if thread not in before]
        try:
            assert sorted(thread.name for thread in started) == [
                "jobqueue-worker-0", "repro-engine"]
        finally:
            app.shutdown_gracefully(deadline_seconds=5)
        assert not [thread.name for thread in started
                    if thread.name.startswith("repro-") and thread.is_alive()]
        for thread in started:
            thread.join(timeout=5)
        assert not [thread.name for thread in started if thread.is_alive()]


class TestResilienceEndpointDisabled:
    def test_defaults_report_disabled(self, pipeline):
        # No deadline, no gate; the engine recovers from crashes
        # regardless.
        app = create_backend(pipeline, registry=MetricsRegistry())
        payload = _body(_get(app, "/api/resilience"))
        app.engine.stop()
        assert payload == {
            "default_deadline_ms": None, "admission": None,
            "supervisor": {"state": "serving", "restarts": 0,
                           "max_restarts": 3, "degraded_available": False}}
