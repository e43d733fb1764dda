"""One generation path, three transports: parity across them.

The same payload through ``/api/generate``, ``/api/generate_async`` →
``/api/job`` and the ``done`` event of ``/api/generate_stream`` must
yield the identical body — and a deadline must surface as the same
error on each, or as the same strict-prefix partial recipe.

Deadlines run on a clock that ticks once per model decode step, so
"expires after a few tokens" is exact, not a race against wall time.
"""

import json
import pathlib
import re
import time

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.obs import ManualClock, MetricsRegistry
from repro.preprocess import preprocess
from repro.recipedb import generate_corpus
from repro.training import TrainingConfig
from repro.webapp import Request, create_backend

STEP_SECONDS = 0.010

BASE = {"ingredients": ["onion", "tomato"], "max_new_tokens": 24, "seed": 11}
PAYLOADS = {
    "greedy": {**BASE, "strategy": "greedy"},
    "retrieve_k": {**BASE, "strategy": "greedy", "retrieve_k": 1},
    "constraints": {**BASE, "strategy": "greedy",
                    "constraints": {"exclude_ingredients": ["garlic"]}},
    "mcts": {**BASE, "strategy": "mcts", "mcts_rollouts": 3},
}


@pytest.fixture(scope="module")
def pipeline():
    texts, _ = preprocess(generate_corpus(25, seed=7))
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=20, batch_size=4, warmup_steps=5,
                                eval_every=10**9))
    return Ratatouille.from_texts(texts, config=config)


@pytest.fixture(scope="module")
def clock(pipeline):
    """Advances ``STEP_SECONDS`` per decode forward of the shared model."""
    clock = ManualClock()
    model = pipeline.model
    forward = model.next_logits

    def ticking(*args, **kwargs):
        clock.advance(STEP_SECONDS)
        return forward(*args, **kwargs)

    model.next_logits = ticking
    yield clock
    del model.next_logits


@pytest.fixture(scope="module")
def app(pipeline, clock):
    registry = MetricsRegistry(clock=clock)
    app = create_backend(
        pipeline, registry=registry,
        retrieval_index=pipeline.build_retrieval_index(registry=registry))
    yield app
    app.shutdown_gracefully(deadline_seconds=5)


def _post(app, path, payload):
    return app.dispatch(Request("POST", path, {}, {},
                                json.dumps(payload).encode("utf-8")))


def _sync(app, payload):
    response = _post(app, "/api/generate", payload)
    return response.status, json.loads(response.body)


def _async(app, payload):
    """Submit, poll to a terminal state; returns the job snapshot."""
    response = _post(app, "/api/generate_async", payload)
    assert response.status == 202
    job_id = json.loads(response.body)["job_id"]
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        snapshot = json.loads(app.dispatch(Request(
            "GET", "/api/job", {"id": [job_id]}, {})).body)
        if snapshot["status"] in ("done", "failed"):
            return snapshot
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never finished")


def _stream(app, payload):
    """Returns (status, [event, ...])."""
    response = _post(app, "/api/generate_stream", payload)
    if response.stream is None:
        return response.status, [json.loads(response.body)]
    events = [json.loads(frame.decode("utf-8")[len("data: "):])
              for frame in response.stream]
    return response.status, events


def _timeless(body):
    return {key: value for key, value in body.items()
            if key != "generation_seconds"}


class TestTransportParity:
    @pytest.mark.parametrize("kind", list(PAYLOADS))
    def test_same_body_on_every_transport(self, app, kind):
        payload = PAYLOADS[kind]
        status, sync_body = _sync(app, payload)
        assert status == 200
        job = _async(app, payload)
        assert job["status"] == "done"
        status, events = _stream(app, payload)
        assert status == 200
        assert events[-1].get("done") is True
        assert all("token" in event for event in events[:-1])
        expected = _timeless(sync_body)
        assert _timeless(job["result"]) == expected
        assert _timeless(events[-1]["recipe"]) == expected
        # The payload kinds really exercise what they name.
        if kind == "retrieve_k":
            assert expected["retrieved_k"] == 1
        if kind == "constraints":
            assert expected["constraints_satisfied"] is True
        if kind == "mcts":
            assert expected["search"]["rollouts"] == 3


class TestDeadlineParity:
    LONG = {"ingredients": ["onion", "tomato"], "strategy": "greedy",
            "max_new_tokens": 40, "seed": 3}

    def test_expired_deadline_is_the_same_error_everywhere(self, app):
        payload = {**self.LONG, "deadline_ms": 1}
        status, body = _sync(app, payload)
        assert status == 504
        assert "deadline" in body["error"]
        job = _async(app, payload)
        assert job["status"] == "failed"
        assert job["error"].startswith("DeadlineExceededError:")
        status, events = _stream(app, payload)
        assert status == 200    # headers were on the wire already
        assert events[-1]["deadline_exceeded"] is True
        assert "deadline" in events[-1]["error"]
        assert events[-1]["tokens_emitted"] == len(events) - 1

    def test_partial_opt_in_is_a_strict_prefix(self, app, pipeline):
        _, events = _stream(app, self.LONG)
        full = [event["token"] for event in events[:-1]]
        assert len(full) > 4 and events[-1].get("done") is True
        payload = {**self.LONG, "deadline_ms": 1000 * STEP_SECONDS * 3.5,
                   "partial": True}
        status, partial = _sync(app, payload)
        assert status == 200
        assert partial["partial"] is True
        assert partial["deadline_ms"] == payload["deadline_ms"]
        assert _async(app, payload)["result"]["partial"] is True
        # Some strict prefix of the full decode parses to exactly the
        # partial body (the sequential pipeline is the oracle).
        prompt_text = pipeline.prepare_prompt(self.LONG["ingredients"])[0]

        def shape(recipe):
            return (recipe.title, recipe.ingredients, recipe.instructions)

        prefixes = [shape(pipeline.finish_recipe(
            prompt_text, full[:k], self.LONG["ingredients"]))
            for k in range(1, len(full))]
        assert (partial["title"], partial["ingredients"],
                partial["instructions"]) in prefixes


class TestAdmitBeforeRetrieve:
    """A refused request must not pay for retrieval or tokenisation."""

    @pytest.mark.parametrize("path", ["/api/generate", "/api/generate_async",
                                      "/api/generate_stream"])
    def test_draining_app_sheds_before_searching(self, pipeline, path):
        registry = MetricsRegistry()
        index = pipeline.build_retrieval_index(registry=registry)
        calls = []
        search = index.search_ingredients

        def recording(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        index.search_ingredients = recording
        app = create_backend(pipeline, registry=registry,
                             retrieval_index=index)
        try:
            payload = {**PAYLOADS["retrieve_k"], "max_new_tokens": 8}
            assert _sync(app, payload)[0] == 200
            assert len(calls) == 1          # the stub does record
            app.begin_drain()
            response = _post(app, path, payload)
            assert response.status == 503
            assert response.headers["Retry-After"] == "1"
            assert b"draining" in response.body
            assert len(calls) == 1
        finally:
            app.shutdown_gracefully(deadline_seconds=5)


def test_webapp_never_asks_which_engine_type_it_holds():
    # One topology; a second cannot creep back in behind an isinstance.
    webapp = pathlib.Path(__file__).parents[1] / "src" / "repro" / "webapp"
    assert not [path.name for path in webapp.glob("*.py") if re.search(
        r"isinstance\([^)]*\b(InferenceEngine|EngineSupervisor)\b",
        path.read_text("utf-8"))]
