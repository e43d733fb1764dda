"""HTTP surface of constrained + search-guided decoding.

Drives the real backend (engine-backed, over HTTP) the way the client
library and the webapp do:

* unsatisfiable/malformed ``constraints`` payloads are HTTP 400s with
  *named* error codes (``unknown_diet:``, ``conflicting_constraints:``,
  ...) — machine-matchable, never a stack trace;
* ``strategy``/``constraints`` thread through ``/api/generate``,
  ``/api/generate_async`` and the SSE stream, and the response carries
  ``constraints_satisfied`` plus (for MCTS) the ``search`` block;
* ``RatatouilleClient.generate(strategy=..., constraints=...)`` passes
  the knobs through and surfaces named 400s as :class:`ApiError`;
* ``/api/health`` advertises the decoding surface.
"""

import json
import time

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.decoding import MIN_BUDGET
from repro.obs import MetricsRegistry
from repro.training import TrainingConfig
from repro.webapp import ApiError, RatatouilleClient, Server, create_backend

MAX_ROLLOUTS = 8


@pytest.fixture(scope="module")
def pipeline():
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=5, batch_size=4,
                                eval_every=10**9))
    return Ratatouille.quickstart(model_name="distilgpt2", num_recipes=30,
                                  seed=0, config=config)


@pytest.fixture(scope="module")
def registry():
    return MetricsRegistry()


@pytest.fixture(scope="module")
def backend(pipeline, registry):
    app = create_backend(pipeline, registry=registry,
                         max_mcts_rollouts=MAX_ROLLOUTS)
    with Server(app) as server:
        yield server
    app.engine.stop()


@pytest.fixture(scope="module")
def client(backend):
    return RatatouilleClient(backend.url, retry=None)


class TestNamedValidationErrors:
    def _expect_400(self, client, code, **kwargs):
        with pytest.raises(ApiError) as excinfo:
            client.generate(**kwargs)
        assert excinfo.value.status == 400
        assert code in excinfo.value.message
        return excinfo.value

    def test_unknown_diet(self, client):
        self._expect_400(client, "unknown_diet",
                         ingredients=["onion"],
                         constraints={"diet": "carnivore"})

    def test_unknown_constraint_key(self, client):
        self._expect_400(client, "unknown_constraint",
                         ingredients=["onion"],
                         constraints={"spiciness": "high"})

    def test_conflicting_include_exclude(self, client):
        self._expect_400(client, "conflicting_constraints",
                         ingredients=["onion"],
                         constraints={"include_ingredients": ["garlic"],
                                      "exclude_ingredients": ["garlic"]})

    def test_prompt_ingredient_conflicts_with_diet(self, client):
        self._expect_400(client, "diet_conflict",
                         ingredients=["chicken breast"],
                         constraints={"diet": "vegan"})

    def test_calorie_ceiling_conflict(self, client):
        self._expect_400(client, "calories_exceeded",
                         ingredients=["500 g butter"],
                         constraints={"max_calories": 1})

    def test_beam_cannot_be_constrained(self, client):
        with pytest.raises(ApiError) as excinfo:
            client.generate(["onion"], strategy="beam",
                            constraints={"diet": "vegan"})
        assert excinfo.value.status == 400
        assert "beam" in excinfo.value.message

    def test_mcts_rollouts_cap(self, client):
        with pytest.raises(ApiError) as excinfo:
            client.generate(["onion"], strategy="mcts",
                            mcts_rollouts=MAX_ROLLOUTS + 1)
        assert excinfo.value.status == 400
        assert "mcts_rollouts" in excinfo.value.message

    def test_constrained_budget_floor(self, client):
        with pytest.raises(ApiError) as excinfo:
            client.generate(["onion"], max_new_tokens=MIN_BUDGET - 1,
                            constraints={"exclude_ingredients": ["garlic"]})
        assert excinfo.value.status == 400
        assert "max_new_tokens" in excinfo.value.message


class TestGenerate:
    CONSTRAINTS = {"exclude_ingredients": ["garlic"],
                   "include_ingredients": ["onion"]}

    def test_constrained_generate_satisfies_and_parses(self, client):
        body = client.generate(["onion", "tomato"],
                               constraints=self.CONSTRAINTS,
                               max_new_tokens=32, seed=4)
        assert body["constraints_satisfied"] is True
        assert body["title"]
        assert body["instructions"]
        mentioned = " ".join(
            body["instructions"] + body["ingredients"] + [body["title"]])
        assert "garlic" not in mentioned

    def test_mcts_generate_reports_search(self, client):
        body = client.generate(["onion", "tomato"], strategy="mcts",
                               constraints=self.CONSTRAINTS,
                               max_new_tokens=24, mcts_rollouts=3, seed=4)
        assert body["constraints_satisfied"] is True
        search = body["search"]
        assert search["strategy"] == "mcts"
        assert 1 <= search["rollouts"] <= 3
        assert search["prompt_tokens_submitted"] > 0
        assert 0.0 <= search["reward"]["total"] <= 1.0

    def test_mcts_is_deterministic_over_http(self, client):
        request = dict(strategy="mcts", max_new_tokens=24,
                       mcts_rollouts=3, seed=11)
        first = client.generate(["onion", "tomato"], **request)
        second = client.generate(["onion", "tomato"], **request)
        assert first["title"] == second["title"]
        assert first["instructions"] == second["instructions"]
        assert first["search"] == second["search"]

    def test_async_job_carries_constraints(self, client, backend):
        import urllib.request

        submitted = client._request("POST", "/api/generate_async", {
            "ingredients": ["onion", "tomato"],
            "constraints": self.CONSTRAINTS,
            "max_new_tokens": 24, "seed": 4})
        job_id = submitted["job_id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with urllib.request.urlopen(
                    f"{backend.url}/api/job?id={job_id}") as response:
                snap = json.loads(response.read())
            if snap["status"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert snap["status"] == "done"
        assert snap["result"]["constraints_satisfied"] is True

    def test_health_advertises_decoding(self, client):
        decoding = client.health()["decoding"]
        assert "mcts" in decoding["strategies"]
        assert decoding["max_mcts_rollouts"] == MAX_ROLLOUTS
        assert "diet" in decoding["constraints"]


class TestStreaming:
    def test_constrained_stream_reports_satisfaction(self, client):
        events = list(client.generate_stream(
            ["onion", "tomato"], max_new_tokens=24, seed=4,
            constraints={"exclude_ingredients": ["garlic"]}))
        tokens = [e for e in events if "token" in e]
        assert tokens  # constraints stream live, token by token
        done = events[-1]
        assert done["done"] is True
        assert "constraints_satisfied" in done["recipe"]

    def test_mcts_stream_replays_winner_then_done(self, client):
        events = list(client.generate_stream(
            ["onion", "tomato"], strategy="mcts", max_new_tokens=24,
            mcts_rollouts=3, seed=4,
            constraints={"exclude_ingredients": ["garlic"]}))
        tokens = [e for e in events if "token" in e]
        assert tokens
        done = events[-1]
        assert done["done"] is True
        assert done["recipe"]["search"]["strategy"] == "mcts"
        assert done["recipe"]["constraints_satisfied"] is True
