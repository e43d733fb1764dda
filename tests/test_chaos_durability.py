"""Chaos: engine restart with kernels + retrieval together.

The recovery path each subsystem tests alone composes: when the
engine crashes under a backend running ``--kernels fp32`` AND
``--retrieval`` at once, the restarted loop must re-attach the
one frozen weight store (the shared model object), the retrieval
surface must keep serving, and generation after the restart — and
after a spill → warm reload — must be bit-identical to the sequential
decoder (``models.generate``), plus the warm spill/journal paths must
still engage on the eventual clean stop.
"""

import json
import time

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.models import GenerationConfig, generate
from repro.obs import MetricsRegistry, NullRegistry, NullTracer
from repro.resilience import (FaultInjector, FaultSpec, ResilienceConfig,
                              inject_faults)
from repro.training import TrainingConfig
from repro.webapp import Request, create_backend

pytestmark = [pytest.mark.chaos, pytest.mark.durability]

PAYLOAD = {"ingredients": ["garlic", "chicken"], "strategy": "greedy",
           "max_new_tokens": 24, "seed": 0}
RECIPE_FIELDS = ("title", "ingredients", "instructions", "is_valid",
                 "ingredient_coverage")


@pytest.fixture(scope="module")
def pipeline():
    # Own pipeline: create_backend(kernels=...) freezes this model's
    # weights, which must not leak into other test modules' fixtures.
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=20, batch_size=4,
                                eval_every=10**9))
    return Ratatouille.quickstart(model_name="distilgpt2", num_recipes=30,
                                  seed=0, config=config)


@pytest.fixture(scope="module")
def oracle(pipeline):
    """PAYLOAD through ``models.generate`` on the Tensor path — computed
    before any backend attaches kernels to the shared model."""
    assert pipeline.model.kernels is None
    prompt_text, prompt_ids, config, processors = pipeline.prepare_prompt(
        PAYLOAD["ingredients"],
        generation=GenerationConfig(
            **{knob: PAYLOAD[knob]
               for knob in ("strategy", "max_new_tokens", "seed")}))
    tokens = generate(pipeline.model, prompt_ids, config,
                      processors=processors, registry=NullRegistry(),
                      tracer=NullTracer())
    recipe = pipeline.finish_recipe(prompt_text, tokens,
                                    PAYLOAD["ingredients"])
    return {"prompt_ids": prompt_ids, "config": config, "tokens": tokens,
            "recipe": {name: getattr(recipe, name)
                       for name in RECIPE_FIELDS}}


def _recipe(body):
    return {name: body[name] for name in RECIPE_FIELDS}


def _post(app, path, payload):
    return app.dispatch(Request(method="POST", path=path, query={},
                                headers={},
                                body=json.dumps(payload).encode("utf-8")))


def _body(response):
    return json.loads(response.body.decode("utf-8"))


def test_supervised_restart_with_kernels_and_retrieval(pipeline, oracle,
                                                       tmp_path):
    registry = MetricsRegistry()
    index = pipeline.build_retrieval_index(registry=registry)
    app = create_backend(
        pipeline, registry=registry,
        resilience=ResilienceConfig(max_restarts=3,
                                    restart_backoff_seconds=0.01),
        kernels="fp32", retrieval_index=index,
        journal_dir=tmp_path / "journal", spill_dir=tmp_path / "spill")
    try:
        assert pipeline.model.kernels is not None  # kernel path attached

        baseline = _body(_post(app, "/api/generate", PAYLOAD))
        assert _recipe(baseline) == oracle["recipe"]
        search = _body(_post(app, "/api/search",
                             {"query": "garlic chicken", "k": 3}))
        assert len(search["hits"]) == 3

        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={0})})
        with inject_faults(injector):
            # The crash is replayed by the restarted engine: one 200,
            # bit-identical to the sequential decoder.
            response = _post(app, "/api/generate", PAYLOAD)
            assert response.status == 200
            assert _recipe(_body(response)) == oracle["recipe"]
        assert app.engine.restarts == 1 and app.engine.state == "serving"

        # The restarted engine serves the same frozen weights:
        # recovered output is bit-identical to the sequential decoder.
        recovered = _body(_post(app, "/api/generate", PAYLOAD))
        assert _recipe(recovered) == oracle["recipe"]
        assert pipeline.model.kernels is not None

        # The retrieval index survived the engine bounce.
        again = _body(_post(app, "/api/search",
                            {"query": "garlic chicken", "k": 3}))
        assert ([hit["doc_id"] for hit in again["hits"]]
                == [hit["doc_id"] for hit in search["hits"]])

        # Async + journal still function after the restart.
        job = _body(_post(app, "/api/generate_async", PAYLOAD))
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status = _body(app.dispatch(Request(
                method="GET", path="/api/job",
                query={"id": [job["job_id"]]}, headers={}, body=b"")))
            if status.get("status") in ("done", "failed"):
                break
            time.sleep(0.02)
        assert status["status"] == "done"
    finally:
        summary = app.shutdown_gracefully(deadline_seconds=30.0)
    # The clean stop of the *restarted* engine still spilled warm
    # state and compacted the journal.
    assert summary["spilled"] is True
    assert summary["journal"]["rotations"] == 1


def test_restart_and_warm_reload_bit_identical_on_one_weight_store(
        pipeline, oracle, tmp_path):
    def backend():
        return create_backend(
            pipeline, registry=MetricsRegistry(),
            resilience=ResilienceConfig(max_restarts=2,
                                        restart_backoff_seconds=0.01),
            kernels="fp32", journal_dir=tmp_path / "journal",
            spill_dir=tmp_path / "spill")

    def served_tokens(app):
        return app.engine.generate(oracle["prompt_ids"], oracle["config"])

    app = backend()
    try:
        store_before = pipeline.model.kernels.store
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={0})})
        with inject_faults(injector):
            _post(app, "/api/generate", PAYLOAD)
        assert app.engine.restarts == 1 and app.engine.state == "serving"
        # The restart built no second copy: one shared, still
        # read-only weight store.
        assert app.engine.model.kernels.store is store_before
        assert not any(arr.flags.writeable
                       for arr in store_before.weight_arrays())
        assert served_tokens(app) == oracle["tokens"]
        assert (_recipe(_body(_post(app, "/api/generate", PAYLOAD)))
                == oracle["recipe"])
    finally:
        assert app.shutdown_gracefully()["spilled"] is True

    # Warm reload: KV state spilled by the stopped server is served by
    # the next one, and what it decodes from is still the oracle's.
    reborn = backend()
    try:
        cache = reborn.engine.prefix_cache
        assert cache.stats.entries > 0
        assert served_tokens(reborn) == oracle["tokens"]
        assert cache.stats.hit_tokens > 0
        assert (_recipe(_body(_post(reborn, "/api/generate", PAYLOAD)))
                == oracle["recipe"])
    finally:
        reborn.shutdown_gracefully()
