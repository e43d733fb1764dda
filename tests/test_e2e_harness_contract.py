"""The outside-in surface ``benchmarks/e2e`` stands on.

The benchmark harness touches no line of ``src/``: it builds the app
with fixed ``create_backend`` keywords, shadows instance attributes it
reaches from ``app`` with timing proxies, scrapes ``/api/engine`` and
the text exposition, and spawns ``repro.webapp.serve`` with a fixed
argv.  Tier-1 never runs the benchmark, so a refactor could break all
of that silently; this file drives the harness's own ``build_app``,
``instrument``, ``scrape`` and ``server_argv`` against a tiny pipeline.
"""

import ast
import inspect
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.preprocess import preprocess
from repro.recipedb import generate_corpus
from repro.training import TrainingConfig
from repro.webapp import Request, create_backend
from repro.webapp.serve import build_parser

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

PAYLOAD = {"ingredients": ["rice", "onion", "garlic"], "max_new_tokens": 8,
           "strategy": "greedy", "seed": 0}


@pytest.fixture(scope="module")
def harness():
    """The harness modules import each other as top-level siblings."""
    sys.path.insert(0, str(E2E))
    try:
        import inprocess
        import server
        import spans
        yield SimpleNamespace(inprocess=inprocess, server=server, spans=spans)
    finally:
        sys.path.remove(str(E2E))


@pytest.fixture(scope="module")
def pipeline():
    texts, _ = preprocess(generate_corpus(25, seed=7))
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=10, batch_size=4, warmup_steps=2,
                                eval_every=10**9))
    return Ratatouille.from_texts(texts, config=config)


@pytest.fixture(scope="module")
def built(harness, pipeline):
    index = pipeline.build_retrieval_index()
    app = harness.inprocess.build_app(pipeline, index)
    yield app, index
    app.shutdown_gracefully(deadline_seconds=5)


def _post(app, path, **overrides):
    body = json.dumps({**PAYLOAD, **overrides}).encode("utf-8")
    return app.dispatch(Request("POST", path, {}, {}, body))


def _get(app, path, query=None):
    response = app.dispatch(Request("GET", path, query or {}, {}))
    assert response.status == 200
    return response.body


def test_build_app_is_a_supervised_engine_behind_admission(built):
    app, _ = built
    assert app.admission is not None
    assert app.engine.engine.prefix_cache is app.engine.prefix_cache
    assert callable(app.engine.engine.submit)
    # Every keyword build_app spells is still create_backend's.
    call = next(node for node in ast.walk(ast.parse(
        (E2E / "inprocess.py").read_text("utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "create_backend")
    assert {keyword.arg for keyword in call.keywords} <= set(
        inspect.signature(create_backend).parameters)


@pytest.mark.parametrize("path, ingredients", [
    ("/api/generate", ["egg", "butter"]),       # distinct prompts: each
    ("/api/generate_stream", ["tofu", "ginger"]),   # must miss the cache
])
def test_instrumented_boundaries_are_hit_by_one_request(
        harness, pipeline, built, path, ingredients):
    app, index = built
    recorder = harness.spans.SpanRecorder()
    harness.spans.instrument(recorder, pipeline, app.engine.engine,
                             app=app, index=index)
    try:
        response = _post(app, path, ingredients=ingredients)
        assert response.status == 200
        if response.stream is not None:
            frames = list(response.stream)
            assert b'"done": true' in frames[-1]
    finally:
        recorder.unwrap()
    seen = {span.name for span in recorder.spans}
    assert {"webapp.dispatch", "resilience.try_acquire",
            "resilience.release", "core.prepare_prompt",
            "core.finish_recipe", "tokenizers.encode", "tokenizers.decode",
            "retrieval.novelty", "serving.submit", "serving.prefix_lookup",
            "serving.prefix_insert", "nn.next_logits"} <= seen
    waits = {"/api/generate": "serving.result",
             "/api/generate_stream": "serving.tokens"}
    assert waits[path] in seen


def test_scrapes_carry_the_counters_the_layer_table_reads(harness, built):
    app, _ = built
    assert _post(app, "/api/generate").status == 200
    engine = json.loads(_get(app, "/api/engine"))
    assert {"lookup_tokens", "hit_tokens", "evictions",
            "bytes"} <= set(engine["prefix_cache"])
    text = _get(app, "/api/metrics", {"format": ["text"]}).decode("utf-8")
    series = harness.server.parse_prometheus(text)
    scrape = harness.server.Scrape(series, engine)
    assert scrape.total("engine_tokens_total") > 0
    # Declared, and read as 0 until the gate first sheds.
    assert "# TYPE admission_shed_total counter" in text
    assert scrape.total("admission_shed_total") == 0
    assert scrape.cache("lookup_tokens") > 0
    # The in-process twin reads the same documents.
    twin = harness.inprocess.scrape(app.engine)
    assert twin.total("engine_tokens_total") == scrape.total(
        "engine_tokens_total")


def test_serve_parser_accepts_the_harness_argv(harness):
    fixture = SimpleNamespace(checkpoint=Path("ckpt"), index_dir=Path("idx"))
    argv = harness.server.server_argv(fixture, retrieval=True)
    assert argv[:3] == [sys.executable, "-m", "repro.webapp.serve"]
    args = build_parser().parse_args(argv[3:])
    assert (args.service, args.port, args.checkpoint) == ("backend", 0, "ckpt")
    assert (args.kernels, args.deadline_ms, args.shed_watermark) == (
        "fp32", 30000.0, 100000)
    assert (args.retrieval, args.index_dir) == (True, "idx")
    plain = build_parser().parse_args(
        harness.server.server_argv(fixture, retrieval=False)[3:])
    assert plain.retrieval is False


def test_batched_decode_lands_in_the_span_the_layer_table_reads(
        harness, pipeline):
    # The traced mode times ``model.next_logits`` sized by its rows; an
    # engine that decoded a batch through any other entry point would
    # move ``nn`` time into ``serving`` and leave ``nn.decode_step_ms_b8``
    # dark without failing anything.
    names = ["rice", "onion", "garlic", "egg", "butter", "tofu"]
    payloads = [{**PAYLOAD, "ingredients": names[:count]}
                for count in range(1, len(names) + 1)]  # unequal prompts
    engine = harness.inprocess.build_engine(pipeline)
    recorder = harness.spans.SpanRecorder()
    harness.spans.instrument(recorder, pipeline, engine)
    try:
        result = harness.inprocess.run_engine_pass(
            pipeline, engine, payloads, tracer=recorder)
    finally:
        recorder.unwrap()
        engine.stop()
    assert [record.reply.error for record in result.records] == [None] * 6
    sizes = [span.size for span in recorder.spans
             if span.name == "nn.next_logits" and span.parent is None]
    assert max(sizes) > 1
