"""One generation path, three transports: parity across them.

The same payload through ``/api/generate``, ``/api/generate_async`` →
``/api/job`` and the ``done`` event of ``/api/generate_stream`` must
yield the identical body — and a deadline must surface as the same
error on each, or as the same strict-prefix partial recipe.

Deadlines run on a clock that ticks once per model decode step, so
"expires after a few tokens" is exact, not a race against wall time.
"""

import ast
import json
import pathlib
import re
import threading
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


class TestNonFiniteKnobs:
    """NaN passes every ``<`` / ``<=`` bound and inf the one-sided ones.
    A knob that got past parsing would reach the engine step it shares
    with other requests and fail them too, for a knob they never sent."""

    CLEAN = {"ingredients": ["onion", "tomato"], "strategy": "sample",
             "max_new_tokens": 60, "seed": 5, "temperature": 0.8,
             "top_k": 20}

    @pytest.mark.parametrize("knob, value", [
        ("temperature", "nan"), ("temperature", "inf"),
        ("repetition_penalty", "nan"), ("repetition_penalty", "inf"),
        ("deadline_ms", "nan"), ("deadline_ms", "inf")])
    def test_is_a_400_and_a_concurrent_request_decodes_clean(
            self, app, pipeline, knob, value):
        from repro.models import GenerationConfig, generate
        from repro.obs import NullRegistry, NullTracer

        _, prompt_ids, config, processors = pipeline.prepare_prompt(
            self.CLEAN["ingredients"], generation=GenerationConfig(
                **{name: self.CLEAN[name] for name in
                   ("strategy", "max_new_tokens", "seed", "temperature",
                    "top_k")}))
        oracle = generate(pipeline.model, prompt_ids, config,
                          processors=processors, registry=NullRegistry(),
                          tracer=NullTracer())

        # The clean request is decoding (its first token is out) when
        # the bad one arrives.
        response = _post(app, "/api/generate_stream", self.CLEAN)
        assert response.status == 200
        frames = iter(response.stream)
        events = [json.loads(next(frames).decode("utf-8")[len("data: "):])]
        bad = _post(app, "/api/generate", {**self.CLEAN, knob: value})
        assert bad.status == 400
        assert knob in json.loads(bad.body)["error"]
        events += [json.loads(frame.decode("utf-8")[len("data: "):])
                   for frame in frames]
        assert events[-1].get("done") is True
        assert [event["token"] for event in events[:-1]] == oracle


def test_backend_refuses_a_model_the_engine_does_not_serve():
    # `repro serve --checkpoint <lstm>` fails at startup, by name, and
    # leaves no thread behind: there is no second decode path.
    config = PipelineConfig(
        model_name="word-lstm",
        training=TrainingConfig(max_steps=1, batch_size=4,
                                eval_every=10**9))
    pipeline = Ratatouille.quickstart(model_name="word-lstm",
                                      num_recipes=10, seed=0, config=config)
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="GPT-2 models only"):
        create_backend(pipeline, registry=MetricsRegistry())
    assert set(threading.enumerate()) <= before


SRC = pathlib.Path(__file__).parents[1] / "src" / "repro"


def test_webapp_never_asks_which_engine_type_it_holds():
    # One topology; a second cannot creep back in behind an isinstance.
    assert not [path.name for path in (SRC / "webapp").glob("*.py")
                if re.search(r"isinstance\([^)]*\bInferenceEngine\b",
                             path.read_text("utf-8"))]


#: The engine methods that call the model, all run by the engine thread
#: (reached from ``_run``): admission, prefill, the prefix-cache store
#: and cut, the batched forward and the speculative draft fit check.
ENGINE_THREAD_MODEL_CALLERS = {"_serve", "_prefill_admitted", "_prefill_one",
                               "_store", "_cut", "_forward", "_draft"}


def test_no_model_call_off_the_engine_thread():
    # Every served decode goes through InferenceEngine.submit: the
    # sequential decoder is the oracle, never a serving path.
    # ``generate`` (any alias) from ``models`` / ``models.generation``,
    # or the module itself, from which ``.generate`` is one dot away.
    spellings = {("models", "generate"), ("models", "generation"),
                 ("models.generation", "generate"), ("", "models"),
                 ("", "models.generation")}
    offenders = []
    for package in ("serving", "webapp"):
        for path in (SRC / package).glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Import):
                    imported = {("", alias.name.removeprefix("repro."))
                                for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    module = (node.module or "").removeprefix("repro")
                    imported = {(module.lstrip("."), alias.name)
                                for alias in node.names}
                else:
                    continue
                if imported & spellings:
                    offenders.append(f"{package}/{path.name}:{node.lineno}")
    assert not offenders

    tree = ast.parse((SRC / "serving" / "engine.py").read_text("utf-8"))
    engine = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef)
                  and node.name == "InferenceEngine")
    methods = {node.name: node for node in engine.body
               if isinstance(node, ast.FunctionDef)}

    def self_attrs(method, through=None):
        """Names ``X`` of every ``self.X``, or with ``through`` of every
        ``self.<through>.X(...)`` call and of every ``X(self.<through>,
        ...)`` call (``prefill_prompt`` runs the model it is handed), in
        one method body."""
        names = set()
        for node in ast.walk(method):
            if through is not None:
                if not isinstance(node, ast.Call):
                    continue
                if any(isinstance(arg, ast.Attribute) and arg.attr == through
                       and isinstance(arg.value, ast.Name)
                       and arg.value.id == "self" for arg in node.args):
                    names.add(ast.unparse(node.func))
                if not isinstance(node.func, ast.Attribute):
                    continue
                node = node.func
                if not (isinstance(node.value, ast.Attribute)
                        and node.value.attr == through):
                    continue
                owner = node.value.value
            elif isinstance(node, ast.Attribute):
                owner = node.value
            else:
                continue
            if isinstance(owner, ast.Name) and owner.id == "self":
                names.add(node.attr)
        return names

    callers = {name for name, method in methods.items()
               if self_attrs(method, through="model")}
    assert callers == ENGINE_THREAD_MODEL_CALLERS
    # Reached from the thread's target: called, or handed on as a
    # callback (``_cut`` goes to the prefix cache).
    reached, frontier = set(), ["_run"]
    while frontier:
        name = frontier.pop()
        if name in reached or name not in methods:
            continue
        reached.add(name)
        frontier.extend(self_attrs(methods[name]))
    assert ENGINE_THREAD_MODEL_CALLERS <= reached

    gone = re.compile(r"\b(generate_ex|degraded_fallback|"
                      r"engine_degraded_requests_total|degraded_available)\b")
    assert not [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                if gone.search(path.read_text("utf-8"))]


def test_engine_recovery_runs_on_the_engine_thread():
    # Crash recovery lives inside the engine loop: no second thread
    # watches the engine, and the wrapper it once needed stays deleted.
    # The engine serves GPT-2 alone: no row-by-row arm for models that
    # cannot decode ragged batches, and no base-class serving hooks.
    threads = re.compile(r"threading\.Thread\(")
    assert not [path.name for path in (SRC / "resilience").glob("*.py")
                if threads.search(path.read_text("utf-8"))]
    engine = (SRC / "serving" / "engine.py").read_text("utf-8")
    assert len(threads.findall(engine)) == 1
    base = ast.parse((SRC / "models" / "base.py").read_text("utf-8"))
    defined = {node.name for node in ast.walk(base)
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"fits", "prefix_state", "compact_state",
                          "verify_chunk"}
    gone = re.compile(r"\b(EngineSupervisor|SupervisedRequest|"
                      r"sequential_fallback|poll_seconds|ragged_decode)\b")
    # backoff_multiplier stays legal in the HTTP client's RetryPolicy.
    multiplier = re.compile(r"\bbackoff_multiplier\b")
    offenders = [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                 if gone.search(path.read_text("utf-8"))
                 or (path.name != "client.py"
                     and multiplier.search(path.read_text("utf-8")))]
    assert not offenders
