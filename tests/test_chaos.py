"""Chaos suite: under any seeded fault schedule, nothing ever hangs.

Every test here installs a :class:`FaultInjector` against one (or all)
of the named failure points and asserts the liveness contract: every
request terminates — with a result, a named error, or a deadline — and
the system keeps serving (or degrades loudly) afterwards.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import GenerationConfig, GPT2Config, GPT2Model
from repro.obs import MetricsRegistry
from repro.resilience import (FAULT_POINTS, FaultInjector, FaultSpec,
                              InjectedFault, ResilienceConfig, inject_faults)
from repro.serving import (DeadlineExceededError, EngineCrashedError,
                           EngineStoppedError, EngineUnavailableError,
                           InferenceEngine)
from repro.webapp import JobQueue, JobStatus

from .test_jobs_concurrency import settle

pytestmark = pytest.mark.chaos

CONFIG = GenerationConfig(max_new_tokens=4, seed=0)

#: Every way a request is allowed to terminate under chaos.  Anything
#: else — and in particular a hang — is a bug.
TERMINAL_ERRORS = (InjectedFault, EngineCrashedError, EngineStoppedError,
                   EngineUnavailableError, DeadlineExceededError,
                   TimeoutError)


def _model():
    return GPT2Model(GPT2Config(vocab_size=16, context_length=32, d_model=16,
                                num_layers=1, num_heads=2, d_ff=32,
                                dropout=0.0))


class TestEveryNamedPoint:
    def test_model_forward_fails_requests_not_engine(self):
        model = _model()
        engine = InferenceEngine(model)
        try:
            injector = FaultInjector(
                {"model.forward": FaultSpec(schedule={0})})
            with inject_faults(injector):
                handle = engine.submit([1, 2, 3], CONFIG)
                with pytest.raises((InjectedFault, EngineCrashedError)):
                    handle.result(timeout=10)
            # The engine survived a step-level fault and still serves.
            assert engine.crashed is None
            assert len(engine.generate([1, 2, 3], CONFIG)) == 4
        finally:
            engine.stop()

    def test_prefix_cache_get_crashes_engine_but_resolves_requests(self):
        model = _model()
        engine = InferenceEngine(model)
        try:
            injector = FaultInjector(
                {"prefix_cache.get": FaultSpec(schedule={0})})
            with inject_faults(injector):
                handle = engine.submit([1, 2, 3], CONFIG)
                with pytest.raises(EngineCrashedError):
                    handle.result(timeout=10)
            assert engine.crashed is not None
            with pytest.raises(EngineCrashedError):
                engine.submit([1, 2], CONFIG)
        finally:
            engine.stop()

    def test_jobs_worker_fault_fails_job_named(self):
        registry = MetricsRegistry()
        jobs = JobQueue(registry=registry)
        try:
            injector = FaultInjector(
                {"jobs.worker": FaultSpec(schedule={0})})
            with inject_faults(injector):
                doomed = jobs.submit(lambda: "never")
                survivor = jobs.submit(lambda: "ran")
                failed = settle(jobs, doomed)
                done = settle(jobs, survivor)
            assert failed.status is JobStatus.FAILED
            assert "InjectedFault" in failed.error
            assert done.status is JobStatus.DONE and done.result == "ran"
        finally:
            jobs.shutdown()

    def test_framework_write_releases_engine_slot(self):
        # A client disconnect mid-stream (simulated at the write path)
        # must cancel the engine request — the slot frees, the next
        # request decodes, nothing leaks.
        pipeline = _tiny_pipeline()
        from repro.webapp import (RatatouilleClient, Server, StreamInterrupted,
                                  create_backend)
        registry = MetricsRegistry()
        app = create_backend(pipeline, registry=registry)
        try:
            injector = FaultInjector(
                {"framework.write": FaultSpec(schedule={2})})
            with Server(app) as server, inject_faults(injector):
                client = RatatouilleClient(server.url, timeout=30,
                                           retry=None)
                with pytest.raises(StreamInterrupted) as excinfo:
                    for _ in client.generate_stream(["garlic", "onion"],
                                                    max_new_tokens=30,
                                                    seed=1):
                        pass
                # tokens received before the cut are surfaced, typed.
                assert len(excinfo.value.tokens) >= 1
                # The slot is free: a fresh request completes normally.
                recipe = client.generate(["garlic"], max_new_tokens=8)
                assert "title" in recipe
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                stats = app.engine.stats()
                if (stats["active_sequences"] == 0
                        and stats["queue_depth"] == 0):
                    break
                time.sleep(0.02)
            assert stats["active_sequences"] == 0
            assert stats["queue_depth"] == 0
        finally:
            app.engine.stop()

    def test_retrieval_fault_degrades_generation_not_request(self):
        # A faulted retrieval lookup must *degrade* the generation —
        # un-conditioned output, flagged — never fail or hang it; and
        # a faulted /api/search is a 503, never a hang or a 500.
        import json as _json

        from repro.webapp import Request, create_backend

        pipeline = _tiny_pipeline()
        registry = MetricsRegistry()
        index = pipeline.build_retrieval_index(registry=registry)
        app = create_backend(pipeline, registry=registry,
                             retrieval_index=index, retrieve_k=2)

        def post(path, payload):
            return app.dispatch(Request(
                "POST", path, {}, {}, _json.dumps(payload).encode()))

        injector = FaultInjector(
            {"retrieval.search": FaultSpec(schedule={0})})
        with inject_faults(injector):
            # Call #0: the exemplar fetch faults -> degraded, 200.
            response = post("/api/generate",
                            {"ingredients": ["garlic", "onion"],
                             "max_new_tokens": 6, "retrieve_k": 2})
            assert response.status == 200
            body = _json.loads(response.body)
            assert body["retrieval_degraded"] is True
            assert body["retrieved_k"] == 0
            assert "title" in body
            # Novelty (exempted call #1) still rides along.
            assert "novelty" in body
            # Calls #1+: retrieval recovered — conditioning works again.
            response = post("/api/generate",
                            {"ingredients": ["garlic", "onion"],
                             "max_new_tokens": 6, "retrieve_k": 2})
            body = _json.loads(response.body)
            assert response.status == 200
            assert body["retrieved_k"] == 2
            assert "retrieval_degraded" not in body
        snapshot = injector.snapshot()["retrieval.search"]
        assert snapshot["faults"] == 1
        # /api/search has nothing to degrade to: explicit 503.
        with inject_faults(FaultInjector(
                {"retrieval.search": FaultSpec(schedule={0})})):
            response = post("/api/search", {"query": "garlic soup", "k": 2})
            assert response.status == 503
            response = post("/api/search", {"query": "garlic soup", "k": 2})
            assert response.status == 200
        app.engine.stop()

    def test_journal_append_fault_refuses_durably(self, tmp_path):
        from repro.durability import JobJournal, JournalError

        with JobJournal(tmp_path / "journal") as journal:
            injector = FaultInjector(
                {"journal.append": FaultSpec(schedule={0})})
            with inject_faults(injector):
                # The fault is a disk failure to the caller: a typed
                # refusal (the backend maps it to 503 + Retry-After),
                # never an acknowledgement we cannot honour.
                with pytest.raises(JournalError):
                    journal.append_accepted("doomed", {"ingredients": ["x"]})
                assert "doomed" not in journal.replay().accepted
                # The journal survives and keeps accepting.
                journal.append_accepted("fine", {"ingredients": ["x"]})
            assert "fine" in journal.replay().accepted

    def test_decoding_reward_fault_degrades_search_not_request(self):
        # A reward failure mid-search must *degrade* the MCTS request
        # to constrained greedy — flagged, 200 — never 500 or hang;
        # and the next search (fault exhausted) runs normally.
        import json as _json

        from repro.webapp import Request, create_backend

        pipeline = _tiny_pipeline()
        app = create_backend(pipeline, registry=MetricsRegistry())

        def post(payload):
            return app.dispatch(Request(
                "POST", "/api/generate", {}, {},
                _json.dumps(payload).encode()))

        payload = {"ingredients": ["onion", "tomato"],
                   "strategy": "mcts", "mcts_rollouts": 3,
                   "max_new_tokens": 24, "seed": 4,
                   "constraints": {"exclude_ingredients": ["garlic"]}}
        injector = FaultInjector(
            {"decoding.reward": FaultSpec(schedule={0})})
        with inject_faults(injector):
            response = post(payload)
            assert response.status == 200
            body = _json.loads(response.body)
            assert body["search_degraded"] is True
            assert "reward" not in body["search"]  # no reward was scored
            assert "title" in body
            # Fault exhausted: the next search completes undegraded.
            response = post(payload)
            body = _json.loads(response.body)
            assert response.status == 200
            assert "search_degraded" not in body
            assert body["search"]["rollouts"] == 3
        assert injector.snapshot()["decoding.reward"]["faults"] == 1
        app.engine.stop()

    def test_all_points_are_exercised_by_this_suite(self):
        # Guard: a new fault point must come with chaos coverage.
        assert set(FAULT_POINTS) == {"model.forward", "prefix_cache.get",
                                     "jobs.worker", "framework.write",
                                     "retrieval.search", "journal.append",
                                     "decoding.reward"}


class TestSpeculativeUnderFaults:
    def test_forward_fault_during_verify_fails_cleanly(self):
        # A model.forward fault on a speculative verify step must fail
        # the in-flight request with a named error — no hang — and
        # leave the engine serving speculative requests whose output
        # is still bit-identical to sequential decoding.
        from repro.models import NGramDraft, generate
        from repro.obs import NullRegistry, NullTracer

        model = _model()
        draft = NGramDraft.fit([[1, 2, 3, 4, 5] * 4], 16, order=3)
        config = GenerationConfig(max_new_tokens=6, strategy="greedy",
                                  seed=0, speculative_k=4)
        engine = InferenceEngine(model, draft=draft)
        try:
            # Call 0 is the prefill; call 1 is the first decode
            # forward, which for a speculative sequence carries its
            # verify chunk in the step's one call.
            injector = FaultInjector(
                {"model.forward": FaultSpec(schedule={1})})
            with inject_faults(injector):
                handle = engine.submit([1, 2, 3], config)
                with pytest.raises((InjectedFault, EngineCrashedError)):
                    handle.result(timeout=10)
            assert engine.crashed is None
            survivor = engine.generate([1, 2, 3], config)
            sequential = GenerationConfig(max_new_tokens=6,
                                          strategy="greedy", seed=0)
            assert survivor == generate(model, [1, 2, 3], sequential,
                                        registry=NullRegistry(),
                                        tracer=NullTracer())
        finally:
            engine.stop()

    def test_stop_racing_inflight_verify_group_resolves_everything(self):
        # stop() landing while a step carrying speculative verify
        # chunks is in flight (a forward delay holds it there) must
        # resolve every handle —
        # no hang — and retire each request exactly once: the
        # engine_requests_total series sum equals the submit count, so
        # a double-retire (completed *and* failed-by-stop) shows up as
        # an off-by-one.
        from repro.models import NGramDraft

        model = _model()
        draft = NGramDraft.fit([[1, 2, 3, 4, 5] * 4], 16, order=3)
        registry = MetricsRegistry()
        config = GenerationConfig(max_new_tokens=8, strategy="greedy",
                                  seed=0, speculative_k=4)
        engine = InferenceEngine(model, draft=draft, registry=registry)
        submitted = 3
        injector = FaultInjector(
            {"model.forward": FaultSpec(delay_seconds=0.02)})
        try:
            with inject_faults(injector):
                handles = [engine.submit([1, 2, 3], config)
                           for _ in range(submitted)]
                time.sleep(0.03)  # let a delayed verify forward start
                engine.stop(timeout=10)
                for handle in handles:
                    try:
                        handle.result(timeout=10)
                    except TERMINAL_ERRORS:
                        pass
            assert all(handle.done for handle in handles)
            retired = sum(child.value for _, child in
                          registry.counter("engine_requests_total").series())
            assert retired == submitted
        finally:
            engine.stop()

    def test_mixed_batch_fault_spares_no_one_silently(self):
        # Speculative and plain sequences sharing the faulted step all
        # terminate with named errors; the engine survives and both
        # kinds of request complete afterwards.
        from repro.models import NGramDraft

        model = _model()
        draft = NGramDraft.fit([[1, 2, 3, 4, 5] * 4], 16, order=3)
        spec_config = GenerationConfig(max_new_tokens=5, strategy="greedy",
                                       seed=0, speculative_k=3)
        engine = InferenceEngine(model, draft=draft)
        try:
            injector = FaultInjector(
                {"model.forward": FaultSpec(rate=0.3, max_faults=3)},
                seed=11)
            with inject_faults(injector):
                handles = [engine.submit([1 + i, 2, 3],
                                         spec_config if i % 2 else CONFIG)
                           for i in range(4)]
                for handle in handles:
                    try:
                        handle.result(timeout=10)
                    except TERMINAL_ERRORS:
                        pass
            assert engine.crashed is None
            assert len(engine.generate([1, 2, 3], spec_config)) == 5
            assert len(engine.generate([1, 2, 3], CONFIG)) == 4
        finally:
            engine.stop()


_PIPELINE = None


def _tiny_pipeline():
    """One tiny trained pipeline shared across chaos tests (slow to build)."""
    global _PIPELINE
    if _PIPELINE is None:
        from repro.core import PipelineConfig, Ratatouille
        from repro.training import TrainingConfig
        config = PipelineConfig(
            model_name="distilgpt2",
            training=TrainingConfig(max_steps=5, batch_size=4,
                                    eval_every=10**9))
        _PIPELINE = Ratatouille.quickstart(model_name="distilgpt2",
                                           num_recipes=30, seed=0,
                                           config=config)
    return _PIPELINE


@pytest.mark.property
class TestChaosProperty:
    @given(seed=st.integers(0, 2**16),
           forward_rate=st.floats(0.0, 0.4),
           cache_schedule=st.frozensets(st.integers(0, 8), max_size=2),
           delay_ms=st.integers(0, 3))
    @settings(max_examples=8, deadline=None)
    def test_concurrent_requests_all_terminate(self, seed, forward_rate,
                                               cache_schedule, delay_ms):
        """Liveness under arbitrary seeded fault plans.

        N concurrent requests against a recovering engine, with faults
        at both the survivable point (``model.forward``) and the
        crash point (``prefix_cache.get``): every request resolves
        within the timeout bound, and restarts never exceed the cap.
        """
        model = _model()
        registry = MetricsRegistry()
        plan = {
            "model.forward": FaultSpec(rate=forward_rate,
                                       delay_seconds=delay_ms / 1e3),
            "prefix_cache.get": FaultSpec(schedule=cache_schedule,
                                          max_faults=2),
        }
        injector = FaultInjector(plan, seed=seed)
        max_restarts = 3

        sup = InferenceEngine(model, registry=registry,
                              resilience=ResilienceConfig(
                                  max_restarts=max_restarts,
                                  restart_backoff_seconds=0.002))
        outcomes = []
        lock = threading.Lock()

        def one_request(i):
            config = GenerationConfig(max_new_tokens=3 + i % 3, seed=i)
            try:
                handle = sup.submit([1 + i % 5, 2, 3], config,
                                    deadline_ms=30_000.0)
                result = handle.result(timeout=30)
                outcome = ("ok", len(result))
            except TERMINAL_ERRORS as exc:
                outcome = ("error", type(exc).__name__)
            with lock:
                outcomes.append(outcome)

        try:
            with inject_faults(injector):
                threads = [threading.Thread(target=one_request, args=(i,))
                           for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                # The liveness bound: every worker thread came back.
                assert not any(t.is_alive() for t in threads), \
                    "a request hung under fault injection"
        finally:
            sup.stop()
        assert len(outcomes) == 6
        assert sup.restarts <= max_restarts
        # Nothing timed out: "terminate" means resolve, not give up.
        assert ("error", "TimeoutError") not in outcomes
