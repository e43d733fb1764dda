"""HTTP-layer durability: journaled 202s, idempotency keys, restart
replay, draining and graceful shutdown (docs/DURABILITY.md).

Everything runs in-process through ``app.dispatch`` against real
journal/spill directories — the same code paths ``repro serve
--journal-dir --spill-dir`` exercises, minus the socket.
"""

import json
import time

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.durability import JobJournal
from repro.obs import MetricsRegistry
from repro.training import TrainingConfig
from repro.webapp import Request, create_backend

pytestmark = pytest.mark.durability

PAYLOAD = {"ingredients": ["garlic", "rice"], "strategy": "greedy",
           "max_new_tokens": 8, "seed": 0}


@pytest.fixture(scope="module")
def pipeline():
    config = PipelineConfig(
        model_name="word-lstm",
        training=TrainingConfig(max_steps=5, batch_size=4, eval_every=10**9))
    return Ratatouille.quickstart(model_name="word-lstm", num_recipes=30,
                                  seed=0, config=config)


def _post(app, path, payload, headers=None):
    return app.dispatch(Request(method="POST", path=path, query={},
                                headers=headers or {},
                                body=json.dumps(payload).encode("utf-8")))


def _get(app, path, query=None):
    return app.dispatch(Request(method="GET", path=path,
                                query=query or {}, headers={}, body=b""))


def _body(response):
    return json.loads(response.body.decode("utf-8"))


def _poll(app, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        body = _body(_get(app, "/api/job", {"id": [job_id]}))
        if body.get("status") in ("done", "failed"):
            return body
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} still pending after {timeout}s")


def _backend(pipeline, tmp_path, **kwargs):
    kwargs.setdefault("journal_dir", tmp_path / "journal")
    return create_backend(pipeline, registry=MetricsRegistry(), **kwargs)


def _audit(tmp_path):
    with JobJournal(tmp_path / "journal", fsync=False) as journal:
        return journal.replay()


class TestJournaledAcknowledgement:
    def test_202_means_on_disk(self, pipeline, tmp_path):
        app = _backend(pipeline, tmp_path)
        try:
            response = _post(app, "/api/generate_async", PAYLOAD)
            assert response.status == 202
            job_id = _body(response)["job_id"]
            # The acceptance hit the journal before the 202 left.
            assert job_id in _audit(tmp_path).accepted
            result = _poll(app, job_id)
            assert result["status"] == "done"
            assert _audit(tmp_path).completed[job_id]["status"] == "done"
        finally:
            app.shutdown_gracefully()

    def test_health_reports_durability(self, pipeline, tmp_path):
        app = _backend(pipeline, tmp_path, spill_dir=tmp_path / "spill")
        try:
            body = _body(_get(app, "/api/health"))
            assert body["durability"] == {"journal": True, "spill": True}
            assert body["lifecycle"] == "serving"
        finally:
            app.shutdown_gracefully()


class TestIdempotencyKeys:
    def test_retried_submit_never_double_executes(self, pipeline, tmp_path):
        app = _backend(pipeline, tmp_path)
        try:
            first = _body(_post(app, "/api/generate_async", PAYLOAD,
                                headers={"idempotency-key": "retry-1"}))
            second = _body(_post(app, "/api/generate_async", PAYLOAD,
                                 headers={"idempotency-key": "retry-1"}))
            assert second["job_id"] == first["job_id"]
            assert second["deduplicated"] is True
            _poll(app, first["job_id"])
            # Retry after completion still maps to the same job.
            third = _body(_post(app, "/api/generate_async", PAYLOAD,
                                headers={"idempotency-key": "retry-1"}))
            assert third["job_id"] == first["job_id"]
            assert third["status"] == "done"
            state = _audit(tmp_path)
            assert len(state.accepted) == 1
            assert state.duplicate_completions == 0
        finally:
            app.shutdown_gracefully()

    def test_payload_field_spells_the_key_too(self, pipeline, tmp_path):
        app = _backend(pipeline, tmp_path)
        try:
            payload = dict(PAYLOAD, idempotency_key="field-key")
            first = _body(_post(app, "/api/generate_async", payload))
            second = _body(_post(app, "/api/generate_async", payload))
            assert second["job_id"] == first["job_id"]
        finally:
            app.shutdown_gracefully()

    def test_dedup_works_without_a_journal(self, pipeline):
        app = create_backend(pipeline, registry=MetricsRegistry())
        try:
            first = _body(_post(app, "/api/generate_async", PAYLOAD,
                                headers={"idempotency-key": "mem-only"}))
            second = _body(_post(app, "/api/generate_async", PAYLOAD,
                                 headers={"idempotency-key": "mem-only"}))
            assert second["job_id"] == first["job_id"]
            assert second["deduplicated"] is True
        finally:
            app.shutdown_gracefully()

    def test_distinct_keys_are_distinct_jobs(self, pipeline, tmp_path):
        app = _backend(pipeline, tmp_path)
        try:
            first = _body(_post(app, "/api/generate_async", PAYLOAD,
                                headers={"idempotency-key": "a"}))
            second = _body(_post(app, "/api/generate_async", PAYLOAD,
                                 headers={"idempotency-key": "b"}))
            assert second["job_id"] != first["job_id"]
        finally:
            app.shutdown_gracefully()


class TestRestartReplay:
    def test_completed_results_survive_restart(self, pipeline, tmp_path):
        app = _backend(pipeline, tmp_path)
        job_id = _body(_post(app, "/api/generate_async", PAYLOAD,
                             headers={"idempotency-key": "warm"}))["job_id"]
        before = _poll(app, job_id)
        app.shutdown_gracefully()

        reborn = _backend(pipeline, tmp_path)
        try:
            assert reborn.replay_summary["restored"] >= 1
            after = _body(_get(reborn, "/api/job", {"id": [job_id]}))
            assert after["restored"] is True
            assert after["result"] == before["result"]
            # The idempotency key folded out of the journal too.
            again = _body(_post(reborn, "/api/generate_async", PAYLOAD,
                                headers={"idempotency-key": "warm"}))
            assert again["job_id"] == job_id
            assert again["deduplicated"] is True
        finally:
            reborn.shutdown_gracefully()

    def test_incomplete_job_replays_to_done(self, pipeline, tmp_path):
        # A journal a crashed process left behind: accepted, never run.
        with JobJournal(tmp_path / "journal") as journal:
            journal.append_accepted("ghost-job", PAYLOAD)
        app = _backend(pipeline, tmp_path)
        try:
            assert app.replay_summary["replayed"] == 1
            result = _poll(app, "ghost-job")
            assert result["status"] == "done"
            assert "instructions" in result["result"]
            assert (_audit(tmp_path).completed["ghost-job"]["status"]
                    == "done")
        finally:
            app.shutdown_gracefully()

    def test_replayed_output_is_bit_identical(self, pipeline, tmp_path):
        app = _backend(pipeline, tmp_path)
        job_id = _body(_post(app, "/api/generate_async", PAYLOAD))["job_id"]
        direct = _poll(app, job_id)["result"]
        app.shutdown_gracefully()

        with JobJournal(tmp_path / "replay-journal") as journal:
            journal.append_accepted("redo", PAYLOAD)
        reborn = create_backend(pipeline, registry=MetricsRegistry(),
                                journal_dir=tmp_path / "replay-journal")
        try:
            replayed = _poll(reborn, "redo")["result"]
            for field in ("title", "ingredients", "instructions"):
                assert replayed[field] == direct[field]
        finally:
            reborn.shutdown_gracefully()

    def test_malformed_journal_record_resolves_failed(self, pipeline,
                                                      tmp_path):
        with JobJournal(tmp_path / "journal") as journal:
            journal.append_accepted("bad-job", {"ingredients": []})
        app = _backend(pipeline, tmp_path)
        try:
            assert app.replay_summary["replay_failed"] == 1
            body = _body(_get(app, "/api/job", {"id": ["bad-job"]}))
            assert body["status"] == "failed"
            assert "replay rejected" in body["error"]
        finally:
            app.shutdown_gracefully()


class TestJournalFaults:
    def test_append_fault_sheds_503_nothing_acknowledged(self, pipeline,
                                                         tmp_path):
        from repro.resilience import FaultInjector, FaultSpec, inject_faults

        app = _backend(pipeline, tmp_path)
        try:
            injector = FaultInjector(
                {"journal.append": FaultSpec(schedule={0})})
            with inject_faults(injector):
                response = _post(app, "/api/generate_async", PAYLOAD,
                                 headers={"idempotency-key": "faulted"})
            assert response.status == 503
            assert response.headers.get("Retry-After") == "1"
            assert _audit(tmp_path).accepted == {}
            # The idempotency key was released with the refusal: the
            # client's retry gets a fresh job, not the dead one.
            retry = _post(app, "/api/generate_async", PAYLOAD,
                          headers={"idempotency-key": "faulted"})
            assert retry.status == 202
            assert "deduplicated" not in _body(retry)
        finally:
            app.shutdown_gracefully()

    def test_duplicate_during_inflight_submit_gets_retryable_503(
            self, pipeline, tmp_path):
        # A duplicate that lands while the original submit is still in
        # flight must NOT be handed the provisional job id — if that
        # submit then fails (here: journal fault) the duplicate's
        # client would poll a job that never exists.  It sheds 503.
        from repro.resilience import FaultInjector, FaultSpec, inject_faults

        app = _backend(pipeline, tmp_path)
        responses = {}

        def racing_duplicate(_seconds):
            # Runs mid-submit of the first request: after its
            # provisional idempotency claim, before its journal append
            # resolves — exactly the race window.
            if "dup" not in responses:
                responses["dup"] = _post(
                    app, "/api/generate_async", PAYLOAD,
                    headers={"idempotency-key": "race"})

        try:
            injector = FaultInjector(
                {"journal.append": FaultSpec(schedule={0},
                                             delay_seconds=0.001)},
                sleep=racing_duplicate)
            with inject_faults(injector):
                first = _post(app, "/api/generate_async", PAYLOAD,
                              headers={"idempotency-key": "race"})
            assert first.status == 503  # the journal fault refused it
            dup = responses["dup"]
            assert dup.status == 503
            assert dup.headers.get("Retry-After") == "1"
            assert "job_id" not in _body(dup)
            # The failed submit released the key; a clean retry works.
            retry = _post(app, "/api/generate_async", PAYLOAD,
                          headers={"idempotency-key": "race"})
            assert retry.status == 202
            assert "deduplicated" not in _body(retry)
        finally:
            app.shutdown_gracefully()


class TestDrainAndShutdown:
    def test_draining_sheds_503_with_retry_after(self, pipeline, tmp_path):
        app = _backend(pipeline, tmp_path)
        try:
            app.begin_drain()
            response = _post(app, "/api/generate_async", PAYLOAD)
            assert response.status == 503
            assert response.headers.get("Retry-After") == "1"
            sync = _post(app, "/api/generate", PAYLOAD)
            assert sync.status == 503
            assert _body(_get(app, "/api/health"))["status"] == "draining"
        finally:
            app.shutdown_gracefully()

    def test_graceful_shutdown_flushes_and_is_idempotent(self, pipeline,
                                                         tmp_path):
        app = _backend(pipeline, tmp_path, spill_dir=tmp_path / "spill")
        job_id = _body(_post(app, "/api/generate_async", PAYLOAD))["job_id"]
        summary = app.shutdown_gracefully(deadline_seconds=30.0)
        assert summary["drained"] is True
        assert summary["jobs_abandoned"] == 0
        assert summary["spilled"] is True
        assert summary["journal"]["rotations"] == 1
        # Idempotent: the SIGTERM handler racing an atexit hook is fine.
        assert app.shutdown_gracefully() is summary
        # The in-flight job completed before the engine stopped.
        assert _audit(tmp_path).completed[job_id]["status"] == "done"

    def test_shutdown_summary_reports_failed_spill_honestly(self, pipeline,
                                                            tmp_path):
        # shutdown_gracefully attempts the spill.  When the save
        # fails, the summary must say so instead of claiming a warm
        # snapshot that does not exist.
        from repro.resilience import FaultInjector, FaultSpec, inject_faults

        app = _backend(pipeline, tmp_path, spill_dir=tmp_path / "spill")
        injector = FaultInjector({"spill.save": FaultSpec(rate=1.0)})
        with inject_faults(injector):
            summary = app.shutdown_gracefully(deadline_seconds=30.0)
        assert summary["spilled"] is False
        assert not (tmp_path / "spill" / "CURRENT").exists()

    def test_crashed_engine_is_never_spilled(self, pipeline, tmp_path):
        # One spill writer (shutdown_gracefully), one rule: the cache
        # of a failed engine is not saved — the crash may have been a
        # poisoned snapshot.  The previous process's snapshot stays.
        from repro.resilience import (FaultInjector, FaultSpec,
                                      ResilienceConfig, inject_faults)

        first = _backend(pipeline, tmp_path, spill_dir=tmp_path / "spill")
        assert _post(first, "/api/generate", PAYLOAD).status == 200
        assert first.shutdown_gracefully()["spilled"] is True
        current = tmp_path / "spill" / "CURRENT"
        before = (current.read_bytes(), current.stat().st_mtime_ns)

        app = _backend(pipeline, tmp_path, spill_dir=tmp_path / "spill",
                       resilience=ResilienceConfig(max_restarts=0))
        injector = FaultInjector({"prefix_cache.get": FaultSpec(rate=1.0)})
        with inject_faults(injector):
            assert _post(app, "/api/generate", PAYLOAD).status == 502
        assert app.engine.crashed is not None
        summary = app.shutdown_gracefully(deadline_seconds=30.0)
        assert summary["spilled"] is False
        assert (current.read_bytes(), current.stat().st_mtime_ns) == before

    def test_warm_cache_after_restart(self, pipeline, tmp_path):
        app = _backend(pipeline, tmp_path, spill_dir=tmp_path / "spill")
        for _ in range(2):
            assert _post(app, "/api/generate", PAYLOAD).status == 200
        app.shutdown_gracefully()

        reborn = _backend(pipeline, tmp_path, spill_dir=tmp_path / "spill")
        try:
            assert reborn.engine.prefix_cache.stats.entries > 0
        finally:
            reborn.shutdown_gracefully()
