"""Async jobs through the engine's batch: ``/api/generate_async`` starts
each plain job's decode at accept time, and the job thread only
finishes it.  Pins batching, byte-identity with ``/api/generate``,
the failure path of a job the job thread fails, conservation of
admission tokens / engine slots / job counts / journal records, and
journal replay of a backlog larger than the job queue's bound.
"""

import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.durability import JobJournal
from repro.obs import MetricsRegistry
from repro.resilience import (FaultInjector, FaultSpec, ResilienceConfig,
                              inject_faults)
from repro.training import TrainingConfig
from repro.webapp import Request, create_backend
from repro.webapp.jobs import MAX_PENDING

INGREDIENTS = ["garlic", "rice", "egg", "tofu", "ginger", "onion",
               "tomato", "basil", "chicken", "lemon"]


@pytest.fixture(scope="module")
def pipeline():
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=5, batch_size=4, eval_every=10**9))
    return Ratatouille.quickstart(model_name="distilgpt2", num_recipes=30,
                                  seed=0, config=config)


def _payloads(count, max_new_tokens=16):
    """``count`` distinct greedy payloads."""
    return [{"ingredients": [INGREDIENTS[i % 10], INGREDIENTS[(i // 10 + i
                                                             + 1) % 10]],
             "strategy": "greedy", "max_new_tokens": max_new_tokens,
             "seed": i}
            for i in range(count)]


def _post(app, path, payload):
    return app.dispatch(Request(method="POST", path=path, query={},
                                headers={},
                                body=json.dumps(payload).encode("utf-8")))


def _job(app, job_id):
    return json.loads(app.dispatch(Request(
        method="GET", path="/api/job", query={"id": [job_id]}, headers={},
        body=b"")).body)


def _poll(app, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = _job(app, job_id)
        if job["status"] in ("done", "failed"):
            return job
        time.sleep(0.01)
    raise TimeoutError(f"job {job_id} unresolved after {timeout}s")


def _accept(app, payload):
    response = _post(app, "/api/generate_async", payload)
    assert response.status == 202, response.body
    return json.loads(response.body)["job_id"]


def _recipe(body):
    """A response body minus its wall-clock field."""
    return {key: value for key, value in body.items()
            if key != "generation_seconds"}


def _sync_recipe(app, payload):
    response = _post(app, "/api/generate", payload)
    assert response.status == 200
    return _recipe(json.loads(response.body))


@contextmanager
def held_engine(model):
    """Park the engine thread in its next prefill until the block exits;
    yields the event set once it is parked."""
    reached, release = threading.Event(), threading.Event()
    prefill = model.prefill

    def gated(*args, **kwargs):
        reached.set()
        release.wait(timeout=60)
        return prefill(*args, **kwargs)

    model.prefill = gated
    try:
        yield reached
    finally:
        release.set()
        del model.prefill


def _quiesce(registry, timeout=10.0):
    """Wait until the engine holds no sequence and no queued request."""
    active = registry.gauge("engine_active_sequences")
    depth = registry.gauge("engine_queue_depth")
    deadline = time.monotonic() + timeout
    while ((active.value or depth.value)
           and time.monotonic() < deadline):
        time.sleep(0.01)
    return active.value, depth.value


def _audit(path):
    with JobJournal(path) as journal:
        return journal.replay()


def test_plain_async_jobs_share_decode_steps(pipeline):
    registry = MetricsRegistry()
    app = create_backend(pipeline, registry=registry)
    payloads = _payloads(8)
    try:
        forwards = registry.counter("engine_decode_forwards_total")
        tokens = registry.counter("engine_tokens_total").labels(
            strategy="plain")
        with held_engine(pipeline.model):
            job_ids = [_accept(app, payload) for payload in payloads]
        jobs = [_poll(app, job_id) for job_id in job_ids]
        _quiesce(registry)
        # Serially, 8 jobs cost ~one forward per token (120 of 128).
        assert tokens.value > 0
        assert forwards.value <= tokens.value / 2
        for payload, job in zip(payloads, jobs):
            assert job["status"] == "done"
            assert _recipe(job["result"]) == _sync_recipe(app, payload)
    finally:
        app.shutdown_gracefully()


@pytest.mark.chaos
def test_a_job_the_worker_fails_releases_its_cost_and_journals_failed(
        pipeline, tmp_path):
    app = create_backend(
        pipeline, registry=MetricsRegistry(),
        resilience=ResilienceConfig(shed_watermark_tokens=1000),
        journal_dir=tmp_path / "journal")
    try:
        with inject_faults(FaultInjector(
                {"jobs.worker": FaultSpec(schedule={0})})):
            job_id = _accept(app, _payloads(1)[0])
            job = _poll(app, job_id)
        assert job["status"] == "failed"
        assert "InjectedFault" in job["error"]
        assert app.admission.stats()["queued_tokens"] == 0
        state = _audit(tmp_path / "journal")
        assert state.completed[job_id]["status"] == "failed"
        assert state.incomplete() == []
    finally:
        app.shutdown_gracefully()


@pytest.mark.chaos
def test_an_async_burst_conserves_tokens_slots_jobs_and_records(
        pipeline, tmp_path):
    registry = MetricsRegistry()
    app = create_backend(
        pipeline, registry=registry,
        resilience=ResilienceConfig(shed_watermark_tokens=10_000),
        journal_dir=tmp_path / "journal")
    # A short engine queue, so the burst overflows it.
    app.engine._queue.maxsize = 3
    payloads = _payloads(6, max_new_tokens=8)
    statuses = []
    try:
        # The job thread fails its 2nd and 4th job at the fault point.
        with inject_faults(FaultInjector(
                {"jobs.worker": FaultSpec(schedule={1, 3})})):
            with held_engine(pipeline.model) as parked:
                first = _accept(app, payloads[0])
                assert parked.wait(timeout=30)
                accepted = [first]
                for payload in payloads[1:]:
                    response = _post(app, "/api/generate_async", payload)
                    statuses.append(response.status)
                    if response.status == 202:
                        accepted.append(json.loads(response.body)["job_id"])
            jobs = {job_id: _poll(app, job_id) for job_id in accepted}
        # Three fit the engine queue behind the parked one; two did not.
        assert statuses == [202, 202, 202, 429, 429]
        assert [jobs[job_id]["status"] for job_id in accepted] == [
            "done", "failed", "done", "failed"]
        assert _quiesce(registry) == (0, 0)
        assert app.admission.stats()["queued_tokens"] == 0
        submitted = registry.counter("jobs_submitted_total").value
        completed = sum(child.value for _, child in registry.counter(
            "jobs_completed_total").series())
        assert submitted == completed == len(accepted)
        state = _audit(tmp_path / "journal")
        assert state.incomplete() == []
        assert state.duplicate_completions == 0
        assert {job_id: state.completed[job_id]["status"]
                for job_id in accepted} == {
            job_id: job["status"] for job_id, job in jobs.items()}
        rejected = [record for job_id, record in state.completed.items()
                    if job_id not in jobs]
        assert [record["status"] for record in rejected] == ["rejected"] * 2
    finally:
        app.shutdown_gracefully()


@pytest.mark.durability
def test_a_replayed_backlog_past_the_bound_requeues_whole(pipeline,
                                                          tmp_path):
    payloads = _payloads(MAX_PENDING + 4, max_new_tokens=8)
    job_ids = [f"backlog-{i:02d}" for i in range(len(payloads))]
    with JobJournal(tmp_path / "journal") as journal:
        for job_id, payload in zip(job_ids, payloads):
            journal.append_accepted(job_id, payload)
    with held_engine(pipeline.model):
        # Returns while the engine is parked: no decode has finished.
        app = create_backend(pipeline, registry=MetricsRegistry(),
                             journal_dir=tmp_path / "journal")
        assert app.replay_summary["replayed"] == len(payloads)
        assert all(_job(app, job_id)["status"] in ("pending", "running")
                   for job_id in job_ids)
    try:
        for job_id, payload in zip(job_ids, payloads):
            job = _poll(app, job_id)
            assert job["status"] == "done"
            assert _recipe(job["result"]) == _sync_recipe(app, payload)
    finally:
        app.shutdown_gracefully()
