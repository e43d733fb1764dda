"""Concurrency behaviour of the job queue: backpressure, shutdown with
in-flight work, and metric consistency after a burst."""

import json
import sys
import threading
import time

import pytest

from repro.models import distilgpt2
from repro.obs import MetricsRegistry
from repro.webapp import Request
from repro.webapp.backend import create_backend
from repro.webapp.jobs import MAX_PENDING, JobQueue, JobStatus, QueueFullError


def settle(queue, job_id, timeout=10.0):
    """The job once it resolved DONE or FAILED (polls ``queue.get``)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = queue.get(job_id)
        if job.status in (JobStatus.DONE, JobStatus.FAILED):
            return job
        time.sleep(0.01)
    raise TimeoutError(f"job {job_id} unresolved after {timeout}s")


class _Gate:
    """A job body that blocks until released; lets tests hold a worker."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self):
        self.entered.set()
        if not self.release.wait(timeout=10):
            raise TimeoutError("gate never released")
        return "done"


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestBackpressure:
    def test_queue_full_raises(self, registry):
        queue = JobQueue(registry=registry)
        gate = _Gate()
        try:
            queue.submit(gate)          # occupies the worker
            gate.entered.wait(timeout=5)
            for i in range(MAX_PENDING):  # pending == MAX_PENDING
                queue.submit(lambda i=i: i)
            with pytest.raises(QueueFullError):
                queue.submit(lambda: -1)
            assert registry.counter("jobs_rejected_total").value == 1
            assert (registry.counter("jobs_submitted_total").value
                    == MAX_PENDING + 1)
        finally:
            gate.release.set()
            queue.shutdown()

    def test_rejected_job_not_tracked(self, registry):
        queue = JobQueue(registry=registry)
        gate = _Gate()
        try:
            queue.submit(gate)
            gate.entered.wait(timeout=5)
            for _ in range(MAX_PENDING):
                queue.submit(lambda: 1)
            before = len(queue._jobs)
            with pytest.raises(QueueFullError):
                queue.submit(lambda: 2)
            assert len(queue._jobs) == before
        finally:
            gate.release.set()
            queue.shutdown()

    def test_backend_returns_429_when_full(self, registry, monkeypatch):
        class FakeTokenizer:
            vocab_size = 2

        class FakePipeline:
            # The engine serves GPT-2; it never decodes here.
            model = distilgpt2(vocab_size=FakeTokenizer.vocab_size)
            tokenizer = FakeTokenizer()

            def prepare_prompt(self, names, generation=None,
                               checklist=False, exemplars=None):
                return "", [0], generation, []

        class HeldDecode:
            """An engine request that never finishes until cancelled."""
            done = False

            def __init__(self):
                self.cancelled = threading.Event()

            def cancel(self):
                self.cancelled.set()

            def result(self):
                self.cancelled.wait(timeout=10)
                raise RuntimeError("cancelled")

        app = create_backend(FakePipeline(), registry=registry)
        held = []

        def submit(*args, **kwargs):
            held.append(HeldDecode())
            return held[-1]

        monkeypatch.setattr(app.engine, "submit", submit)
        request = Request(method="POST", path="/api/generate_async",
                          query={}, headers={},
                          body=b'{"ingredients": ["salt"]}')
        try:
            # One job on the job thread, MAX_PENDING waiting behind it.
            first = json.loads(app.dispatch(request).body)["job_id"]
            deadline = time.monotonic() + 10
            while (json.loads(app.dispatch(Request(
                    method="GET", path="/api/job", query={"id": [first]},
                    headers={}, body=b"")).body)["status"] != "running"
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            for _ in range(MAX_PENDING):
                assert app.dispatch(request).status == 202
            response = app.dispatch(request)
            assert response.status == 429
            assert b"queue full" in response.body
            # The refused job's decode had started; it was cancelled.
            assert held[-1].cancelled.is_set()
        finally:
            for decode in held:
                decode.cancel()
            app.shutdown_gracefully(deadline_seconds=5)


class TestShutdown:
    def test_shutdown_with_in_flight_job_completes_it(self, registry):
        queue = JobQueue(registry=registry)
        gate = _Gate()
        job_id = queue.submit(gate)
        gate.entered.wait(timeout=5)
        queue.shutdown()
        with pytest.raises(RuntimeError):
            queue.submit(lambda: 1)
        gate.release.set()  # in-flight work still finishes cleanly
        job = settle(queue, job_id, timeout=5)
        assert job.status is JobStatus.DONE
        assert job.result == "done"
        queue._thread.join(timeout=5)
        assert not queue._thread.is_alive()

    def test_shutdown_idempotent(self, registry):
        queue = JobQueue(registry=registry)
        queue.shutdown()
        queue.shutdown()

    def test_shutdown_fails_pending_jobs_named(self, registry):
        # Regression: pending jobs used to stay PENDING forever after
        # shutdown — a client polling GET /api/job would never learn
        # its fate.  They must resolve FAILED with the named error.
        from repro.webapp.jobs import SHUTDOWN_ERROR

        queue = JobQueue(registry=registry)
        gate = _Gate()
        running = queue.submit(gate)
        gate.entered.wait(timeout=5)
        abandoned = []
        pending = [queue.submit(lambda: "never", on_fail=abandoned.append)
                   for _ in range(3)]
        queue.shutdown()
        gate.release.set()
        assert abandoned == [SHUTDOWN_ERROR] * 3
        for job_id in pending:
            job = settle(queue, job_id, timeout=5)
            assert job.status is JobStatus.FAILED
            assert job.error == SHUTDOWN_ERROR
            assert job.finished_at is not None
        # The job that was already running still completed.
        assert settle(queue, running, timeout=5).status is JobStatus.DONE
        failed = registry.counter("jobs_completed_total").labels(
            status="failed").value
        assert failed == 3


class TestBurstConsistency:
    def test_counters_consistent_after_burst(self, registry):
        queue = JobQueue(registry=registry)
        accepted, rejected = [], 0
        try:
            for i in range(50):
                try:
                    accepted.append(queue.submit(
                        (lambda v: (lambda: v * v))(i)))
                except QueueFullError:
                    rejected += 1
            results = [settle(queue, job_id) for job_id in accepted]
            assert all(job.status is JobStatus.DONE for job in results)
            submitted = registry.counter("jobs_submitted_total").value
            completed = registry.counter("jobs_completed_total")
            assert submitted == len(accepted)
            assert registry.counter("jobs_rejected_total").value == rejected
            # Give workers a beat to flush the final task_done accounting.
            deadline = time.time() + 5
            while (completed.labels(status="done").value < submitted
                   and time.time() < deadline):
                time.sleep(0.01)
            assert completed.labels(status="done").value == submitted
            wait_hist = registry.histogram("jobs_wait_seconds").summary()
            run_hist = registry.histogram("jobs_run_seconds").summary()
            assert wait_hist["count"] == submitted
            assert run_hist["count"] == submitted
            assert registry.gauge("jobs_queue_depth").value == 0
        finally:
            queue.shutdown()

    def test_concurrent_submitters_lose_no_job(self, registry):
        # More submitting threads than cores, switching every few
        # bytecodes: each accepted job resolves exactly once and the
        # counters add up (a lost update would break one of them).
        queue = JobQueue(registry=registry)
        accepted, refused, lock = [], [0], threading.Lock()
        interval = sys.getswitchinterval()

        def submitter(base):
            for i in range(40):
                try:
                    job_id = queue.submit(lambda v=base + i: v)
                except QueueFullError:
                    with lock:
                        refused[0] += 1
                    time.sleep(0.001)
                    continue
                with lock:
                    accepted.append(job_id)

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submitter, args=(100 * n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            jobs = [settle(queue, job_id) for job_id in accepted]
            assert all(job.status is JobStatus.DONE for job in jobs)
            assert len(set(accepted)) == len(accepted)
            assert accepted and len(accepted) + refused[0] == 8 * 40
            assert (registry.counter("jobs_submitted_total").value
                    == len(accepted))
            assert (registry.counter("jobs_rejected_total").value
                    == refused[0])
            assert registry.counter("jobs_completed_total").labels(
                status="done").value == len(accepted)
        finally:
            queue.shutdown()

    def test_mixed_outcomes_counted_by_status(self, registry):
        queue = JobQueue(registry=registry)
        try:
            good = [queue.submit(lambda: "ok") for _ in range(5)]
            bad = [queue.submit(lambda: 1 / 0) for _ in range(3)]
            for job_id in good + bad:
                settle(queue, job_id)
            completed = registry.counter("jobs_completed_total")
            assert completed.labels(status="done").value == 5
            assert completed.labels(status="failed").value == 3
        finally:
            queue.shutdown()
