"""Concurrency behaviour of the job queue: backpressure, timeouts,
shutdown with in-flight work, and metric consistency after a burst."""

import threading
import time

import pytest

from repro.models import distilgpt2
from repro.obs import MetricsRegistry
from repro.webapp import Request
from repro.webapp.backend import create_backend
from repro.webapp.jobs import JobQueue, JobStatus, QueueFullError


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
        queue = JobQueue(workers=1, max_pending=2, registry=registry)
        gate = _Gate()
        try:
            queue.submit(gate)          # occupies the worker
            gate.entered.wait(timeout=5)
            queue.submit(lambda: 1)     # pending 1
            queue.submit(lambda: 2)     # pending 2 == max_pending
            with pytest.raises(QueueFullError):
                queue.submit(lambda: 3)
            assert registry.counter("jobs_rejected_total").value == 1
            assert registry.counter("jobs_submitted_total").value == 3
        finally:
            gate.release.set()
            queue.shutdown()

    def test_rejected_job_not_tracked(self, registry):
        queue = JobQueue(workers=1, max_pending=1, registry=registry)
        gate = _Gate()
        try:
            queue.submit(gate)
            gate.entered.wait(timeout=5)
            queue.submit(lambda: 1)
            before = len(queue._jobs)
            with pytest.raises(QueueFullError):
                queue.submit(lambda: 2)
            assert len(queue._jobs) == before
        finally:
            gate.release.set()
            queue.shutdown()

    def test_backend_returns_429_when_full(self, registry):
        class FakeTokenizer:
            vocab_size = 2

        class FakePipeline:
            # The engine serves GPT-2; an idle one never runs it.
            model = distilgpt2(vocab_size=FakeTokenizer.vocab_size)
            tokenizer = FakeTokenizer()

            def generate(self, names, generation=None, checklist=False):
                raise AssertionError("should never run: queue is full")

        queue = JobQueue(workers=1, max_pending=1, registry=registry)
        gate = _Gate()
        try:
            queue.submit(gate)
            gate.entered.wait(timeout=5)
            queue.submit(lambda: 1)  # fills the only pending slot
            # The engine idles: this test only exercises the job queue.
            app = create_backend(FakePipeline(), job_queue=queue,
                                 registry=registry)
            request = Request(method="POST", path="/api/generate_async",
                              query={}, headers={},
                              body=b'{"ingredients": ["salt"]}')
            response = app.dispatch(request)
            assert response.status == 429
            assert b"queue full" in response.body
            app.engine.stop()
        finally:
            gate.release.set()
            queue.shutdown()


class TestWaitTimeout:
    def test_wait_times_out_while_running(self, registry):
        queue = JobQueue(workers=1, registry=registry)
        gate = _Gate()
        try:
            job_id = queue.submit(gate)
            gate.entered.wait(timeout=5)
            with pytest.raises(TimeoutError) as excinfo:
                queue.wait(job_id, timeout=0.1, poll=0.01)
            assert "running" in str(excinfo.value)
        finally:
            gate.release.set()
            queue.shutdown()

    def test_wait_returns_failed_jobs_too(self, registry):
        queue = JobQueue(workers=1, registry=registry)
        try:
            job_id = queue.submit(lambda: 1 / 0)
            job = queue.wait(job_id, timeout=5)
            assert job.status is JobStatus.FAILED
            assert "ZeroDivisionError" in job.error
            snapshot = job.snapshot()
            assert snapshot["status"] == "failed"
            assert "result" not in snapshot
        finally:
            queue.shutdown()

    def test_wait_unknown_job(self, registry):
        queue = JobQueue(registry=registry)
        try:
            with pytest.raises(KeyError):
                queue.wait("nope", timeout=0.1)
        finally:
            queue.shutdown()


class TestShutdown:
    def test_shutdown_with_in_flight_job_completes_it(self, registry):
        queue = JobQueue(workers=1, registry=registry)
        gate = _Gate()
        job_id = queue.submit(gate)
        gate.entered.wait(timeout=5)
        queue.shutdown()
        with pytest.raises(RuntimeError):
            queue.submit(lambda: 1)
        gate.release.set()  # in-flight work still finishes cleanly
        job = queue.wait(job_id, timeout=5)
        assert job.status is JobStatus.DONE
        assert job.result == "done"
        for thread in queue._threads:
            thread.join(timeout=5)
            assert not thread.is_alive()

    def test_shutdown_idempotent(self, registry):
        queue = JobQueue(workers=2, registry=registry)
        queue.shutdown()
        queue.shutdown()

    def test_shutdown_fails_pending_jobs_named(self, registry):
        # Regression: pending jobs used to stay PENDING forever after
        # shutdown — a client polling GET /api/job would never learn
        # its fate.  They must resolve FAILED with the named error.
        from repro.webapp.jobs import SHUTDOWN_ERROR

        queue = JobQueue(workers=1, max_pending=8, registry=registry)
        gate = _Gate()
        running = queue.submit(gate)
        gate.entered.wait(timeout=5)
        pending = [queue.submit(lambda: "never") for _ in range(3)]
        queue.shutdown()
        gate.release.set()
        for job_id in pending:
            job = queue.wait(job_id, timeout=5)
            assert job.status is JobStatus.FAILED
            assert job.error == SHUTDOWN_ERROR
            assert job.finished_at is not None
        # The job that was already running still completed.
        assert queue.wait(running, timeout=5).status is JobStatus.DONE
        failed = registry.counter("jobs_completed_total").labels(
            status="failed").value
        assert failed == 3

    def test_shutdown_wakes_every_worker_with_tiny_queue(self, registry):
        # More workers than queue slots: shutdown can only fit one
        # sentinel, so exiting workers must re-post it for the rest.
        queue = JobQueue(workers=4, max_pending=1, registry=registry)
        queue.shutdown()
        for thread in queue._threads:
            thread.join(timeout=5)
            assert not thread.is_alive()


class TestBurstConsistency:
    def test_counters_consistent_after_burst(self, registry):
        queue = JobQueue(workers=4, max_pending=64, registry=registry)
        accepted, rejected = [], 0
        try:
            for i in range(50):
                try:
                    accepted.append(queue.submit(
                        (lambda v: (lambda: v * v))(i)))
                except QueueFullError:
                    rejected += 1
            results = [queue.wait(job_id, timeout=10) for job_id in accepted]
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

    def test_mixed_outcomes_counted_by_status(self, registry):
        queue = JobQueue(workers=2, max_pending=32, registry=registry)
        try:
            good = [queue.submit(lambda: "ok") for _ in range(5)]
            bad = [queue.submit(lambda: 1 / 0) for _ in range(3)]
            for job_id in good + bad:
                queue.wait(job_id, timeout=10)
            completed = registry.counter("jobs_completed_total")
            assert completed.labels(status="done").value == 5
            assert completed.labels(status="failed").value == 3
        finally:
            queue.shutdown()
