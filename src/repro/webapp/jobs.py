"""Background job queue for asynchronous generation.

Sec. VI motivates the decoupled backend with load: "To handle more
user requests and prevents breakage of application".  The backend
exposes ``POST /api/generate_async`` + ``GET /api/job``: an accepted
job's decode is already an engine request (it rides the engine's
batch), and this queue's one thread only finishes jobs in acceptance
order — waits for the decode, builds the body, journals the outcome.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Deque, Dict, Optional

from ..obs import MetricsRegistry, get_registry
from ..resilience.faults import fault_check

#: The error message shutdown stamps on still-pending jobs; clients
#: polling ``GET /api/job`` see it verbatim and can tell "the service
#: restarted" apart from "your recipe failed".
SHUTDOWN_ERROR = "JobQueueShutdown: queue shut down before job ran"

#: Live submissions beyond this many waiting jobs raise
#: :class:`QueueFullError` — the HTTP layer's 429.  With token
#: admission off (the default) it is the only cap on a backlog of
#: constrained / MCTS jobs, whose decodes start on the job thread.
MAX_PENDING = 16


class JobStatus(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Job:
    """One queued unit of work and its lifecycle."""

    job_id: str
    func: Callable[[], Any]
    #: Called with the error string whenever the job resolves FAILED —
    #: ``func`` raised, the ``jobs.worker`` fault fired, or shutdown
    #: abandoned it — before the status becomes visible.
    on_fail: Optional[Callable[[str], None]] = None
    status: JobStatus = JobStatus.PENDING
    result: Any = None
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def snapshot(self) -> Dict[str, Any]:
        """JSON view of the job (result included once done)."""
        payload: Dict[str, Any] = {
            "job_id": self.job_id,
            "status": self.status.value,
        }
        if self.status is JobStatus.DONE:
            payload["result"] = self.result
        if self.status is JobStatus.FAILED:
            payload["error"] = self.error
        if self.started_at and self.finished_at:
            payload["seconds"] = round(self.finished_at - self.started_at, 3)
        return payload


class JobQueue:
    """A FIFO of jobs run one at a time on one daemon thread.

    ``registry`` (default: the process-wide one) receives the queue
    depth gauge, submit/reject/complete counters and wait/run-time
    histograms — the numbers ``GET /api/metrics`` exposes.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._pending: Deque[Job] = deque()
        self._jobs: Dict[str, Job] = {}
        self._cond = threading.Condition()
        self._shutdown = False
        registry = registry if registry is not None else get_registry()
        self._depth = registry.gauge(
            "jobs_queue_depth", help="Jobs waiting in the queue")
        self._submitted = registry.counter(
            "jobs_submitted_total", help="Jobs accepted into the queue")
        self._rejected = registry.counter(
            "jobs_rejected_total", help="Submissions refused (queue full)")
        self._completed = registry.counter(
            "jobs_completed_total", help="Jobs finished, by outcome status")
        self._wait_seconds = registry.histogram(
            "jobs_wait_seconds", help="Queue wait (submit to start)")
        self._run_seconds = registry.histogram(
            "jobs_run_seconds", help="Execution time (start to finish)")
        self._thread = threading.Thread(target=self._worker, daemon=True,
                                        name="jobqueue-worker-0")
        self._thread.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, func: Callable[[], Any], job_id: Optional[str] = None,
               on_fail: Optional[Callable[[str], None]] = None) -> str:
        """Queue ``func``; returns the job id.

        ``job_id`` is the caller's (the durability layer journals the
        id *before* submitting, so the journal and queue must agree)
        or a fresh ``uuid4`` fragment; re-using a live id raises
        :class:`ValueError`.  Raises :class:`QueueFullError` when
        :data:`MAX_PENDING` jobs are already waiting and
        ``RuntimeError`` after :meth:`shutdown`.
        """
        return self._put(Job(job_id or uuid.uuid4().hex[:12], func, on_fail),
                         bounded=True)

    def requeue(self, func: Callable[[], Any], job_id: str,
                on_fail: Optional[Callable[[str], None]] = None) -> str:
        """Queue a job an earlier process accepted (journal replay).

        Never refused for :data:`MAX_PENDING`, which bounds live
        submissions only: a replayed backlog re-enters whole, in the
        order it is requeued, without waiting for any of it to run.
        """
        return self._put(Job(job_id, func, on_fail), bounded=False)

    def _put(self, job: Job, bounded: bool) -> str:
        with self._cond:
            if self._shutdown:
                raise RuntimeError("queue is shut down")
            if job.job_id in self._jobs:
                raise ValueError(f"job id {job.job_id!r} already exists")
            if bounded and len(self._pending) >= MAX_PENDING:
                self._rejected.inc()
                raise QueueFullError(
                    f"job queue full ({MAX_PENDING} pending)")
            self._jobs[job.job_id] = job
            self._pending.append(job)
            self._depth.set(len(self._pending))
            self._submitted.inc()
            self._cond.notify()
        return job.job_id

    def get(self, job_id: str) -> Job:
        with self._cond:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    @property
    def unfinished(self) -> int:
        """Jobs not yet DONE/FAILED — queued *and* running."""
        with self._cond:
            return sum(job.status in (JobStatus.PENDING, JobStatus.RUNNING)
                       for job in self._jobs.values())

    def wait_idle(self, timeout: float = 10.0, poll: float = 0.02) -> bool:
        """Block until no job is pending or running; True if drained.

        Returns False when ``timeout`` expires with work still in
        flight — the graceful-shutdown path then fails the leftovers
        via :meth:`shutdown` rather than waiting forever.
        """
        deadline = time.monotonic() + timeout
        while self.unfinished > 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(poll)
        return True

    def shutdown(self) -> None:
        """Stop accepting work and fail every still-pending job.

        Each undrained job resolves ``FAILED`` with the named
        :data:`SHUTDOWN_ERROR` (its ``on_fail`` sees that error), so a
        client polling ``GET /api/job`` learns its fate.  A running
        job finishes; then the thread exits.  Idempotent.
        """
        with self._cond:
            self._shutdown = True
            abandoned = list(self._pending)
            self._pending.clear()
            self._depth.set(0)
            self._cond.notify()
        for job in abandoned:
            self._resolve(job, JobStatus.FAILED, SHUTDOWN_ERROR)

    def _resolve(self, job: Job, status: JobStatus,
                 error: Optional[str] = None) -> None:
        """Account for a finished job; the status is written last, so a
        poller that sees it also sees the failure handled and counted."""
        if error is not None and job.on_fail is not None:
            try:
                job.on_fail(error)
            except Exception:  # noqa: BLE001 - the job fails regardless
                pass
        job.error = error
        job.finished_at = time.time()
        if job.started_at is not None:
            self._run_seconds.observe(job.finished_at - job.started_at)
        self._completed.labels(status=status.value).inc()
        job.status = status

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._shutdown:
                    self._cond.wait()
                if not self._pending:
                    return  # shut down; shutdown() failed the backlog
                job = self._pending.popleft()
                self._depth.set(len(self._pending))
                job.status = JobStatus.RUNNING
            job.started_at = time.time()
            self._wait_seconds.observe(job.started_at - job.submitted_at)
            try:
                fault_check("jobs.worker")
                job.result = job.func()
            except Exception as exc:  # noqa: BLE001 - job errors are data
                self._resolve(job, JobStatus.FAILED,
                              f"{type(exc).__name__}: {exc}")
            else:
                self._resolve(job, JobStatus.DONE)


class QueueFullError(RuntimeError):
    """Raised when the queue is at capacity (HTTP layer: 429)."""
