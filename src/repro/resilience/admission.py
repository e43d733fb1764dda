"""Admission control: shed load *before* it queues, not after it hurts.

An unprotected serving queue converts overload into unbounded latency:
every admitted request waits behind all earlier ones, so at 4x offered
load the p99 grows without limit while throughput stays flat.  The
standard fix (and the one deployed recipe services use) is a
load-shedding gate: estimate the work already queued, and beyond a
high-water mark answer *immediately* with 503 + ``Retry-After`` so the
requests that are admitted still meet their latency targets.

Work is estimated in **decode tokens** — each generation request costs
its ``max_new_tokens`` budget, the engine's actual unit of work — and
tracked with explicit :meth:`~AdmissionController.try_acquire` /
:meth:`~AdmissionController.release` bracketing by the HTTP layer
(sync, async-job and streaming endpoints alike), so the gate sits in
front of both the engine and the job queue.

Verified by ``benchmarks/run_overload_shedding.py``: at 4x offered
load the p99 latency of *admitted* requests stays within 2x of the
uncontended p99 while excess traffic sheds with 503.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Optional

from ..obs import MetricsRegistry, get_registry

#: Rough decode throughput, in tokens per second, that turns excess
#: backlog into a ``Retry-After`` hint.  Precision does not matter —
#: the hint only needs the right order of magnitude.
RETRY_TOKENS_PER_SECOND = 200.0


class OverloadShedError(RuntimeError):
    """Request refused by admission control (HTTP layer: 503).

    ``retry_after`` is the client hint, in whole seconds, for when the
    queued backlog should have drained.
    """

    def __init__(self, message: str, retry_after: int) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class AdmissionController:
    """Token-denominated load-shedding gate with a high-water mark.

    Parameters
    ----------
    watermark_tokens:
        Queued-work ceiling.  A request whose cost would push the total
        beyond this is shed — unless the gate is completely idle, in
        which case one oversized request is still admitted (a request
        larger than the watermark must not starve forever).
    registry:
        Metrics sink; exposes ``admission_admitted_total``,
        ``admission_shed_total`` and the ``admission_queued_tokens``
        gauge via ``GET /api/metrics``.
    """

    def __init__(self, watermark_tokens: int,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if watermark_tokens < 1:
            raise ValueError("watermark_tokens must be >= 1")
        self.watermark_tokens = watermark_tokens
        self._queued = 0
        self._lock = threading.Lock()
        registry = registry if registry is not None else get_registry()
        self._admitted = registry.counter(
            "admission_admitted_total",
            help="Requests admitted past the load-shedding gate")
        self._shed = registry.counter(
            "admission_shed_total",
            help="Requests shed with 503 by admission control")
        self._gauge = registry.gauge(
            "admission_queued_tokens",
            help="Estimated queued decode work, in tokens")

    # ------------------------------------------------------------------
    def try_acquire(self, cost_tokens: int) -> None:
        """Admit ``cost_tokens`` of work or raise :class:`OverloadShedError`.

        Every successful acquire must be paired with exactly one
        :meth:`release` when the request resolves (success, error,
        deadline or cancellation alike).
        """
        if cost_tokens < 0:
            raise ValueError("cost_tokens must be >= 0")
        with self._lock:
            over = self._queued + cost_tokens > self.watermark_tokens
            if over and self._queued > 0:
                retry_after = self._retry_after_locked(cost_tokens)
                self._shed.inc()
                raise OverloadShedError(
                    f"overloaded: {self._queued} tokens of work queued "
                    f"(watermark {self.watermark_tokens}); retry in "
                    f"~{retry_after}s", retry_after)
            self._queued += cost_tokens
            self._gauge.set(self._queued)
        self._admitted.inc()

    def release(self, cost_tokens: int) -> None:
        """Return admitted work to the gate when its request resolves."""
        with self._lock:
            self._queued = max(0, self._queued - cost_tokens)
            self._gauge.set(self._queued)

    def _retry_after_locked(self, cost_tokens: int) -> int:
        backlog = self._queued + cost_tokens - self.watermark_tokens
        drain = max(backlog, self._queued - self.watermark_tokens // 2)
        return max(1, math.ceil(drain / RETRY_TOKENS_PER_SECOND))

    # ------------------------------------------------------------------
    @property
    def queued_tokens(self) -> int:
        with self._lock:
            return self._queued

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            queued = self._queued
        return {
            "watermark_tokens": self.watermark_tokens,
            "queued_tokens": queued,
            "admitted_total": self._admitted.value,
            "shed_total": self._shed.value,
        }
