"""Deterministic fault injection: named failure points on a seeded schedule.

The chaos suite (``tests/test_chaos.py``) needs to prove a negative —
*no request ever hangs, whatever breaks* — which requires breaking
things on purpose, reproducibly.  This module provides the switchboard:
production code calls :func:`fault_check` at named **failure points**,
a no-op unless a test (or an operator drill) has installed a
:class:`FaultInjector`; the injector raises :class:`InjectedFault` or
injects latency according to a seeded, fully deterministic plan.

Registered failure points (see ``docs/RESILIENCE.md``):

=====================  =====================================================
``model.forward``       a batched decode/prefill forward pass in the
                        serving engine — fails the affected requests with a
                        named error, the engine itself survives;
``prefix_cache.get``    a prefix-cache lookup during admission — escapes
                        the engine loop — a *crash*, which the engine
                        recovers from in place while its restart budget
                        lasts (``InferenceEngine._recover``);
``jobs.worker``         a job-queue worker about to run a job — the job
                        resolves ``FAILED`` with a named error;
``framework.write``     an HTTP response write — simulates a client that
                        disconnected mid-stream;
``retrieval.search``    a retrieval-index lookup (search, RAG exemplar
                        fetch, novelty scoring) — the backend degrades to
                        un-conditioned generation with
                        ``"retrieval_degraded": true``, never a failed or
                        hung request;
``journal.append``      a write-ahead job-journal append — an async submit
                        that cannot be made durable is refused with 503 +
                        Retry-After *before* the 202, never acknowledged
                        and then lost;
``spill.save``          a prefix-cache spill snapshot — a failed spill
                        degrades the *next* restart to a cold cache, it
                        never fails shutdown, swap, or serving;
``decoding.reward``     an MCTS rollout-reward evaluation — the search
                        degrades to constrained greedy decoding with
                        ``"search_degraded": true``, never a failed or
                        hung request.
=====================  =====================================================

Determinism contract: a given ``(seed, plan)`` produces the same fault
at the same call index at every point, every run — each point draws
from its own ``default_rng`` stream, so adding a point (or calls to
one) never perturbs another's schedule.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

import numpy as np

#: The failure points production code is instrumented with.
FAULT_POINTS: Tuple[str, ...] = (
    "model.forward",
    "prefix_cache.get",
    "jobs.worker",
    "framework.write",
    "retrieval.search",
    "journal.append",
    "spill.save",
    "decoding.reward",
)


class InjectedFault(RuntimeError):
    """The named error a triggered failure point raises.

    Carries the point and the 0-based call index that fired so chaos
    tests can assert *which* scheduled fault a request died of.
    """

    def __init__(self, point: str, index: int) -> None:
        super().__init__(f"injected fault at {point!r} (call #{index})")
        self.point = point
        self.index = index


@dataclass(frozen=True)
class FaultSpec:
    """What one failure point does when checked.

    ``rate`` fires faults at random (seeded — deterministic per
    injector); ``schedule`` fires at exact 0-based call indices;
    both compose.  ``delay_seconds`` sleeps before deciding, modelling
    a slow dependency rather than a dead one.  ``max_faults`` caps the
    total raises so a "crash once" plan is one line.
    """

    rate: float = 0.0
    schedule: FrozenSet[int] = field(default_factory=frozenset)
    delay_seconds: float = 0.0
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be >= 0 or None")
        object.__setattr__(self, "schedule", frozenset(self.schedule))


@dataclass
class _PointState:
    spec: FaultSpec
    rng: np.random.Generator
    calls: int = 0
    faults: int = 0
    delayed: int = 0


class FaultInjector:
    """Seeded fault plan over the named failure points.

    Parameters
    ----------
    plan:
        ``{point: FaultSpec}``; points absent from the plan never fire.
        Unknown point names are rejected so a typo cannot silently
        disable a chaos scenario.
    seed:
        Root seed; each point derives an independent
        ``default_rng([seed, point_index])`` stream.
    sleep:
        Injectable sleeper for ``delay_seconds`` (tests pass a stub so
        latency plans do not slow the suite).
    """

    def __init__(self, plan: Dict[str, FaultSpec], seed: int = 0,
                 sleep=time.sleep) -> None:
        unknown = set(plan) - set(FAULT_POINTS)
        if unknown:
            raise ValueError(
                f"unknown fault point(s) {sorted(unknown)}; "
                f"registered: {list(FAULT_POINTS)}")
        self._sleep = sleep
        self._lock = threading.Lock()
        self._points: Dict[str, _PointState] = {
            point: _PointState(
                spec=spec,
                rng=np.random.default_rng([seed, FAULT_POINTS.index(point)]))
            for point, spec in plan.items()
        }

    def check(self, point: str) -> None:
        """Run the plan for one call at ``point``.

        Raises :class:`InjectedFault` when the schedule says so; sleeps
        first when latency is planned.  Points not in the plan return
        immediately.
        """
        state = self._points.get(point)
        if state is None:
            return
        with self._lock:
            index = state.calls
            state.calls += 1
            spec = state.spec
            fire = index in spec.schedule
            if not fire and spec.rate > 0.0:
                fire = bool(state.rng.random() < spec.rate)
            if fire and (spec.max_faults is not None
                         and state.faults >= spec.max_faults):
                fire = False
            if fire:
                state.faults += 1
            delay = spec.delay_seconds
            if delay > 0.0:
                state.delayed += 1
        if delay > 0.0:
            self._sleep(delay)
        if fire:
            raise InjectedFault(point, index)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-point call/fault/delay counts (for tests and stats)."""
        with self._lock:
            return {
                point: {"calls": state.calls, "faults": state.faults,
                        "delayed": state.delayed}
                for point, state in self._points.items()
            }


# ---------------------------------------------------------------------------
# Process-wide switchboard.  ``fault_check`` is on hot paths (one call
# per decode step), so the disabled case must be a single attribute
# read — no lock, no dict lookup.
# ---------------------------------------------------------------------------
_active: Optional[FaultInjector] = None


def set_fault_injector(injector: Optional[FaultInjector]
                       ) -> Optional[FaultInjector]:
    """Install (or clear, with ``None``) the process-wide injector.

    Returns the previously installed injector so callers can restore it.
    """
    global _active
    previous = _active
    _active = injector
    return previous


def get_fault_injector() -> Optional[FaultInjector]:
    return _active


def fault_check(point: str) -> None:
    """Hook production code calls at a named failure point.

    No-op (one attribute read) unless an injector is installed.
    """
    injector = _active
    if injector is not None:
        injector.check(point)


@contextmanager
def inject_faults(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Scoped installation for tests: restores the previous injector."""
    previous = set_fault_injector(injector)
    try:
        yield injector
    finally:
        set_fault_injector(previous)
