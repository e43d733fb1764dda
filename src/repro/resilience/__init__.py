"""Resilience: deadlines, load shedding, crash recovery, fault injection.

The serving stack built in earlier PRs is fast but brittle: a slow
request holds its HTTP worker forever, overload grows the queue without
bound, and a crashed engine loop strands every in-flight caller.  This
package adds the failure-handling layer:

- :mod:`repro.resilience.faults` — deterministic fault injection at
  named failure points (``fault_check``), driving the chaos suite;
- :mod:`repro.resilience.admission` — token-denominated load shedding
  with 503 + ``Retry-After`` beyond a high-water mark;
- :class:`ResilienceConfig` — the knobs, among them the restart budget
  the engine spends recovering from its own crashes in place
  (:meth:`repro.serving.InferenceEngine._recover`).  Past that budget
  the engine is ``failed``: the requests its last crash failed get a
  502, later ones a 503.

Request *deadlines* live in the engine itself
(:class:`repro.serving.DeadlineExceededError` carries the partial
generation); this package configures them via
:class:`ResilienceConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .._exports import export_lazily

__all__ = [
    "AdmissionController",
    "FAULT_POINTS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "OverloadShedError",
    "ResilienceConfig",
    "fault_check",
    "get_fault_injector",
    "inject_faults",
    "set_fault_injector",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "admission": ("AdmissionController", "OverloadShedError"),
    "faults": ("FAULT_POINTS", "FaultInjector", "FaultSpec", "InjectedFault",
               "fault_check", "get_fault_injector", "inject_faults",
               "set_fault_injector"),
})


@dataclass
class ResilienceConfig:
    """Knobs the serving entrypoints (`repro serve`, tests) wire up.

    ``None`` / ``False`` values disable the corresponding pillar; every
    backend's engine recovers from its own crashes, so a
    default-constructed config is a backend with the default restart
    budget and nothing else.
    """

    #: Deadline applied to requests that do not send ``deadline_ms``.
    default_deadline_ms: Optional[float] = None
    #: Queued-work ceiling for admission control (tokens); None = off.
    shed_watermark_tokens: Optional[int] = None
    #: Accepted and ignored: every backend's engine recovers from its
    #: own crashes, and there is nothing to switch on.  Kept because
    #: ``benchmarks/e2e/inprocess.py`` spells ``supervise=True``.
    supervise: bool = False
    #: The engine's in-place restart budget over its lifetime, and the
    #: backoff before restart ``n``: ``restart_backoff_seconds * 2 **
    #: (n - 1)``.
    max_restarts: int = 3
    restart_backoff_seconds: float = 0.05

    def __post_init__(self) -> None:
        if (self.default_deadline_ms is not None
                and self.default_deadline_ms <= 0):
            raise ValueError("default_deadline_ms must be > 0")
        if (self.shed_watermark_tokens is not None
                and self.shed_watermark_tokens < 1):
            raise ValueError("shed_watermark_tokens must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.restart_backoff_seconds < 0:
            raise ValueError("restart_backoff_seconds must be >= 0")

