"""Engine supervision: a watchdog that survives a dead engine thread.

The serving engine owns one background thread; before this module, an
exception escaping that thread's loop (a poisoned prefix-cache entry, a
model bug, an injected fault) killed it silently — queued requests and
their HTTP handlers then blocked forever.  :class:`EngineSupervisor`
closes that hole:

1. **detect** — a watchdog polls the engine thread; a death without a
   clean :meth:`~repro.serving.InferenceEngine.stop` is a crash;
2. **fail fast** — every queued and in-flight request on the dead
   engine is resolved with a named
   :class:`~repro.serving.EngineCrashedError` (never a hang);
3. **restart** — a fresh engine is built from the factory, with
   exponential backoff, at most ``max_restarts`` times; it never
   serves from what its predecessor died on (the crash may have been
   a poisoned snapshot): a crashing engine empties its prefix cache;
4. **retry** — the handle :meth:`EngineSupervisor.submit` returns
   sees that crash error, waits for the replacement and resubmits with
   what is left of its deadline; output is bit-identical run to run, so
   the caller gets one result and a stream every token exactly once;
5. **degrade** — while no engine is serving (mid-backoff, or restarts
   exhausted) an optional fallback decodes sequentially and the
   response is marked ``"degraded": true`` upstream.

The supervisor mirrors the engine's ``submit`` / ``generate`` / ``stats``
/ ``stop`` surface, so ``Ratatouille.generate`` can hold either.
"""

from __future__ import annotations

import threading
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..models import GenerationConfig, LanguageModel, LogitsProcessor
from ..models import generate as sequential_generate
from ..obs import (MetricsRegistry, NullRegistry, NullTracer, get_registry)
from ..serving.engine import (DeadlineExceededError, EngineCrashedError,
                              EngineQueueFullError, EngineRequest,
                              EngineStoppedError, InferenceEngine)

Fallback = Callable[[Sequence[int], GenerationConfig,
                     Sequence[LogitsProcessor]], List[int]]


class EngineUnavailableError(RuntimeError):
    """No engine is currently serving and no fallback is configured."""


def sequential_fallback(model: LanguageModel) -> Fallback:
    """Degraded-mode decoder: the plain sequential generate loop.

    The engine crashing is a *serving-layer* failure — the model
    weights are still sound — so the cheapest useful fallback is the
    unbatched in-process decoder (one request at a time, no prefix
    cache, no instrumentation).  Correct but slow: exactly what
    "degraded" should mean.
    """

    def run(prompt_ids: Sequence[int], config: GenerationConfig,
            processors: Sequence[LogitsProcessor] = ()) -> List[int]:
        return sequential_generate(model, prompt_ids, config, processors,
                                   registry=NullRegistry(),
                                   tracer=NullTracer())

    return run


class SupervisedRequest:
    """``EngineRequest``'s caller surface, kept across engine restarts.

    ``result()`` / ``tokens()`` that observe the engine's crash error
    resubmit to the replacement (:meth:`EngineSupervisor._dispatch`); a
    streaming consumer skips the replayed tokens it already yielded —
    sound because the engine's output is bit-identical run to run.
    Cancelled requests, deadline expiry and validation errors are never
    retried.  ``timeout`` is per attempt.
    """

    def __init__(self, supervisor: "EngineSupervisor",
                 prompt_ids: Sequence[int], config: Optional[GenerationConfig],
                 processors: Sequence[LogitsProcessor],
                 deadline_ms: Optional[float]) -> None:
        self._supervisor = supervisor
        self.prompt_ids = prompt_ids
        self.config = config
        self.processors = processors
        self.deadline_ms = deadline_ms
        #: Absolute expiry on the engines' metrics clock, fixed by the
        #: first attempt: a retry gets what is left of it.
        self.deadline: Optional[float] = None
        self._cancelled = False
        self._lock = threading.Lock()
        self._inner = supervisor._dispatch(self)
        self.deadline = self._inner.deadline

    @property
    def request_id(self) -> int:
        return self._inner.request_id

    @property
    def done(self) -> bool:
        return self._inner.done

    def result(self, timeout: Optional[float] = None) -> List[int]:
        """Block for the full token list, retrying across a restart."""
        while True:
            inner = self._inner
            try:
                return inner.result(timeout=timeout)
            except EngineCrashedError as error:
                self._retry(inner, error)

    def tokens(self, timeout: Optional[float] = None) -> Iterator[int]:
        """Stream tokens as they decode, each exactly once."""
        delivered = 0
        while True:
            inner = self._inner
            skip = delivered    # a retried attempt replays from the start
            try:
                for token in inner.tokens(timeout=timeout):
                    if skip > 0:
                        skip -= 1
                        continue
                    delivered += 1
                    yield token
                return
            except EngineCrashedError as error:
                self._retry(inner, error)

    def cancel(self) -> None:
        """Cancel the current attempt; no retry follows."""
        self._cancelled = True
        self._inner.cancel()

    def _retry(self, failed: EngineRequest, error: EngineCrashedError) -> None:
        """Replace the attempt ``failed`` was, or raise ``error``.  The
        first consumer to see the crash resubmits; one racing it finds
        the attempt replaced and reads the new one."""
        with self._lock:
            if self._inner is not failed:
                return
            if self._cancelled:
                raise error
            self._inner = self._supervisor._dispatch(self, error)
            if self._cancelled:     # cancel() raced the resubmit
                self._inner.cancel()


class EngineSupervisor:
    """Watchdog + restart policy around a replaceable inference engine.

    Parameters
    ----------
    factory:
        Zero-argument callable building a fresh
        :class:`~repro.serving.InferenceEngine`.  Called once at
        construction and once per restart.
    max_restarts:
        Restart budget.  Once spent, the supervisor stops replacing
        engines and serves only the fallback (or errors).
    backoff_seconds / backoff_multiplier:
        Restart ``n`` (1-based) waits ``backoff_seconds *
        backoff_multiplier ** (n - 1)`` before building the new engine.
    poll_seconds:
        Watchdog check interval.
    fallback:
        Optional degraded decoder (see :func:`sequential_fallback`).
    spill:
        Optional :class:`~repro.durability.CacheSpill`-shaped object
        (``load_into(cache)`` / ``save(cache)``).  When set, every
        engine the supervisor builds — the first one and each restart
        replacement — is warm-loaded from the spill, and a clean
        :meth:`stop` of a *serving* engine snapshots its cache first
        so the next supervisor starts warm.  A crashed engine's cache
        is never saved: the crash may have been a poisoned snapshot.
    """

    def __init__(self, factory: Callable[[], InferenceEngine],
                 max_restarts: int = 3,
                 backoff_seconds: float = 0.05,
                 backoff_multiplier: float = 2.0,
                 poll_seconds: float = 0.02,
                 fallback: Optional[Fallback] = None,
                 registry: Optional[MetricsRegistry] = None,
                 spill: Optional[Any] = None) -> None:
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if backoff_seconds < 0 or backoff_multiplier < 1.0:
            raise ValueError("backoff_seconds must be >= 0 and "
                             "backoff_multiplier >= 1")
        self._factory = factory
        self.max_restarts = max_restarts
        self.backoff_seconds = backoff_seconds
        self.backoff_multiplier = backoff_multiplier
        self.poll_seconds = poll_seconds
        self.fallback = fallback
        self.spill = spill
        #: Outcome of the spill attempt made by :meth:`stop`: ``True``
        #: once a snapshot was written, ``False`` when a configured
        #: spill did not produce one (save failed, or the engine was
        #: crashed/stopped), ``None`` with no spill or before ``stop``.
        self.last_spill_saved: Optional[bool] = None
        registry = registry if registry is not None else get_registry()
        self._restarts_total = registry.counter(
            "engine_restarts_total",
            help="Engine restarts performed by the supervisor")
        self._crashes_total = registry.counter(
            "engine_crashes_total",
            help="Engine thread deaths detected by the supervisor")
        self._degraded_total = registry.counter(
            "engine_degraded_requests_total",
            help="Requests served by the degraded fallback")
        self._up_gauge = registry.gauge(
            "engine_supervisor_up",
            help="1 while a live engine is serving, 0 otherwise")
        self._lock = threading.Lock()
        self._restarts = 0
        self._state = "serving"  # serving | restarting | failed | stopped
        self._engine = factory()
        self._warm_reload(self._engine)
        self._up_gauge.set(1)
        self._stop_event = threading.Event()
        self._thread = threading.Thread(target=self._watch,
                                        name="repro-engine-supervisor",
                                        daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self) -> InferenceEngine:
        """The current engine (replaced across restarts)."""
        return self._engine

    @property
    def state(self) -> str:
        return self._state

    @property
    def restarts(self) -> int:
        """How many replacement engines have been built."""
        return self._restarts

    @property
    def running(self) -> bool:
        return self._state == "serving" and self._engine.running

    @property
    def prefix_cache(self):
        return self._engine.prefix_cache

    def stats(self) -> Dict[str, Any]:
        stats = self._engine.stats()
        stats["supervisor"] = {
            "state": self._state,
            "restarts": self._restarts,
            "max_restarts": self.max_restarts,
            "degraded_available": self.fallback is not None,
        }
        return stats

    # ------------------------------------------------------------------
    # Serving surface (mirrors InferenceEngine)
    # ------------------------------------------------------------------
    def submit(self, prompt_ids: Sequence[int],
               config: Optional[GenerationConfig] = None,
               processors: Sequence[LogitsProcessor] = (),
               deadline_ms: Optional[float] = None) -> SupervisedRequest:
        """Submit to the current engine; the handle survives a restart.

        Raises :class:`EngineUnavailableError` while no engine is
        serving (streaming has no degraded mode — the fallback decoder
        cannot stream) and the engine's own ``submit`` errors.
        """
        return SupervisedRequest(self, prompt_ids, config, processors,
                                 deadline_ms)

    def _dispatch(self, request: SupervisedRequest,
                  error: Optional[EngineCrashedError] = None
                  ) -> EngineRequest:
        """Submit ``request`` to the serving engine.

        The first dispatch (``error is None``) does not wait.  A retry
        — ``error`` is the crash the last attempt was failed with —
        waits for the replacement, looking every ``poll_seconds``, and
        submits with what is left of the deadline.  The wait ends with
        the restart budget (state ``failed``: ``error`` is raised), with
        :meth:`stop` or with the request's deadline, whichever is first.
        """
        while True:
            engine, state = self._engine, self._state
            remaining_ms = request.deadline_ms
            if request.deadline is not None:
                remaining_ms = (request.deadline
                                - engine.metrics.clock.now()) * 1e3
                if remaining_ms <= 0:
                    raise DeadlineExceededError(
                        request.request_id, request.deadline_ms, ())
            if state == "serving" and engine.crashed is None:
                try:
                    return engine.submit(
                        request.prompt_ids, request.config,
                        request.processors, deadline_ms=remaining_ms)
                except EngineCrashedError as exc:
                    error = exc     # died between the check and the put
                except EngineQueueFullError:
                    if error is None:
                        raise
                    # Admitted once already: wait for room, not a 429.
            elif error is None:
                raise EngineUnavailableError(
                    f"engine is not serving (supervisor state: {state})")
            elif state in ("failed", "stopped"):
                raise error
            self._stop_event.wait(self.poll_seconds)

    def generate(self, prompt_ids: Sequence[int],
                 config: Optional[GenerationConfig] = None,
                 processors: Sequence[LogitsProcessor] = (),
                 deadline_ms: Optional[float] = None) -> List[int]:
        """Engine-or-fallback synchronous generation (degraded flag dropped).

        Matches ``InferenceEngine.generate`` so a supervisor can stand
        in for an engine anywhere (e.g. ``Ratatouille.generate``).
        """
        tokens, _ = self.generate_ex(prompt_ids, config, processors,
                                     deadline_ms=deadline_ms)
        return tokens

    def generate_ex(self, prompt_ids: Sequence[int],
                    config: Optional[GenerationConfig] = None,
                    processors: Sequence[LogitsProcessor] = (),
                    deadline_ms: Optional[float] = None
                    ) -> Tuple[List[int], bool]:
        """Generate, returning ``(tokens, degraded)``.

        ``submit().result()`` first, so a crash mid-request is retried
        on the replacement engine; on *unavailability* errors only
        (restart budget spent, stop, outage) falls back to the degraded
        decoder when one is configured.  Request-level errors — deadline
        expiry, validation — always propagate unchanged.
        """
        config = config or GenerationConfig()
        if self._state == "serving":
            try:
                if config.strategy == "beam":
                    # Not batchable: decoded on this thread, no handle.
                    return self._engine.generate(prompt_ids, config,
                                                 processors), False
                return self.submit(prompt_ids, config, processors,
                                   deadline_ms=deadline_ms).result(), False
            except (EngineCrashedError, EngineStoppedError,
                    EngineUnavailableError):
                if self._stop_event.is_set() or self.fallback is None:
                    raise
        if self._stop_event.is_set():
            raise EngineStoppedError("supervisor has been stopped")
        if self.fallback is None:
            raise EngineUnavailableError(
                f"engine is not serving (supervisor state: {self._state}) "
                "and no degraded fallback is configured")
        config.validate()
        tokens = self.fallback(prompt_ids, config, processors)
        self._degraded_total.inc()
        return tokens, True

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the watchdog and the current engine.

        When a spill is configured and the engine is being stopped
        *cleanly* (it was serving, not crashed or failed), its prefix
        cache is snapshotted first so the next process starts warm.
        Spill failure never blocks shutdown; the real outcome lands in
        :attr:`last_spill_saved` for shutdown summaries.
        """
        self._stop_event.set()
        with self._lock:
            was_serving = self._state == "serving"
            self._state = "stopped"
        self._thread.join(timeout=timeout)
        if self.spill is not None and self.last_spill_saved is None:
            # First stop() decides the outcome; a repeated stop() must
            # not clobber a recorded success with False.
            self.last_spill_saved = False
            if was_serving and self._engine.crashed is None:
                try:
                    self.spill.save(self._engine.prefix_cache)
                    self.last_spill_saved = True
                except Exception:  # noqa: BLE001 - next start is cold
                    pass
        self._engine.stop(timeout=timeout)
        self._up_gauge.set(0)

    def _warm_reload(self, engine: InferenceEngine) -> None:
        """Best-effort warm load of a fresh engine's prefix cache."""
        if self.spill is None:
            return
        try:
            self.spill.load_into(engine.prefix_cache)
        except Exception:  # noqa: BLE001 - corrupt spill => cold start
            pass

    def __enter__(self) -> "EngineSupervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Watchdog thread
    # ------------------------------------------------------------------
    def _watch(self) -> None:
        while not self._stop_event.wait(self.poll_seconds):
            engine = self._engine
            if engine._thread.is_alive():
                continue
            if engine.crashed is None and engine._stop_event.is_set():
                continue  # clean external stop(); nothing to supervise
            if not self._handle_crash(engine):
                return

    def _handle_crash(self, engine: InferenceEngine) -> bool:
        """Replace the dead ``engine``; ``False`` once there is nothing
        left to watch (budget spent, or stopped).  Runs once per engine
        object — a failing factory burns attempts here — so one death
        is one ``engine_crashes_total``."""
        self._crashes_total.inc()
        self._up_gauge.set(0)
        # Belt and braces: the engine fails its own in-flight work when
        # it crashes via an exception, but a hard-killed thread cannot —
        # fail_inflight is idempotent either way.
        engine.fail_inflight(EngineCrashedError(
            f"engine thread died: {engine.crashed!r}"))
        while self._restarts < self.max_restarts:
            with self._lock:
                if self._state == "stopped":
                    return False
                self._state = "restarting"
            attempt = self._restarts + 1
            backoff = (self.backoff_seconds
                       * self.backoff_multiplier ** (attempt - 1))
            if self._stop_event.wait(backoff):
                return False
            try:
                replacement = self._factory()
                self._warm_reload(replacement)
            except BaseException:  # noqa: BLE001 - factory itself failed
                self._restarts = attempt
                continue
            with self._lock:
                if self._state == "stopped":
                    replacement.stop()
                    return False
                self._restarts = attempt
                self._engine = replacement
                self._state = "serving"
            self._restarts_total.inc()
            self._up_gauge.set(1)
            return True
        with self._lock:
            if self._state != "stopped":
                self._state = "failed"
        return False
