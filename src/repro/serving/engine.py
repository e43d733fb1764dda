"""Continuous-batching inference engine with prefix KV-cache reuse.

One background thread owns the model and runs a step loop:

1. **Admit** — move queued requests into the in-flight set (up to
   ``max_batch_size``), prefilling each prompt on its own in
   position-aligned chunks and reusing prefix-cache snapshots where
   the prompt shares a stored prefix (see :mod:`.prefix_cache`).
2. **Sample** — every active sequence picks its next token with the
   *same* :func:`repro.models.select_next_token` the sequential
   :func:`repro.models.generate` loop uses, driven by its own
   per-request ``default_rng(config.seed)`` and processor chain.
3. **Retire** — sequences that hit their stop token or token budget
   leave the batch mid-flight; their slot is refilled on the next
   admit pass.
4. **Forward** — every survivor, whatever its length, advances in
   **one** ``next_logits(ids, [states])`` call when the model decodes
   ragged batches (:attr:`~repro.models.base.LanguageModel.
   ragged_decode`: GPT-2): a plain row feeds one token, a speculative
   row its whole verify chunk.  Other models' rows (LSTM, GPT-Neo)
   step one by one.

Equality contract: for any request, the engine's token stream is
**bit-identical** to ``models.generate(model, prompt, config)`` run
alone — regardless of what else shares the batch, and regardless of
prefix-cache hits.  The pieces that make that true: batched transformer
decode runs its dense ops as per-slice (row-stable) matmuls and its
attention row by row over each sequence's own KV cache; prefill
chunking is aligned to absolute positions; sampling state is
per-request.  Property-tested in ``tests/test_properties_serving.py``.

The same contract makes a crash recoverable in place: an exception
escaping the loop is caught by the loop's own thread, which purges the
cache, replays every unfinished request from its prompt and delivers
only the tokens its handle does not hold yet (:meth:`InferenceEngine.
_recover`, ``docs/RESILIENCE.md`` §3).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..models import (DraftModel, GenerationConfig, LanguageModel,
                      LogitsProcessor, PREFILL_CHUNK, SpeculativeMetrics,
                      build_processors, draft_context, generate as
                      sequential_generate, select_next_token,
                      speculative_walk)
from ..nn import no_grad
from ..obs import (MetricsRegistry, Tracer, get_registry, get_tracer)
from ..resilience import ResilienceConfig
from ..resilience.faults import fault_check
from .prefix_cache import PrefixCache


class EngineQueueFullError(RuntimeError):
    """Raised by :meth:`InferenceEngine.submit` when the queue is full."""


class EngineStoppedError(RuntimeError):
    """Raised when a request cannot complete because the engine stopped."""


class EngineCrashedError(RuntimeError):
    """The engine crashed past its restart budget; the request was
    failed, not completed.

    A crash within the budget is invisible to callers: the engine
    replays their requests in place (``docs/RESILIENCE.md`` §3).  This
    error reaches every request that was queued or in flight when the
    crash that spent the budget hit — the first crash of an engine
    built without a :class:`~repro.resilience.ResilienceConfig`.
    """


class EngineUnavailableError(EngineCrashedError):
    """Raised by :meth:`InferenceEngine.submit` on a ``failed`` engine,
    which takes no new work (HTTP 503).  With ``degraded_fallback`` set,
    :meth:`InferenceEngine.generate` answers from the sequential decoder
    instead."""


class DeadlineExceededError(RuntimeError):
    """A request's ``deadline_ms`` budget expired before it finished.

    ``tokens`` holds whatever was generated before expiry — a prefix of
    the request's full decode, because deadline retirement uses the
    same mid-batch retirement path as stop tokens, which never perturbs
    other sequences.  The HTTP layer turns this into a partial result
    (some tokens) or a 504 (none).
    """

    def __init__(self, request_id: int, deadline_ms: float,
                 tokens: Sequence[int]) -> None:
        super().__init__(
            f"request {request_id} exceeded its {deadline_ms:.0f} ms "
            f"deadline after {len(tokens)} token(s)")
        self.request_id = request_id
        self.deadline_ms = deadline_ms
        self.tokens = list(tokens)


@dataclass(frozen=True)
class EngineConfig:
    """Serving knobs (independent of per-request decoding knobs)."""

    max_batch_size: int = 8
    prefill_chunk: int = PREFILL_CHUNK
    prefix_cache_bytes: int = 32 * 1024 * 1024
    max_queue: int = 64

    def validate(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.prefill_chunk < 1:
            raise ValueError("prefill_chunk must be >= 1")
        if self.prefix_cache_bytes < 0:
            raise ValueError("prefix_cache_bytes must be >= 0")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")


_WAKE = object()  # queue sentinel: stop() nudges a blocked _admit awake


class EngineRequest:
    """Per-request handle: a streaming token iterator plus a final result.

    Token delivery is a plain list append (atomic under the GIL); the
    engine only takes the condition lock when a streaming consumer is
    actually waiting, so the common ``result()``-only path costs no
    synchronization per token.
    """

    def __init__(self, request_id: int, prompt_ids: List[int],
                 config: GenerationConfig,
                 processors: Sequence[LogitsProcessor],
                 submitted_at: float,
                 deadline: Optional[float] = None,
                 deadline_ms: Optional[float] = None,
                 strategy_label: str = "plain") -> None:
        self.request_id = request_id
        self.prompt_ids = prompt_ids
        self.config = config
        self.processors = processors
        self.submitted_at = submitted_at
        #: Decode-mode metric label (``plain``/``speculative``/``mcts``),
        #: fixed at submit time; bounded cardinality by construction.
        self.strategy_label = strategy_label
        #: Absolute expiry on the engine's metrics clock (None = no deadline).
        self.deadline = deadline
        #: The original relative budget, kept for error messages.
        self.deadline_ms = deadline_ms
        self._done = threading.Event()
        self._cancelled = threading.Event()
        self._generated: List[int] = []
        self._error: Optional[BaseException] = None
        self._cond = threading.Condition()
        self._waiters = 0
        self._finish_lock = threading.Lock()

    # -- engine side ---------------------------------------------------
    def _deliver(self, token: int) -> None:
        self._generated.append(token)
        if self._waiters:
            with self._cond:
                self._cond.notify_all()

    def _finish(self, error: Optional[BaseException] = None) -> bool:
        """Resolve the request once; later calls are no-ops.

        Returns whether *this* call did the resolving — the engine only
        counts outcome metrics for the winning call, so a request that
        e.g. crashes while already deadline-failed is counted once.
        """
        with self._finish_lock:
            if self._done.is_set():
                return False
            self._error = error
            self._done.set()
        if self._waiters:
            with self._cond:
                self._cond.notify_all()
        return True

    # -- caller side ---------------------------------------------------
    def cancel(self) -> None:
        """Ask the engine to stop decoding this request.

        Safe from any thread and idempotent.  The engine drops the
        request at its next admit/step pass and finishes it with the
        tokens produced so far (no error), freeing its batch slot for
        other requests — the fate of e.g. a streaming client that
        disconnected mid-generation.  No-op once the request is done.
        """
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def tokens(self, timeout: Optional[float] = None) -> Iterator[int]:
        """Yield generated token ids as they are produced.

        ``timeout`` bounds the *total* wait for each individual token
        against a monotonic deadline — spurious condition-variable
        wakeups do not reset the budget.  On engine failure the stored
        error is raised.
        """
        index = 0
        while True:
            if index < len(self._generated):
                token = self._generated[index]
                index += 1
                yield token
                continue
            if self._done.is_set():
                if index < len(self._generated):
                    continue  # tokens landed while we checked
                if self._error is not None:
                    raise self._error
                return
            wait_deadline = (None if timeout is None
                             else time.monotonic() + timeout)
            with self._cond:
                self._waiters += 1
                try:
                    while (index >= len(self._generated)
                           and not self._done.is_set()):
                        if wait_deadline is None:
                            self._cond.wait()
                            continue
                        remaining = wait_deadline - time.monotonic()
                        if remaining <= 0:
                            raise TimeoutError(
                                f"request {self.request_id}: no token "
                                f"within {timeout}s")
                        self._cond.wait(timeout=remaining)
                finally:
                    self._waiters -= 1

    def result(self, timeout: Optional[float] = None) -> List[int]:
        """Block until generation completes; returns the new token ids."""
        if not self._done.wait(timeout=timeout):
            raise TimeoutError(
                f"request {self.request_id} not finished within {timeout}s")
        if self._error is not None:
            raise self._error
        return list(self._generated)

    @property
    def done(self) -> bool:
        return self._done.is_set()


@dataclass
class _Sequence:
    """Engine-internal state for one in-flight request."""

    request: EngineRequest
    config: GenerationConfig
    processors: List[LogitsProcessor]
    rng: np.random.Generator
    state: Any = None
    logits: Optional[np.ndarray] = None
    generated: List[int] = field(default_factory=list)
    admitted_at: float = 0.0
    first_token_at: Optional[float] = None
    #: Tokens the request's handle already holds: a replay after a
    #: crash decodes them again but does not deliver them again.
    skip: int = 0
    #: Draft tokens per verify step for this request (0 = plain decode).
    #: Dropped to 0 permanently once a verify chunk stops fitting the
    #: model's context window (the sequential path slides instead).
    spec_k: int = 0
    #: The draft model proposing for this request (engine default or a
    #: per-request instance from ``config.draft``).
    draft: Optional[DraftModel] = None
    #: Verify results awaiting their acceptance walk at the next step:
    #: ``(proposals, draft_dists, chunk_logits, states)`` where
    #: ``chunk_logits`` is ``(len(proposals) + 1, vocab)`` and
    #: ``states[t]`` resumes after accepting ``t`` proposals.
    spec_chunk: Optional[tuple] = None


def _state_nbytes(obj: Any, _seen: Optional[set] = None) -> int:
    """Recursive byte count of the numpy arrays reachable from ``obj``.

    Each distinct array object is counted once: decode states routinely
    alias one buffer from several handles (a snapshot beside its live
    owner, speculative verify states at successive truncation depths of
    one KV buffer), and double-counting them would blow
    admission-control and prefix-cache byte budgets.  The ``id()``
    dedup also makes cyclic state graphs terminate, replacing the old
    fixed depth cap that silently under-counted deep nests.  Distinct
    array objects viewing one base buffer still count separately —
    this is object-level, not page-level, accounting.
    """
    if _seen is None:
        _seen = set()
    if obj is None or id(obj) in _seen:
        return 0
    _seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_state_nbytes(item, _seen) for item in obj)
    if isinstance(obj, dict):
        return sum(_state_nbytes(item, _seen) for item in obj.values())
    if hasattr(obj, "__dict__"):
        return _state_nbytes(vars(obj), _seen)
    return 0


class _EngineMetrics:
    """Engine metric handles, resolved once at construction.

    Lookup outcomes are counted here; evictions, bytes and hit rate
    belong to the cache and are counted there
    (:class:`~repro.serving.prefix_cache.PrefixCache`).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.clock = registry.clock
        self.requests = registry.counter(
            "engine_requests_total",
            help="Engine requests by final outcome and decode strategy")
        self._tokens_family = registry.counter(
            "engine_tokens_total",
            help="Tokens emitted by the serving engine, by decode "
                 "strategy")
        self.tokens = self._tokens_family.labels(strategy="plain")
        self.steps = registry.counter(
            "engine_steps_total",
            help="Batched decode steps executed").labels()
        self.batch_occupancy = registry.histogram(
            "engine_batch_occupancy",
            help="Active sequences per decode step").labels()
        self.active_sequences = registry.gauge(
            "engine_active_sequences",
            help="Sequences currently in the decode batch").labels()
        self.queue_depth = registry.gauge(
            "engine_queue_depth",
            help="Requests waiting for admission").labels()
        self.queue_wait_seconds = registry.histogram(
            "engine_queue_wait_seconds",
            help="Submit-to-admission wait per request").labels()
        self.ttft_seconds = registry.histogram(
            "engine_ttft_seconds",
            help="Submit-to-first-token latency per request").labels()
        self.cache_hits = registry.counter(
            "engine_prefix_cache_hits_total",
            help="Prefix-cache lookups that reused a snapshot").labels()
        self.cache_misses = registry.counter(
            "engine_prefix_cache_misses_total",
            help="Prefix-cache lookups that found nothing").labels()
        self.cache_hit_tokens = registry.counter(
            "engine_prefix_cache_hit_tokens_total",
            help="Prompt tokens skipped thanks to prefix-cache hits").labels()
        self.decode_forwards = registry.counter(
            "engine_decode_forwards_total",
            help="Model decode calls: one next_logits over every row "
                 "of a step, plain and speculative (one per row for "
                 "models without ragged decode) — the denominator of "
                 "tokens-per-forward").labels()
        self.tokens_per_forward = registry.gauge(
            "engine_tokens_per_forward",
            help="Lifetime decode tokens emitted per model decode call: "
                 "about the batch occupancy for ragged decode, 1.0 for "
                 "row-by-row models; accepted speculative tokens raise "
                 "either").labels()
        self.crashes = registry.counter(
            "engine_crashes_total",
            help="Exceptions that escaped the engine loop").labels()
        self.restarts = registry.counter(
            "engine_restarts_total",
            help="In-place engine restarts after a crash").labels()
        self.degraded = registry.counter(
            "engine_degraded_requests_total",
            help="Requests served by the sequential decoder while the "
                 "engine is failed").labels()

    def outcome(self, outcome: str, strategy: str = "plain"):
        """The ``engine_requests_total`` child for one final outcome.

        ``strategy`` attributes the request to its decode mode —
        ``plain`` | ``speculative`` | ``mcts`` — so mixed-workload
        dashboards can split throughput.  The label set is computed at
        submit time from the request config (never client-supplied
        text), which bounds the cardinality to those three values.
        """
        return self.requests.labels(outcome=outcome, strategy=strategy)

    def tokens_for(self, strategy: str = "plain"):
        """The ``engine_tokens_total`` child for one decode strategy."""
        return self._tokens_family.labels(strategy=strategy)


class InferenceEngine:
    """Continuous-batching serving engine around one language model.

    The engine owns a background thread; the model must not be trained
    or mutated while the engine is running.  Use as a context manager
    or call :meth:`stop` explicitly.

    ``resilience`` sets crash recovery: the restart budget over the
    engine's lifetime, the backoff and the degraded fallback
    (``max_restarts``, ``restart_backoff_seconds``,
    ``degraded_fallback``; ``docs/RESILIENCE.md`` §3).  Without one the
    first crash is final.
    """

    def __init__(self, model: LanguageModel,
                 config: Optional[EngineConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 draft: Optional[DraftModel] = None,
                 resilience: Optional[ResilienceConfig] = None) -> None:
        self.config = config or EngineConfig()
        self.config.validate()
        self.resilience = resilience or ResilienceConfig(max_restarts=0)
        self.model = model
        #: Default draft model for requests with ``speculative_k > 0``;
        #: a request may override it with a DraftModel in
        #: ``config.draft``.  ``None`` disables speculation for
        #: requests that do not carry their own draft.
        self.draft = draft
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = _EngineMetrics(self.registry)
        self.spec_metrics = SpeculativeMetrics(self.registry, "engine")
        self._emitted_tokens = 0
        self._decode_forwards = 0
        self.prefix_cache = PrefixCache(self.config.prefix_cache_bytes,
                                        chunk_size=self.config.prefill_chunk,
                                        registry=self.registry)
        self._queue: "queue.Queue[EngineRequest]" = queue.Queue(
            maxsize=self.config.max_queue)
        self._active: List[_Sequence] = []
        # Requests popped from the queue but not yet active: a crash
        # mid-admission must be able to replay or fail them, or they
        # would hang.
        self._admitting: List[EngineRequest] = []
        # Requests a crash interrupted, admitted before the queue.
        self._requeued: List[EngineRequest] = []
        self._state = "serving"
        self._restarts = 0
        self._stop_event = threading.Event()
        #: The crash that spent the restart budget (state ``failed``).
        self._crashed: Optional[BaseException] = None
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-engine", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, prompt_ids: Sequence[int],
               config: Optional[GenerationConfig] = None,
               processors: Sequence[LogitsProcessor] = (),
               deadline_ms: Optional[float] = None) -> EngineRequest:
        """Enqueue a request; returns a streaming :class:`EngineRequest`.

        ``deadline_ms`` is a total latency budget from this call: a
        request still queued or decoding when it expires is retired
        with :class:`DeadlineExceededError` carrying the tokens
        generated so far (see ``docs/RESILIENCE.md``).

        Raises ``ValueError`` for an invalid request (e.g. a token id
        outside the vocabulary), :class:`EngineQueueFullError` when
        ``max_queue`` requests are already waiting,
        :class:`EngineStoppedError` after :meth:`stop`, and
        :class:`EngineUnavailableError` once the engine is ``failed``.
        A request submitted while the engine restarts queues.
        Beam search is not batched — use
        :meth:`generate`, which falls back to the sequential decoder.
        """
        self._check_serving()
        config = config or GenerationConfig()
        config.validate()
        if config.strategy == "beam":
            raise ValueError(
                "beam search is not continuously batched; use "
                "InferenceEngine.generate() for the sequential fallback")
        if config.strategy == "mcts":
            raise ValueError(
                "mcts is a search driver, not a batchable decode; run it "
                "through repro.decoding.MCTSDecoder, which submits its "
                "rollouts here")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0 (or None)")
        prompt = [int(t) for t in prompt_ids]
        if not prompt:
            raise ValueError("prompt must contain at least one token")
        if min(prompt) < 0 or max(prompt) >= self.model.vocab_size:
            # Raised here, not in a prefill wave that other requests share.
            raise ValueError(f"prompt token ids must be in [0, "
                             f"{self.model.vocab_size})")
        with self._id_lock:
            self._next_id += 1
            request_id = self._next_id
        now = self.metrics.clock.now()
        if getattr(config, "mcts_rollout", False):
            strategy_label = "mcts"
        elif config.speculative_k > 0 and (
                isinstance(config.draft, DraftModel) or self.draft is not None):
            strategy_label = "speculative"
        else:
            strategy_label = "plain"
        request = EngineRequest(
            request_id, prompt, config, list(processors), submitted_at=now,
            deadline=None if deadline_ms is None else now + deadline_ms / 1e3,
            deadline_ms=deadline_ms, strategy_label=strategy_label)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            raise EngineQueueFullError(
                f"engine queue is full ({self.config.max_queue} waiting)")
        if self._stop_event.is_set() or self._crashed is not None:
            # stop()'s drain (or the final crash's fail_inflight) may
            # have run between the check at the top and the put above,
            # in which case nobody will ever pop this request — fail it
            # here so result() cannot block forever.
            try:
                self._check_serving()
            except RuntimeError as error:
                self._resolve(request, error=error)
                raise
        self.metrics.queue_depth.set(self._queue.qsize())
        return request

    def _check_serving(self) -> None:
        if self._crashed is not None:
            raise EngineUnavailableError(
                f"engine is not serving (state: failed): {self._crashed!r}")
        if self._stop_event.is_set():
            raise EngineStoppedError("engine has been stopped")

    def generate(self, prompt_ids: Sequence[int],
                 config: Optional[GenerationConfig] = None,
                 processors: Sequence[LogitsProcessor] = (),
                 deadline_ms: Optional[float] = None) -> List[int]:
        """Synchronous façade: submit, wait, return the new token ids."""
        return self.generate_ex(prompt_ids, config, processors,
                                deadline_ms=deadline_ms)[0]

    def generate_ex(self, prompt_ids: Sequence[int],
                    config: Optional[GenerationConfig] = None,
                    processors: Sequence[LogitsProcessor] = (),
                    deadline_ms: Optional[float] = None
                    ) -> Tuple[List[int], bool]:
        """:meth:`generate`, returning ``(tokens, degraded)``.

        Beam-search configs bypass the batch and run the sequential
        decoder (beam state is not continuously batchable; it also
        ignores ``deadline_ms``, since only the batched decode loop can
        retire requests mid-flight).  So does every request once the
        engine is ``failed``, when ``degraded_fallback`` is set — the
        model is sound, only the loop is gone — and ``degraded`` says
        so.  Any other error propagates unchanged.
        """
        config = config or GenerationConfig()
        try:
            if config.strategy != "beam":
                return self.submit(prompt_ids, config, processors,
                                   deadline_ms=deadline_ms).result(), False
            config.validate()
            self._check_serving()
            degraded = False
        except EngineCrashedError:
            if (not self.resilience.degraded_fallback
                    or self._stop_event.is_set()):
                raise
            self.metrics.degraded.inc()
            degraded = True
        return sequential_generate(self.model, prompt_ids, config,
                                   processors, registry=self.registry,
                                   tracer=self.tracer), degraded

    def stop(self, timeout: float = 5.0) -> None:
        """Shut the engine thread down and fail all unfinished requests."""
        self._stop_event.set()
        try:
            self._queue.put_nowait(_WAKE)
        except queue.Full:
            pass  # queue has work, so the thread is not blocked idle
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._thread.is_alive() and not self._stop_event.is_set()

    @property
    def crashed(self) -> Optional[BaseException]:
        """The crash that spent the restart budget, if any."""
        return self._crashed

    @property
    def state(self) -> str:
        """``serving`` | ``restarting`` (backing off after a crash) |
        ``failed`` (restart budget spent) | ``stopped``."""
        return "stopped" if self._stop_event.is_set() else self._state

    @property
    def restarts(self) -> int:
        """In-place restarts over the engine's lifetime."""
        return self._restarts

    @property
    def engine(self) -> "InferenceEngine":
        """``self``.

        Exists only because the ``benchmarks/e2e`` harness spells
        ``app.engine.engine`` (``measure.py``, ``spans.py``) from when
        ``app.engine`` was a wrapper around the engine; it goes when the
        harness stops spelling it (ROADMAP item 5(d)).
        """
        return self

    def fail_inflight(self, error: BaseException) -> int:
        """Fail every queued and in-flight request with ``error``.

        The engine thread calls this on its way out — on :meth:`stop`
        and on the crash that spends the restart budget — so no request
        can block forever on a loop that is gone.  Idempotent —
        already-resolved requests are untouched.  Returns the number of
        requests failed by this call.
        """
        failed = 0
        for request in self._requeued + self._admitting:
            failed += self._resolve(request, error=error)
        self._requeued, self._admitting = [], []
        for seq in list(self._active):
            failed += self._resolve(seq.request, error=error)
        self._active = []
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            if request is _WAKE:
                continue
            failed += self._resolve(request, error=error)
        self.metrics.active_sequences.set(0)
        self.metrics.queue_depth.set(0)
        return failed

    def stats(self) -> Dict[str, Any]:
        """Point-in-time engine stats (for the CLI and debug endpoints)."""
        kernels = getattr(self.model, "kernels", None)
        return {
            "running": self.running,
            "crashed": self._crashed is not None,
            "active_sequences": len(self._active),
            "queue_depth": self._queue.qsize(),
            "max_batch_size": self.config.max_batch_size,
            "prefix_cache": self.prefix_cache.stats_snapshot(),
            "kernels": None if kernels is None else kernels.stats(),
            "supervisor": {
                "state": self.state,
                "restarts": self._restarts,
                "max_restarts": self.resilience.max_restarts,
                "degraded_available": self.resilience.degraded_fallback,
            },
        }

    # ------------------------------------------------------------------
    # Engine thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop_event.is_set():
            try:
                self._serve()
            except BaseException as error:  # noqa: BLE001 - crash, not stop
                if not self._recover(error):
                    return
        self.fail_inflight(EngineStoppedError(
            "engine stopped before request completed"))

    def _serve(self) -> None:
        """The step loop from a fresh start: returns on :meth:`stop`;
        anything it raises (e.g. a prefix_cache.get fault during
        admission) is a crash for :meth:`_recover`."""
        self.model.eval()
        kernels = getattr(self.model, "kernels", None)
        if kernels is not None:
            # Size this thread's workspace arenas for a full batch of
            # decode slots up front, so steady-state serving never
            # allocates (see docs/KERNELS.md).
            kernels.preallocate(self.config.max_batch_size,
                                chunk=self.config.prefill_chunk)
        with no_grad():
            while not self._stop_event.is_set():
                # One managed kernel step per scheduler iteration: flips
                # the workspace parity, so logits views handed out
                # during this iteration survive exactly until they are
                # sampled at the next one.  Re-fetched each iteration
                # because kernels may be enabled on a serving model at
                # runtime.
                kernels = getattr(self.model, "kernels", None)
                if kernels is not None:
                    kernels.begin_step()
                self._admit()
                if not self._active:
                    continue
                try:
                    self._step()
                except BaseException as error:  # noqa: BLE001
                    # A step-level failure (e.g. a model.forward fault)
                    # takes down the requests sharing the batch — with
                    # a named error — but not the engine itself.
                    for seq in self._active:
                        self._finish(seq, error=error)
                    self._active = []

    def _recover(self, error: BaseException) -> bool:
        """Restart the loop in place after ``error`` escaped it, or —
        once ``max_restarts`` is spent — fail everything unfinished with
        a named :class:`EngineCrashedError` and return ``False``.

        The cache is purged first: the crash may have been a poisoned
        entry.  Every unfinished request goes back to the head of
        admission, to be replayed from its prompt as a fresh sequence —
        rng re-seeded from ``config.seed``, processors rebuilt — which
        is bit-identical, so :meth:`_deliver` skips the tokens its handle
        already holds.  Restart ``n`` backs off ``restart_backoff_seconds
        * 2 ** (n - 1)``; requests submitted meanwhile queue behind the
        replays.
        """
        self.metrics.crashes.inc()
        self.prefix_cache.clear()
        if self._restarts >= self.resilience.max_restarts:
            self._crashed = error
            self._state = "failed"
            self.fail_inflight(EngineCrashedError(
                f"engine thread crashed: {error!r}"))
            return False
        unfinished = ([seq.request for seq in self._active]
                      + self._admitting + self._requeued)
        self._requeued = [request for request in dict.fromkeys(unfinished)
                          if not request.done]
        self._active, self._admitting = [], []
        self.metrics.active_sequences.set(0)
        self._restarts += 1
        self.metrics.restarts.inc()
        self._state = "restarting"
        self._stop_event.wait(self.resilience.restart_backoff_seconds
                              * 2 ** (self._restarts - 1))
        self._state = "serving"
        return True

    def _admit(self) -> None:
        """Refill the batch — replays first, then the queue — and
        prefill newly admitted prompts."""
        block = not self._active and not self._requeued
        admitted: List[_Sequence] = []
        while len(self._active) + len(admitted) < self.config.max_batch_size:
            if self._requeued:
                request = self._requeued.pop(0)
            else:
                try:
                    if block:
                        request = self._queue.get(timeout=0.05)
                        block = False
                    else:
                        request = self._queue.get_nowait()
                except queue.Empty:
                    break
                if request is _WAKE:
                    break
            self._admitting.append(request)
            if request.cancelled:
                self._resolve(request, outcome="cancelled")
                self._admitting.pop()
                continue
            now = self.metrics.clock.now()
            if request.deadline is not None and now >= request.deadline:
                # Expired waiting for admission (or for its replay
                # after a crash): it reports what its handle holds.
                self._resolve(request, error=DeadlineExceededError(
                    request.request_id, request.deadline_ms,
                    request._generated), outcome="deadline")
                self._admitting.pop()
                continue
            self.metrics.queue_wait_seconds.observe(now - request.submitted_at)
            # A replay: its first token (and TTFT) came before the crash.
            delivered = len(request._generated)
            # Per-request draft instance wins; a draft *spec string* is
            # resolved by the serving layer, not here (the engine has
            # no corpus to fit one on) and falls back to the default.
            draft = (request.config.draft
                     if isinstance(request.config.draft, DraftModel)
                     else self.draft)
            admitted.append(_Sequence(
                request=request, config=request.config,
                processors=build_processors(request.config,
                                            request.processors),
                rng=np.random.default_rng(request.config.seed),
                admitted_at=now, skip=delivered,
                first_token_at=now if delivered else None,
                spec_k=(request.config.speculative_k
                        if draft is not None else 0),
                draft=draft))
        if admitted:
            self._prefill_admitted(admitted)
        self._admitting = []
        self.metrics.queue_depth.set(self._queue.qsize())
        self.metrics.active_sequences.set(len(self._active))

    def _prefill_admitted(self, admitted: List[_Sequence]) -> None:
        """Prefill an admission wave, one prompt at a time.

        Chunks end at absolute multiples of ``prefill_chunk`` — the
        same boundaries :func:`repro.models.prefill_prompt` uses — so a
        warm run replays exactly the trunk calls of a cold run and the
        logits match bit for bit.  Each prompt leaves one cache entry;
        a later prompt resumes from it at full length, or at a chunk
        boundary cut from it with :meth:`LanguageModel.prefix_state`
        (:meth:`_store`, :class:`~repro.serving.prefix_cache.PrefixCache`).
        A prefill that raises fails its own request only.
        """
        looked_up = []
        for seq in admitted:
            # Chaos hook: a fault here escapes _admit — the engine's
            # crash-recovery scenario (_recover).
            fault_check("prefix_cache.get")
            hit_len, snapshot = self.prefix_cache.lookup(
                seq.request.prompt_ids, cut=self._cut)
            if hit_len:
                self.metrics.cache_hits.inc()
                self.metrics.cache_hit_tokens.inc(hit_len)
                # A state object of its own: the step's list-form call
                # reads a run of one object as one multi-token row.
                logits, state = (snapshot[0],
                                 self.model.snapshot_state(snapshot[1]))
            else:
                self.metrics.cache_misses.inc()
                logits, state = None, self.model.start_state(1)
            looked_up.append((seq, logits, state, hit_len))
        for seq, logits, state, hit_len in looked_up:
            try:
                self._prefill_one(seq, logits, state, hit_len)
            except BaseException as error:  # noqa: BLE001
                self._finish(seq, error=error)
                continue
            self._active.append(seq)

    def _prefill_one(self, seq: _Sequence, logits: Any, state: Any,
                     hit_len: int) -> None:
        """Chunked single-sequence prefill (resuming from a cache hit)."""
        fault_check("model.forward")
        prompt = seq.request.prompt_ids
        chunk_size = self.config.prefill_chunk
        boundaries: List[Tuple[int, np.ndarray, Any]] = []
        with self.tracer.span("engine.prefill",
                              request=seq.request.request_id,
                              tokens=len(prompt), cached_tokens=hit_len):
            position = hit_len
            while position < len(prompt):
                chunk_end = min(len(prompt),
                                (position // chunk_size + 1) * chunk_size)
                logits, state = self.model.prefill(
                    np.asarray(prompt[position:chunk_end]), state)
                position = chunk_end
                if position < len(prompt):  # O(1) alias, compacted if kept
                    boundaries.append((position, logits.copy(),
                                       self.model.snapshot_state(state)))
            if hit_len < len(prompt):
                self._store(prompt, logits, state, boundaries)
        seq.logits = logits[0]
        seq.state = state

    def _store(self, prompt: List[int], logits: np.ndarray, state: Any,
               boundaries: Sequence[Tuple[int, np.ndarray, Any]] = ()
               ) -> None:
        """Cache a prefilled prompt as one entry.

        Chunk-boundary states are stored too — first, so they are
        evicted first — when the model cannot cut them from the final
        state (LSTM, GPT-Neo, a slid GPT-2 state).  Entries are compact
        copies: a view would pin the capacity buffer the sequence keeps
        appending into, headroom included, while the budget counts only
        its live rows.
        """
        kept = [(prompt[:end], end_logits, snap)
                for end, end_logits, snap in boundaries
                if self.model.prefix_state(state, end) is None]
        kept.append((prompt, logits.copy(), state))
        for key, key_logits, key_state in kept:
            snap = self.model.compact_state(key_state)
            self.prefix_cache.insert(key, (key_logits, snap),
                                     _state_nbytes(snap) + key_logits.nbytes)

    def _cut(self, value: Tuple[Any, Any], depth: int) -> Any:
        """The prefix cache's ``cut``: no logits, since prefill resumes."""
        state = self.model.prefix_state(value[1], depth)
        return None if state is None else (None, state)

    def _step(self) -> None:
        """One engine step: sample, deliver, retire, batched forward."""
        self.metrics.steps.inc()
        self.metrics.batch_occupancy.observe(len(self._active))
        now = self.metrics.clock.now()
        survivors: List[_Sequence] = []
        for seq in self._active:
            if seq.request.cancelled:
                # Abandoned (e.g. streaming client disconnected): free
                # the batch slot instead of decoding to the budget.
                self._finish(seq, outcome="cancelled")
                continue
            if (seq.request.deadline is not None
                    and now >= seq.request.deadline):
                # Expired mid-batch: retire with the partial tokens —
                # the handle's, which a replay may not have caught up
                # with.  Same retirement path as a stop token, so
                # survivors' outputs are untouched (bit-identical —
                # tested).
                self._finish(seq, error=DeadlineExceededError(
                    seq.request.request_id, seq.request.deadline_ms,
                    seq.request._generated), outcome="deadline")
                continue
            if seq.spec_chunk is not None:
                if self._walk_spec(seq):
                    continue  # finished (stop token or budget) mid-walk
                survivors.append(seq)
                continue
            token = select_next_token(seq.logits, seq.generated, seq.config,
                                      seq.processors, seq.rng)
            seq.generated.append(token)
            self._deliver(seq, token)
            stopped = (seq.config.stop_token_id is not None
                       and token == seq.config.stop_token_id)
            if stopped or len(seq.generated) >= seq.config.max_new_tokens:
                self._finish(seq)
            else:
                survivors.append(seq)
        self._forward(survivors)
        self._active = survivors
        self.metrics.active_sequences.set(len(self._active))

    def _deliver(self, seq: _Sequence, token: int) -> None:
        if seq.skip:    # a replay re-decoding what its handle holds
            seq.skip -= 1
            return
        self._emitted_tokens += 1
        seq.request._deliver(token)
        if seq.first_token_at is None:
            seq.first_token_at = self.metrics.clock.now()
            self.metrics.ttft_seconds.observe(
                seq.first_token_at - seq.request.submitted_at)

    def _walk_spec(self, seq: _Sequence) -> bool:
        """Walk one sequence's pending verify result; True if finished.

        Runs the same :func:`repro.models.speculative_walk` the
        standalone speculative loop uses, against the same processor
        chain, history and rng — so a speculative engine request's
        token stream stays bit-identical to
        ``models.generate(..., draft=...)`` (and, for greedy decode,
        to plain sequential ``generate``) no matter what shares the
        batch.
        """
        proposals, dists, chunk_logits, states = seq.spec_chunk
        seq.spec_chunk = None
        outcome = speculative_walk(
            chunk_logits, proposals, dists, seq.generated, seq.config,
            seq.processors, seq.rng,
            on_token=lambda token: self._deliver(seq, token))
        self.spec_metrics.observe_verify(len(proposals), outcome.accepted,
                                         outcome.emitted)
        if outcome.done:
            self._finish(seq)
            return True
        seq.state = states[outcome.accepted]
        seq.logits = None  # refreshed by the next forward/verify
        return False

    def _forward(self, survivors: List[_Sequence]) -> None:
        """Advance survivors: one model call for every row of the step.

        A row feeds ``generated[-1]`` — emitted but not yet fed — plus,
        for a speculative row, the draft's proposals (:meth:`_draft`).
        When the model decodes ragged batches (GPT-2), every row, of
        any length and any token count, goes into **one** list-form
        ``next_logits`` call: the flat ids, each row's state repeated
        once per token.  Other models step row by row — plain rows
        through ``next_logits``, speculative rows through
        ``verify_chunk``.  Either way every row keeps the bits of its
        own sequential decode.
        """
        if not survivors:
            return
        # Chaos hook: fails this step's batch (named error) while the
        # engine itself keeps serving — plain and verify rows alike.
        fault_check("model.forward")
        plans = [self._draft(seq) for seq in survivors]
        if self.model.ragged_decode:
            ids, states = [], []
            for seq, (proposals, _) in zip(survivors, plans):
                ids += [seq.generated[-1], *proposals]
                states += [seq.state] * (len(proposals) + 1)
            logits, states = self.model.next_logits(np.asarray(ids), states)
            forwards, start = 1, 0
            for seq, plan in zip(survivors, plans):
                end = start + len(plan[0]) + 1
                self._advance(seq, plan, logits[start:end], states[start:end])
                start = end
        else:
            forwards = len(survivors)
            for seq, plan in zip(survivors, plans):
                chunk = np.asarray([seq.generated[-1]] + plan[0])
                if seq.spec_k:
                    chunk_logits, states = self.model.verify_chunk(
                        chunk[None], seq.state)
                    self._advance(seq, plan, chunk_logits[0], states)
                else:
                    logits, state = self.model.next_logits(chunk, seq.state)
                    self._advance(seq, plan, logits, [state])
        self._decode_forwards += forwards
        self.metrics.decode_forwards.inc(forwards)
        self.metrics.tokens_per_forward.set(
            self._emitted_tokens / self._decode_forwards)

    def _draft(self, seq: _Sequence) -> Tuple[List[int], Optional[np.ndarray]]:
        """A row's ``(proposals, draft_dists)``; empty for a plain row.

        A speculative row whose chunk no longer fits the context window
        (:meth:`LanguageModel.fits`, decided before the step's call)
        turns non-speculative for good (``spec_k = 0``) and takes the
        plain sliding step — the exact fallback the standalone loop
        takes, after the same draft draws.
        """
        if not seq.spec_k:
            return [], None
        remaining = seq.config.max_new_tokens - len(seq.generated)
        k = min(seq.spec_k, remaining - 1) if remaining > 1 else 0
        proposals, dists = [], None
        if k > 0:
            context = draft_context(seq.draft, seq.request.prompt_ids,
                                    seq.generated)
            if seq.config.strategy == "sample":
                proposals, dists = seq.draft.propose_sampled(context, k,
                                                             seq.rng)
            else:
                proposals = seq.draft.propose(context, k)
        if not self.model.fits(seq.state, len(proposals) + 1):
            seq.spec_k = 0
            return [], None
        return list(proposals), dists

    @staticmethod
    def _advance(seq: _Sequence, plan: Tuple[List[int], Any],
                 logits: np.ndarray, states: Sequence[Any]) -> None:
        """Hand a row its call results: the next logits of a plain row,
        or a speculative row's verify result for its walk
        (``states[t]`` resumes after chunk token ``t``)."""
        if seq.spec_k:
            seq.spec_chunk = (plan[0], plan[1], logits, states)
        else:
            seq.logits = logits[0]
            seq.state = states[0]

    def _resolve(self, request: EngineRequest,
                 error: Optional[BaseException] = None,
                 outcome: Optional[str] = None, tokens: int = 0) -> bool:
        """Finish ``request`` exactly once, with outcome accounting."""
        if not request._finish(error=error):
            return False
        if outcome is None:
            outcome = "failed" if error is not None else "completed"
        self.metrics.outcome(outcome, request.strategy_label).inc()
        if error is None:
            self.metrics.tokens_for(request.strategy_label).inc(tokens)
        return True

    def _finish(self, seq: _Sequence,
                error: Optional[BaseException] = None,
                outcome: Optional[str] = None) -> None:
        self._resolve(seq.request, error=error, outcome=outcome,
                      tokens=len(seq.generated))
