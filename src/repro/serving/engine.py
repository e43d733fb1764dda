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
   **one** ``next_logits(ids, rows)`` call over the KV slots the engine
   owns: a plain row feeds one token, a speculative row its whole
   verify chunk.

The engine serves GPT-2 (:class:`~repro.models.GPT2Model`) and refuses
any other model at construction: the LSTM baselines and GPT-Neo decode
through :func:`repro.models.generate`.

Equality contract: for any request, the engine's token stream is
**bit-identical** to ``models.generate(model, prompt, config)`` run
alone — regardless of what else shares the batch, and regardless of
prefix-cache hits.  The pieces that make that true: batched transformer
decode runs its dense ops and tied head as batch-invariant GEMMs and its
attention row by row over each sequence's own KV slot; prefill
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

from ..models import (DraftModel, GenerationConfig, GPT2Model,
                      LogitsProcessor, SpeculativeMetrics, build_processors,
                      draft_context, prefill_prompt, select_next_token,
                      speculative_walk)
from ..nn import no_grad
from ..nn.attention import PREFILL_CHUNK, KVSlot
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
    which takes no new work (HTTP 503)."""


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
    prefix_cache_bytes: int = 32 * 1024 * 1024
    max_queue: int = 64

    def validate(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
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
    #: The sequence's KV cache: a slot of the engine's arena, taken at
    #: admission and returned by whatever retires the sequence.
    slot: Optional[KVSlot] = None
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
    #: Verify results awaiting their acceptance walk at the next step:
    #: ``(proposals, draft_dists, chunk_logits, base)`` where
    #: ``chunk_logits`` is ``(len(proposals) + 1, vocab)`` and the slot
    #: resumes after accepting ``t`` proposals at length ``base + t + 1``.
    spec_chunk: Optional[tuple] = None


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
                 "of a step, plain and speculative — the denominator of "
                 "tokens-per-forward").labels()
        self.tokens_per_forward = registry.gauge(
            "engine_tokens_per_forward",
            help="Lifetime decode tokens emitted per model decode call: "
                 "about the batch occupancy; accepted speculative tokens "
                 "raise it").labels()
        self.crashes = registry.counter(
            "engine_crashes_total",
            help="Exceptions that escaped the engine loop").labels()
        self.restarts = registry.counter(
            "engine_restarts_total",
            help="In-place engine restarts after a crash").labels()

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
    """Continuous-batching serving engine around one GPT-2 model.

    Any other model raises ``ValueError`` here: decode it with
    :func:`repro.models.generate`.  The engine owns a background
    thread; the model must not be trained or mutated while the engine
    is running.  Use as a context manager or call :meth:`stop`
    explicitly.

    ``resilience`` sets crash recovery: the restart budget over the
    engine's lifetime and the backoff (``max_restarts``,
    ``restart_backoff_seconds``; ``docs/RESILIENCE.md`` §3).  Without
    one the first crash is final.
    """

    def __init__(self, model: GPT2Model,
                 config: Optional[EngineConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 draft: Optional[DraftModel] = None,
                 resilience: Optional[ResilienceConfig] = None) -> None:
        if not isinstance(model, GPT2Model):
            raise ValueError(
                f"InferenceEngine serves GPT-2 models only, not "
                f"{type(model).__name__}; decode it with "
                f"repro.models.generate")
        self.config = config or EngineConfig()
        self.config.validate()
        self.resilience = resilience or ResilienceConfig(max_restarts=0)
        self.model = model
        #: The draft model for requests with ``speculative_k > 0``;
        #: ``None`` disables speculation.
        self.draft = draft
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = _EngineMetrics(self.registry)
        self.spec_metrics = SpeculativeMetrics(self.registry, "engine")
        self._emitted_tokens = 0
        self._decode_forwards = 0
        self.prefix_cache = PrefixCache(self.config.prefix_cache_bytes,
                                        chunk_size=PREFILL_CHUNK,
                                        registry=self.registry)
        self._queue: "queue.Queue[EngineRequest]" = queue.Queue(
            maxsize=self.config.max_queue)
        self._active: List[_Sequence] = []
        # One zero-filled KV slot per batch row: admission prefills into
        # a free slot, retirement returns it (docs/SERVING.md §4).
        self._kv = model.kv_arena(self.config.max_batch_size)
        self._free: List[KVSlot] = self._kv.slots[::-1]
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
        A request submitted while the engine restarts queues.  Beam
        search is not served: :func:`repro.models.generate` runs it.
        """
        self._check_serving()
        config = config or GenerationConfig()
        config.validate()
        if config.strategy == "beam":
            raise ValueError(
                "beam search is not continuously batched; run it with "
                "repro.models.generate")
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
        elif config.speculative_k > 0 and self.draft is not None:
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
        return self.submit(prompt_ids, config, processors,
                           deadline_ms=deadline_ms).result()

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
        harness stops spelling it (ROADMAP item 1).
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
            failed += self._finish(seq, error=error)
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
        kernels = self.model.kernels
        return {
            "running": self.running,
            "crashed": self._crashed is not None,
            "active_sequences": len(self._active),
            "queue_depth": self._queue.qsize(),
            "max_batch_size": self.config.max_batch_size,
            "prefix_cache": self.prefix_cache.stats_snapshot(),
            "kv": {"slots": len(self._kv.slots), "free": len(self._free),
                   "bytes": sum(b.nbytes for b in self._kv.k + self._kv.v)},
            "kernels": None if kernels is None else kernels.stats(),
            "supervisor": {
                "state": self.state,
                "restarts": self._restarts,
                "max_restarts": self.resilience.max_restarts,
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
        self._free = self._kv.slots[::-1]  # a restart drops no slot
        kernels = self.model.kernels
        if kernels is not None:
            # Size this thread's workspace arenas for a full batch of
            # decode slots up front, so steady-state serving never
            # allocates (see docs/KERNELS.md).
            kernels.preallocate(self.config.max_batch_size)
        with no_grad():
            while not self._stop_event.is_set():
                # One managed kernel step per scheduler iteration: flips
                # the workspace parity, so logits views handed out
                # during this iteration survive exactly until they are
                # sampled at the next one.  Re-fetched each iteration
                # because kernels may be enabled on a serving model at
                # runtime.
                kernels = self.model.kernels
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
            admitted.append(_Sequence(
                request=request, config=request.config,
                processors=build_processors(request.config,
                                            request.processors),
                rng=np.random.default_rng(request.config.seed),
                admitted_at=now, skip=delivered,
                first_token_at=now if delivered else None,
                spec_k=(request.config.speculative_k
                        if self.draft is not None else 0)))
        if admitted:
            self._prefill_admitted(admitted)
        self._admitting = []
        self.metrics.queue_depth.set(self._queue.qsize())
        self.metrics.active_sequences.set(len(self._active))

    def _prefill_admitted(self, admitted: List[_Sequence]) -> None:
        """Prefill an admission wave, one prompt at a time.

        Each prompt prefills through :func:`repro.models.prefill_prompt`
        from its cache hit, whose chunks end at absolute multiples of
        ``PREFILL_CHUNK`` — so a warm run replays exactly the trunk
        calls of a cold run and the logits match bit for bit.  Each
        prompt leaves one cache entry; a later prompt resumes from it
        at full length, or at a chunk boundary cut from it with
        :meth:`GPT2Model.prefix_state` (:meth:`_store`,
        :class:`~repro.serving.prefix_cache.PrefixCache`).
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
            else:
                self.metrics.cache_misses.inc()
            looked_up.append((seq, snapshot, hit_len))
        for seq, snapshot, hit_len in looked_up:
            # The sequence's slot, holding a copy of its cache hit.
            seq.slot, logits = self._free.pop(), None
            seq.slot.length = 0
            if hit_len:
                logits = snapshot[0]
                self._kv.load(seq.slot, snapshot[1].caches)
            state = self.model.slot_state(seq.slot)
            try:
                self._prefill_one(seq, logits, state, hit_len)
            except BaseException as error:  # noqa: BLE001
                self._finish(seq, error=error)
                continue
            self._active.append(seq)

    def _prefill_one(self, seq: _Sequence, logits: Any, state: Any,
                     hit_len: int) -> None:
        """Chunked single-sequence prefill into the sequence's slot
        (resuming from a cache hit)."""
        fault_check("model.forward")
        prompt = seq.request.prompt_ids
        with self.tracer.span("engine.prefill",
                              request=seq.request.request_id,
                              tokens=len(prompt), cached_tokens=hit_len):
            if hit_len < len(prompt):
                logits, state = prefill_prompt(self.model, prompt[hit_len:],
                                               state, start_position=hit_len)
                self._store(prompt, logits, state)
                # Written in place, unless the prompt slid past the window.
                self._kv.load(seq.slot, state.caches)
        seq.logits = logits[0]

    def _store(self, prompt: List[int], logits: np.ndarray,
               state: Any) -> None:
        """Cache a prefilled prompt as one entry.

        A compact copy: a view would pin the capacity buffer the
        sequence keeps appending into, headroom included, while the
        budget counts only its live rows.  A prompt that reaches the
        context length leaves a slid state nothing is cut from, so a
        query sharing only a prefix of it misses and prefills cold.
        """
        logits, snap = logits.copy(), self.model.compact_state(state)
        self.prefix_cache.insert(prompt, (logits, snap),
                                 snap.nbytes + logits.nbytes)

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
        proposals, dists, chunk_logits, base = seq.spec_chunk
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
        seq.slot.length = base + outcome.accepted + 1
        seq.logits = None  # refreshed by the next forward/verify
        return False

    def _forward(self, survivors: List[_Sequence]) -> None:
        """Advance survivors: one model call for every row of the step.

        A row feeds ``generated[-1]`` — emitted but not yet fed — plus,
        for a speculative row, the draft's proposals (:meth:`_draft`).
        Every row, of any length and any token count, goes into **one**
        ``next_logits`` call: the flat ids, each row's slot repeated once
        per token.  Every row keeps the bits of its own sequential
        decode.
        """
        if not survivors:
            return
        # Chaos hook: fails this step's batch (named error) while the
        # engine itself keeps serving — plain and verify rows alike.
        fault_check("model.forward")
        plans = [self._draft(seq) for seq in survivors]
        ids, rows = [], []
        for seq, (proposals, _) in zip(survivors, plans):
            ids += [seq.generated[-1], *proposals]
            rows += [seq.slot] * (len(proposals) + 1)
        logits, _ = self.model.next_logits(np.asarray(ids), rows)
        start = 0
        for seq, (proposals, dists) in zip(survivors, plans):
            end = start + len(proposals) + 1
            if seq.spec_k:  # walked next step, from the chunk's base
                seq.spec_chunk = (proposals, dists, logits[start:end],
                                  seq.slot.length - (end - start))
            else:
                seq.logits = logits[start]
            start = end
        self._decode_forwards += 1
        self.metrics.decode_forwards.inc()
        self.metrics.tokens_per_forward.set(
            self._emitted_tokens / self._decode_forwards)

    def _draft(self, seq: _Sequence) -> Tuple[List[int], Optional[np.ndarray]]:
        """A row's ``(proposals, draft_dists)``; empty for a plain row.

        A speculative row whose chunk no longer fits the context window
        (:meth:`GPT2Model.fits`, decided before the step's call)
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
            context = draft_context(self.draft, seq.request.prompt_ids,
                                    seq.generated)
            if seq.config.strategy == "sample":
                proposals, dists = self.draft.propose_sampled(context, k,
                                                              seq.rng)
            else:
                proposals = self.draft.propose(context, k)
        if not self.model.fits(seq.slot.length, len(proposals) + 1):
            seq.spec_k = 0
            return [], None
        return list(proposals), dists

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
                outcome: Optional[str] = None) -> bool:
        """Retire ``seq``: resolve its request and return its slot."""
        if seq.slot is not None:
            self._free.append(seq.slot)
            seq.slot = None
        return self._resolve(seq.request, error=error, outcome=outcome,
                             tokens=len(seq.generated))
