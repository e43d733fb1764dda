"""Replicated serving: N supervised engines behind one router.

A single :class:`~repro.serving.InferenceEngine` is a single point of
failure and a hard ceiling on concurrency and upgrade agility.
``repro.cluster`` runs N replicas — each its own engine thread wrapped
in its own :class:`~repro.resilience.EngineSupervisor` — behind a
:class:`Router` that mirrors the engine's ``submit`` / ``generate`` /
``stats`` / ``stop`` surface, so the webapp backend can hold either
without caring.

Replicas are threads in one address space: they already share one set
of weights, and they share **one prefix cache** the same way.  Every
replica that runs the same model object serves from one
:class:`~repro.serving.PrefixCache` whose byte budget is replicas x
the per-engine budget, so a prefix prefilled through any replica is a
hit on every other — there is nothing to place for, index or move.
Placement is therefore plain load balancing: the **least-queued**
admission-eligible live replica, name as tie-break.  Engine output is
bit-identical on every replica, so where a request lands is never a
correctness question.  See ``docs/CLUSTER.md``.

That same determinism makes **failover transparent**: a request whose
replica dies mid-decode is re-dispatched to a survivor and the retried
result is byte-equal to an unfailed run (chaos-tested with a seeded
:class:`~repro.resilience.FaultInjector`).  Failover is driven by the
consumer side of :class:`ClusterRequest` — the first ``result()`` /
``tokens()`` caller to observe the replica's named crash error
re-dispatches — so there is no extra watcher thread per request; a
streaming consumer skips the tokens it already delivered, which is
sound only because the replay emits the identical stream.  A crashed
engine's cache is purged before its replacement serves (the crash may
have been a poisoned snapshot), shared or not.

Rolling operations: :meth:`Router.drain` stops new admissions to one
replica and waits for its in-flight work, :meth:`Router.swap` replaces
the drained replica's engine (new weights, new config — anything the
factory builds), :meth:`Router.readmit` returns it to rotation.  A
drain → swap → readmit cycle drops zero requests by construction and
leaves the shared cache alone; an engine swapped to a *different*
model object gets a cache of its own, so KV computed by one set of
weights is never served to another.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from ..models import GenerationConfig, LogitsProcessor
from ..obs import MetricsRegistry, Tracer, get_registry, get_tracer
from ..resilience.admission import OverloadShedError
from ..resilience.supervisor import EngineSupervisor, EngineUnavailableError
from ..serving.engine import (DeadlineExceededError, EngineCrashedError,
                              EngineQueueFullError, EngineRequest,
                              EngineStoppedError, InferenceEngine)
from ..serving.prefix_cache import PrefixCacheStats
from .admission import ClusterAdmissionController

__all__ = ["ClusterConfig", "ClusterRequest", "NoReplicaAvailableError",
           "Router"]

#: Errors that mean "this replica cannot finish the request" — the
#: router re-dispatches to a survivor.  Request-level errors (deadline
#: expiry, validation) are deliberately absent: failing over cannot
#: change their meaning.
_FAILOVER_ERRORS = (EngineCrashedError, EngineStoppedError,
                    EngineUnavailableError)

#: Health-state severity, worst last.  ``draining`` outranks
#: ``degraded`` for fleet rollups: an operator took it out on purpose.
_SEVERITY = ("healthy", "degraded", "draining", "dead")


class NoReplicaAvailableError(RuntimeError):
    """Every replica is dead, draining, or excluded by prior failures."""


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet knobs (independent of per-engine :class:`EngineConfig`)."""

    replicas: int = 2
    #: Per-replica admission watermark; ``None`` disables shedding.
    watermark_tokens: Optional[int] = None
    tokens_per_second_hint: float = 200.0
    #: Re-dispatch budget per request before its crash error surfaces.
    max_failovers: int = 2
    max_restarts: int = 3
    restart_backoff_seconds: float = 0.05
    heartbeat_seconds: float = 0.05

    def validate(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.max_failovers < 0:
            raise ValueError("max_failovers must be >= 0")
        if self.heartbeat_seconds <= 0:
            raise ValueError("heartbeat_seconds must be > 0")


class _Attempt:
    """One dispatch of a request to one replica."""

    __slots__ = ("replica", "handle")

    def __init__(self, replica: "_Replica", handle: EngineRequest) -> None:
        self.replica = replica
        self.handle = handle


class _Replica:
    """One supervised engine plus the router's bookkeeping about it."""

    def __init__(self, name: str, supervisor: EngineSupervisor,
                 factory: Callable[[], InferenceEngine]) -> None:
        self.name = name
        self.supervisor = supervisor
        self.factory = factory
        self.draining = False
        self.lock = threading.Lock()
        #: Outstanding work: id(entry) -> (handle-or-None, cost).
        #: Entries with a handle self-prune once the handle resolves;
        #: handle-less entries (the beam/sequential path) are removed
        #: explicitly by their dispatcher.
        self._outstanding: Dict[int, Tuple[Optional[EngineRequest], int]] = {}
        self.dispatches = 0
        self.failovers = 0

    # -- health -------------------------------------------------------
    @property
    def state(self) -> str:
        if self.draining:
            return "draining"
        supervisor_state = self.supervisor.state
        if supervisor_state == "serving":
            return "healthy"
        if supervisor_state == "restarting":
            return "degraded"
        return "dead"  # failed | stopped

    # -- queued-token accounting --------------------------------------
    def track(self, handle: Optional[EngineRequest], cost: int) -> int:
        entry = (handle, cost)
        key = id(entry)
        with self.lock:
            self._outstanding[key] = entry
        return key

    def untrack(self, key: int) -> None:
        with self.lock:
            self._outstanding.pop(key, None)

    def queued_tokens(self) -> int:
        """Outstanding decode-token cost; prunes resolved handles."""
        with self.lock:
            done = [key for key, (handle, _) in self._outstanding.items()
                    if handle is not None and handle.done]
            for key in done:
                del self._outstanding[key]
            return sum(cost for _, cost in self._outstanding.values())

    def outstanding(self) -> int:
        self.queued_tokens()  # prune
        with self.lock:
            return len(self._outstanding)


class ClusterRequest:
    """Routed request handle, mirroring :class:`EngineRequest`.

    ``result()`` / ``tokens()`` transparently re-dispatch to a
    surviving replica when the serving one dies; a streaming consumer
    skips the replayed prefix it already delivered (sound because the
    engine's output is bit-identical across replicas).  Timeouts are
    per attempt, not per request.
    """

    def __init__(self, router: "Router", request_id: int,
                 prompt_ids: List[int], config: GenerationConfig,
                 processors: Sequence[LogitsProcessor],
                 deadline_ms: Optional[float], cost: int) -> None:
        self._router = router
        self.request_id = request_id
        self.prompt_ids = prompt_ids
        self.config = config
        self.processors = processors
        self.deadline_ms = deadline_ms
        self.cost = cost
        self.submitted_at = router._clock.now()
        self.failovers = 0
        self._cancelled = False
        self._lock = threading.Lock()
        self._attempt: Optional[_Attempt] = None
        self._track_key: Optional[int] = None

    # -- introspection ------------------------------------------------
    @property
    def replica(self) -> Optional[str]:
        """Name of the replica currently serving this request."""
        attempt = self._attempt
        return attempt.replica.name if attempt is not None else None

    @property
    def done(self) -> bool:
        attempt = self._attempt
        return attempt is not None and attempt.handle.done

    def remaining_deadline_ms(self) -> Optional[float]:
        """Deadline budget left, on the router clock; None if unset."""
        if self.deadline_ms is None:
            return None
        elapsed = self._router._clock.now() - self.submitted_at
        return self.deadline_ms - elapsed * 1000.0

    # -- consumption --------------------------------------------------
    def result(self, timeout: Optional[float] = None) -> List[int]:
        """Block for the full token list, failing over as needed."""
        while True:
            attempt = self._attempt
            assert attempt is not None
            try:
                return attempt.handle.result(timeout=timeout)
            except _FAILOVER_ERRORS as error:
                self._router._failover(self, attempt, error)

    def tokens(self, timeout: Optional[float] = None) -> Iterator[int]:
        """Stream tokens as they decode, deduplicating across failover."""
        delivered = 0
        while True:
            attempt = self._attempt
            assert attempt is not None
            # A failed-over attempt replays the whole stream from the
            # start; skip the prefix this consumer already yielded
            # (byte-equal by the engine's determinism contract).
            skip = delivered
            try:
                for token in attempt.handle.tokens(timeout=timeout):
                    if skip > 0:
                        skip -= 1
                        continue
                    delivered += 1
                    yield token
                return
            except _FAILOVER_ERRORS as error:
                self._router._failover(self, attempt, error)

    def cancel(self) -> bool:
        """Cancel the current attempt; no further failover happens."""
        with self._lock:
            self._cancelled = True
            attempt = self._attempt
        return attempt.handle.cancel() if attempt is not None else False


class _ClusterMetrics:
    """Cluster metric handles, resolved once at construction."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.dispatches = registry.counter(
            "cluster_dispatches_total",
            help="Requests dispatched, by serving replica")
        self.failovers = registry.counter(
            "cluster_failovers_total",
            help="Re-dispatches after a replica failure, by failed replica")
        self.cache_hit_token_rate = registry.gauge(
            "cluster_cache_hit_token_rate",
            help="Fleet-aggregated fraction of looked-up prompt tokens "
                 "served from prefix caches").labels()
        self.queued_tokens = registry.gauge(
            "cluster_queued_tokens",
            help="Outstanding decode-token cost, by replica")
        self.replica_up = registry.gauge(
            "cluster_replica_up",
            help="1 while the replica is healthy, 0 otherwise")
        self.healthy = registry.gauge(
            "cluster_replicas_healthy",
            help="Replicas currently healthy").labels()
        self.draining = registry.gauge(
            "cluster_replicas_draining",
            help="Replicas currently draining").labels()
        self.drain_seconds = registry.histogram(
            "cluster_drain_seconds",
            help="Wall-clock duration of drain() waits").labels()


class Router:
    """Least-queued router over N supervised engine replicas.

    Parameters
    ----------
    engine_factory:
        Called with the replica *name* (``"r0"`` … ``"rN-1"``) to build
        each engine — and again on supervisor restarts and
        :meth:`swap`.  Pass the name through to
        ``InferenceEngine(name=...)`` so metric series carry the
        per-replica ``engine=`` / ``cache=`` labels.  The router points
        each engine it is handed at the cache its model's replicas
        share (:meth:`_share_cache`).
    config:
        :class:`ClusterConfig`; the default runs two replicas.
    spill:
        Optional :class:`~repro.durability.CacheSpill`-shaped object
        (``load_into(cache)`` / ``save(cache)``, optionally ``model``).
        The shared cache is warm-loaded from it whenever an engine is
        built on it empty — fleet start, after a crash purge — and
        saved once by a clean :meth:`stop`, in the layout a single
        engine writes.  A spill that names a ``model`` only ever
        touches the cache of replicas running that model object.
    """

    def __init__(self, engine_factory: Callable[[str], InferenceEngine],
                 config: Optional[ClusterConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 spill: Optional[Any] = None) -> None:
        self.config = config or ClusterConfig()
        self.config.validate()
        self.spill = spill
        #: Whether :meth:`stop` wrote the warm snapshot; ``None`` until
        #: stop runs or when no spill is configured (mirrors
        #: ``EngineSupervisor.last_spill_saved``).
        self.last_spill_saved: Optional[bool] = None
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._clock = self.registry.clock
        self._metrics = _ClusterMetrics(self.registry)
        self.admission = ClusterAdmissionController(
            watermark_tokens=self.config.watermark_tokens,
            tokens_per_second_hint=self.config.tokens_per_second_hint,
            registry=self.registry)
        #: The engine most recently built for each replica, i.e. who
        #: serves from which cache.
        self._engines: Dict[str, InferenceEngine] = {}
        self._cache_lock = threading.Lock()
        self._replicas: Dict[str, _Replica] = {}
        for index in range(self.config.replicas):
            name = f"r{index}"
            factory = self._bind_factory(engine_factory, name)
            self._replicas[name] = _Replica(
                name, self._build_supervisor(factory), factory)
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._heartbeat = threading.Thread(target=self._heartbeat_loop,
                                           name="repro-cluster-heartbeat",
                                           daemon=True)
        self._heartbeat.start()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _bind_factory(self, engine_factory: Callable[[str], InferenceEngine],
                      name: str) -> Callable[[], InferenceEngine]:
        def build() -> InferenceEngine:
            engine = engine_factory(name)
            self._share_cache(name, engine)
            self._warm_load(engine)
            return engine
        return build

    def _share_cache(self, name: str, engine: InferenceEngine) -> None:
        """Serve a fresh engine from the cache its model's replicas share.

        Runs on every engine build — construction, supervisor restarts
        and :meth:`swap` — before the engine is handed a request.  The
        engine joins the cache of any engine (its own predecessor
        included) that runs the *same model object* with the same
        prefill chunking.  One that finds none — the first replica, a
        swap to other weights — keeps the empty cache it was built
        with, so KV computed by one set of weights is never visible to
        another; its budget grows to replicas x the per-engine budget,
        the capacity the fleet had as N private caches.  A cache dies
        with its last engine.
        """
        with self._cache_lock:
            peer = next((peer for peer in self._engines.values()
                         if peer.model is engine.model
                         and peer.config.prefill_chunk
                         == engine.config.prefill_chunk), None)
            if peer is not None:
                engine.prefix_cache = peer.prefix_cache
            else:
                engine.prefix_cache.max_bytes *= self.config.replicas
            self._engines[name] = engine

    def _spill_serves(self, engine: InferenceEngine) -> bool:
        """Whether the spill's snapshots are this engine's model's KV."""
        model = getattr(self.spill, "model", None)
        return self.spill is not None and (model is None
                                           or model is engine.model)

    def _warm_load(self, engine: InferenceEngine) -> None:
        """Best-effort warm load of an *empty* cache ``engine`` serves from."""
        if self._spill_serves(engine) and len(engine.prefix_cache) == 0:
            try:
                self.spill.load_into(engine.prefix_cache)
            except Exception:  # noqa: BLE001 - corrupt spill => cold start
                pass

    def _build_supervisor(self, factory: Callable[[], InferenceEngine]
                          ) -> EngineSupervisor:
        # No sequential fallback: the fleet's degraded mode is another
        # replica, which is both faster and bit-identical.  No spill:
        # the cache outlives any one engine; the router loads and saves.
        return EngineSupervisor(
            factory, max_restarts=self.config.max_restarts,
            backoff_seconds=self.config.restart_backoff_seconds,
            poll_seconds=min(0.02, self.config.heartbeat_seconds),
            fallback=None, registry=self.registry)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def check_admission(self, cost_tokens: int) -> None:
        """Advisory fleet-admission probe for the HTTP layer.

        Raises :class:`~repro.resilience.OverloadShedError` when every
        live replica is past its watermark — the same decision dispatch
        would make — without recording an admission (dispatch does
        that when it actually happens).
        """
        queued = {name: replica.queued_tokens()
                  for name, replica in self._replicas.items()
                  if replica.state in ("healthy", "degraded")}
        if queued:
            self.admission.eligible(queued, cost_tokens, record_admit=False)

    def _place(self, cost: int, exclude: Set[str],
               enforce_admission: bool) -> _Replica:
        """The least-queued admission-eligible live replica."""
        candidates = {name: replica
                      for name, replica in self._replicas.items()
                      if name not in exclude
                      and replica.state in ("healthy", "degraded")}
        if not candidates:
            raise NoReplicaAvailableError(
                "no replica available: "
                + ", ".join(f"{name}={replica.state}"
                            + (" (excluded)" if name in exclude else "")
                            for name, replica in self._replicas.items()))
        queued = {name: replica.queued_tokens()
                  for name, replica in candidates.items()}
        if enforce_admission:
            eligible = self.admission.eligible(queued, cost)
        else:
            # Failover re-dispatch: the request was already admitted
            # once; shedding it now would turn a survivable replica
            # death into a dropped request.
            eligible = list(candidates)
        return candidates[min(eligible,
                              key=lambda name: (queued[name], name))]

    # ------------------------------------------------------------------
    # Serving surface (mirrors InferenceEngine)
    # ------------------------------------------------------------------
    def submit(self, prompt_ids: Sequence[int],
               config: Optional[GenerationConfig] = None,
               processors: Sequence[LogitsProcessor] = (),
               deadline_ms: Optional[float] = None) -> ClusterRequest:
        """Place and dispatch a request; returns a failover-aware handle.

        Raises :class:`OverloadShedError` when every live replica is
        past its admission watermark, :class:`NoReplicaAvailableError`
        when none is live at all, and whatever the chosen engine's
        ``submit`` raises for invalid requests (validation errors are
        never failed over).
        """
        if self._stop_event.is_set():
            raise EngineStoppedError("router has been stopped")
        config = config or GenerationConfig()
        if config.strategy == "beam":
            raise ValueError("beam search is not batched; use generate()")
        with self._id_lock:
            request_id = self._next_id
            self._next_id += 1
        request = ClusterRequest(self, request_id, list(prompt_ids), config,
                                 processors, deadline_ms,
                                 cost=config.max_new_tokens)
        self._dispatch(request, exclude=set(), enforce_admission=True)
        return request

    def generate(self, prompt_ids: Sequence[int],
                 config: Optional[GenerationConfig] = None,
                 processors: Sequence[LogitsProcessor] = (),
                 deadline_ms: Optional[float] = None) -> List[int]:
        """Synchronous generation through the fleet.

        Beam search (which the engine serves via its sequential
        fallback) is routed the same way and still fails over.
        """
        config = config or GenerationConfig()
        if config.strategy == "beam":
            return self._generate_unbatched(prompt_ids, config, processors,
                                            deadline_ms)
        return self.submit(prompt_ids, config, processors,
                           deadline_ms=deadline_ms).result()

    def _generate_unbatched(self, prompt_ids: Sequence[int],
                            config: GenerationConfig,
                            processors: Sequence[LogitsProcessor],
                            deadline_ms: Optional[float]) -> List[int]:
        exclude: Set[str] = set()
        failovers = 0
        while True:
            replica = self._place(config.max_new_tokens, exclude,
                                  enforce_admission=not exclude)
            key = replica.track(None, config.max_new_tokens)
            self._note_dispatch(replica)
            try:
                return replica.supervisor.generate(prompt_ids, config,
                                                   processors,
                                                   deadline_ms=deadline_ms)
            except _FAILOVER_ERRORS:
                if failovers >= self.config.max_failovers:
                    raise
                failovers += 1
                exclude.add(replica.name)
                self._note_failover(replica)
            finally:
                replica.untrack(key)

    # ------------------------------------------------------------------
    # Dispatch + failover
    # ------------------------------------------------------------------
    def _note_dispatch(self, replica: _Replica) -> None:
        replica.dispatches += 1
        self._metrics.dispatches.labels(replica=replica.name).inc()
        self._metrics.queued_tokens.labels(replica=replica.name).set(
            replica.queued_tokens())

    def _note_failover(self, replica: _Replica) -> None:
        replica.failovers += 1
        self._metrics.failovers.labels(replica=replica.name).inc()

    def _dispatch(self, request: ClusterRequest, exclude: Set[str],
                  enforce_admission: bool) -> None:
        """Place ``request`` and submit it, skipping replicas that fail.

        On success the request's current attempt is replaced.  Raises
        the last submit error once every candidate is exhausted.
        """
        excluded = set(exclude)
        last_error: Optional[BaseException] = None
        while True:
            try:
                replica = self._place(request.cost, excluded,
                                      enforce_admission)
            except NoReplicaAvailableError:
                if last_error is not None:
                    raise last_error
                raise
            remaining_ms = request.remaining_deadline_ms()
            if remaining_ms is not None and remaining_ms <= 0:
                raise DeadlineExceededError(request.request_id,
                                            request.deadline_ms or 0.0, [])
            try:
                handle = replica.supervisor.submit(
                    request.prompt_ids, request.config, request.processors,
                    deadline_ms=remaining_ms)
            except _FAILOVER_ERRORS + (EngineQueueFullError,) as error:
                # Stale health or a full queue: skip this replica and
                # keep trying the rest.
                excluded.add(replica.name)
                last_error = error
                continue
            key = replica.track(handle, request.cost)
            old_key = request._track_key
            if old_key is not None and request._attempt is not None:
                request._attempt.replica.untrack(old_key)
            request._attempt = _Attempt(replica, handle)
            request._track_key = key
            self._note_dispatch(replica)
            return

    def _failover(self, request: ClusterRequest, attempt: _Attempt,
                  error: BaseException) -> None:
        """Re-dispatch ``request`` after ``attempt``'s replica failed.

        Consumer-driven and idempotent: whichever of ``result()`` /
        ``tokens()`` observes the crash first re-dispatches; a racing
        consumer finds the attempt already replaced and simply retries
        it.  Raises ``error`` when the failover budget is spent, the
        request was cancelled, or no survivor can take it.
        """
        with request._lock:
            if request._attempt is not attempt:
                return  # a racing consumer already failed over
            if request._cancelled:
                raise error
            if request.failovers >= self.config.max_failovers:
                raise error
            request.failovers += 1
            self._note_failover(attempt.replica)
            try:
                self._dispatch(request, exclude={attempt.replica.name},
                               enforce_admission=False)
            except NoReplicaAvailableError:
                raise error

    # ------------------------------------------------------------------
    # Rolling operations
    # ------------------------------------------------------------------
    def drain(self, name: str, timeout: float = 30.0) -> float:
        """Stop new admissions to ``name`` and wait for in-flight work.

        Returns the wall-clock drain duration (also observed on the
        ``cluster_drain_seconds`` histogram).  Raises
        :class:`TimeoutError` if in-flight work outlives ``timeout`` —
        the replica stays draining so the operator can retry or kill.
        """
        replica = self._replica(name)
        replica.draining = True
        start = time.monotonic()
        while replica.outstanding() > 0:
            if time.monotonic() - start > timeout:
                raise TimeoutError(
                    f"drain of {name!r} timed out after {timeout}s with "
                    f"{replica.outstanding()} request(s) in flight")
            time.sleep(0.005)
        seconds = time.monotonic() - start
        self._metrics.drain_seconds.observe(seconds)
        return seconds

    def swap(self, name: str,
             engine_factory: Optional[Callable[[str], InferenceEngine]]
             = None, timeout: float = 5.0) -> None:
        """Replace a drained replica's engine (model/config upgrade).

        Requires a completed :meth:`drain` — swapping a replica with
        in-flight work would drop it, which the fleet's whole design
        refuses to do.  With ``engine_factory`` the replica is rebuilt
        from the new factory (and future restarts use it too);
        without, the existing factory builds a fresh engine.  The new
        engine serves from the shared cache as it stands — unless it
        runs a different model object, which gets a cache of its own.
        """
        replica = self._replica(name)
        if not replica.draining:
            raise RuntimeError(f"swap requires drain: replica {name!r} is "
                               f"still admitting")
        if replica.outstanding() > 0:
            raise RuntimeError(f"swap requires an idle replica: {name!r} "
                               f"has in-flight work (drain first)")
        if engine_factory is not None:
            replica.factory = self._bind_factory(engine_factory, name)
        replica.supervisor.stop(timeout=timeout)
        replica.supervisor = self._build_supervisor(replica.factory)

    def readmit(self, name: str) -> None:
        """Return a drained replica to the placement rotation."""
        replica = self._replica(name)
        replica.draining = False

    def _replica(self, name: str) -> _Replica:
        try:
            return self._replicas[name]
        except KeyError:
            raise KeyError(f"unknown replica {name!r}; have "
                           f"{sorted(self._replicas)}") from None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return (not self._stop_event.is_set()
                and any(replica.state in ("healthy", "degraded")
                        for replica in self._replicas.values()))

    def replica_names(self) -> List[str]:
        return list(self._replicas)

    def weight_bytes(self) -> Dict[str, Any]:
        """Fleet weight-memory accounting, deduplicated by array identity.

        Replicas attached to one shared
        :class:`~repro.nn.kernels.WeightStore` (or one shared model)
        reference the same ndarrays, so ``unique_bytes`` stays ~1x the
        model size regardless of replica count — the invariant the
        shared-weight kernels exist to provide.  Isolated per-replica
        models show up as ~N x.
        """
        unique: Dict[int, int] = {}
        models = {id(engine.model): engine.model
                  for engine in self._engines.values()}
        for model in models.values():
            for param in model.parameters():
                unique[id(param.data)] = param.data.nbytes
            kernels = getattr(model, "kernels", None)
            if kernels is not None:
                for arr in kernels.store.weight_arrays():
                    unique[id(arr)] = arr.nbytes
        return {
            "replicas": len(self._replicas),
            "model_copies": len(models),
            "unique_bytes": sum(unique.values()),
        }

    def fleet_health(self) -> Dict[str, Any]:
        """Aggregate fleet state for ``/api/health``.

        ``status`` is the worst replica state — ``"ok"`` when every
        replica is healthy, matching the single-engine payload.
        """
        states = [replica.state for replica in self._replicas.values()]
        worst = max(states, key=_SEVERITY.index)
        return {
            "replicas": len(states),
            "healthy": states.count("healthy"),
            "draining": states.count("draining"),
            "status": "ok" if worst == "healthy" else worst,
        }

    def _cache_stats(self) -> Dict[str, float]:
        """Fleet prefix-cache counters, ``stats_snapshot``-shaped.

        The shared cache's own atomic snapshot — summed field-wise
        over caches while replicas run different models.  Refreshes
        the ``cluster_cache_hit_token_rate`` gauge.
        """
        caches = {id(engine.prefix_cache): engine.prefix_cache
                  for engine in self._engines.values()}
        snaps = [cache.stats_snapshot() for cache in caches.values()]
        stats = PrefixCacheStats(**{
            field.name: sum(snap[field.name] for snap in snaps)
            for field in fields(PrefixCacheStats)}).as_dict()
        self._metrics.cache_hit_token_rate.set(stats["hit_token_rate"])
        return stats

    def stats(self) -> Dict[str, Any]:
        """Point-in-time fleet stats (for ``/api/cluster`` and the CLI)."""
        replicas = {}
        for name, replica in self._replicas.items():
            supervisor = replica.supervisor
            replicas[name] = {
                "state": replica.state,
                "draining": replica.draining,
                "queued_tokens": replica.queued_tokens(),
                "outstanding": replica.outstanding(),
                "dispatches": replica.dispatches,
                "failovers": replica.failovers,
                "supervisor": {
                    "state": supervisor.state,
                    "restarts": supervisor.restarts,
                },
            }
        return {
            "replicas": replicas,
            "fleet": self.fleet_health(),
            "weights": self.weight_bytes(),
            "prefix_cache": self._cache_stats(),
            "admission": self.admission.stats(),
        }

    # ------------------------------------------------------------------
    # Heartbeats + lifecycle
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._stop_event.wait(self.config.heartbeat_seconds):
            self._observe_health()

    def _observe_health(self) -> None:
        healthy = draining = 0
        for name, replica in self._replicas.items():
            state = replica.state
            healthy += state == "healthy"
            draining += state == "draining"
            self._metrics.replica_up.labels(replica=name).set(
                1 if state == "healthy" else 0)
            self._metrics.queued_tokens.labels(replica=name).set(
                replica.queued_tokens())
        self._metrics.healthy.set(healthy)
        self._metrics.draining.set(draining)
        self._cache_stats()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the heartbeat and every replica's supervisor + engine.

        With a spill configured, the now-quiescent cache is saved once
        and :attr:`last_spill_saved` records whether a snapshot was
        actually written (``None`` when no spill is configured), so
        shutdown summaries report the real outcome rather than the
        config.  A cache with a crashed engine on it is never saved:
        the crash may have been a poisoned snapshot.
        """
        self._stop_event.set()
        self._heartbeat.join(timeout=timeout)
        for replica in self._replicas.values():
            replica.supervisor.stop(timeout=timeout)
        if self.spill is not None and self.last_spill_saved is None:
            # First stop() decides; a repeat must not clobber a success.
            self.last_spill_saved = self._save_spill()
        self._observe_health()

    def _save_spill(self) -> bool:
        engines = [engine for engine in self._engines.values()
                   if self._spill_serves(engine)]
        if not engines or any(engine.crashed is not None
                              for engine in engines):
            return False
        try:
            self.spill.save(engines[0].prefix_cache)
            return True
        except Exception:  # noqa: BLE001 - next start is cold
            return False

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
