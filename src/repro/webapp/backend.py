"""The generation backend microservice (the paper's Flask service).

Endpoints:

* ``GET  /api/health``      — liveness + model info;
* ``GET  /api/ingredients`` — the catalog the frontend's picker lists;
* ``POST /api/generate``    — ingredients in, structured recipe out
  (Figs. 4–5 round trip);
* ``POST /api/suggest``     — flavor-pairing suggestions for a partial
  ingredient list (FlavorDB extension);
* ``POST /api/generate_async`` + ``GET /api/job?id=...`` — queued
  generation with backpressure (429 when the queue is full), the
  load-handling story of Sec. VI;
* ``POST /api/generate_stream`` — server-sent-events token streaming
  through the serving engine (``docs/SERVING.md``);
* ``POST /api/search`` — semantic search over the training corpus
  (``docs/RETRIEVAL.md``); requires ``retrieval_index``;
* ``GET /api/retrieval`` — index structure and recall stats;
* ``GET /api/engine`` — serving-engine and prefix-cache stats;
* ``GET /api/metrics`` — the observability exposition (JSON by
  default, ``?format=text`` for the Prometheus-style form); see
  ``docs/OBSERVABILITY.md``.

The three generation endpoints are transports over one
:class:`~repro.webapp.service.GenerationService`; this module builds
the supervised engine and maps the service's results and errors onto
JSON, job and SSE envelopes (``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import threading
import uuid
from typing import Dict, Optional

from ..core.pipeline import Ratatouille
from ..durability import CacheSpill, JobJournal, JournalError
from ..obs import (MetricsRegistry, Tracer, get_registry, get_tracer,
                   render_json, render_text)
from ..recipedb import IngredientCatalog, PairingGraph, default_catalog
from ..resilience import (AdmissionController, OverloadShedError,
                          ResilienceConfig)
from ..retrieval import query_from_ingredients
from ..resilience.supervisor import EngineSupervisor, sequential_fallback
from ..serving import InferenceEngine
from .framework import App, Handler, Request, Response
from .jobs import JobQueue, QueueFullError
from .service import (ERROR_STATUS, MAX_INGREDIENTS, MAX_MCTS_ROLLOUTS,
                      MAX_NEW_TOKENS_CAP, MAX_RETRIEVE_K, MAX_SPECULATIVE_K,
                      GenerationRequest, GenerationService, json_object)

#: Server-side ceiling on ``/api/search`` result count.
MAX_SEARCH_K = 50

#: Server-side ceiling on ``/api/search`` query length.
MAX_QUERY_CHARS = 2000

#: Admission cost (in token-equivalents) charged for one search.  A
#: search is two mat-vecs, far cheaper than decoding, but it must cost
#: *something* so a saturated server sheds search load too.
SEARCH_ADMISSION_COST = 16


def _parse_limit(raw) -> int:
    """A result-count cap from a query string or payload (→ 400)."""
    try:
        limit = int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"'limit' must be an integer, got {raw!r}") from None
    if limit < 0:
        raise ValueError(f"'limit' must be >= 0 (got {limit})")
    return limit


def _service_errors(handler: Handler) -> Handler:
    """Answer the exceptions in ``ERROR_STATUS`` with their status."""
    def guarded(request: Request) -> Response:
        try:
            return handler(request)
        except tuple(ERROR_STATUS) as exc:
            status = next(code for kind, code in ERROR_STATUS.items()
                          if isinstance(exc, kind))
            headers = None
            if isinstance(exc, OverloadShedError):
                headers = {"Retry-After": str(exc.retry_after)}
            return Response.error(str(exc), status=status, headers=headers)
    return guarded


def _build_engine(pipeline: Ratatouille, registry: MetricsRegistry,
                  tracer: Tracer, draft, knobs: ResilienceConfig,
                  spill) -> EngineSupervisor:
    """The one serving topology: an engine under its supervisor."""
    def factory() -> InferenceEngine:
        return InferenceEngine(pipeline.model, registry=registry,
                               tracer=tracer, draft=draft)
    return EngineSupervisor(
        factory,
        max_restarts=knobs.max_restarts,
        backoff_seconds=knobs.restart_backoff_seconds,
        fallback=(sequential_fallback(pipeline.model)
                  if knobs.degraded_fallback else None),
        registry=registry,
        spill=spill)


def create_backend(pipeline: Ratatouille,
                   catalog: Optional[IngredientCatalog] = None,
                   pairing: Optional[PairingGraph] = None,
                   job_queue: Optional[JobQueue] = None,
                   registry: Optional[MetricsRegistry] = None,
                   tracer: Optional[Tracer] = None,
                   max_new_tokens_cap: int = MAX_NEW_TOKENS_CAP,
                   resilience: Optional[ResilienceConfig] = None,
                   draft=None,
                   speculative_k: int = 0,
                   kernels: Optional[str] = None,
                   retrieval_index=None,
                   retrieve_k: int = 0,
                   journal_dir=None,
                   spill_dir=None,
                   max_mcts_rollouts: int = MAX_MCTS_ROLLOUTS) -> App:
    """Build the backend :class:`~repro.webapp.framework.App`.

    Generation always decodes through one serving engine under its
    restarting :class:`~repro.resilience.EngineSupervisor`, stored as
    ``app.engine`` (the engine itself is ``app.engine.engine``).  To
    scale out, run more backend processes (``deploy.scale_out``).

    ``registry``/``tracer`` back ``GET /api/metrics`` and default to the
    process-wide instances.  ``resilience`` (``docs/RESILIENCE.md``)
    sets request deadlines, admission control (``app.admission``), the
    restart budget and the degraded fallback.  ``draft`` (a
    :class:`~repro.models.DraftModel` or a spec like ``"ngram:3"``) and
    ``speculative_k`` enable speculative decoding (``docs/SERVING.md``);
    ``kernels="fp32"`` (``docs/KERNELS.md``) freezes the weights and
    decodes through the inference kernels.
    ``retrieval_index`` (``docs/RETRIEVAL.md``) enables
    ``POST /api/search``, ``retrieve_k`` exemplars per prompt and a
    ``novelty`` score on every generation.  ``journal_dir`` /
    ``spill_dir`` (``docs/DURABILITY.md``) enable the write-ahead job
    journal (replayed before the app is returned) and the prefix-cache
    spill; ``app.shutdown_gracefully`` flushes both.
    ``speculative_k`` and ``retrieve_k`` are server defaults payloads
    override; ``max_new_tokens_cap`` and ``max_mcts_rollouts``
    (``docs/DECODING.md``) cap the payload knobs of the same name.
    """
    if max_mcts_rollouts < 1:
        raise ValueError("max_mcts_rollouts must be >= 1")
    if kernels is not None:
        pipeline.model.enable_kernels(mode=kernels, freeze=True)
    catalog = catalog or default_catalog()
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    jobs = job_queue or JobQueue(workers=1, max_pending=16, registry=registry)
    if isinstance(draft, str):
        kind, colon, order = draft.partition(":")
        if kind != "ngram":
            raise ValueError(f"unknown draft spec {draft!r}")
        draft = pipeline.build_draft(order=int(order) if colon else 3)
    if speculative_k < 0 or speculative_k > MAX_SPECULATIVE_K:
        raise ValueError(
            f"speculative_k must be in [0, {MAX_SPECULATIVE_K}]")
    if retrieve_k < 0 or retrieve_k > MAX_RETRIEVE_K:
        raise ValueError(f"retrieve_k must be in [0, {MAX_RETRIEVE_K}]")
    if retrieve_k > 0 and retrieval_index is None:
        raise ValueError("retrieve_k > 0 requires a retrieval_index")
    journal = JobJournal(journal_dir) if journal_dir is not None else None
    spill = (CacheSpill(spill_dir, model=pipeline.model)
             if spill_dir is not None else None)
    # "No resilience" and "resilience with nothing set" build the same
    # backend: supervised, default restart budget, no deadline, no gate.
    knobs = resilience or ResilienceConfig()
    engine = _build_engine(pipeline, registry, tracer, draft, knobs, spill)
    retrieval_shed = None
    if retrieval_index is not None:
        retrieval_index.set_registry(registry)
        retrieval_shed = registry.counter(
            "retrieval_shed_total",
            help="Search requests shed by admission control")
    admission: Optional[AdmissionController] = None
    if knobs.shed_watermark_tokens:
        admission = AdmissionController(
            knobs.shed_watermark_tokens,
            tokens_per_second_hint=knobs.tokens_per_second_hint,
            registry=registry)
    service = GenerationService(
        pipeline, engine, catalog=catalog, registry=registry,
        admission=admission, retrieval_index=retrieval_index,
        default_retrieve_k=retrieve_k,
        default_deadline_ms=knobs.default_deadline_ms,
        # With no draft fitted, a server-level speculative_k would
        # silently decode sequentially; zero it so /api/health tells
        # the truth.
        default_speculative_k=speculative_k if draft is not None else 0,
        max_new_tokens_cap=max_new_tokens_cap,
        max_mcts_rollouts=max_mcts_rollouts)
    app = App(name="ratatouille-backend")
    app.engine = engine
    app.admission = admission
    app.retrieval_index = retrieval_index
    app.journal = journal
    app.spill = spill

    #: ``Idempotency-Key`` → ``{"job_id", "committed"}``.  A claim is
    #: provisional (``committed=False``) until the submit sticks
    #: (journal append + queue accept); only committed claims dedupe
    #: duplicate requests — a provisional claim can still roll back,
    #: and handing its job id to a duplicate would leave that client
    #: polling a job that never exists.  Seeded from the journal on
    #: replay (those submits stuck by definition).
    idempotency: Dict[str, dict] = {}
    idempotency_lock = threading.Lock()
    #: Completion snapshots restored from the journal — jobs that
    #: finished in a *previous* process but whose results must stay
    #: fetchable via ``GET /api/job``.
    restored: Dict[str, dict] = {}
    shutdown_summary: Optional[dict] = None

    @app.route("/api/health")
    def health(request: Request) -> Response:
        state = engine.state
        status = {"serving": "ok", "restarting": "degraded"}.get(state,
                                                                 "dead")
        return Response.json({
            "status": "draining" if service.draining else status,
            "lifecycle": "draining" if service.draining else "serving",
            "healthy": state == "serving",
            "model": type(pipeline.model).__name__,
            "parameters": pipeline.model.num_parameters(),
            "vocab_size": pipeline.tokenizer.vocab_size,
            "speculative": {
                "draft": type(draft).__name__ if draft is not None else None,
                "default_k": service.default_speculative_k,
            },
            "retrieval": {
                "enabled": retrieval_index is not None,
                "documents": (len(retrieval_index)
                              if retrieval_index is not None else 0),
                "default_k": retrieve_k,
            },
            "durability": {
                "journal": journal is not None,
                "spill": spill is not None,
            },
            "decoding": {
                "strategies": ["greedy", "sample", "beam", "mcts"],
                "max_mcts_rollouts": max_mcts_rollouts,
                "constraints": ["include_ingredients",
                                "exclude_ingredients", "diet",
                                "max_calories"],
            },
        })

    @app.route("/api/ingredients")
    def ingredients(request: Request) -> Response:
        category = request.query.get("category", [None])[0]
        if category:
            items = catalog.by_category(category)
        else:
            items = catalog.all()
        limit = _parse_limit(request.query.get("limit", ["100"])[0])
        return Response.json({
            "ingredients": [
                {"name": item.name, "category": item.category}
                for item in items[:limit]
            ],
            "total": len(items),
        })

    @app.route("/api/generate", methods=("POST",))
    @_service_errors
    def generate_recipe(request: Request) -> Response:
        generation = service.parse(request.json())
        service.admit(generation.cost)
        return Response.json(service.run(generation))

    def _forget_idempotency(key: Optional[str], job_id: str) -> None:
        """Undo a provisional key claim when the submit did not stick."""
        if not key:
            return
        with idempotency_lock:
            claim = idempotency.get(key)
            if claim is not None and claim["job_id"] == job_id:
                del idempotency[key]

    def _commit_idempotency(key: Optional[str], job_id: str) -> None:
        """Publish the key → job mapping once the submit stuck."""
        if not key:
            return
        with idempotency_lock:
            claim = idempotency.get(key)
            if claim is not None and claim["job_id"] == job_id:
                claim["committed"] = True

    def _job_status_of(job_id: str) -> str:
        try:
            return jobs.get(job_id).status.value
        except KeyError:
            snap = restored.get(job_id)
            return snap["status"] if snap is not None else "pending"

    def _journal_completion(job_id: str, status: str, result=None,
                            error: Optional[str] = None) -> None:
        """Best-effort completion record; a dead disk must not take the
        job's actual result down with it (replay just re-executes)."""
        if journal is None:
            return
        try:
            journal.append_completed(job_id, status, result=result,
                                     error=error)
            journal.maybe_rotate()
        except Exception:  # noqa: BLE001
            pass

    def _make_work(job_id: str, generation: GenerationRequest):
        """The queued callable for a live submit or a journal replay.
        ``service.run`` releases the admission cost when the job
        resolves, not when it is queued: queued-but-unstarted jobs are
        exactly the backlog admission control must count."""
        def work():
            try:
                result = service.run(generation)
            except Exception as exc:
                _journal_completion(job_id, "failed",
                                    error=f"{type(exc).__name__}: {exc}")
                raise
            _journal_completion(job_id, "done", result=result)
            return result
        return work

    @app.route("/api/generate_async", methods=("POST",))
    @_service_errors
    def generate_async(request: Request) -> Response:
        payload = request.json()
        generation = service.parse(payload)
        idem_key = request.headers.get("idempotency-key")
        if idem_key is None and payload.get("idempotency_key") is not None:
            idem_key = str(payload["idempotency_key"])
        # The job id is minted before the journal append so journal and
        # queue agree; the idempotency claim is provisional until the
        # submit sticks (journal failure / full queue releases it).
        job_id = uuid.uuid4().hex[:12]
        if idem_key:
            with idempotency_lock:
                claim = idempotency.get(idem_key)
                if claim is None:
                    idempotency[idem_key] = {"job_id": job_id,
                                             "committed": False}
                else:
                    existing = claim["job_id"]
                    committed = claim["committed"]
            if claim is not None:
                if not committed:
                    # The original submit is still in flight and may
                    # yet roll back (journal error, full queue); its
                    # job id must not leak to a duplicate, so the
                    # duplicate retries instead.
                    return Response.error(
                        "a submit with this Idempotency-Key is in "
                        "flight; retry", status=503,
                        headers={"Retry-After": "1"})
                # A retry of a submit we already accepted: point the
                # client at the original job instead of running twice.
                return Response.json(
                    {"job_id": existing,
                     "status": _job_status_of(existing),
                     "deduplicated": True}, status=202)
        try:
            service.admit(generation.cost)
        except OverloadShedError:
            _forget_idempotency(idem_key, job_id)
            raise
        if journal is not None:
            try:
                journal.append_accepted(job_id, payload,
                                        idempotency_key=idem_key)
            except JournalError as exc:
                # Cannot make the acknowledgement durable => refuse the
                # work *before* the 202, never acknowledge-then-lose.
                service.release(generation.cost)
                _forget_idempotency(idem_key, job_id)
                return Response.error(
                    f"journal unavailable: {exc}", status=503,
                    headers={"Retry-After": "1"})
        try:
            jobs.submit(_make_work(job_id, generation), job_id=job_id)
        except (QueueFullError, RuntimeError, ValueError) as exc:
            service.release(generation.cost)
            _forget_idempotency(idem_key, job_id)
            # Journaled but never queued: a "rejected" completion stops
            # replay from resurrecting work the client was refused.
            _journal_completion(job_id, "rejected", error=str(exc))
            status = 429 if isinstance(exc, QueueFullError) else 503
            return Response.error(str(exc), status=status)
        _commit_idempotency(idem_key, job_id)
        return Response.json({"job_id": job_id, "status": "pending"},
                             status=202)

    @app.route("/api/generate_stream", methods=("POST",))
    @_service_errors
    def generate_stream(request: Request) -> Response:
        generation = service.parse(request.json())
        if generation.config.strategy == "beam":
            raise ValueError("beam search cannot stream; use /api/generate")
        service.admit(generation.cost)
        return Response.event_stream(service.stream(generation))

    @app.route("/api/search", methods=("POST",))
    @_service_errors
    def search(request: Request) -> Response:
        if retrieval_index is None:
            return Response.error(
                "retrieval is not enabled on this server "
                "(start with repro serve --retrieval)", status=503)
        payload = json_object(request.json())
        query = payload.get("query")
        selected = payload.get("ingredients")
        # Validation raises ValueError → the framework's 400 path, the
        # same contract every other endpoint uses.
        if query is not None:
            if not isinstance(query, str) or not query.strip():
                raise ValueError("'query' must be a non-empty string")
            if len(query) > MAX_QUERY_CHARS:
                raise ValueError(
                    f"'query' is capped at {MAX_QUERY_CHARS} characters "
                    f"(got {len(query)})")
        elif selected is not None:
            if not isinstance(selected, list) or not selected:
                raise ValueError("'ingredients' must be a non-empty list")
            if len(selected) > MAX_INGREDIENTS:
                raise ValueError(
                    f"at most {MAX_INGREDIENTS} ingredients supported")
            query = query_from_ingredients([str(name) for name in selected])
            if not query:
                raise ValueError("'ingredients' normalized to an empty query")
        else:
            raise ValueError("provide 'query' or 'ingredients'")
        k = payload.get("k", 5)
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValueError(f"'k' must be an integer, got {k!r}")
        if not 1 <= k <= MAX_SEARCH_K:
            raise ValueError(f"'k' must be in [1, {MAX_SEARCH_K}] (got {k})")
        include_text = payload.get("include_text", False)
        if not isinstance(include_text, bool):
            raise ValueError(
                f"'include_text' must be a boolean, got {include_text!r}")
        try:
            service.admit(SEARCH_ADMISSION_COST)
        except OverloadShedError:
            retrieval_shed.inc()
            raise
        try:
            hits = retrieval_index.search(query, k=k)
        except Exception as exc:  # noqa: BLE001 - incl. injected faults
            # A search has nothing to degrade *to* — unlike generation —
            # so a faulted lookup is an explicit 503, never a hang/500.
            return Response.error(
                f"retrieval unavailable: {exc}", status=503)
        finally:
            service.release(SEARCH_ADMISSION_COST)
        return Response.json({
            "hits": [hit.to_dict(include_text=include_text)
                     for hit in hits],
            "k": k,
            "documents": len(retrieval_index),
        })

    @app.route("/api/retrieval")
    def retrieval_stats(request: Request) -> Response:
        if retrieval_index is None:
            return Response.json({"enabled": False})
        return Response.json({
            "enabled": True,
            "default_retrieve_k": retrieve_k,
            **retrieval_index.stats(),
        })

    @app.route("/api/engine")
    def engine_stats(request: Request) -> Response:
        return Response.json({"enabled": True, **engine.stats()})

    @app.route("/api/resilience")
    def resilience_stats(request: Request) -> Response:
        payload = {
            "default_deadline_ms": knobs.default_deadline_ms,
            "admission": admission.stats() if admission is not None else None,
            "supervisor": engine.stats()["supervisor"],
        }
        return Response.json(payload)

    @app.route("/api/job")
    def job_status(request: Request) -> Response:
        job_id = request.query.get("id", [None])[0]
        if not job_id:
            return Response.error("missing 'id' query parameter")
        try:
            job = jobs.get(job_id)
        except KeyError:
            # Completed in a previous process: the journal restored the
            # result so a client that submitted before the restart can
            # still fetch it.
            snap = restored.get(job_id)
            if snap is not None:
                return Response.json(snap)
            return Response.error(f"unknown job {job_id}", status=404)
        return Response.json(job.snapshot())

    @app.route("/api/metrics")
    def metrics(request: Request) -> Response:
        fmt = request.query.get("format", ["json"])[0]
        if fmt == "text":
            return Response.text(render_text(registry))
        if fmt != "json":
            return Response.error(f"unknown format {fmt!r}; use json or text")
        include_trace = request.query.get("trace", ["0"])[0] in ("1", "true")
        return Response.json(
            render_json(registry, tracer if include_trace else None))

    @app.route("/api/suggest", methods=("POST",))
    def suggest(request: Request) -> Response:
        nonlocal pairing
        payload = json_object(request.json())
        selected = payload.get("ingredients")
        if not isinstance(selected, list) or not selected:
            return Response.error("'ingredients' must be a non-empty list")
        limit = _parse_limit(payload.get("limit", 5))
        if pairing is None:
            pairing = PairingGraph(catalog)
        suggestions = pairing.suggest([str(s) for s in selected], limit=limit)
        return Response.json({
            "suggestions": [
                {"name": name, "score": round(score, 4)}
                for name, score in suggestions
            ],
        })

    # ------------------------------------------------------------------
    # Journal replay: resurrect the previous process's state.
    # ------------------------------------------------------------------
    def _replay_journal() -> dict:
        """Fold the journal into live state; re-submit incomplete jobs.

        Completed jobs become ``restored`` snapshots (results stay
        fetchable); accepted-but-incomplete jobs re-enter the queue in
        acceptance order and execute exactly once *here* — engine
        output is deterministic, so even a job that did run before the
        crash (but lost its completion record) re-executes to the
        identical result.
        """
        state = journal.replay()
        with idempotency_lock:
            for key, jid in state.idempotency.items():
                idempotency.setdefault(key, {"job_id": jid,
                                             "committed": True})
        for jid, record in state.completed.items():
            status = record.get("status", "done")
            if status == "rejected":
                # Refused with a 4xx/5xx before the 202 — there is no
                # acknowledged job to restore.
                continue
            snap = {"job_id": jid, "status": status, "restored": True}
            if record.get("result") is not None:
                snap["result"] = record["result"]
            if record.get("error") is not None:
                snap["error"] = record["error"]
            restored[jid] = snap
        replayed = failed = 0

        def fail(jid: str, error: str) -> None:
            nonlocal failed
            _journal_completion(jid, "failed", error=error)
            restored[jid] = {"job_id": jid, "status": "failed",
                             "error": error, "restored": True}
            failed += 1

        for jid, record in state.incomplete():
            try:
                generation = service.parse(record.get("request") or {})
            except ValueError as exc:
                # Journaled under a different server config (cap,
                # retrieval) — resolve it rather than crash-loop on it.
                fail(jid, f"replay rejected: {exc}")
                continue
            # The original process's admission died with it.
            generation.cost = 0
            try:
                # block=True: a backlog larger than max_pending must
                # re-enqueue completely, not lose its tail to a 429.
                jobs.submit(_make_work(jid, generation), job_id=jid,
                            block=True)
                replayed += 1
            except Exception as exc:  # noqa: BLE001
                fail(jid, f"replay submit failed: {type(exc).__name__}: {exc}")
        return {"restored": len(restored), "replayed": replayed,
                "replay_failed": failed,
                "torn_records": state.torn_records}

    app.replay_summary = _replay_journal() if journal is not None else None

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------
    def begin_drain() -> None:
        """Stop admitting new work; in-flight jobs keep running."""
        service.draining = True

    def shutdown_gracefully(deadline_seconds: float = 10.0) -> dict:
        """SIGTERM path: drain, flush durable state, stop the engine.

        1. stop admission — every new request sheds with 503 +
           ``Retry-After`` while the drain runs;
        2. wait (up to ``deadline_seconds``) for queued + running jobs;
           leftovers are failed with the named shutdown error — their
           journal records stay incomplete, so the *next* process
           replays them;
        3. stop the engine — ``EngineSupervisor.stop`` is the one spill
           writer, and never saves a crashed engine's cache;
        4. compact + close the journal.

        Idempotent: a second call returns the first call's summary.
        """
        nonlocal shutdown_summary
        if shutdown_summary is not None:
            return shutdown_summary
        service.draining = True
        drained = jobs.wait_idle(timeout=deadline_seconds)
        leftover = jobs.unfinished
        jobs.shutdown()
        engine.stop()
        journal_stats = None
        if journal is not None:
            try:
                journal.rotate()
            except Exception:  # noqa: BLE001 - closing anyway
                pass
            journal_stats = journal.stats()
            journal.close()
        shutdown_summary = {"drained": drained, "jobs_abandoned": leftover,
                            "spilled": engine.last_spill_saved is True,
                            "journal": journal_stats}
        return shutdown_summary

    app.begin_drain = begin_drain
    app.shutdown_gracefully = shutdown_gracefully

    return app
