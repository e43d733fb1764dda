"""The one generation path behind the backend's three transports.

:class:`GenerationService` parses a payload once (``ValueError`` → 400
before any model work) and, once the transport admitted it, takes it
through :meth:`~GenerationService.start` (retrieve → prepare → engine
submit) and :meth:`StartedRequest.finish` (wait → response body) —
back to back for a sync request, on the job thread for an async job's
``finish``.  :mod:`.backend`
only maps the result — or an exception in :data:`ERROR_STATUS` — onto a
JSON, job or SSE envelope (``docs/ARCHITECTURE.md``, "The request path").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Iterator, List, Optional

from ..core.pipeline import Ratatouille
from ..models import GenerationConfig
from ..obs import MetricsRegistry
from ..recipedb import IngredientCatalog
from ..resilience import AdmissionController, OverloadShedError
from ..serving import (DeadlineExceededError, EngineCrashedError,
                       EngineQueueFullError, EngineStoppedError,
                       EngineRequest, EngineUnavailableError,
                       InferenceEngine)

# repro.decoding is imported by the branches that take a request with
# ``constraints`` or ``strategy: "mcts"``; plain requests never load it.

MAX_INGREDIENTS = 20

#: Server-side ceiling on requested generation length.  Client-supplied
#: ``max_new_tokens`` beyond this is a 400, not a silent clamp.
MAX_NEW_TOKENS_CAP = 512

#: Server-side ceiling on per-request ``speculative_k`` (draft tokens
#: per verify step).  Beyond ~16 the acceptance tail is empty and the
#: verify chunk just wastes work, so larger asks are a 400.
MAX_SPECULATIVE_K = 16

#: Server-side ceiling on per-request ``retrieve_k`` (RAG exemplars
#: prepended to the prompt).  Each exemplar is a full tagged recipe
#: (~100 tokens), so beyond a handful the prefix crowds out the decode
#: budget; larger asks are a 400.
MAX_RETRIEVE_K = 8

#: Server-side ceiling on per-request ``mcts_rollouts``: bounds what
#: one request may ask the admission gate for (:func:`_admission_cost`).
#: ``repro serve --max-mcts-rollouts`` tunes it per deployment.
MAX_MCTS_ROLLOUTS = 64


#: The one error → HTTP status table (``docs/ARCHITECTURE.md``); the
#: first matching class wins.  ``OverloadShedError`` also sets
#: ``Retry-After``.  A request the engine's last crash failed (restart
#: budget spent) is 502, not 503: output is deterministic, so an
#: idempotent resend (the client ``RetryPolicy``) to another backend
#: returns the identical recipe.  Work submitted to the ``failed``
#: engine afterwards is refused with 503.
ERROR_STATUS = {
    DeadlineExceededError: 504,
    EngineQueueFullError: 429,
    OverloadShedError: 503,
    EngineUnavailableError: 503,
    EngineCrashedError: 502,
    EngineStoppedError: 503,
}

_CONFIG_FIELDS = (
    ("max_new_tokens", int, 220),
    ("strategy", str, "sample"),
    ("temperature", float, 0.8),
    ("top_k", int, 20),
    ("top_p", float, 1.0),
    ("repetition_penalty", float, 1.0),
    ("seed", int, 0),
    ("speculative_k", int, 0),
    ("mcts_rollouts", int, 12),
    ("mcts_c_puct", float, 1.4),
)


def json_object(payload) -> dict:
    """A POST body must be a JSON object; anything else is a 400."""
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object, got "
                         f"{type(payload).__name__}")
    return payload


def _coerce(name: str, raw, cast):
    """``cast(raw)``, or a ValueError naming the field.  A JSON boolean
    is refused, although ``int(True)`` is 1; numeric strings pass."""
    if not isinstance(raw, bool):
        try:
            return cast(raw)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"'{name}' must be a {cast.__name__}, got {raw!r}")


def _flag(payload: dict, name: str) -> bool:
    """A JSON boolean field, false when absent; ``bool("false")`` would
    be true, so anything else is a ValueError naming the field."""
    value = payload.get(name, False)
    if not isinstance(value, bool):
        raise ValueError(f"'{name}' must be a boolean, got {value!r}")
    return value


def _parse_generation_request(payload: dict,
                              default_speculative_k: int = 0,
                              catalog: Optional[IngredientCatalog] = None,
                              max_mcts_rollouts: int = MAX_MCTS_ROLLOUTS
                              ) -> tuple:
    """Validate a generation payload; returns (names, config, checklist).

    Raises :class:`ValueError` (→ HTTP 400) on anything malformed: a
    non-coercible knob, a value :meth:`GenerationConfig.validate`
    rejects, or a knob beyond its server cap.  Constraint errors carry
    named codes (``unknown_diet:``, ``conflicting_constraints:``,
    ``diet_conflict:``, ``calories_exceeded:``, ``unknown_constraint:``)
    so clients can react without parsing prose.

    A payload ``speculative_k`` overrides ``default_speculative_k``
    (``0`` opts out).  ``constraints.include_ingredients`` are merged
    into the returned ``names`` (inclusion by construction) and
    conflicts are pre-checked, so an unsatisfiable request is a 400
    before any model work.
    """
    selected = json_object(payload).get("ingredients")
    if not isinstance(selected, list) or not selected:
        raise ValueError("'ingredients' must be a non-empty list")
    if len(selected) > MAX_INGREDIENTS:
        raise ValueError(f"at most {MAX_INGREDIENTS} ingredients supported")
    names = [str(name) for name in selected]
    values = {}
    for name, cast, default in _CONFIG_FIELDS:
        if name == "speculative_k":
            default = default_speculative_k
        values[name] = _coerce(name, payload.get(name, default), cast)
    config = GenerationConfig(**values)
    config.validate()
    if config.strategy == "beam":
        raise ValueError(
            "beam search is not served; use greedy, sample or mcts "
            "(beam runs locally: repro generate --strategy beam)")
    if config.max_new_tokens > MAX_NEW_TOKENS_CAP:
        raise ValueError(
            f"max_new_tokens is capped at {MAX_NEW_TOKENS_CAP} "
            f"(got {config.max_new_tokens})")
    if config.speculative_k > MAX_SPECULATIVE_K:
        raise ValueError(
            f"speculative_k is capped at {MAX_SPECULATIVE_K} "
            f"(got {config.speculative_k})")
    raw_constraints = payload.get("constraints")
    if raw_constraints is not None:
        from ..decoding import apply_constraints_to_prompt, parse_constraints
        constraints = parse_constraints(raw_constraints)
        config.constraints = constraints
        names = apply_constraints_to_prompt(names, constraints, catalog,
                                            MAX_INGREDIENTS)
    if config.constraints is not None or config.strategy == "mcts":
        from ..decoding import MIN_BUDGET
        if config.max_new_tokens < MIN_BUDGET:
            raise ValueError(
                f"constrained decoding needs max_new_tokens >= "
                f"{MIN_BUDGET} to close the recipe grammar "
                f"(got {config.max_new_tokens})")
    if config.strategy == "mcts" and config.mcts_rollouts > max_mcts_rollouts:
        raise ValueError(
            f"mcts_rollouts is capped at {max_mcts_rollouts} "
            f"(got {config.mcts_rollouts})")
    return names, config, _flag(payload, "checklist")


def _admission_cost(config: GenerationConfig) -> int:
    """Token-equivalents one request may cost the serving engine.

    MCTS decodes up to ``mcts_rollouts`` full rollouts plus, when a
    reward fault stops the search, the constrained greedy decode of
    MCTS's own ``_degrade`` — so it is charged the whole tree, not one
    decode; otherwise a saturated server would admit a request that
    costs 13x what the gate thinks.
    """
    if config.strategy == "mcts":
        return config.max_new_tokens * (1 + config.mcts_rollouts)
    return config.max_new_tokens


@dataclass
class GenerationRequest:
    """One validated generation payload."""

    names: List[str]
    config: GenerationConfig
    checklist: bool
    deadline_ms: Optional[float]
    retrieve_k: int
    #: Client opted into a partial recipe (``"partial": true``) instead
    #: of a 504 when the deadline expires with tokens in hand.
    allow_partial: bool
    #: Admission cost in token-equivalents (``0`` for journal replay).
    cost: int


@dataclass
class GenerationService:
    """Admission, retrieval, decoding and body assembly for one backend.

    ``engine`` is the backend's one serving engine; the other fields
    are the defaults and caps ``create_backend`` resolved.
    """

    pipeline: Ratatouille
    engine: InferenceEngine
    catalog: IngredientCatalog
    registry: MetricsRegistry
    admission: Optional[AdmissionController] = None
    retrieval_index: Any = None
    default_retrieve_k: int = 0
    default_deadline_ms: Optional[float] = None
    default_speculative_k: int = 0
    max_mcts_rollouts: int = MAX_MCTS_ROLLOUTS
    #: Set by graceful shutdown; every later :meth:`admit` refuses.
    draining: bool = False

    def __post_init__(self) -> None:
        if self.retrieval_index is not None:
            self._retrieval_degradations = self.registry.counter(
                "retrieval_degraded_total",
                help="Generations that degraded to un-conditioned output "
                     "because a retrieval lookup failed")

    def parse(self, payload: dict) -> GenerationRequest:
        """Validate a payload once; raises ValueError (→ HTTP 400).

        ``deadline_ms`` and ``retrieve_k`` fall back to the server
        defaults; ``retrieve_k: 0`` opts out explicitly.
        """
        names, config, checklist = _parse_generation_request(
            payload, self.default_speculative_k, catalog=self.catalog,
            max_mcts_rollouts=self.max_mcts_rollouts)
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        else:
            deadline_ms = _coerce("deadline_ms", deadline_ms, float)
            if not (math.isfinite(deadline_ms) and deadline_ms > 0):
                raise ValueError("'deadline_ms' must be a finite number > 0")
        retrieve_k = payload.get("retrieve_k")
        if retrieve_k is None:
            retrieve_k = self.default_retrieve_k
        elif isinstance(retrieve_k, bool) or not isinstance(retrieve_k, int):
            raise ValueError(
                f"'retrieve_k' must be an integer, got {retrieve_k!r}")
        elif not 0 <= retrieve_k <= MAX_RETRIEVE_K:
            raise ValueError(f"'retrieve_k' must be in [0, {MAX_RETRIEVE_K}] "
                             f"(got {retrieve_k})")
        elif retrieve_k > 0 and self.retrieval_index is None:
            # A client error, not a silent no-op.
            raise ValueError(
                "retrieval is not enabled on this server "
                "(start with repro serve --retrieval)")
        return GenerationRequest(
            names, config, checklist, deadline_ms, retrieve_k,
            allow_partial=_flag(payload, "partial"),
            cost=_admission_cost(config))

    def admit(self, cost: int) -> None:
        """Admit ``cost`` tokens of work or raise ``OverloadShedError``.

        Every successful ``admit`` is paired with one :meth:`release` —
        by :meth:`start`'s request once it has one, else by the caller.
        """
        if self.draining:
            # Retrying clients land on the replacement process.
            raise OverloadShedError("server is draining for shutdown", 1)
        if self.admission is not None:
            self.admission.try_acquire(cost)

    def release(self, cost: int) -> None:
        if self.admission is not None:
            self.admission.release(cost)

    def _fetch_exemplars(self, request: GenerationRequest):
        """RAG exemplar texts as ``(texts, degraded)``.  Any retrieval
        failure degrades to un-conditioned generation (``(None, True)``)
        — a broken index cannot fail a generation request."""
        if request.retrieve_k <= 0 or self.retrieval_index is None:
            return None, False
        try:
            hits = self.retrieval_index.search_ingredients(
                request.names, k=request.retrieve_k)
            return [hit.text for hit in hits], False
        except Exception:  # noqa: BLE001 - degrade, never fail the request
            self._retrieval_degradations.inc()
            return None, True

    def start(self, request: GenerationRequest, live: bool = False
              ) -> "StartedRequest":
        """Begin an admitted request on the caller's thread.

        A plain request fetches its exemplars, prepares its prompt and
        is submitted to the engine here, so its decode joins the batch
        (and its ``deadline_ms`` runs) from this call.  A constrained
        or MCTS request is a sequential driver that runs in
        :meth:`StartedRequest.finish`; ``live`` (streaming) instead
        submits a constrained, non-MCTS request token-live through its
        masks.  The request owns its admission cost from here: a raise
        releases it, else ``finish`` or ``close`` does.
        """
        try:
            config = request.config
            started = StartedRequest(self, request, config,
                                     *self._fetch_exemplars(request))
            if config.strategy == "mcts" or (config.constraints is not None
                                             and not live):
                return started
            started.prompt_text, prompt_ids, started.config, processors = (
                self.pipeline.prepare_prompt(
                    request.names, generation=config,
                    checklist=request.checklist,
                    exemplars=started.exemplars))
            if started.config.constraints is not None:
                from ..decoding import build_constrained_processors
                processors = build_constrained_processors(
                    self.pipeline.tokenizer, started.config,
                    started.config.constraints, catalog=self.catalog,
                    registry=self.registry, user_processors=processors)
            started.started_at = self.registry.clock.now()
            started.handle = self.engine.submit(
                prompt_ids, started.config, processors,
                deadline_ms=request.deadline_ms)
            return started
        except BaseException:
            self.release(request.cost)
            raise

    def run(self, request: GenerationRequest) -> dict:
        """Response body for an admitted request; releases its cost."""
        return self.start(request).finish()[1]

    def stream(self, request: GenerationRequest) -> Iterator[dict]:
        """Event iterator for an admitted request; releases its cost.

        ``{"token", "text"}`` per token, then ``{"done": true, "recipe":
        body}`` or a terminal ``{"error", ...}``.  Submit-time failures
        raise *here*, before the iterator exists, so the transport can
        still answer with a status.  Constrained decoding streams
        token-live through the masks (:meth:`run`'s text-predicate
        retry is impossible once tokens are on the wire, so the final
        event reports ``constraints_satisfied`` honestly); a tree
        search has no tokens until it picks a winner, so it runs to
        completion and replays them — SSE keeps one wire format.
        """
        started = self.start(replace(request, allow_partial=False),
                             live=True)
        handle = started.handle
        tokenizer = self.pipeline.tokenizer

        def events():
            emitted = 0
            try:
                try:
                    if handle is None:
                        tokens, body = started.finish()
                    else:
                        tokens = handle.tokens()
                    for token in tokens:
                        emitted += 1
                        yield {"token": int(token),
                               "text": tokenizer.decode([int(token)])}
                    if handle is not None:
                        body = started.finish()[1]
                except DeadlineExceededError as exc:
                    yield {"error": str(exc), "deadline_exceeded": True,
                           "tokens_emitted": emitted}
                    return
                except Exception as exc:  # noqa: BLE001 - headers already sent
                    yield {"error": str(exc)}
                    return
                yield {"done": True, "recipe": body}
            finally:
                # Runs on normal completion AND when the framework
                # closes an abandoned stream (client disconnected):
                # cancel so the engine does not keep decoding to
                # max_new_tokens in a batch slot nobody is reading,
                # and return the admitted work to the gate.
                started.close()

        return events()


@dataclass
class StartedRequest:
    """An admitted request between :meth:`GenerationService.start` and
    its body: ``handle`` is its engine request, or ``None`` while a
    constrained / MCTS driver waits to run in :meth:`finish`."""

    service: GenerationService
    request: GenerationRequest
    config: GenerationConfig
    exemplars: Optional[List[str]]
    retrieval_degraded: bool
    handle: Optional[EngineRequest] = None
    prompt_text: Optional[str] = None
    started_at: float = 0.0
    released: bool = False

    def finish(self) -> tuple:
        """Wait for the decode (or run the driver); ``(new_ids, body)``.

        Deadline expiry becomes a partial body (when the request opted
        in and tokens exist) or propagates: 504 / failed job / terminal
        event.  Releases the admission cost.
        """
        service, request = self.service, self.request
        extra = {}
        try:
            try:
                if self.handle is None:
                    from ..decoding import run_constrained_generation
                    self.started_at = service.registry.clock.now()
                    self.prompt_text, new_ids, self.config, extra = (
                        run_constrained_generation(
                            service.pipeline, request.names, self.config,
                            checklist=request.checklist,
                            exemplars=self.exemplars,
                            submit=service.engine.generate,
                            catalog=service.catalog,
                            retrieval_index=service.retrieval_index,
                            registry=service.registry,
                            deadline_ms=request.deadline_ms))
                else:
                    new_ids = self.handle.result()
            except DeadlineExceededError as exc:
                if not (request.allow_partial and exc.tokens):
                    raise
                if self.prompt_text is None:
                    # The constrained driver raised before returning the
                    # prompt; re-derive it (prepare_prompt is
                    # deterministic given the exemplars).
                    self.prompt_text = service.pipeline.prepare_prompt(
                        request.names, generation=self.config,
                        checklist=request.checklist,
                        exemplars=self.exemplars)[0]
                recipe, body = self._body(exc.tokens)
                if self.handle is None:
                    from ..decoding import violations
                    body["constraints_satisfied"] = not violations(
                        self.config.constraints, recipe.raw_text,
                        service.catalog)
                body["partial"] = True
                body["deadline_ms"] = exc.deadline_ms
                return exc.tokens, body
            recipe, body = self._body(new_ids)
            if self.handle is not None and self.config.constraints is not None:
                from ..decoding import violations
                problems = violations(self.config.constraints,
                                      recipe.raw_text, service.catalog)
                body["constraints_satisfied"] = not problems
                if problems:
                    body["constraint_violations"] = problems
            body.update(extra)
            return new_ids, body
        finally:
            self.close()

    def _body(self, new_ids) -> tuple:
        """``(recipe, body)``: the parsed recipe plus the retrieval
        surface (payload-only: the novelty score and flags never alter
        the generation)."""
        service = self.service
        recipe = service.pipeline.finish_recipe(
            self.prompt_text, new_ids, self.request.names,
            elapsed=service.registry.clock.now() - self.started_at)
        body = {
            "title": recipe.title,
            "ingredients": recipe.ingredients,
            "instructions": recipe.instructions,
            "is_valid": recipe.is_valid,
            "ingredient_coverage": recipe.ingredient_coverage,
            "generation_seconds": recipe.generation_seconds,
        }
        if service.retrieval_index is None:
            return recipe, body
        retrieval_degraded = self.retrieval_degraded
        try:
            body["novelty"] = service.retrieval_index.novelty(
                recipe.raw_text).to_dict()
        except Exception:  # noqa: BLE001 - degrade, never fail the request
            service._retrieval_degradations.inc()
            retrieval_degraded = True
        body["retrieved_k"] = len(self.exemplars) if self.exemplars else 0
        if retrieval_degraded:
            body["retrieval_degraded"] = True
        return recipe, body

    def close(self) -> None:
        """Give the request up: cancel a decode still running and
        release the admission cost.  Idempotent; :meth:`finish` closes.
        One thread at a time owns a started request (the transport, or
        the job thread once the job queue handed it over), so the
        ``released`` check needs no lock."""
        if self.handle is not None and not self.handle.done:
            self.handle.cancel()
        if not self.released:
            self.released = True
            self.service.release(self.request.cost)
