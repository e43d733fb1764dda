"""The one generation path behind the backend's three transports.

:class:`GenerationService` parses a payload once (``ValueError`` → 400
before any model work) and, once the transport admitted it, takes it
through retrieve → prepare → decode → response body.  :mod:`.backend`
only maps the result — or an exception in :data:`ERROR_STATUS` — onto a
JSON, job or SSE envelope (``docs/ARCHITECTURE.md``, "The request path").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional

from ..core.pipeline import Ratatouille
from ..decoding import (MIN_BUDGET, apply_constraints_to_prompt,
                        build_constrained_processors, parse_constraints,
                        run_constrained_generation, violations)
from ..models import GenerationConfig
from ..obs import MetricsRegistry
from ..recipedb import IngredientCatalog
from ..resilience import AdmissionController, OverloadShedError
from ..resilience.supervisor import EngineSupervisor, EngineUnavailableError
from ..serving import (DeadlineExceededError, EngineCrashedError,
                       EngineQueueFullError, EngineStoppedError)

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


#: The one error → HTTP status table (``docs/ARCHITECTURE.md``).
#: ``OverloadShedError`` also sets ``Retry-After``.  A crash the
#: supervisor could not retry (restart budget spent) is 502, not 503:
#: output is deterministic, so an idempotent resend (the client
#: ``RetryPolicy``) to another backend returns the identical recipe.
ERROR_STATUS = {
    DeadlineExceededError: 504,
    EngineQueueFullError: 429,
    OverloadShedError: 503,
    EngineCrashedError: 502,
    EngineStoppedError: 503,
    EngineUnavailableError: 503,
}

_CONFIG_FIELDS = (
    ("max_new_tokens", int, 220),
    ("strategy", str, "sample"),
    ("temperature", float, 0.8),
    ("top_k", int, 20),
    ("top_p", float, 1.0),
    ("beam_size", int, 4),
    ("length_penalty", float, 0.7),
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


def _parse_generation_request(payload: dict,
                              max_new_tokens_cap: int = MAX_NEW_TOKENS_CAP,
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
        raw = payload.get(name, default)
        try:
            values[name] = cast(raw)
        except (TypeError, ValueError):
            raise ValueError(
                f"'{name}' must be a {cast.__name__}, got {raw!r}") from None
    config = GenerationConfig(**values)
    config.validate()
    if config.max_new_tokens > max_new_tokens_cap:
        raise ValueError(
            f"max_new_tokens is capped at {max_new_tokens_cap} "
            f"(got {config.max_new_tokens})")
    if config.speculative_k > MAX_SPECULATIVE_K:
        raise ValueError(
            f"speculative_k is capped at {MAX_SPECULATIVE_K} "
            f"(got {config.speculative_k})")
    raw_constraints = payload.get("constraints")
    if raw_constraints is not None:
        constraints = parse_constraints(raw_constraints)
        if config.strategy == "beam":
            raise ValueError(
                "constrained decoding does not support beam search; "
                "use greedy, sample, or mcts")
        config.constraints = constraints
        names = apply_constraints_to_prompt(names, constraints, catalog,
                                            MAX_INGREDIENTS)
    if config.constraints is not None or config.strategy == "mcts":
        if config.max_new_tokens < MIN_BUDGET:
            raise ValueError(
                f"constrained decoding needs max_new_tokens >= "
                f"{MIN_BUDGET} to close the recipe grammar "
                f"(got {config.max_new_tokens})")
    if config.strategy == "mcts" and config.mcts_rollouts > max_mcts_rollouts:
        raise ValueError(
            f"mcts_rollouts is capped at {max_mcts_rollouts} "
            f"(got {config.mcts_rollouts})")
    return names, config, bool(payload.get("checklist", False))


def _admission_cost(config: GenerationConfig) -> int:
    """Token-equivalents one request may cost the serving engine.

    MCTS decodes up to ``mcts_rollouts`` full rollouts plus the
    degraded-fallback decode, so it is charged the whole tree, not one
    decode — otherwise a saturated server would admit a request that
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

    ``engine`` is the backend's one supervised engine; the other fields
    are the defaults and caps ``create_backend`` resolved.
    """

    pipeline: Ratatouille
    engine: EngineSupervisor
    catalog: IngredientCatalog
    registry: MetricsRegistry
    admission: Optional[AdmissionController] = None
    retrieval_index: Any = None
    default_retrieve_k: int = 0
    default_deadline_ms: Optional[float] = None
    default_speculative_k: int = 0
    max_new_tokens_cap: int = MAX_NEW_TOKENS_CAP
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
            payload, self.max_new_tokens_cap, self.default_speculative_k,
            catalog=self.catalog, max_mcts_rollouts=self.max_mcts_rollouts)
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        else:
            try:
                deadline_ms = float(deadline_ms)
            except (TypeError, ValueError):
                raise ValueError("'deadline_ms' must be a number, got "
                                 f"{deadline_ms!r}") from None
            if deadline_ms <= 0:
                raise ValueError("'deadline_ms' must be > 0")
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
            allow_partial=bool(payload.get("partial", False)),
            cost=_admission_cost(config))

    def admit(self, cost: int) -> None:
        """Admit ``cost`` tokens of work or raise ``OverloadShedError``.

        Every successful ``admit`` is paired with one :meth:`release` —
        by :meth:`run` / :meth:`stream` once they have the request,
        else by the caller.
        """
        if self.draining:
            # Retrying clients land on the replacement process.
            raise OverloadShedError("server is draining for shutdown", 1)
        if self.admission is not None:
            self.admission.try_acquire(cost)

    def release(self, cost: int) -> None:
        if self.admission is not None:
            self.admission.release(cost)

    def _decode(self, prompt_ids, config, processors, deadline_ms,
                stream: bool = False):
        """``(tokens | handle, degraded)`` from the supervised engine: a
        streamable handle, or the finished tokens — which only the
        sequential fallback marks ``"degraded": true``."""
        if stream:
            return self.engine.submit(prompt_ids, config, processors,
                                      deadline_ms=deadline_ms), False
        return self.engine.generate_ex(prompt_ids, config, processors,
                                       deadline_ms=deadline_ms)

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

    def _body(self, request: GenerationRequest, prompt_text: str, new_ids,
              start: float, exemplars, retrieval_degraded: bool) -> tuple:
        """``(recipe, body)``: the parsed recipe plus the retrieval
        surface (payload-only: the novelty score and flags never alter
        the generation)."""
        recipe = self.pipeline.finish_recipe(
            prompt_text, new_ids, request.names,
            elapsed=self.registry.clock.now() - start)
        body = {
            "title": recipe.title,
            "ingredients": recipe.ingredients,
            "instructions": recipe.instructions,
            "is_valid": recipe.is_valid,
            "ingredient_coverage": recipe.ingredient_coverage,
            "generation_seconds": recipe.generation_seconds,
        }
        if self.retrieval_index is None:
            return recipe, body
        try:
            body["novelty"] = self.retrieval_index.novelty(
                recipe.raw_text).to_dict()
        except Exception:  # noqa: BLE001 - degrade, never fail the request
            self._retrieval_degradations.inc()
            retrieval_degraded = True
        body["retrieved_k"] = len(exemplars) if exemplars else 0
        if retrieval_degraded:
            body["retrieval_degraded"] = True
        return recipe, body

    def _complete(self, request: GenerationRequest, allow_partial: bool
                  ) -> tuple:
        """Decode to completion; returns ``(new_ids, body)``.

        Plain requests are one decode call; constrained and MCTS ones
        issue their rollouts and retries through the same call.
        Deadline expiry becomes a partial body (when opted in and
        tokens exist) or propagates: 504 / failed job / terminal event.
        """
        config = request.config
        exemplars, retrieval_degraded = self._fetch_exemplars(request)
        constrained = (config.constraints is not None
                       or config.strategy == "mcts")
        degraded = False

        def submit(prompt_ids, cfg, processors, deadline_ms):
            nonlocal degraded
            new_ids, fell_back = self._decode(prompt_ids, cfg, processors,
                                              deadline_ms)
            degraded = degraded or fell_back
            return new_ids

        prompt_text, extra = None, {}
        try:
            if constrained:
                start = self.registry.clock.now()
                prompt_text, new_ids, config, extra = (
                    run_constrained_generation(
                        self.pipeline, request.names, config,
                        checklist=request.checklist, exemplars=exemplars,
                        submit=submit, catalog=self.catalog,
                        retrieval_index=self.retrieval_index,
                        registry=self.registry,
                        deadline_ms=request.deadline_ms))
            else:
                prompt_text, prompt_ids, config, processors = (
                    self.pipeline.prepare_prompt(
                        request.names, generation=config,
                        checklist=request.checklist, exemplars=exemplars))
                start = self.registry.clock.now()
                new_ids = submit(prompt_ids, config, processors,
                                 request.deadline_ms)
        except DeadlineExceededError as exc:
            if not (allow_partial and exc.tokens):
                raise
            if prompt_text is None:
                # The constrained driver raised before returning the
                # prompt; re-derive it (prepare_prompt is deterministic
                # given the exemplars).
                prompt_text = self.pipeline.prepare_prompt(
                    request.names, generation=config,
                    checklist=request.checklist, exemplars=exemplars)[0]
            recipe, body = self._body(request, prompt_text, exc.tokens, start,
                                      exemplars, retrieval_degraded)
            if constrained:
                body["constraints_satisfied"] = not violations(
                    config.constraints, recipe.raw_text, self.catalog)
            body["partial"] = True
            body["deadline_ms"] = exc.deadline_ms
            return exc.tokens, body
        _, body = self._body(request, prompt_text, new_ids, start,
                             exemplars, retrieval_degraded)
        body.update(extra)
        if degraded:
            body["degraded"] = True
        return new_ids, body

    def run(self, request: GenerationRequest) -> dict:
        """Response body for an admitted request; releases its cost."""
        try:
            return self._complete(request, request.allow_partial)[1]
        finally:
            self.release(request.cost)

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
        config = request.config
        tokenizer = self.pipeline.tokenizer
        handle = None
        try:
            if config.strategy != "mcts":
                exemplars, retrieval_degraded = self._fetch_exemplars(request)
                start = self.registry.clock.now()
                prompt_text, prompt_ids, config, processors = (
                    self.pipeline.prepare_prompt(
                        request.names, generation=config,
                        checklist=request.checklist, exemplars=exemplars))
                if config.constraints is not None:
                    processors = build_constrained_processors(
                        tokenizer, config, config.constraints,
                        catalog=self.catalog, registry=self.registry,
                        user_processors=processors)
                handle, _ = self._decode(prompt_ids, config, processors,
                                         request.deadline_ms, stream=True)
        except BaseException:
            self.release(request.cost)
            raise

        def events():
            emitted = 0
            try:
                try:
                    if handle is None:
                        tokens, body = self._complete(request,
                                                      allow_partial=False)
                    else:
                        tokens = handle.tokens()
                    for token in tokens:
                        emitted += 1
                        yield {"token": int(token),
                               "text": tokenizer.decode([int(token)])}
                    if handle is not None:
                        recipe, body = self._body(
                            request, prompt_text, handle.result(), start,
                            exemplars, retrieval_degraded)
                        if config.constraints is not None:
                            problems = violations(config.constraints,
                                                  recipe.raw_text,
                                                  self.catalog)
                            body["constraints_satisfied"] = not problems
                            if problems:
                                body["constraint_violations"] = problems
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
                self.release(request.cost)
                if handle is not None and not handle.done:
                    handle.cancel()

        return events()
