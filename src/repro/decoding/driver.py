"""Constrained/search-guided generation driver.

One entry point — :func:`run_constrained_generation` — shared by the
HTTP backend (which wires ``submit`` to its supervised engine) and
``repro generate`` (which defaults to the sequential decoder).  It owns the plumbing the two callers would
otherwise duplicate: building fresh grammar/constraint processors per
decode, routing ``strategy: "mcts"`` through :class:`MCTSDecoder`,
re-checking single-shot outputs against the text-level predicate (with
deterministic seed-bumped retries for sampling), and shaping the
``search``/``constraints_satisfied`` response fields.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple

from ..models.generation import GenerationConfig
from ..models import generate as sequential_generate
from ..obs import MetricsRegistry
from .constraints import Constraints, PhraseBlocker, violations
from .grammar import GrammarMask, RecipeGrammar
from .mcts import MCTSDecoder, SearchResult
from .reward import RecipeReward

#: Deterministic seed stride between single-shot retry attempts.
RETRY_SEED_STRIDE = 104_729

#: Sampling attempts before accepting a still-violating output (greedy
#: is deterministic and gets exactly one).
MAX_ATTEMPTS = 3

_GRAMMAR_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def grammar_for(tokenizer) -> RecipeGrammar:
    """The (cached) compiled grammar for one tokenizer."""
    grammar = _GRAMMAR_CACHE.get(tokenizer)
    if grammar is None:
        grammar = RecipeGrammar(tokenizer)
        _GRAMMAR_CACHE[tokenizer] = grammar
    return grammar


def build_constrained_processors(
        tokenizer, config: GenerationConfig,
        constraints: Optional[Constraints],
        catalog=None, registry: Optional[MetricsRegistry] = None,
        preamble: Sequence[int] = (),
        budget: Optional[int] = None,
        user_processors: Sequence = ()) -> list:
    """Fresh processor chain for one constrained decode (or rollout)."""
    budget = config.max_new_tokens if budget is None else budget
    processors = list(user_processors)
    processors.append(GrammarMask(grammar_for(tokenizer), budget,
                                  preamble=preamble, registry=registry))
    if constraints is not None:
        banned = constraints.banned_names(catalog)
        if banned:
            counter = None
            if registry is not None:
                counter = registry.counter(
                    "decoding_constraint_rejections_total",
                    help="Steps where a constraint mask refused the "
                         "completion of a banned phrase").labels()
            processors.append(PhraseBlocker(tokenizer, banned,
                                            preamble=preamble,
                                            rejection_counter=counter))
    return processors


def run_constrained_generation(
        pipeline, names: Sequence[str], config: GenerationConfig,
        *, checklist: bool = False,
        exemplars: Optional[Sequence[str]] = None,
        submit: Optional[Callable] = None,
        catalog=None, retrieval_index=None,
        registry: Optional[MetricsRegistry] = None,
        deadline_ms: Optional[float] = None
) -> Tuple[str, List[int], "GenerationConfig", dict]:
    """Decode under grammar + constraints; MCTS when asked.

    Returns ``(prompt_text, new_token_ids, config, info)`` so the
    caller finishes the recipe with its own timing
    (:meth:`~repro.core.pipeline.Ratatouille.finish_recipe`).  ``info``
    carries the response surface: ``constraints_satisfied``, and for
    MCTS a ``search`` block plus ``search_degraded`` when the reward
    fault point fired.  ``submit(prompt_ids, config, processors,
    deadline_ms)`` defaults to the in-process sequential decoder.
    """
    constraints = config.constraints
    prompt_text, prompt_ids, config, user_processors = (
        pipeline.prepare_prompt(names, generation=config,
                                checklist=checklist, exemplars=exemplars))
    tokenizer = pipeline.tokenizer

    if submit is None:
        def submit(prompt, cfg, processors, _deadline_ms):
            return sequential_generate(pipeline.model, prompt, cfg,
                                       processors=processors)

    def fresh_processors(preamble: Sequence[int], budget: int) -> list:
        # prepare_prompt built the user processors (checklist bonus)
        # once; they are stateful, so every extra decode re-derives
        # them the same way rather than sharing instances.
        user = user_processors
        if preamble or budget != config.max_new_tokens:
            user = pipeline.prepare_prompt(
                names, generation=replace(config),
                checklist=checklist, exemplars=exemplars)[3]
        return build_constrained_processors(
            tokenizer, config, constraints, catalog=catalog,
            registry=registry, preamble=preamble, budget=budget,
            user_processors=user)

    def raw_text_of(new_ids: Sequence[int]) -> str:
        return f"{prompt_text} {tokenizer.decode(list(new_ids))}"

    if config.strategy == "mcts":
        scorer = RecipeReward(names, constraints=constraints,
                              catalog=catalog,
                              retrieval_index=retrieval_index)
        satisfies = None
        if constraints is not None:
            def satisfies(ids):
                return not violations(constraints, raw_text_of(ids), catalog)
        decoder = MCTSDecoder(
            submit=submit,
            build_processors=fresh_processors,
            reward=lambda ids: scorer(raw_text_of(ids)),
            satisfies=satisfies,
            registry=registry,
            clock=registry.clock if registry is not None else None)
        result: SearchResult = decoder.search(prompt_ids, config,
                                              deadline_ms=deadline_ms)
        info = {
            "search": {
                "strategy": "mcts",
                "rollouts": result.rollouts,
                "nodes_expanded": result.nodes_expanded,
                "prompt_tokens_submitted": result.prompt_tokens_submitted,
            },
            "constraints_satisfied": not violations(
                constraints, raw_text_of(result.tokens), catalog),
        }
        if result.reward is not None:
            info["search"]["reward"] = result.reward.as_dict()
        if result.search_degraded:
            info["search_degraded"] = True
        return prompt_text, result.tokens, config, info

    # Single-shot grammar/constraint decoding: the masks block
    # canonical (and surface-merged) spellings of banned names during
    # the decode; the text predicate re-checks the result and
    # deterministic seed-bumped retries close the remaining subword
    # loophole.  A violating *greedy* decode is deterministic, so its
    # retries switch to seeded sampling — constraint satisfaction
    # outranks greediness, and the fallback is still reproducible.
    attempts = 1 if constraints is None else MAX_ATTEMPTS
    new_ids: List[int] = []
    problems: List[str] = []
    for attempt in range(attempts):
        if attempt == 0:
            cfg = config
        else:
            cfg = replace(
                config,
                strategy=("sample" if config.strategy == "greedy"
                          else config.strategy),
                seed=config.seed + RETRY_SEED_STRIDE * attempt)
        processors = fresh_processors((), config.max_new_tokens)
        new_ids = submit(prompt_ids, cfg, processors, deadline_ms)
        problems = violations(constraints, raw_text_of(new_ids), catalog)
        if not problems:
            break
    info = {"constraints_satisfied": not problems}
    if problems:
        info["constraint_violations"] = problems
    return prompt_text, new_ids, config, info
