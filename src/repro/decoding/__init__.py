"""Grammar-constrained + search-guided decoding (``docs/DECODING.md``).

Three cooperating layers over the serving stack:

* :mod:`.grammar` — the tagged-format FSM compiled to per-step token
  masks (:class:`RecipeGrammar` / :class:`GrammarMask`), guaranteeing
  every emitted recipe parses;
* :mod:`.constraints` — hard request constraints
  (``include_ingredients`` / ``exclude_ingredients`` / ``diet`` /
  ``max_calories``) over the recipedb substrates, enforced at the
  prompt, the mask, and the text predicate;
* :mod:`.mcts` + :mod:`.reward` — PUCT tree search over decode
  prefixes with a recipe-quality reward, rollouts batched through the
  serving engine so siblings share prefix KV.

:func:`run_constrained_generation` is the shared driver the webapp
backend and the CLI call.
"""

from .._exports import export_lazily

__all__ = [
    "Constraints", "DIET_RULES", "DIETS", "MAX_CONSTRAINT_NAMES",
    "PhraseBlocker", "apply_constraints_to_prompt", "estimate_calories",
    "parse_constraints", "violations",
    "build_constrained_processors", "grammar_for",
    "run_constrained_generation",
    "MIN_BUDGET", "GrammarMask", "RecipeGrammar",
    "EXPANSION_CHUNK", "MAX_CHILDREN", "MCTSDecoder", "SearchResult",
    "NEUTRAL_NOVELTY", "RecipeReward", "RewardBreakdown", "WEIGHTS",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "constraints": ("Constraints", "DIET_RULES", "DIETS",
                    "MAX_CONSTRAINT_NAMES", "PhraseBlocker",
                    "apply_constraints_to_prompt", "estimate_calories",
                    "parse_constraints", "violations"),
    "driver": ("build_constrained_processors", "grammar_for",
               "run_constrained_generation"),
    "grammar": ("MIN_BUDGET", "GrammarMask", "RecipeGrammar"),
    "mcts": ("EXPANSION_CHUNK", "MAX_CHILDREN", "MCTSDecoder", "SearchResult"),
    "reward": ("NEUTRAL_NOVELTY", "RecipeReward", "RewardBreakdown",
               "WEIGHTS"),
})
