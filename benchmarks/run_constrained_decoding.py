"""Gate benchmark: constrained decoding is valid; MCTS beats greedy.

Runs the full constrained/search-guided decoding stack on a small
trained pipeline with the serving engine underneath, and gates three
claims (``docs/DECODING.md``):

* **Validity** — every constrained decode (greedy and sampled, across
  prompt x constraint combinations) parses as a recipe AND satisfies
  its constraints.  Gate: 100%.
* **Search quality** — ``strategy: "mcts"`` must earn a mean recipe
  reward >= ``--threshold`` (default 1.15) times the constrained
  greedy baseline on the same prompts at the same per-rollout token
  budget.  Both sides are deterministic (seeded search, deterministic
  reward), so this is an exact comparison, not a timing race.
* **Engine reuse** — within one search tree, >= ``--cache-gate``
  (default 0.5) of all prompt tokens submitted to the engine must be
  served from the prefix KV cache (sibling rollouts share the
  prompt+prefix, so after the first prefill the trie serves the rest).

Writes ``benchmarks/results/BENCH_constrained.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_constrained_decoding.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.core import PipelineConfig, Ratatouille
from repro.decoding import (RecipeReward, apply_constraints_to_prompt,
                            parse_constraints, run_constrained_generation,
                            violations)
from repro.models import GenerationConfig
from repro.obs import MetricsRegistry
from repro.recipedb import default_catalog
from repro.serving import InferenceEngine
from repro.training import TrainingConfig

RESULTS_PATH = (pathlib.Path(__file__).parent / "results"
                / "BENCH_constrained.json")

#: prompt ingredients x constraints — the benchmark workload.
WORKLOAD = [
    (["onion", "tomato"],
     {"exclude_ingredients": ["garlic"]}),
    (["potato", "carrot"],
     {"diet": "vegetarian", "include_ingredients": ["onion"]}),
    (["rice", "bell pepper"],
     {"diet": "vegan"}),
    (["pasta", "basil"],
     {"exclude_ingredients": ["mushroom"], "max_calories": 2500}),
]


def _decode(pipeline, engine, names, config, catalog, registry):
    def submit(prompt_ids, cfg, processors, deadline_ms):
        return engine.generate(prompt_ids, cfg, processors=processors,
                               deadline_ms=deadline_ms)

    return run_constrained_generation(pipeline, names, config,
                                      submit=submit, catalog=catalog,
                                      registry=registry)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-new-tokens", type=int, default=48,
                        help="token budget per decode / per rollout")
    parser.add_argument("--rollouts", type=int, default=12,
                        help="MCTS rollouts per request")
    parser.add_argument("--seeds", type=int, default=3,
                        help="sampled decodes per workload entry in the "
                             "validity phase")
    parser.add_argument("--threshold", type=float, default=1.15,
                        help="required MCTS/greedy mean-reward ratio")
    parser.add_argument("--cache-gate", type=float, default=0.5,
                        help="required within-tree prefix-cache "
                             "hit-token rate")
    args = parser.parse_args(argv)

    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=30, batch_size=4, warmup_steps=5,
                                eval_every=10**9))
    pipeline = Ratatouille.quickstart(model_name="distilgpt2",
                                      num_recipes=60, seed=0, config=config)
    catalog = default_catalog()
    registry = MetricsRegistry()
    hit_tokens = registry.counter(
        "engine_prefix_cache_hit_tokens_total").labels()

    total = valid = satisfied = 0
    greedy_rewards, mcts_rewards, ratios = [], [], []
    tree_hit_rates = []
    with InferenceEngine(pipeline.model, registry=registry) as engine:
        for index, (ingredients, raw_constraints) in enumerate(WORKLOAD):
            constraints = parse_constraints(raw_constraints)
            names = apply_constraints_to_prompt(ingredients, constraints,
                                                catalog)
            scorer = RecipeReward(names, constraints=constraints,
                                  catalog=catalog)

            def reward_of(prompt_text, new_ids):
                raw = f"{prompt_text} " + pipeline.tokenizer.decode(
                    list(new_ids))
                return scorer(raw).total

            # ---- validity: greedy + sampled constrained decodes -----
            runs = [GenerationConfig(max_new_tokens=args.max_new_tokens,
                                     strategy="greedy", seed=0,
                                     constraints=constraints)]
            runs += [GenerationConfig(max_new_tokens=args.max_new_tokens,
                                      strategy="sample", seed=100 + s,
                                      constraints=constraints)
                     for s in range(args.seeds)]
            greedy_reward = None
            for run_config in runs:
                prompt_text, new_ids, _, info = _decode(
                    pipeline, engine, names, run_config, catalog, registry)
                recipe = pipeline.finish_recipe(prompt_text, new_ids, names)
                total += 1
                valid += bool(recipe.is_valid)
                problems = violations(constraints, recipe.raw_text, catalog)
                satisfied += not problems
                if problems or not recipe.is_valid:
                    print(f"INVALID [{index}] {run_config.strategy} "
                          f"seed={run_config.seed}: valid={recipe.is_valid} "
                          f"violations={problems}", file=sys.stderr)
                if run_config.strategy == "greedy":
                    greedy_reward = reward_of(prompt_text, new_ids)

            # ---- search quality + within-tree cache reuse -----------
            hits_before = hit_tokens.value
            mcts_config = GenerationConfig(
                max_new_tokens=args.max_new_tokens, strategy="mcts",
                seed=7, mcts_rollouts=args.rollouts,
                constraints=constraints)
            prompt_text, new_ids, _, info = _decode(
                pipeline, engine, names, mcts_config, catalog, registry)
            recipe = pipeline.finish_recipe(prompt_text, new_ids, names)
            total += 1
            valid += bool(recipe.is_valid)
            problems = violations(constraints, recipe.raw_text, catalog)
            satisfied += not problems
            mcts_reward = info["search"]["reward"]["total"]
            greedy_rewards.append(greedy_reward)
            mcts_rewards.append(mcts_reward)
            ratios.append(mcts_reward / greedy_reward if greedy_reward
                          else float("inf"))
            submitted = info["search"]["prompt_tokens_submitted"]
            tree_hits = hit_tokens.value - hits_before
            tree_hit_rates.append(tree_hits / submitted if submitted else 0.0)
            print(f"[{index}] {ingredients} + {raw_constraints}: "
                  f"greedy={greedy_reward:.3f} mcts={mcts_reward:.3f} "
                  f"({ratios[-1]:.2f}x), cache hit-token rate "
                  f"{tree_hit_rates[-1]:.0%} "
                  f"({tree_hits}/{submitted})")

    mean_greedy = sum(greedy_rewards) / len(greedy_rewards)
    mean_mcts = sum(mcts_rewards) / len(mcts_rewards)
    reward_ratio = mean_mcts / mean_greedy
    hit_rate = min(tree_hit_rates)
    validity = valid / total
    satisfaction = satisfied / total

    result = {
        "workload": {"entries": len(WORKLOAD),
                     "decodes": total,
                     "max_new_tokens": args.max_new_tokens,
                     "rollouts": args.rollouts,
                     "sampled_seeds": args.seeds},
        "parse_valid_rate": validity,
        "constraint_satisfaction_rate": satisfaction,
        "greedy_mean_reward": mean_greedy,
        "mcts_mean_reward": mean_mcts,
        "reward_ratio": reward_ratio,
        "reward_ratio_per_entry": ratios,
        "min_tree_cache_hit_token_rate": hit_rate,
        "tree_cache_hit_token_rates": tree_hit_rates,
        "thresholds": {"reward_ratio": args.threshold,
                       "cache_hit_token_rate": args.cache_gate},
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(result, indent=2) + "\n",
                            encoding="utf-8")

    print(f"validity: {validity:.0%} parse-valid, "
          f"{satisfaction:.0%} constraint-satisfying ({total} decodes)")
    print(f"reward: greedy {mean_greedy:.3f} -> mcts {mean_mcts:.3f} "
          f"({reward_ratio:.2f}x, gate {args.threshold:.2f}x)")
    print(f"cache: worst within-tree hit-token rate {hit_rate:.0%} "
          f"(gate {args.cache_gate:.0%})")
    print(f"[written to {RESULTS_PATH}]")

    failed = False
    if validity < 1.0 or satisfaction < 1.0:
        print("FAIL: constrained decoding produced an invalid or "
              "violating output", file=sys.stderr)
        failed = True
    if reward_ratio < args.threshold:
        print("FAIL: MCTS mean reward below the gate", file=sys.stderr)
        failed = True
    if hit_rate < args.cache_gate:
        print("FAIL: within-tree prefix-cache hit-token rate below the "
              "gate", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK: constrained decoding clears validity, reward and "
          "cache-reuse gates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
