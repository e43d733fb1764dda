"""Command-line interface: the full pipeline as shell commands.

Mirrors how the paper's system is operated end-to-end::

    python -m repro.cli corpus --num 300 --out data/corpus.jsonl
    python -m repro.cli preprocess --input data/corpus.jsonl --out data/texts.txt
    python -m repro.cli train --texts data/texts.txt --model distilgpt2 \
        --steps 400 --out checkpoints/distil
    python -m repro.cli generate --checkpoint checkpoints/distil \
        --ingredients "chicken breast, garlic, basmati rice"
    python -m repro.cli evaluate --checkpoint checkpoints/distil \
        --texts data/texts.txt
    python -m repro.cli info

Every command is a thin shell over the library API, so anything the
CLI does is equally scriptable from Python.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core import PipelineConfig, Ratatouille
from .core.registry import get_spec, model_names
from .models import GenerationConfig
from .preprocess import PreprocessConfig, preprocess
from .recipedb import export_csv, generate_corpus, load_jsonl, save_jsonl
from .training import TrainingConfig
from .webapp.framework import Server
from .webapp.serve import add_backend_arguments, build_backend, serve


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Ratatouille recipe generation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="synthesize a RecipeDB corpus")
    corpus.add_argument("--num", type=int, default=300)
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument("--out", required=True, help="JSONL output path")
    corpus.add_argument("--csv", default=None, help="also export CSV here")
    corpus.add_argument("--duplicate-rate", type=float, default=0.0)
    corpus.add_argument("--incomplete-rate", type=float, default=0.0)
    corpus.add_argument("--oversize-rate", type=float, default=0.0)

    prep = sub.add_parser("preprocess", help="clean + serialize a corpus")
    prep.add_argument("--input", required=True, help="JSONL corpus path")
    prep.add_argument("--out", required=True,
                      help="output path (one training text per line)")
    prep.add_argument("--max-chars", type=int, default=2000)
    prep.add_argument("--no-number-tokens", action="store_true")

    train = sub.add_parser("train", help="train a model on texts")
    train.add_argument("--texts", required=True,
                       help="file with one training text per line")
    train.add_argument("--model", default="distilgpt2", choices=model_names())
    train.add_argument("--steps", type=int, default=400)
    train.add_argument("--batch-size", type=int, default=8)
    train.add_argument("--learning-rate", type=float, default=3e-3)
    train.add_argument("--seq-len", type=int, default=128)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True, help="checkpoint directory")

    gen = sub.add_parser("generate", help="generate a recipe")
    gen.add_argument("--checkpoint", required=True)
    gen.add_argument("--ingredients", required=True,
                     help="comma-separated ingredient list")
    gen.add_argument("--max-new-tokens", type=int, default=220)
    gen.add_argument("--temperature", type=float, default=0.8)
    gen.add_argument("--top-k", type=int, default=20)
    gen.add_argument("--greedy", action="store_true")
    gen.add_argument("--checklist", action="store_true")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--strategy", default=None,
                     choices=["greedy", "sample", "beam", "mcts"],
                     help="decoding strategy (default: sample, or greedy "
                          "with --greedy; mcts = search-guided decoding, "
                          "docs/DECODING.md)")
    gen.add_argument("--constraints-json", default=None,
                     help='hard constraints as JSON, e.g. \'{"diet": '
                          '"vegan", "exclude_ingredients": ["peanut"]}\' '
                          "(keys: include_ingredients, "
                          "exclude_ingredients, diet, max_calories); "
                          "output is grammar-constrained to the tagged "
                          "recipe format")
    gen.add_argument("--mcts-rollouts", type=int, default=12,
                     help="rollouts per MCTS search (with --strategy mcts)")
    gen.add_argument("--mcts-c-puct", type=float, default=1.4,
                     help="PUCT exploration constant (with --strategy mcts)")

    ev = sub.add_parser("evaluate", help="BLEU-evaluate a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--texts", required=True)
    ev.add_argument("--samples", type=int, default=8)
    ev.add_argument("--seed", type=int, default=0)

    add_backend_arguments(sub.add_parser(
        "serve", help="run the backend API (continuous-batching engine)"))

    index = sub.add_parser(
        "index", help="build + persist a semantic recipe index")
    index.add_argument("--input", default=None,
                       help="JSONL corpus path (default: synthesize)")
    index.add_argument("--num", type=int, default=300,
                       help="corpus size when synthesizing")
    index.add_argument("--seed", type=int, default=0,
                       help="corpus seed when synthesizing")
    index.add_argument("--out", required=True, help="index directory")

    search = sub.add_parser(
        "search", help="query a persisted semantic recipe index")
    search.add_argument("--index", required=True, help="index directory")
    search.add_argument("--query", default=None, help="free-text query")
    search.add_argument("--ingredients", default=None,
                        help="comma-separated ingredient list (alternative "
                             "to --query)")
    search.add_argument("--k", type=int, default=5)
    search.add_argument("--text", action="store_true",
                        help="print the matched recipe texts too")

    metrics = sub.add_parser(
        "metrics", help="inspect observability metrics")
    metrics.add_argument("--url", default=None,
                         help="fetch /api/metrics from a running backend "
                              "(e.g. http://127.0.0.1:8000)")
    metrics.add_argument("--demo", action="store_true",
                         help="run a short instrumented generation locally "
                              "and dump the metrics it produced")
    metrics.add_argument("--format", choices=("text", "json"), default="text")
    metrics.add_argument("--trace", action="store_true",
                         help="include span trees (demo / json only)")

    sub.add_parser("info", help="library and registry information")
    return parser


def _read_texts(path: str) -> List[str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    texts = [line for line in lines if line.strip()]
    if not texts:
        raise SystemExit(f"error: no texts found in {path}")
    return texts


def cmd_corpus(args: argparse.Namespace) -> int:
    recipes = generate_corpus(
        args.num, seed=args.seed, duplicate_rate=args.duplicate_rate,
        incomplete_rate=args.incomplete_rate, oversize_rate=args.oversize_rate)
    count = save_jsonl(recipes, args.out)
    print(f"wrote {count} recipes to {args.out}")
    if args.csv:
        export_csv(recipes, args.csv)
        print(f"exported CSV to {args.csv}")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    recipes = load_jsonl(args.input)
    config = PreprocessConfig(
        max_chars=args.max_chars,
        number_special_tokens=not args.no_number_tokens)
    texts, report = preprocess(recipes, config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(texts) + "\n", encoding="utf-8")
    print(f"in: {report.cleaning.total_in}  "
          f"removed: {report.cleaning.total_removed} "
          f"(incomplete {report.cleaning.incomplete_removed}, "
          f"duplicates {report.cleaning.duplicates_removed})  "
          f"truncated: {report.truncated}  out: {report.texts_out}")
    print(f"wrote {len(texts)} training texts to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    texts = _read_texts(args.texts)
    config = PipelineConfig(
        model_name=args.model,
        seq_len=args.seq_len,
        corpus_seed=args.seed,
        model_seed=args.seed,
        training=TrainingConfig(
            max_steps=args.steps, batch_size=args.batch_size,
            learning_rate=args.learning_rate, eval_every=max(args.steps // 4, 1)))
    app = Ratatouille.from_texts(texts, config=config)
    result = app.training_result
    app.save(args.out)
    print(f"{get_spec(args.model).display_name}: {result.steps} steps, "
          f"loss {result.train_losses[0]:.3f} -> {result.final_train_loss:.3f}, "
          f"{result.tokens_per_second:.0f} tokens/s")
    print(f"checkpoint saved to {args.out}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    ingredients = [part.strip() for part in args.ingredients.split(",")
                   if part.strip()]
    if not ingredients:
        raise SystemExit("error: --ingredients parsed to an empty list")
    strategy = args.strategy or ("greedy" if args.greedy else "sample")
    constraints = None
    if args.constraints_json:
        import json

        from .decoding import parse_constraints
        try:
            raw = json.loads(args.constraints_json)
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"error: --constraints-json is not valid JSON: {exc}")
        try:
            constraints = parse_constraints(raw)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        if strategy == "beam":
            raise SystemExit("error: constrained decoding does not "
                             "support beam search")
    app = Ratatouille.load(args.checkpoint)
    config = GenerationConfig(
        max_new_tokens=args.max_new_tokens, strategy=strategy,
        temperature=args.temperature, top_k=args.top_k, seed=args.seed,
        mcts_rollouts=args.mcts_rollouts, mcts_c_puct=args.mcts_c_puct)
    if constraints is not None or strategy == "mcts":
        import time

        from .decoding import (apply_constraints_to_prompt,
                               run_constrained_generation)
        from .recipedb import default_catalog
        catalog = default_catalog()
        config.constraints = constraints
        try:
            ingredients = apply_constraints_to_prompt(
                ingredients, constraints, catalog)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        start = time.perf_counter()
        prompt_text, new_ids, config, info = run_constrained_generation(
            app, ingredients, config, checklist=args.checklist,
            catalog=catalog)
        recipe = app.finish_recipe(prompt_text, new_ids, ingredients,
                                   elapsed=time.perf_counter() - start)
        print(recipe.pretty())
        status = [f"valid={recipe.is_valid}",
                  f"coverage={recipe.ingredient_coverage:.0%}",
                  f"latency={recipe.generation_seconds:.2f}s"]
        if constraints is not None:
            status.append(
                f"constraints_satisfied={info['constraints_satisfied']}")
        search = info.get("search")
        if search is not None:
            status.append(f"rollouts={search['rollouts']}")
            status.append(f"nodes={search['nodes_expanded']}")
            reward = search.get("reward")
            if reward is not None:
                status.append(f"reward={reward['total']:.3f}")
        if info.get("search_degraded"):
            status.append("search_degraded=True")
        print(f"\n[{' '.join(status)}]")
        return 0
    recipe = app.generate(ingredients, config, checklist=args.checklist)
    print(recipe.pretty())
    print(f"\n[valid={recipe.is_valid} coverage={recipe.ingredient_coverage:.0%} "
          f"latency={recipe.generation_seconds:.2f}s]")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    app = Ratatouille.load(args.checkpoint)
    texts = _read_texts(args.texts)
    bleu, _ = app.evaluate_bleu(
        texts, max_samples=args.samples,
        generation=GenerationConfig(strategy="greedy", max_new_tokens=1),
        seed=args.seed)
    print(f"corpus BLEU over {min(args.samples, len(texts))} samples: {bleu:.3f}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the backend API (``python -m repro.webapp.serve backend``)."""
    return serve(Server(build_backend(args), host=args.host, port=args.port))


def cmd_index(args: argparse.Namespace) -> int:
    """Build the semantic recipe index and persist it to a directory."""
    from .retrieval import RecipeIndex

    if args.input:
        recipes = load_jsonl(args.input)
        source = args.input
    else:
        recipes = generate_corpus(args.num, seed=args.seed)
        source = f"synthesized corpus (num={args.num}, seed={args.seed})"
    index = RecipeIndex.from_recipes(recipes)
    index.save(args.out)
    stats = index.stats()
    print(f"indexed {stats['documents']} recipes from {source}")
    print(f"  dim={stats['dim']}  vectors: {stats['vector_bytes']} bytes")
    print(f"saved to {args.out}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    """Query a persisted index from the shell (no server needed)."""
    from .retrieval import RecipeIndex, query_from_ingredients

    if bool(args.query) == bool(args.ingredients):
        raise SystemExit("error: pass exactly one of --query/--ingredients")
    query = args.query
    if args.ingredients:
        names = [part.strip() for part in args.ingredients.split(",")
                 if part.strip()]
        if not names:
            raise SystemExit("error: --ingredients parsed to an empty list")
        query = query_from_ingredients(names)
    index = RecipeIndex.load(args.index)
    hits = index.search(query, k=args.k)
    print(f"top {len(hits)} of {len(index)} recipes:")
    for hit in hits:
        print(f"  {hit.rank + 1:2d}. [{hit.score:.4f}] "
              f"#{hit.doc_id} {hit.title}")
        if args.text:
            print(f"      {hit.text}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Inspect metrics: scrape a running backend or run a local demo."""
    from .obs import (MetricsRegistry, Tracer, render_json_text, render_text)

    if args.url:
        from urllib.request import urlopen
        fmt = "text" if args.format == "text" else "json"
        url = f"{args.url.rstrip('/')}/api/metrics?format={fmt}"
        if args.trace and fmt == "json":
            url += "&trace=1"
        with urlopen(url, timeout=10) as response:
            print(response.read().decode("utf-8"))
        return 0
    if not args.demo:
        raise SystemExit("error: pass --url for a running backend "
                         "or --demo for a local instrumented run")

    from .models import GenerationConfig, generate
    from .models.lstm import LSTMConfig, LSTMLanguageModel

    registry, tracer = MetricsRegistry(), Tracer()
    model = LSTMLanguageModel(LSTMConfig(vocab_size=32, d_embed=8,
                                         d_hidden=16, num_layers=1,
                                         dropout=0.0))
    for strategy in ("greedy", "sample"):
        generate(model, [1, 2, 3],
                 GenerationConfig(strategy=strategy, max_new_tokens=12),
                 registry=registry, tracer=tracer)
    # Exercise the serving engine too, so engine_* metrics show up.
    from .serving import InferenceEngine
    with InferenceEngine(model, registry=registry, tracer=tracer) as engine:
        handles = [engine.submit([1, 2, 3],
                                 GenerationConfig(strategy="sample",
                                                  max_new_tokens=12, seed=s))
                   for s in range(4)]
        for handle in handles:
            handle.result(timeout=30)
    if args.format == "json":
        print(render_json_text(registry, tracer if args.trace else None))
    else:
        print(render_text(registry), end="")
        if args.trace:
            for root in tracer.roots():
                print(root.tree())
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from . import __version__
    print(f"repro {__version__} — Ratatouille reproduction")
    print("registered models:")
    for name in model_names():
        spec = get_spec(name)
        paper = (f"paper BLEU {spec.paper_bleu}"
                 if spec.paper_bleu == spec.paper_bleu else "future work")
        print(f"  {name:12s} {spec.display_name:22s} ({paper})")
    return 0


_COMMANDS = {
    "corpus": cmd_corpus,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "serve": cmd_serve,
    "index": cmd_index,
    "search": cmd_search,
    "metrics": cmd_metrics,
    "info": cmd_info,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
