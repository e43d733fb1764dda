"""Gate benchmark: the serving engine must beat sequential decoding 2x.

Replays the same 16-request workload (a shared 40-token prompt prefix
+ unique suffixes of 1-8 tokens, so no two neighbouring sequences are
equally long and the gate tests batching of *unequal* rows; mixed token
budgets so sequences retire mid-flight) two ways:

* **sequential** — one ``models.generate`` call after another, the
  pre-engine serving story;
* **engine** — all requests submitted up front to one long-lived
  :class:`~repro.serving.InferenceEngine` at the configured batch
  size, exercising continuous batching, batched prefill and
  prefix-cache reuse.  The engine keeps its prefix cache warm across
  rounds — that *is* the steady-state serving story being measured.

Because the engine is bit-identical to the sequential decoder — cold
or warm — the two runs must produce *exactly* the same tokens,
asserted every round, so the speedup can never come from computing
something different.

Noise handling follows ``run_obs_overhead.py``: interleaved rounds
with GC paused, then two estimators noise deflates in different ways —
the ratio of best-of-N times (immune to slow outlier rounds) and the
median of per-pair ratios (robust while most rounds are clean).  The
gate takes the smaller (a real speedup raises both).

Usage::

    PYTHONPATH=src python benchmarks/run_serving_throughput.py
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time

import numpy as np

from repro.models import GenerationConfig, distilgpt2, generate
from repro.obs import MetricsRegistry, NullRegistry, NullTracer
from repro.serving import EngineConfig, InferenceEngine

VOCAB = 64
SHARED_PREFIX_TOKENS = 40
NUM_REQUESTS = 16


def _build_workload():
    """16 requests sharing a prompt prefix, with unequal suffix
    lengths and staggered budgets."""
    rng = np.random.default_rng(0)
    shared = [int(t) for t in rng.integers(0, VOCAB,
                                           size=SHARED_PREFIX_TOKENS)]
    workload = []
    for index in range(NUM_REQUESTS):
        suffix = [int(t) for t in rng.integers(0, VOCAB,
                                               size=1 + index % 8)]
        # Budgets bracket real recipe lengths (the pipeline default is
        # 220 tokens) and are staggered so sequences retire mid-flight.
        config = GenerationConfig(
            max_new_tokens=160 + (index % 3) * 24,
            strategy="sample", temperature=0.9, top_k=12,
            seed=index)
        workload.append((shared + suffix, config))
    return workload


def _run_sequential(model, workload):
    return [generate(model, prompt, config,
                     registry=NullRegistry(), tracer=NullTracer())
            for prompt, config in workload]


def _run_engine(engine, workload):
    handles = [engine.submit(prompt, config)
               for prompt, config in workload]
    return [handle.result(timeout=300) for handle in handles]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved sequential/engine pairs")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="engine max_batch_size")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="minimum required engine speedup")
    args = parser.parse_args(argv)

    model = distilgpt2(vocab_size=VOCAB, context_length=256)
    model.eval()
    workload = _build_workload()
    total_tokens = sum(config.max_new_tokens for _, config in workload)

    engine = InferenceEngine(
        model, EngineConfig(max_batch_size=args.concurrency),
        registry=NullRegistry(), tracer=NullTracer())
    sequential_times, engine_times, ratios = [], [], []
    try:
        # Warm both paths (allocator, engine thread + cold prefix
        # cache) before timing; the cold pass also proves equality.
        expected = _run_sequential(model, workload)
        if _run_engine(engine, workload) != expected:
            print("FAIL: engine output diverged from sequential decoding",
                  file=sys.stderr)
            return 1

        gc.collect()
        gc.disable()
        try:
            for round_index in range(args.rounds):
                def timed(fn):
                    start = time.perf_counter()
                    out = fn()
                    return time.perf_counter() - start, out
                runs = [
                    ("seq", lambda: _run_sequential(model, workload)),
                    ("eng", lambda: _run_engine(engine, workload)),
                ]
                if round_index % 2:
                    runs.reverse()
                elapsed = {}
                for name, fn in runs:
                    seconds, output = timed(fn)
                    elapsed[name] = seconds
                    if output != expected:
                        print(f"FAIL: {name} output diverged on round "
                              f"{round_index}", file=sys.stderr)
                        return 1
                sequential_times.append(elapsed["seq"])
                engine_times.append(elapsed["eng"])
                ratios.append(elapsed["seq"] / elapsed["eng"])
        finally:
            gc.enable()
    finally:
        engine.stop()

    best_speedup = min(sequential_times) / min(engine_times)
    ratios.sort()
    paired_speedup = ratios[len(ratios) // 4]
    median_speedup = statistics.median(ratios)
    speedup = min(best_speedup, median_speedup)

    # One diagnostic pass with real metrics for the batching story.
    registry = MetricsRegistry()
    with InferenceEngine(model, EngineConfig(max_batch_size=args.concurrency),
                         registry=registry, tracer=NullTracer()) as diag:
        for _ in range(2):  # second pass shows the warm-cache hit rate
            if _run_engine(diag, workload) != expected:
                print("FAIL: diagnostic engine output diverged",
                      file=sys.stderr)
                return 1
        cache = diag.prefix_cache.stats_snapshot()
    occupancy = registry.histogram("engine_batch_occupancy").labels()

    seq_best, eng_best = min(sequential_times), min(engine_times)
    print(f"workload: {NUM_REQUESTS} requests, {total_tokens} tokens, "
          f"shared {SHARED_PREFIX_TOKENS}-token prefix, "
          f"concurrency {args.concurrency}")
    print(f"sequential: {seq_best * 1000:8.1f} ms best "
          f"({total_tokens / seq_best:6.0f} tok/s, {args.rounds} rounds)")
    print(f"engine:     {eng_best * 1000:8.1f} ms best "
          f"({total_tokens / eng_best:6.0f} tok/s)")
    print(f"speedup: {speedup:.2f}x (best-of-{args.rounds} "
          f"{best_speedup:.2f}x, paired median {median_speedup:.2f}x / "
          f"q25 {paired_speedup:.2f}x, gate {args.threshold:.1f}x)")
    print(f"batch occupancy: median {occupancy.percentile(50):.0f} "
          f"of {args.concurrency}; prefix cache: "
          f"{cache['hit_rate']:.0%} hit rate, "
          f"{cache['hit_tokens']} prompt tokens skipped")
    if speedup < args.threshold:
        print("FAIL: continuous batching speedup below gate",
              file=sys.stderr)
        return 1
    print("OK: engine clears the throughput gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
