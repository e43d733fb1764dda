"""Gate benchmark: the inference kernels must beat the Tensor path 1.5x.

Replays the same greedy workload (8 requests of unequal prompt length,
160 new tokens each) through two engines over weight-identical models:

* **baseline** — the continuous-batching engine decoding through the
  Tensor autograd graph (``no_grad``, but every op still builds
  ``Tensor`` nodes and allocates fresh buffers);
* **kernels** — the same engine with ``enable_kernels()``: raw
  ndarray forward over a frozen :class:`~repro.nn.WeightStore`, all
  intermediates carved from preallocated per-step workspace arenas
  (zero allocation after warmup).

The gate is taken at **concurrency 1** — one live row per step, the
per-row decode cost (``Tensor`` nodes, fresh buffers) the kernels were
built to cut.  The same pair at concurrency 8 is measured and written
beside it as ``concurrency_8``, not gated: both paths decode a ragged
batch in one forward there (``docs/SERVING.md`` §2), which amortises
exactly that per-op overhead over eight rows on either side and so
narrows the ratio while raising both throughputs.

The fp32 kernels are contractually **bit-identical** to the Tensor
path (``docs/KERNELS.md``), so every round asserts exact token
equality against the sequential Tensor-path decoder: the speedup can
never come from computing something different.

Noise handling follows ``run_speculative_decoding.py``: interleaved
rounds with GC paused, then two estimators noise deflates in
different ways — the ratio of best-of-N times and the median of
per-pair ratios.  The gate takes the smaller.

Writes ``benchmarks/results/BENCH_kernels.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_decode_kernels.py
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

from repro.models import GenerationConfig, distilgpt2, generate
from repro.obs import NullRegistry, NullTracer
from repro.serving import EngineConfig, InferenceEngine

VOCAB = 64
NUM_REQUESTS = 8
MAX_NEW_TOKENS = 160
GATE_CONCURRENCY = 1
REPORTED_CONCURRENCY = 8
RESULTS_PATH = (pathlib.Path(__file__).parent / "results"
                / "BENCH_kernels.json")


def _prompt(seed: int):
    rng = np.random.default_rng(seed)
    length = int(rng.integers(4, 25))
    return [int(t) for t in rng.integers(0, VOCAB, size=length)]


def _config() -> GenerationConfig:
    return GenerationConfig(max_new_tokens=MAX_NEW_TOKENS,
                            strategy="greedy", seed=0)


def _run_engine(engine, prompts):
    config = _config()
    handles = [engine.submit(prompt, config) for prompt in prompts]
    return [handle.result(timeout=300) for handle in handles]


def _measure(base_model, kernel_model, prompts, expected, concurrency,
             rounds):
    """Interleaved baseline/kernels rounds at one engine concurrency.

    Returns the summary dict, or ``None`` (after saying why) when
    either engine's tokens diverge from ``expected``.  Prefix caching
    is off so every round replays the full forward work.
    """
    engine_config = EngineConfig(max_batch_size=concurrency,
                                 prefix_cache_bytes=0)
    base = InferenceEngine(base_model, engine_config,
                           registry=NullRegistry(), tracer=NullTracer())
    kern = InferenceEngine(kernel_model, engine_config,
                           registry=NullRegistry(), tracer=NullTracer())
    base_times, kern_times, ratios = [], [], []
    try:
        # Warm both engines (threads, kernel workspaces); the cold
        # pass also proves both paths reproduce the sequential tokens.
        for engine, name in ((base, "baseline"), (kern, "kernels")):
            if _run_engine(engine, prompts) != expected:
                print(f"FAIL: {name} engine diverged from sequential "
                      f"decoding at concurrency {concurrency}",
                      file=sys.stderr)
                return None

        gc.collect()
        gc.disable()
        try:
            for round_index in range(rounds):
                runs = [("baseline", base), ("kernels", kern)]
                if round_index % 2:
                    runs.reverse()
                elapsed = {}
                for name, engine in runs:
                    start = time.perf_counter()
                    output = _run_engine(engine, prompts)
                    elapsed[name] = time.perf_counter() - start
                    if output != expected:
                        print(f"FAIL: {name} diverged on round "
                              f"{round_index} at concurrency {concurrency}",
                              file=sys.stderr)
                        return None
                base_times.append(elapsed["baseline"])
                kern_times.append(elapsed["kernels"])
                ratios.append(elapsed["baseline"] / elapsed["kernels"])
        finally:
            gc.enable()
    finally:
        base.stop()
        kern.stop()

    total_tokens = NUM_REQUESTS * MAX_NEW_TOKENS
    base_best, kern_best = min(base_times), min(kern_times)
    best_speedup = base_best / kern_best
    median_speedup = statistics.median(ratios)
    return {
        "baseline_seconds_best": base_best,
        "kernels_seconds_best": kern_best,
        "baseline_tokens_per_second": total_tokens / base_best,
        "kernels_tokens_per_second": total_tokens / kern_best,
        "speedup": min(best_speedup, median_speedup),
        "speedup_best_of_n": best_speedup,
        "speedup_paired_median": median_speedup,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved baseline/kernel pairs")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="minimum required kernel speedup")
    args = parser.parse_args(argv)

    # Two weight-identical models (same seed): the baseline keeps the
    # Tensor path; the other dispatches to the fp32 kernels.
    base_model = distilgpt2(vocab_size=VOCAB, context_length=256)
    base_model.eval()
    kernel_model = distilgpt2(vocab_size=VOCAB, context_length=256)
    kernel_model.enable_kernels()
    prompts = [_prompt(seed) for seed in range(NUM_REQUESTS)]

    # Reference outputs from the sequential Tensor-path decoder: both
    # engines must reproduce these bit-exactly.
    expected = [generate(base_model, prompt, _config(),
                         registry=NullRegistry(), tracer=NullTracer())
                for prompt in prompts]

    measured = []
    for concurrency in (GATE_CONCURRENCY, REPORTED_CONCURRENCY):
        row = _measure(base_model, kernel_model, prompts, expected,
                       concurrency, args.rounds)
        if row is None:
            return 1
        measured.append(row)
    gate, reported = measured

    kernel_stats = kernel_model.kernels.stats()
    result = {
        "workload": {"requests": NUM_REQUESTS,
                     "tokens": NUM_REQUESTS * MAX_NEW_TOKENS,
                     "max_new_tokens": MAX_NEW_TOKENS,
                     "concurrency": GATE_CONCURRENCY, "strategy": "greedy"},
        "kernels": kernel_stats,
        **gate,
        f"concurrency_{REPORTED_CONCURRENCY}": {
            "concurrency": REPORTED_CONCURRENCY, **reported},
        "rounds": args.rounds,
        "threshold": args.threshold,
        "bit_identical": True,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(result, indent=2) + "\n",
                            encoding="utf-8")

    print(f"workload: {NUM_REQUESTS} greedy requests x {MAX_NEW_TOKENS} "
          f"tokens, distilgpt2 vocab {VOCAB}")
    for concurrency, row, label in (
            (GATE_CONCURRENCY, gate, "gated"),
            (REPORTED_CONCURRENCY, reported, "reported")):
        print(f"concurrency {concurrency} ({label}): baseline "
              f"{row['baseline_tokens_per_second']:6.0f} tok/s, kernels "
              f"{row['kernels_tokens_per_second']:6.0f} tok/s, speedup "
              f"{row['speedup']:.2f}x (best-of-{args.rounds} "
              f"{row['speedup_best_of_n']:.2f}x, paired median "
              f"{row['speedup_paired_median']:.2f}x)")
    print(f"workspace: {kernel_stats['workspace_allocations']} arena "
          f"allocations, {kernel_stats['workspace_bytes'] / 1e6:.1f} MB")
    print(f"[written to {RESULTS_PATH}]")
    if gate["speedup"] < args.threshold:
        print(f"FAIL: kernel speedup below the {args.threshold:.1f}x gate",
              file=sys.stderr)
        return 1
    print(f"OK: inference kernels clear the {args.threshold:.1f}x gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
