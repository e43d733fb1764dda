"""Gate benchmark: the replica fleet loses nothing and wastes no cache.

Three phases, all gated on *deterministic counts* rather than wall
clock, so the gates are noise-robust by construction (timings are
reported for context but never gated):

* **cache** — a prefix-heavy workload (families of requests sharing
  a chunk-aligned 32-token head) runs through a single engine and
  through a 2-replica router.  The fleet's prefix-cache hit-token rate
  must be within 10% of the single engine's: the replicas serve from
  one shared cache, so a family's prefix is warm wherever its next
  request lands.

* **failover** — the workload is queued on one replica (the other is
  held out of rotation while it is submitted) and a seeded
  :class:`FaultInjector` kills that replica's engine thread mid-batch
  at concurrency 8.  The gate: **zero** failed requests, and every
  result bit-identical to the sequential decoder — the router's
  failover re-dispatches to the survivor and determinism makes the
  replay invisible.

* **rolling restart** — the warm fleet is put through a full
  ``drain → swap → readmit`` cycle on *every* replica, with a
  :class:`~repro.durability.CacheSpill` attached.  The shared cache
  outlives every engine swapped under it, so the gate — the
  post-restart workload's hit-token rate stays ≥ 60% of the
  steady-state rate — holds without a reload (a fleet restarted cold
  sits near 53% on this workload: only the shared heads re-hit).

Writes ``benchmarks/results/BENCH_cluster.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_cluster_failover.py
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.cluster import ClusterConfig, Router
from repro.durability import CacheSpill
from repro.models import GenerationConfig, distilgpt2, generate
from repro.obs import MetricsRegistry, NullRegistry, NullTracer
from repro.resilience import FaultInjector, FaultSpec, inject_faults
from repro.serving import EngineConfig, InferenceEngine

VOCAB = 64
HEAD_TOKENS = 32           # = the engine's prefill chunk: cacheable head
FAMILIES = 8               # distinct shared prefixes in the cache phase
REQUESTS_PER_FAMILY = 3
PROMPT_TOKENS = 40         # 32 shared + 8 unique per request
MAX_NEW_TOKENS = 32
CONCURRENCY = 8
FAILOVER_REQUESTS = 12     # one family, > CONCURRENCY so a kill is mid-batch
RESULTS_PATH = (pathlib.Path(__file__).parent / "results"
                / "BENCH_cluster.json")


def _config() -> GenerationConfig:
    return GenerationConfig(max_new_tokens=MAX_NEW_TOKENS,
                            strategy="greedy", seed=0)


def _family_prompts():
    """FAMILIES groups of prompts sharing a 32-token chunk-aligned head."""
    prompts = []
    for family in range(FAMILIES):
        rng = np.random.default_rng(1000 + family)
        head = [int(t) for t in rng.integers(0, VOCAB,
                                             size=HEAD_TOKENS)]
        for request in range(REQUESTS_PER_FAMILY):
            tail_rng = np.random.default_rng(2000 + family * 100 + request)
            tail = [int(t) for t in tail_rng.integers(
                0, VOCAB, size=PROMPT_TOKENS - HEAD_TOKENS)]
            prompts.append(head + tail)
    return prompts


def _run_all(target, prompts):
    config = _config()
    handles = [target.submit(prompt, config) for prompt in prompts]
    return [handle.result(timeout=300) for handle in handles]


def _hit_tokens(stats_snapshot) -> int:
    return int(stats_snapshot["hit_tokens"])


def _cache_phase(model, threshold):
    """Returns (ok, payload): cluster hit-token rate vs single engine."""
    prompts = _family_prompts()
    prompt_tokens = sum(len(p) for p in prompts)

    # --- single engine: the baseline every prefix can hit ------------
    single = InferenceEngine(model, EngineConfig(max_batch_size=CONCURRENCY),
                             registry=NullRegistry(), tracer=NullTracer())
    try:
        _run_all(single, prompts)  # warm: populate the cache
        before = _hit_tokens(single.prefix_cache.stats_snapshot())
        start = time.perf_counter()
        _run_all(single, prompts)
        single_seconds = time.perf_counter() - start
        single_hits = _hit_tokens(
            single.prefix_cache.stats_snapshot()) - before
    finally:
        single.stop()
    single_rate = single_hits / prompt_tokens

    # --- 2-replica router: one cache, every family warm everywhere ---
    registry = MetricsRegistry()

    def factory(name):
        return InferenceEngine(model,
                               EngineConfig(max_batch_size=CONCURRENCY),
                               registry=registry, tracer=NullTracer(),
                               name=name)

    cluster_config = ClusterConfig(replicas=2,
                                   restart_backoff_seconds=0.01,
                                   heartbeat_seconds=0.01)
    with Router(factory, cluster_config, registry=registry,
                tracer=NullTracer()) as router:
        _run_all(router, prompts)  # warm
        def fleet_hits():
            return _hit_tokens(router.stats()["prefix_cache"])
        before = fleet_hits()
        start = time.perf_counter()
        _run_all(router, prompts)
        cluster_seconds = time.perf_counter() - start
        cluster_hits = fleet_hits() - before
        per_replica_dispatches = {
            name: replica["dispatches"]
            for name, replica in router.stats()["replicas"].items()}
    cluster_rate = cluster_hits / prompt_tokens

    ok = cluster_rate >= threshold * single_rate
    payload = {
        "requests": len(prompts),
        "families": FAMILIES,
        "prompt_tokens": prompt_tokens,
        "single_engine_hit_token_rate": single_rate,
        "cluster_hit_token_rate": cluster_rate,
        "threshold_fraction_of_single": threshold,
        "per_replica_dispatches": per_replica_dispatches,
        "single_seconds": single_seconds,
        "cluster_seconds": cluster_seconds,
    }
    return ok, payload


def _failover_phase(model):
    """Returns (ok, payload): kill one of two replicas mid-batch."""
    rng = np.random.default_rng(42)
    head = [int(t) for t in rng.integers(0, VOCAB, size=HEAD_TOKENS)]
    prompts = [head + [int(t) for t in
                       np.random.default_rng(5000 + i).integers(0, VOCAB,
                                                                size=4)]
               for i in range(FAILOVER_REQUESTS)]
    config = _config()
    expected = [generate(model, prompt, config, registry=NullRegistry(),
                         tracer=NullTracer()) for prompt in prompts]

    registry = MetricsRegistry()

    def factory(name):
        return InferenceEngine(model,
                               EngineConfig(max_batch_size=CONCURRENCY),
                               registry=registry, tracer=NullTracer(),
                               name=name)

    cluster_config = ClusterConfig(replicas=2,
                                   restart_backoff_seconds=0.01,
                                   heartbeat_seconds=0.01)
    # Every request queues on one replica (the other rejoins as the
    # survivor once they are in).  The CONCURRENCY-th admission's
    # prefix_cache.get (call index 8 on the injector's deterministic
    # stream) kills that replica's engine thread while a full batch is
    # mid-decode.
    injector = FaultInjector(
        {"prefix_cache.get": FaultSpec(schedule={CONCURRENCY})})
    failed = 0
    results = []
    with Router(factory, cluster_config, registry=registry,
                tracer=NullTracer()) as router:
        router.drain("r1", timeout=30.0)
        start = time.perf_counter()
        with inject_faults(injector):
            handles = [router.submit(prompt, config) for prompt in prompts]
            home = handles[0].replica
            router.readmit("r1")
            for handle in handles:
                try:
                    results.append(handle.result(timeout=300))
                except Exception as error:  # noqa: BLE001 - counted, reported
                    failed += 1
                    results.append(type(error).__name__)
        elapsed = time.perf_counter() - start
        failovers = sum(handle.failovers for handle in handles)
        home_failovers = router.stats()["replicas"][home]["failovers"]

    bit_identical = results == expected
    ok = failed == 0 and bit_identical and failovers >= 1
    payload = {
        "requests": FAILOVER_REQUESTS,
        "concurrency": CONCURRENCY,
        "killed_replica": home,
        "failed_requests": failed,
        "failovers": failovers,
        "home_failovers": home_failovers,
        "bit_identical": bit_identical,
        "seconds": elapsed,
    }
    return ok, payload


def _rolling_restart_phase(model, threshold):
    """Returns (ok, payload): a rolling restart stays cache-warm.

    Every replica is drained, swapped (fresh engine) and readmitted.
    The replacement engines serve from the cache the fleet shares, as
    the swaps left it, so the post-restart workload hits like steady
    state; the spill only matters once the whole fleet stops.
    """
    prompts = _family_prompts()
    prompt_tokens = sum(len(p) for p in prompts)
    registry = MetricsRegistry()

    def factory(name):
        return InferenceEngine(model,
                               EngineConfig(max_batch_size=CONCURRENCY),
                               registry=registry, tracer=NullTracer(),
                               name=name)

    cluster_config = ClusterConfig(replicas=2,
                                   restart_backoff_seconds=0.01,
                                   heartbeat_seconds=0.01)
    spill_dir = tempfile.mkdtemp(prefix="repro-bench-spill-")
    spill = CacheSpill(spill_dir, model=model)
    try:
        with Router(factory, cluster_config, registry=registry,
                    tracer=NullTracer(), spill=spill) as router:
            def fleet_hits():
                return _hit_tokens(router.stats()["prefix_cache"])
            _run_all(router, prompts)       # warm the cache
            before = fleet_hits()
            _run_all(router, prompts)       # steady-state measurement
            steady_hits = fleet_hits() - before

            restart_start = time.perf_counter()
            for name in router.replica_names():
                router.drain(name, timeout=30.0)
                router.swap(name)           # fresh engine, same cache
                router.readmit(name)
            restart_seconds = time.perf_counter() - restart_start

            before = fleet_hits()
            start = time.perf_counter()
            _run_all(router, prompts)
            warm_seconds = time.perf_counter() - start
            warm_hits = fleet_hits() - before
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    steady_rate = steady_hits / prompt_tokens
    warm_rate = warm_hits / prompt_tokens
    ok = steady_hits > 0 and warm_hits >= threshold * steady_hits
    payload = {
        "requests": len(prompts),
        "prompt_tokens": prompt_tokens,
        "steady_hit_token_rate": steady_rate,
        "post_restart_hit_token_rate": warm_rate,
        "threshold_fraction_of_steady": threshold,
        "rolling_restart_seconds": restart_seconds,
        "post_restart_seconds": warm_seconds,
    }
    return ok, payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-threshold", type=float, default=0.9,
                        help="cluster hit-token rate must be at least this "
                             "fraction of the single engine's")
    parser.add_argument("--warm-threshold", type=float, default=0.6,
                        help="post-rolling-restart hit-token rate must be "
                             "at least this fraction of steady state")
    args = parser.parse_args(argv)

    model = distilgpt2(vocab_size=VOCAB, context_length=256)
    model.eval()

    cache_ok, cache = _cache_phase(model, args.cache_threshold)
    failover_ok, failover = _failover_phase(model)
    rolling_ok, rolling = _rolling_restart_phase(model, args.warm_threshold)

    result = {
        "cache": cache,
        "failover": failover,
        "rolling_restart": rolling,
        "pass": cache_ok and failover_ok and rolling_ok,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(result, indent=2) + "\n",
                            encoding="utf-8")

    print(f"cache: cluster hit-token rate "
          f"{cache['cluster_hit_token_rate']:.3f} vs single "
          f"{cache['single_engine_hit_token_rate']:.3f} "
          f"(gate >= {args.cache_threshold:.0%} of single)")
    print(f"failover: killed {failover['killed_replica']} mid-batch at "
          f"concurrency {CONCURRENCY}; {failover['failed_requests']} failed "
          f"of {FAILOVER_REQUESTS}, {failover['failovers']} failover(s), "
          f"bit_identical={failover['bit_identical']}")
    print(f"rolling restart: post-restart hit-token rate "
          f"{rolling['post_restart_hit_token_rate']:.3f} vs steady "
          f"{rolling['steady_hit_token_rate']:.3f} "
          f"(gate >= {args.warm_threshold:.0%} of steady)")
    print(f"[written to {RESULTS_PATH}]")
    if not cache_ok:
        print("FAIL: cluster prefix-cache hit-token rate below the "
              "single-engine gate", file=sys.stderr)
    if not failover_ok:
        print("FAIL: replica kill lost requests or diverged from "
              "sequential decoding", file=sys.stderr)
    if not rolling_ok:
        print("FAIL: rolling drain->swap->readmit came back cold; the "
              "shared cache did not survive the swaps", file=sys.stderr)
    if not (cache_ok and failover_ok and rolling_ok):
        return 1
    print("OK: fleet clears all cluster gates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
