"""The per-layer metrics of the traced mode, and the layer table.

Three sources, kept apart: the engine's counters over the *untraced*
timed passes (``serving.*`` counts, cache shares), the spans of the
traced in-process pass (every ``*_ms_p50``, the scheduler's own time,
the table), and the stages of one cold start (``setup.*``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import spans as tracing
from loadgen import PassResult, Record, Timed
from stats import gaps, median, pass_spread, percentile
from workloads import Workload

LAYERS = ("client", "webapp", "resilience", "core", "tokenizers",
          "retrieval", "serving", "nn")

Metric = Tuple[float, str]


@dataclass
class TracedRun:
    """Everything a ``--trace 1`` run measured."""

    passes: Sequence[Timed]         # the untraced timed passes
    quiet: Dict[str, float]         # pooled metrics of the kept ones
    untraced: PassResult            # in-process, same callers, no proxies
    traced: PassResult              # in-process, proxies installed
    spans: Sequence[tracing.Span]
    traced_steps: float             # engine steps during the traced pass
    stages: Dict[str, float]        # seconds per cold-start stage
    fixture_seconds: float


def layer_table(per_layer: Dict[str, float], requests: int) -> List[dict]:
    """Self time per layer (seconds, from ``spans.attribute``) as ms per
    request and share of the summed request latencies (the shares add
    up to 1)."""
    total = sum(per_layer.values()) or 1.0
    return [{"layer": layer,
             "self_ms_per_request": per_layer.get(layer, 0.0) / requests * 1e3,
             "share": per_layer.get(layer, 0.0) / total}
            for layer in LAYERS]


def _p50_ms(seconds: Sequence[float]) -> float:
    return percentile(seconds, 50) * 1e3 if seconds else 0.0


def layer_metrics(workload: Workload, run: TracedRun, model_config
                  ) -> Tuple[Dict[str, Metric], List[dict]]:
    """The per-layer metrics and the layer table of one traced run."""
    spans, quiet = run.spans, run.quiet
    first, last = run.passes[0], run.passes[-1]
    window = Timed(last.result, first.before, last.after, 0.0, 0.0)
    http = workload.transport != "engine"
    own = tracing.self_times(spans)
    per_layer, scheduler_s = tracing.attribute(spans)
    table = layer_table(per_layer, len(run.traced.records))
    m: Dict[str, Metric] = {}

    def span_p50(name: str) -> Metric:
        return _p50_ms(tracing.durations(spans, name)), "ms"

    # client: validity of the run itself
    m["client.latency_p99_ms"] = (quiet["latency_p99_ms"], "ms")
    m["client.itl_p50_ms"] = (quiet["itl_p50_ms"], "ms")
    m["client.itl_p90_ms"] = (quiet["itl_p90_ms"], "ms")
    m["client.pass_spread"] = (
        pass_spread([t.result.wall_s for t in run.passes]), "ratio")
    m["client.cpu_share"] = (quiet["client_cpu_share"], "ratio")
    m["client.calib_ms"] = (median(t.calib_ms for t in run.passes), "ms")

    # webapp / resilience / core / tokenizers / retrieval: from spans
    inside_p50 = percentile([r.latency_s * 1e3
                             for r in run.untraced.records], 50)
    inside_itl = [g * 1e3 for r in run.untraced.records
                  for g in gaps(r.reply.token_times)]
    m["webapp.http_overhead_ms_p50"] = (
        quiet["latency_p50_ms"] - inside_p50 if http else 0.0, "ms")
    m["webapp.dispatch_self_ms_p50"] = (_p50_ms(tracing.per_request(
        spans, ("webapp.dispatch", "webapp.stream"), own)), "ms")
    m["webapp.finish_ms_p50"] = span_p50("core.finish_recipe")
    m["webapp.json_ms_p50"] = (
        _p50_ms(_json_replay(run.traced.records)) if http else 0.0, "ms")
    m["webapp.sse_ms_per_token"] = (
        quiet["itl_p50_ms"] - percentile(inside_itl, 50)
        if workload.transport == "sse" else 0.0, "ms")
    m["resilience.admission_us_p50"] = (_p50_ms(tracing.per_request(
        spans, ("resilience.try_acquire", "resilience.release"))) * 1e3,
        "us")
    m["resilience.shed_total"] = (
        window.delta("admission_shed_total"), "count")
    m["core.prepare_prompt_ms_p50"] = span_p50("core.prepare_prompt")
    m["tokenizers.encode_ms_p50"] = span_p50("tokenizers.encode")
    m["tokenizers.decode_ms_p50"] = span_p50("tokenizers.decode")
    m["retrieval.search_ms_p50"] = span_p50("retrieval.search_ingredients")
    m["retrieval.novelty_ms_p50"] = span_p50("retrieval.novelty")
    m["retrieval.index_load_s"] = (
        run.stages.get("index_load_s", 0.0) if workload.retrieval else 0.0,
        "s")

    # serving: counters over the untraced timed passes
    forwards = window.delta("engine_decode_forwards_total")
    tokens = window.delta("engine_tokens_total")
    finished = len(first.result.records) * len(run.passes)
    lookups = window.cache_delta("lookup_tokens")
    hits = window.cache_delta("hit_tokens")
    m["serving.queue_wait_ms_p50"] = (last.after.total(
        "engine_queue_wait_seconds", quantile="0.5") * 1e3, "ms")
    m["serving.engine_ttft_ms_p50"] = (last.after.total(
        "engine_ttft_seconds", quantile="0.5") * 1e3, "ms")
    m["serving.batch_occupancy_mean"] = (
        window.delta("engine_batch_occupancy_sum")
        / max(1.0, window.delta("engine_batch_occupancy_count")), "count")
    m["serving.steps_total"] = (window.delta("engine_steps_total"), "count")
    m["serving.decode_forwards_total"] = (forwards, "count")
    m["serving.tokens_per_forward"] = (tokens / max(1.0, forwards), "count")
    m["serving.prefix_hit_token_share"] = (
        hits / lookups if lookups else 0.0, "ratio")
    m["serving.prefix_hit_tokens_per_request"] = (hits / finished, "count")
    m["serving.prefill_tokens_computed"] = (lookups - hits, "count")
    m["serving.prefix_evictions"] = (window.cache_delta("evictions"),
                                     "count")
    m["serving.prefix_bytes_peak_mb"] = (max(
        look.cache("bytes") for t in run.passes
        for look in (t.before, t.after)) / 2 ** 20, "MB")

    # serving: the scheduler's own time, from the traced pass
    waited_s = sum(s.duration for s in spans
                   if s.name in tracing.WAIT_SPANS and s.request is not None)
    m["serving.sched_self_ms_per_step"] = (
        scheduler_s / run.traced_steps * 1e3 if run.traced_steps else 0.0,
        "ms")
    m["serving.sched_self_share"] = (
        scheduler_s / waited_s if waited_s else 0.0, "ratio")

    # nn: model calls by batch rows, prefill by tokens
    for rows in (1, 2, 8):
        m[f"nn.decode_step_ms_b{rows}"] = (_p50_ms(
            [s.duration for s in spans if s.name == "nn.next_logits"
             and s.parent is None and s.size == rows]), "ms")
    prefills = [s for s in spans
                if s.name in ("nn.prefill", "nn.prefill_stacked")]
    prefill_tokens = sum(s.size for s in prefills)
    m["nn.prefill_ms_per_ktok"] = (
        sum(s.duration for s in prefills) / prefill_tokens * 1e6
        if prefill_tokens else 0.0, "ms")
    # A decode step attends to the prompt plus, on average, half of
    # what the request generates.
    context = min(model_config.context_length,
                  (lookups + tokens / 2.0) / finished)
    m["nn.decode_flops_per_token"] = (_decode_flops(model_config, context),
                                      "flop")
    m["nn.kv_bytes_per_token"] = (
        2 * model_config.num_layers * model_config.d_model * 4, "B")
    kernels = last.after.engine.get("kernels") or {}
    m["nn.kernel_arena_mb"] = (
        kernels.get("workspace_bytes", 0) / 2 ** 20, "MB")

    # setup: the stages of one cold start, the fixture build beside it
    for stage in ("import_s", "checkpoint_load_s", "index_load_s",
                  "engine_ready_s", "first_request_s"):
        m[f"setup.{stage}"] = (run.stages.get(stage, 0.0), "s")
    m["setup.fixture_s"] = (run.fixture_seconds, "s")

    m["trace.overhead_share"] = (
        run.traced.wall_s / run.untraced.wall_s - 1.0, "ratio")
    for row in table:
        m[f"layer.{row['layer']}_self_ms"] = (row["self_ms_per_request"],
                                              "ms")
    return m, table


def _json_replay(records: Sequence[Record]) -> List[float]:
    """Seconds the stdlib spends on each reply's JSON: the encode the
    framework did and the decode any client must do, replayed on the
    same bodies (the framework's own calls are class methods and cannot
    be wrapped per instance)."""
    seconds = []
    for record in records:
        if record.reply.recipe is None:
            continue
        start = time.perf_counter()
        json.loads(json.dumps(record.reply.recipe, ensure_ascii=False))
        seconds.append(time.perf_counter() - start)
    return seconds


def _decode_flops(config, context: float) -> float:
    """Multiply-adds x 2 of one decode step for one sequence, computed
    from the tensor shapes (not measured)."""
    d, ff = config.d_model, config.d_ff
    per_layer = 4 * d * d + 2 * d * ff + 2 * context * d
    return 2.0 * (config.num_layers * per_layer + d * config.vocab_size)
