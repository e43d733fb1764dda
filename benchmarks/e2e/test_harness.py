"""Tests of the harness itself (not part of the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from server import parse_prometheus, Scrape  # noqa: E402

CATALOG = [f"ingredient {i}" for i in range(300)]


# -- order statistics ----------------------------------------------------
def test_percentile_is_nearest_rank():
    sample = list(range(1, 101))
    assert stats.percentile(sample, 50) == 50
    assert stats.percentile(sample, 90) == 90
    assert stats.percentile(sample, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([3, 1, 2], 0) == 1
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 101)


def test_quartile_spread_and_worse_by():
    values = [10.0] * 5 + [11.0] * 5
    assert stats.quartile_spread(values) == pytest.approx(1.0 / 10.5)
    assert stats.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.pass_spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    assert stats.gaps([1.0, 1.5, 3.0]) == [0.5, 1.5]


def test_kept_passes_are_the_fastest_and_their_requests_are_pooled():
    from loadgen import (PassResult, Record, Reply, Timed, pooled_metrics,
                         quiet_passes)

    def timed(wall, latencies, tokens_before, tokens_after, cpu):
        records = [Record(i, Reply(200), latency, latency)
                   for i, latency in enumerate(latencies)]
        scrape = lambda total: Scrape(                        # noqa: E731
            {("engine_tokens_total", ()): total}, {"prefix_cache": {}})
        return Timed(PassResult(records, wall, 0.0),
                     scrape(tokens_before), scrape(tokens_after), cpu, 0.0)

    passes = [timed(2.0, [0.9, 0.9], 0, 100, 1.0),      # disturbed
              timed(1.0, [0.1, 0.2], 100, 200, 0.5),
              timed(1.2, [0.3, 0.4], 200, 300, 0.7)]
    kept = quiet_passes(passes, 2)
    assert [t.result.wall_s for t in kept] == [1.0, 1.2]
    pooled = pooled_metrics(kept)
    assert pooled["latency_p50_ms"] == pytest.approx(200.0)
    assert pooled["latency_p90_ms"] == pytest.approx(400.0)
    assert pooled["tokens_per_s"] == pytest.approx(200 / 2.2)
    assert pooled["cpu_s_per_ktok"] == pytest.approx(1.2 / 200 * 1e3)


# -- request generators --------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_a_function_of_the_seed(name):
    workload = workloads.WORKLOADS[name]
    count = workload.block * max(1, 24 // workload.block)
    one = workloads.make_requests(workload, 14, count, CATALOG)
    again = workloads.make_requests(workload, 14, count, CATALOG)
    other = workloads.make_requests(workload, 15, count, CATALOG)
    canonical = lambda requests: json.dumps(requests,        # noqa: E731
                                            sort_keys=True).encode("utf-8")
    assert canonical(one) == canonical(again)    # byte-identical
    assert canonical(one) != canonical(other)
    assert len(one) == count


def test_every_block_holds_every_shape_once():
    workload = workloads.WORKLOADS["http_sync"]
    for seed in (1, 2):
        requests = workloads.make_requests(workload, seed, 24, CATALOG)
        for start in range(0, 24, workload.block):
            shapes = sorted((r["max_new_tokens"], r["strategy"])
                            for r in requests[start:start + workload.block])
            assert shapes == sorted((b, s) for b in (32, 64, 96)
                                    for s in ("greedy", "sample"))


def test_zipf_counts_are_fixed_by_length_not_seed():
    counts = workloads.zipf_counts(192)
    assert sum(counts) == 192
    assert counts == sorted(counts, reverse=True)
    workload = workloads.WORKLOADS["rag_shared_prefix"]
    def multiset(seed):
        requests = workloads.make_requests(workload, seed, 192, CATALOG)
        tally = {}
        for r in requests:
            key = tuple(r["ingredients"])
            tally[key] = tally.get(key, 0) + 1
        return sorted(tally.values(), reverse=True)
    assert multiset(1) == multiset(2) == [c for c in counts if c]


def test_scaled_count_is_whole_blocks():
    workload = workloads.WORKLOADS["engine_batch"]
    assert workloads.scaled_count(workload, workloads.BASE_SECONDS) == \
        workload.requests_per_pass
    assert workloads.scaled_count(workload, 0.1) == workload.block
    assert workloads.scaled_count(
        workloads.WORKLOADS["http_sync"], workloads.BASE_SECONDS / 2) % 6 == 0


# -- span arithmetic -----------------------------------------------------
def _span(id, parent, name, start, end, request=0, size=None):
    return spans.Span(id, parent, name, 1 if request is not None else 2,
                      request, start, end, size)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, None, "client.request", 0.0, 10.0),
        _span(2, 1, "webapp.dispatch", 1.0, 9.0),
        _span(3, 2, "core.prepare_prompt", 1.5, 2.5),
        _span(4, 2, "core.finish_recipe", 7.0, 8.5),
        _span(5, 4, "tokenizers.decode", 7.0, 8.0),
        _span(6, 2, "core.prepare_prompt", 2.0, 3.0),   # overlaps span 3
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(8.0 - 1.5 - 1.5)     # union 1.5..3, 7..8.5
    assert own[4] == pytest.approx(0.5)
    assert own[5] == pytest.approx(1.0)
    assert spans.covered(0.0, 10.0, [(1, 3), (2, 4), (8, 12)]) == \
        pytest.approx(5.0)


def test_waits_are_split_between_engine_thread_spans_and_scheduler():
    tree = [
        _span(1, None, "client.request", 0.0, 10.0),
        _span(2, 1, "webapp.dispatch", 0.0, 10.0),
        _span(3, 2, "serving.result", 2.0, 8.0),
        # the engine thread: no request id, no parent
        _span(10, None, "serving.prefix_lookup", 2.0, 2.5, request=None),
        _span(11, None, "nn.prefill", 2.5, 4.0, request=None, size=20),
        _span(12, None, "nn.next_logits", 5.0, 6.0, request=None, size=1),
        _span(13, None, "nn.next_logits", 7.5, 9.0, request=None, size=1),
    ]
    per_layer, scheduler = spans.attribute(tree)
    assert per_layer["nn"] == pytest.approx(1.5 + 1.0 + 0.5)
    assert scheduler == pytest.approx(6.0 - 0.5 - 3.0)
    assert per_layer["serving"] == pytest.approx(0.5 + scheduler)
    assert per_layer["webapp"] == pytest.approx(4.0)
    # the layers account for the whole request
    assert sum(per_layer.values()) == pytest.approx(10.0)


def test_recorder_nests_per_thread_and_tags_requests():
    recorder = spans.SpanRecorder()

    class Thing:
        def work(self, items):
            return len(items)

    thing = Thing()
    recorder.wrap(thing, "work", "core.work", size=len)
    with recorder.root("client.request", 7):
        assert thing.work([1, 2, 3]) == 3
    assert Thing().work([1]) == 1          # other instances are untouched
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["core.work"].parent == by_name["client.request"].id
    assert by_name["core.work"].request == 7
    assert by_name["core.work"].size == 3
    assert len(recorder.spans) == 2


# -- scrape parsing ------------------------------------------------------
def test_prometheus_text_parsing():
    text = "\n".join([
        "# HELP engine_tokens_total Tokens emitted",
        "# TYPE engine_tokens_total counter",
        'engine_tokens_total{strategy="plain"} 1200',
        'engine_tokens_total{strategy="mcts"} 34',
        "engine_steps_total 77",
        'engine_ttft_seconds{quantile="0.5"} 0.0125',
        "engine_batch_occupancy_sum 1.5e3",
        "weird_nan NaN", ""])
    scrape = Scrape(parse_prometheus(text), {"prefix_cache": {"bytes": 5}})
    assert scrape.total("engine_tokens_total") == 1234
    assert scrape.total("engine_tokens_total", strategy="mcts") == 34
    assert scrape.total("engine_ttft_seconds", quantile="0.5") == 0.0125
    assert scrape.total("engine_batch_occupancy_sum") == 1500.0
    assert scrape.total("absent_total") == 0
    assert scrape.cache("bytes") == 5.0
    with pytest.raises(ValueError):
        parse_prometheus("not a metrics line at all {")


# -- the whole thing, small ----------------------------------------------
def test_quick_smoke_runs_every_workload_and_the_traced_mode():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "2"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    for name in workloads.WORKLOADS:
        assert f"== {name} (end-to-end" in done.stdout
        assert f"== {name} (per-layer" in done.stdout
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert "trace.overhead_share" in line["metrics"]
