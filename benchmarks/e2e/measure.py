"""One run of one workload: set up, warm up, timed passes, metrics.

``--trace 0`` reports the end-to-end metrics from untraced passes only.
``--trace 1`` runs fewer untraced passes, for the counters and client
numbers, then alternates untraced and traced in-process passes for the
per-layer table; no end-to-end metric is ever taken from a traced pass.
"""

from __future__ import annotations

import os
import platform
import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import inprocess
import spans as tracing
from fixture import Expected, FixtureParams, ensure_fixture, sequential_oracle
from layers import Metric, TracedRun, layer_metrics
from loadgen import (PassResult, Timed, calibration_ms, http_sender, judge,
                     pooled_metrics, quiet_passes, run_pass, self_cpu_seconds)
from server import Scrape, ServerProcess, cold_starts, run_probe
from stats import median
from workloads import Workload, make_requests, scaled_count

RESULTS = Path(__file__).resolve().parent / "results"

#: Timed cold starts (after one untimed): half before the passes, half
#: after, so that one loud spell cannot cover them all.  ``setup_s`` is
#: the median of the ``KEPT_COLD_STARTS`` fastest, for the reason passes
#: are kept by wall time: a disturbance only ever makes a start slower.
COLD_STARTS = 6
KEPT_COLD_STARTS = 3

#: Untraced/traced pairs of in-process passes in the traced mode.
TRACE_ROUNDS = 2


@dataclass
class Plan:
    """Sizes of one run; ``--quick`` shrinks all of them."""

    seconds: float
    fixture: FixtureParams = FixtureParams()
    count: Optional[int] = None     # requests per pass; None → from seconds
    passes: Optional[int] = None    # timed passes; None → the workload's
    cold_starts: int = COLD_STARTS
    trace_rounds: int = TRACE_ROUNDS


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Metric]
    notes: List[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)


@dataclass
class Target:
    """What the passes run against: the server process over HTTP, or
    the engine inside this process."""

    run: Callable[..., PassResult]      # (payloads[, recorder]) → one pass
    look: Callable[[], Scrape]          # the engine's counters now
    cpu_seconds: Callable[[], float]    # CPU time of the serving process


class Judge:
    """Judges every pass of a run against the first answers and the
    oracle, and keeps the tally."""

    def __init__(self, oracle: Sequence[Expected], needs_recipe: bool
                 ) -> None:
        self.oracle = oracle
        self.needs_recipe = needs_recipe
        self.reference: Dict[int, str] = {}
        self.attempted = self.failed = 0
        self.notes: List[str] = []

    def __call__(self, result: PassResult) -> PassResult:
        self.attempted += len(result.records)
        self.failed += judge(result.records, self.reference, self.oracle,
                             self.needs_recipe)
        for record in result.records:
            if not record.ok and len(self.notes) < 5:
                self.notes.append(
                    f"request {record.index}: {record.why_not}")
        return result


def fingerprint() -> dict:
    """What the numbers of a result file were measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "platform": platform.platform(),
            "math_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "loadavg_end": list(os.getloadavg())}


def check_tokens(workload: Workload, passes: Sequence[Timed],
                 notes: List[str]) -> bool:
    """Generated-token totals must repeat exactly between passes, and
    where the client counts tokens itself its count must match the
    engine's."""
    totals = [timed.tokens for timed in passes]
    ok = len(set(totals)) == 1 and totals[0] > 0
    if not ok:
        notes.append(f"token totals differ between passes: {totals}")
    if workload.transport != "json":
        for timed in passes:
            seen = sum(len(r.reply.tokens or ()) for r in
                       timed.result.records)
            if seen != timed.tokens:
                notes.append(f"client saw {seen} tokens, engine counted "
                             f"{timed.tokens}")
                ok = False
    return ok


def cold_start_samples(fixture, workload: Workload, timed: int,
                       keep_last: bool = False
                       ) -> Tuple[List[float], Optional[ServerProcess]]:
    """``timed`` cold starts of the workload's kind: the real server, or
    for ``engine_batch`` a fresh interpreter running ``probe.py``."""
    if workload.transport == "engine":
        return [run_probe(fixture, "engine", False)[0]
                for _ in range(timed)], None
    return cold_starts(fixture, workload.retrieval, timed, keep_last)


def rag_prompt_tokens(pipeline, index, names: List[str]) -> int:
    """Tokens of the prompt the backend builds for ``retrieve_k=1``."""
    hits = index.search_ingredients(names, k=1)
    return len(pipeline.prepare_prompt(
        names, exemplars=[hit.text for hit in hits])[1])


def timed_passes(target: Target, payloads: Sequence[dict], count: int,
                 judged: Judge) -> List[Timed]:
    """One untimed warm-up pass (lazy imports, kernel arenas, prefix
    cache), then ``count`` timed ones.  Counters are read between
    passes, never inside one."""
    judged(target.run(payloads))
    passes: List[Timed] = []
    after = target.look()
    for _ in range(count):
        calib = calibration_ms()
        before, cpu_before = after, target.cpu_seconds()
        result = target.run(payloads)
        cpu_after, after = target.cpu_seconds(), target.look()
        passes.append(Timed(judged(result), before, after,
                            cpu_after - cpu_before, calib))
    return passes


def traced_rounds(run_inside: Callable[..., PassResult],
                  instrument: Callable[[tracing.SpanRecorder], None],
                  engine, payloads: Sequence[dict], rounds: int,
                  judged: Judge
                  ) -> Tuple[PassResult, PassResult, tracing.SpanRecorder,
                             float]:
    """Alternate untraced and traced in-process passes; returns the
    faster untraced pass and the faster traced one with its recorder
    and the engine steps it took — as the timed passes keep their
    fastest."""
    done = []
    for _ in range(rounds):
        plain = judged(run_inside(payloads))
        recorder = tracing.SpanRecorder()
        instrument(recorder)
        try:
            steps = inprocess.scrape(engine).total("engine_steps_total")
            traced = judged(run_inside(payloads, recorder))
            steps = (inprocess.scrape(engine).total("engine_steps_total")
                     - steps)
        finally:
            recorder.unwrap()
        done.append((plain, traced, recorder, steps))
    untraced = min((r[0] for r in done), key=lambda p: p.wall_s)
    _, traced, recorder, steps = min(done, key=lambda r: r[1].wall_s)
    return untraced, traced, recorder, steps


def run_workload(workload: Workload, seed: int, plan: Plan,
                 trace: bool) -> Outcome:
    from repro.core import Ratatouille
    from repro.recipedb import default_catalog
    from repro.retrieval import RecipeIndex

    load_start = os.getloadavg()
    fixture = ensure_fixture(plan.fixture)
    count = plan.count or scaled_count(workload, plan.seconds)
    pipeline = Ratatouille.load(fixture.checkpoint)
    index = (RecipeIndex.load(fixture.index_dir)
             if workload.retrieval else None)
    payloads = make_requests(
        workload, seed, count,
        [item.name for item in default_catalog().all()],
        cost=(lambda names: rag_prompt_tokens(pipeline, index, names))
        if workload.retrieval else None)
    engine_mode = workload.transport == "engine"
    judged = Judge(sequential_oracle(pipeline, payloads, index),
                   needs_recipe=not engine_mode)
    notes = judged.notes
    probe_mode = "engine" if engine_mode else "app"

    server: Optional[ServerProcess] = None
    engine = None
    stages: Dict[str, float] = {}
    try:
        # -- set-up ------------------------------------------------------
        # One untimed launch first: it compiles .pyc after a fresh
        # checkout and warms the page cache.
        if trace:
            run_probe(fixture, probe_mode, workload.retrieval)
            _, stages = run_probe(fixture, probe_mode, workload.retrieval)
            setup_samples = [sum(stages.values())]
            if not engine_mode:
                server = ServerProcess(fixture, workload.retrieval)
        else:
            cold_start_samples(fixture, workload, 1)
            setup_samples, server = cold_start_samples(
                fixture, workload, plan.cold_starts // 2, keep_last=True)

        # -- the untraced passes ----------------------------------------
        if engine_mode:
            engine = inprocess.build_engine(pipeline)
            target = Target(
                lambda items, rec=tracing.NullRecorder():
                inprocess.run_engine_pass(pipeline, engine, items, rec),
                lambda: inprocess.scrape(engine), self_cpu_seconds)
        else:
            send = http_sender(server.port, workload.path,
                               workload.transport == "sse")
            target = Target(
                lambda items: run_pass(send, items, workload.clients),
                server.scrape, server.cpu_seconds)
        # The traced mode needs these passes for counters and client
        # numbers only, so it runs one more than it keeps.
        passes = timed_passes(
            target, payloads,
            plan.passes or (workload.kept + 1 if trace else workload.passes),
            judged)
        tokens_repeat = check_tokens(workload, passes, notes)
        shed = passes[-1].after.total("admission_shed_total")
        if shed:
            notes.append(f"admission shed {int(shed)} requests")
        if engine_mode:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            exited_cleanly = True
        else:
            peak_rss_mb = server.peak_rss_mb()
            code = server.stop()
            server = None
            exited_cleanly = code == 0
            if not exited_cleanly:
                notes.append(f"server exited with code {code}")
        if not trace:
            setup_samples += cold_start_samples(
                fixture, workload,
                plan.cold_starts - plan.cold_starts // 2)[0]

        quiet = pooled_metrics(quiet_passes(passes, workload.kept))
        records = [r for timed in passes for r in timed.result.records]
        within = sum(r.ok and r.latency_s * 1e3 <= workload.slo_ms
                     for r in records)
        detail = {"workload": workload.name, "seed": seed,
                  "requests_per_pass": count,
                  "pass_wall_s": [t.result.wall_s for t in passes],
                  "pass_latency_p50_ms": [
                      pooled_metrics([t])["latency_p50_ms"] for t in passes],
                  "pass_calib_ms": [t.calib_ms for t in passes],
                  "setup_samples_s": setup_samples,
                  "tokens_per_pass": passes[0].tokens,
                  "fingerprint": dict(fingerprint(),
                                      loadavg_start=list(load_start))}

        if not trace:
            metrics = {
                "setup_s": (median(sorted(setup_samples)[:KEPT_COLD_STARTS]),
                            "s"),
                "latency_p50_ms": (quiet["latency_p50_ms"], "ms"),
                "latency_p90_ms": (quiet["latency_p90_ms"], "ms"),
                "ttft_p50_ms": (quiet["ttft_p50_ms"], "ms"),
                "tokens_per_s": (quiet["tokens_per_s"], "tok/s"),
                "cpu_s_per_ktok": (quiet["cpu_s_per_ktok"], "s"),
                "ok_share": (sum(r.ok for r in records) / len(records),
                             "ratio"),
                "slo_share": (within / len(records), "ratio"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            # -- the in-process passes of the traced mode ----------------
            if engine_mode:
                run_inside = target.run
                instrument = lambda rec: tracing.instrument(   # noqa: E731
                    rec, pipeline, engine)
            else:
                app = inprocess.build_app(pipeline, index)
                engine = app.engine     # the supervisor around the engine
                run_inside = lambda items, rec=tracing.NullRecorder(): (  # noqa
                    run_pass(inprocess.app_sender(app, workload.path, rec),
                             items, workload.clients, rec))
                instrument = lambda rec: tracing.instrument(   # noqa: E731
                    rec, pipeline, app.engine.engine, app=app, index=index)
                judged(run_inside(payloads))    # warm-up
            untraced, traced, recorder, steps = traced_rounds(
                run_inside, instrument, engine, payloads, plan.trace_rounds,
                judged)
            RESULTS.mkdir(exist_ok=True)
            recorder.write(RESULTS / f"trace_{workload.name}.jsonl")
            metrics, detail["layer_table"] = layer_metrics(
                workload, TracedRun(
                    passes, quiet, untraced, traced, recorder.spans, steps,
                    stages, fixture.build_seconds), pipeline.model.config)
            metrics["client.requests_sent"] = (judged.attempted, "count")
            metrics["client.requests_ok"] = (
                judged.attempted - judged.failed, "count")
            metrics["client.requests_failed"] = (judged.failed, "count")

        correct = (judged.failed == 0 and tokens_repeat and not shed
                   and exited_cleanly)
        return Outcome(correct, judged.attempted, judged.failed, metrics,
                       notes, detail)
    finally:
        if server is not None:
            server.kill()
        if engine is not None:
            engine.stop()
