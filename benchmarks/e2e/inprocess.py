"""The same stack inside the harness process: for the ``engine_batch``
workload, for the in-process passes of the traced mode, and for the
cold-start probe.

``build_app`` mirrors the flags ``server.server_argv`` passes to
``repro.webapp.serve`` (fp32 kernels, 30 s deadline, supervised engine,
admission that never sheds); the caller keeps hold of the pipeline and
the index, so the traced mode can wrap the calls between the layers.

Each engine built here gets a registry of its own: an engine's
eviction counter follows its own cache, so a second engine reporting
into the process-wide registry after a first one that evicted would
try to count backwards and crash (``run.py`` without ``--workload``
builds several in one process).
"""

from __future__ import annotations

import json
import time
from typing import List, Sequence

from repro.obs import MetricsRegistry, render_text
from repro.resilience import ResilienceConfig
from repro.serving import EngineConfig, InferenceEngine
from repro.webapp.backend import create_backend
from repro.webapp.framework import App, Request

from fixture import generation_config
from loadgen import (PassResult, Record, Reply, Sender, SseReply,
                     parse_json_reply, self_cpu_seconds)
from server import Scrape, parse_prometheus
from spans import NullRecorder
from workloads import WAVE


def build_app(pipeline, index) -> App:
    return create_backend(
        pipeline, registry=MetricsRegistry(),
        resilience=ResilienceConfig(default_deadline_ms=30000.0,
                                    shed_watermark_tokens=100000,
                                    supervise=True),
        kernels="fp32", retrieval_index=index)


def build_engine(pipeline) -> InferenceEngine:
    """The ``engine_batch`` engine: batch 8, room for four waves."""
    pipeline.model.enable_kernels(mode="fp32", freeze=True)
    return InferenceEngine(
        pipeline.model, EngineConfig(max_batch_size=8, max_queue=4 * WAVE),
        registry=MetricsRegistry())


def scrape(engine) -> Scrape:
    """The in-process twin of ``ServerProcess.scrape``: same text
    exposition, same parser, same ``engine.stats()`` document.
    ``engine`` is an ``InferenceEngine`` or the supervisor around one."""
    registry = getattr(engine, "engine", engine).registry
    return Scrape(parse_prometheus(render_text(registry)), engine.stats())


def app_sender(app: App, path: str, tracer=NullRecorder()) -> Sender:
    """``App.dispatch`` called directly: the request path minus sockets,
    ``http.server`` parsing and the handler thread."""
    def send(payload: dict) -> Reply:
        request = Request("POST", path, {}, {},
                          json.dumps(payload).encode("utf-8"))
        response = app.dispatch(request)
        if response.stream is None:
            return parse_json_reply(response.status, response.body)
        parser = SseReply()
        stream = iter(response.stream)
        while True:
            # Each pull runs the handler's generator up to its next
            # frame on this thread; span it so that time is the
            # webapp's, not the client's.
            try:
                with tracer.span("webapp.stream"):
                    frame = next(stream)
            except StopIteration:
                break
            parser.feed(frame, time.perf_counter())
        return parser.finish()
    return send


def run_engine_pass(pipeline, engine: InferenceEngine,
                    payloads: Sequence[dict], tracer=NullRecorder()
                    ) -> PassResult:
    """Offline batches: per wave, one thread submits ``WAVE`` requests
    and then drains each handle's ``tokens()`` in submission order —
    as ``repro generate`` prints recipes — so all but the first eight
    wait in the engine's queue for a batch slot."""
    records: List[Record] = []
    cpu_before = self_cpu_seconds()
    start = time.perf_counter()
    for base in range(0, len(payloads), WAVE):
        wave = payloads[base:base + WAVE]
        with tracer.root("client.wave", base // WAVE):
            handles = []
            for payload in wave:
                _, prompt_ids, config, processors = pipeline.prepare_prompt(
                    payload["ingredients"],
                    generation=generation_config(payload))
                sent = time.perf_counter()
                handles.append((sent, engine.submit(prompt_ids, config,
                                                    processors)))
            for offset, (sent, handle) in enumerate(handles):
                reply = Reply(200, tokens=[])
                try:
                    for token in handle.tokens():
                        reply.tokens.append(int(token))
                        reply.token_times.append(time.perf_counter())
                except RuntimeError as exc:  # engine errors are RuntimeErrors
                    reply.error = f"{type(exc).__name__}: {exc}"
                end = time.perf_counter()
                first = reply.token_times[0] if reply.token_times else end
                records.append(Record(base + offset, reply, end - sent,
                                      first - sent))
    wall = time.perf_counter() - start
    return PassResult(records, wall, self_cpu_seconds() - cpu_before)
