"""The load generator: closed-loop passes, reply parsing, reply checks.

One process, ``clients`` threads.  Each thread takes the next request of
the frozen list when its previous reply has been read to the end — a UI
user waiting for their recipe — so the server is never offered more
than ``clients`` requests at once and a slow server receives less load.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from fixture import Expected
from server import HOST, Scrape, post_json
from spans import NullRecorder
from stats import gaps, percentile


@dataclass
class Reply:
    """What came back for one request, before it is judged."""

    status: int
    recipe: Optional[dict] = None
    tokens: Optional[List[int]] = None
    #: ``perf_counter`` stamps at which the client held each token.
    token_times: List[float] = field(default_factory=list)
    error: Optional[str] = None


@dataclass
class Record:
    index: int
    reply: Reply
    latency_s: float
    #: Request sent → first generated token in hand; equals latency
    #: where the transport delivers the whole reply at once.
    ttft_s: float
    ok: bool = False
    why_not: Optional[str] = None

    def digest(self) -> str:
        recipe = dict(self.reply.recipe or {})
        recipe.pop("generation_seconds", None)  # a timing, not an output
        blob = json.dumps({"tokens": self.reply.tokens, "recipe": recipe},
                          sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    records: List[Record]
    wall_s: float
    client_cpu_s: float


Sender = Callable[[dict], Reply]


# ---------------------------------------------------------------------
# Reply parsing (shared by the HTTP and the in-process transports)
# ---------------------------------------------------------------------
def parse_json_reply(status: int, body: bytes) -> Reply:
    if status != 200:
        return Reply(status, error=body[:200].decode("utf-8", "replace"))
    try:
        return Reply(status, recipe=json.loads(body))
    except ValueError as exc:
        return Reply(status, error=f"unparseable body: {exc}")


class SseReply:
    """Accumulates ``data: {...}`` frames into a :class:`Reply`."""

    def __init__(self) -> None:
        self.reply = Reply(200, tokens=[])

    def feed(self, frame: bytes, now: float) -> None:
        frame = frame.strip()
        if not frame.startswith(b"data: "):
            return
        event = json.loads(frame[len(b"data: "):])
        if "token" in event:
            self.reply.tokens.append(int(event["token"]))
            self.reply.token_times.append(now)
        elif event.get("done"):
            self.reply.recipe = event["recipe"]
        elif "error" in event:
            self.reply.error = str(event["error"])

    def finish(self) -> Reply:
        if self.reply.recipe is None and self.reply.error is None:
            self.reply.error = "stream ended without a terminal event"
        return self.reply


def http_sender(port: int, path: str, sse: bool) -> Sender:
    if not sse:
        return lambda payload: parse_json_reply(
            *post_json(port, path, payload))

    def send(payload: dict) -> Reply:
        conn = http.client.HTTPConnection(HOST, port, timeout=60.0)
        try:
            conn.request("POST", path, json.dumps(payload).encode("utf-8"),
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            if response.status != 200:
                return parse_json_reply(response.status, response.read())
            parser = SseReply()
            for line in response:
                parser.feed(line, time.perf_counter())
            return parser.finish()
        finally:
            conn.close()
    return send


# ---------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------
def run_pass(send: Sender, payloads: Sequence[dict], clients: int,
             tracer=NullRecorder()) -> PassResult:
    """Send every payload once, ``clients`` at a time, closed loop."""
    records: List[Optional[Record]] = [None] * len(payloads)
    counter = itertools.count()  # next() is atomic under the GIL

    def client() -> None:
        while True:
            index = next(counter)
            if index >= len(payloads):
                return
            start = time.perf_counter()
            with tracer.root("client.request", index):
                try:
                    reply = send(payloads[index])
                except (OSError, http.client.HTTPException) as exc:
                    reply = Reply(0, error=f"{type(exc).__name__}: {exc}")
            end = time.perf_counter()
            first = reply.token_times[0] if reply.token_times else end
            records[index] = Record(index, reply, end - start, first - start)

    cpu_before = self_cpu_seconds()
    start = time.perf_counter()
    if clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - start
    return PassResult(list(records), wall, self_cpu_seconds() - cpu_before)


def self_cpu_seconds() -> float:
    """utime + stime of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Timed:
    """A pass with the counters read just outside its timed window."""

    result: PassResult
    before: Scrape
    after: Scrape
    cpu_s: float        # server process (harness process for engine_batch)
    calib_ms: float

    def delta(self, name: str, **labels: str) -> float:
        return (self.after.total(name, **labels)
                - self.before.total(name, **labels))

    def cache_delta(self, name: str) -> float:
        return self.after.cache(name) - self.before.cache(name)

    @property
    def tokens(self) -> int:
        return int(self.delta("engine_tokens_total"))


def quiet_passes(passes: Sequence[Timed], kept: int) -> List[Timed]:
    """The ``kept`` passes with the shortest wall time."""
    return sorted(passes, key=lambda t: t.result.wall_s)[:kept]


def pooled_metrics(passes: Sequence[Timed]) -> Dict[str, float]:
    """Metrics over the requests of ``passes`` taken together:
    percentiles over all their latencies, rates over their summed
    tokens, wall and CPU time."""
    records = [r for timed in passes for r in timed.result.records]
    latency = [r.latency_s * 1e3 for r in records]
    itl = [g * 1e3 for r in records for g in gaps(r.reply.token_times)]
    tokens = sum(timed.tokens for timed in passes)
    wall = sum(timed.result.wall_s for timed in passes)
    return {
        "latency_p50_ms": percentile(latency, 50),
        "latency_p90_ms": percentile(latency, 90),
        "latency_p99_ms": percentile(latency, 99),
        "ttft_p50_ms": percentile([r.ttft_s * 1e3 for r in records], 50),
        "tokens_per_s": tokens / wall,
        "cpu_s_per_ktok": sum(t.cpu_s for t in passes) / tokens * 1e3,
        "itl_p50_ms": percentile(itl, 50) if itl else 0.0,
        "itl_p90_ms": percentile(itl, 90) if itl else 0.0,
        "client_cpu_share": sum(t.result.client_cpu_s
                                for t in passes) / wall,
    }


# ---------------------------------------------------------------------
# Judging replies
# ---------------------------------------------------------------------
def judge(records: Sequence[Record], reference: Dict[int, str],
          oracle: Sequence[Expected], needs_recipe: bool = True) -> int:
    """Mark each record ok or not; returns how many are not.

    Correct = status 200, a complete reply, the same output digest as
    the first time this request was answered (``reference`` is filled
    as requests are first seen), and — for the first requests of the
    list — the sequential oracle's tokens and parsed recipe.
    """
    failed = 0
    for record in records:
        record.why_not = _fault(record, reference, oracle, needs_recipe)
        record.ok = record.why_not is None
        failed += not record.ok
    return failed


def _fault(record: Record, reference: Dict[int, str],
           oracle: Sequence[Expected], needs_recipe: bool) -> Optional[str]:
    reply = record.reply
    if reply.status != 200:
        return f"status {reply.status}: {reply.error}"
    if reply.error is not None:
        return reply.error
    if needs_recipe and not isinstance(reply.recipe, dict):
        return "no recipe in reply"
    digest = record.digest()
    if reference.setdefault(record.index, digest) != digest:
        return "output differs from an earlier pass"
    if record.index < len(oracle):
        expected = oracle[record.index]
        if reply.tokens is not None and reply.tokens != expected.tokens:
            return "tokens differ from the sequential oracle"
        if reply.recipe is not None and any(
                reply.recipe.get(key) != getattr(expected, key)
                for key in ("title", "ingredients", "instructions")):
            return "recipe differs from the sequential oracle"
    return None


def calibration_ms() -> float:
    """A fixed numpy + Python spin: a machine-speed index that explains
    two runs of the same code drifting apart."""
    import numpy as np

    a = np.full((96, 96), 0.01, dtype=np.float32)
    start = time.perf_counter()
    for _ in range(60):
        a = np.tanh(a @ a.T)
        sum(j * j for j in range(400))
    return (time.perf_counter() - start) * 1e3
