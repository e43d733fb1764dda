"""The traced mode: timing proxies around the calls between layers.

Nothing inside ``src/`` is edited.  The harness replaces *instance
attributes* it owns a reference to — ``app.dispatch``,
``pipeline.prepare_prompt``, ``model.next_logits`` … — with proxies that
record a span (name, start, end, parent, request id, thread) and call
through.  Spans stay in memory until the pass is over.

Self time is a span's duration minus the part covered by its children.
A span in which a caller *waits for the engine thread* (``result()``,
each pull on ``tokens()``) has no children on its own thread, so the
engine thread's spans that overlap the wait are counted as its
children: what is left is time the caller waited while the engine was
in neither a model nor a prefix-cache call — the scheduler's own time.
Summed over a request's spans this accounts for the whole latency.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Spans in which a caller waits for the engine thread.
WAIT_SPANS = ("serving.result", "serving.tokens")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    thread: int
    request: Optional[int]
    start: float
    end: float
    #: Work size where one applies: tokens of a prefill chunk, batch
    #: rows of a decode step.
    size: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullRecorder:
    """The untraced passes' recorder: records nothing, costs nothing."""

    def span(self, name: str, size: Optional[int] = None):
        return contextlib.nullcontext()

    def root(self, name: str, request: int):
        return contextlib.nullcontext()


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._wrapped: List[Tuple[object, str]] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))

    @contextlib.contextmanager
    def span(self, name: str, size: Optional[int] = None):
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        span = Span(next(self._ids), stack[-1] if stack else None, name,
                    threading.get_ident(), getattr(local, "request", None),
                    time.perf_counter(), 0.0, size)
        stack.append(span.id)
        try:
            yield span
        finally:
            stack.pop()
            span.end = time.perf_counter()
            self.spans.append(span)  # list.append is atomic under the GIL

    @contextlib.contextmanager
    def root(self, name: str, request: int):
        """A span that starts a request: spans opened on this thread
        until it closes carry its request id."""
        self._local.request = request
        try:
            with self.span(name) as span:
                yield span
        finally:
            self._local.request = None

    # -- proxies --------------------------------------------------------
    def wrap(self, owner, attribute: str, name: str,
             size: Optional[Callable[..., int]] = None,
             wrap_result: Optional[Callable] = None) -> None:
        """Shadow ``owner.attribute`` with a timing proxy (an instance
        attribute, so other instances of the class are untouched)."""
        target = getattr(owner, attribute)

        def proxy(*args, **kwargs):
            with self.span(name, size(args[0]) if size else None):
                result = target(*args, **kwargs)
            return wrap_result(result) if wrap_result else result

        # Module subclasses route attribute writes through their own
        # __setattr__; a plain function passes through it unchanged.
        setattr(owner, attribute, proxy)
        self._wrapped.append((owner, attribute))

    def unwrap(self) -> None:
        """Remove every proxy: the class's own methods show again."""
        for owner, attribute in self._wrapped:
            delattr(owner, attribute)
        self._wrapped.clear()

    def wrap_handle(self, handle):
        """Time the waits on an ``EngineRequest``: ``result()`` and
        every pull on ``tokens()``."""
        self.wrap(handle, "result", "serving.result")
        tokens = handle.tokens

        def traced_tokens(*args, **kwargs):
            iterator = tokens(*args, **kwargs)
            while True:
                with self.span("serving.tokens"):
                    try:
                        token = next(iterator)
                    except StopIteration:
                        return
                yield token

        handle.tokens = traced_tokens
        return handle

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps({
                    "id": span.id, "parent": span.parent, "name": span.name,
                    "thread": span.thread, "request": span.request,
                    "start": span.start, "end": span.end,
                    "size": span.size}) + "\n")


def instrument(recorder: SpanRecorder, pipeline, engine, app=None,
               index=None) -> None:
    """Wrap every boundary the harness can reach from the outside.

    ``engine`` is the ``InferenceEngine`` itself (inside the supervisor
    when there is one): its ``submit`` is what both ``generate`` and the
    streaming handler go through.
    """
    wrap = recorder.wrap
    if app is not None:
        wrap(app, "dispatch", "webapp.dispatch")
        wrap(app.admission, "try_acquire", "resilience.try_acquire")
        wrap(app.admission, "release", "resilience.release")
    wrap(pipeline, "prepare_prompt", "core.prepare_prompt")
    wrap(pipeline, "finish_recipe", "core.finish_recipe")
    wrap(pipeline.tokenizer, "encode", "tokenizers.encode")
    wrap(pipeline.tokenizer, "decode", "tokenizers.decode")
    if index is not None:
        wrap(index, "search_ingredients", "retrieval.search_ingredients")
        wrap(index, "novelty", "retrieval.novelty")
    wrap(engine, "submit", "serving.submit",
         wrap_result=recorder.wrap_handle)
    wrap(engine.prefix_cache, "lookup", "serving.prefix_lookup")
    wrap(engine.prefix_cache, "insert", "serving.prefix_insert")
    model = engine.model
    wrap(model, "prefill", "nn.prefill", size=_tokens)
    wrap(model, "prefill_stacked", "nn.prefill_stacked", size=_tokens)
    wrap(model, "next_logits", "nn.next_logits", size=_rows)
    wrap(model, "verify_chunk", "nn.verify_chunk", size=_rows)


def _tokens(ids) -> int:
    """Tokens in a prefill chunk (all rows)."""
    return int(np.asarray(ids).size)


def _rows(ids) -> int:
    """Batch rows of a decode call."""
    return int(np.asarray(ids).shape[0])


# ---------------------------------------------------------------------
# Arithmetic on finished spans
# ---------------------------------------------------------------------
def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → duration minus the part its child spans cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return {span.id: span.duration - covered(
                span.start, span.end,
                ((c.start, c.end) for c in children[span.id]))
            for span in spans}


def attribute(spans: Sequence[Span]) -> Tuple[Dict[str, float], float]:
    """Seconds of self time per layer over the request spans, and the
    part of it that is the scheduler's own time.

    Only spans that belong to a request (or wave) are counted, plus —
    through the waits — the engine-thread spans that overlap them, so
    the layers sum to the total of the root spans' durations.  The
    second value is what the waits have left after that: time a caller
    waited while the engine thread was in no model or prefix-cache call
    (it is already included under ``serving``).
    """
    own = self_times(spans)
    # One engine thread, top-level spans only: sorted and disjoint.
    background = sorted((s for s in spans
                         if s.request is None and s.parent is None),
                        key=lambda s: s.start)
    ends = [s.end for s in background]
    per_layer: Dict[str, float] = defaultdict(float)
    scheduler = 0.0
    for span in spans:
        if span.request is None:
            continue
        if span.name not in WAIT_SPANS:
            per_layer[span.layer] += own[span.id]
            continue
        remaining = span.duration
        for other in background[bisect.bisect_right(ends, span.start):]:
            if other.start >= span.end:
                break
            overlap = min(other.end, span.end) - max(other.start, span.start)
            per_layer[other.layer] += overlap
            remaining -= overlap
        per_layer[span.layer] += remaining
        scheduler += remaining
    return dict(per_layer), scheduler


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [s.duration for s in spans if s.name == name]


def per_request(spans: Sequence[Span], names: Sequence[str],
                values: Optional[Dict[int, float]] = None) -> List[float]:
    """Per request id, the summed duration (or ``values[span.id]``) of
    the spans called ``names``."""
    totals: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.name in names and span.request is not None:
            totals[span.request] += (values[span.id] if values
                                     else span.duration)
    return list(totals.values())
