"""Process-wide metrics: counters, gauges, histograms, labeled series.

The registry is the single place the serving stack reports numbers to:
the inference engine, admission control, the job queue, the decode
loop and the trainer write here, and ``GET /api/metrics`` /
``repro metrics`` read from it.

Design points:

* **Families and labels.**  ``registry.counter("engine_requests_total")``
  returns a family; ``family.labels(outcome="completed", strategy="mcts")``
  returns the child series for that label set.  A family used without
  labels acts as its own single unlabeled series, so simple metrics
  stay one-liners.
* **Histograms keep a reservoir.**  Exact count/sum/min/max plus a
  fixed-size uniform reservoir (Vitter's algorithm R with a seeded
  generator) for percentiles — bounded memory no matter how many
  observations arrive, and deterministic given the observation order.
* **Injectable clock.**  The registry stamps nothing by itself, but
  helpers like :meth:`Histogram.time` read time through the registry's
  clock so tests can drive a :class:`~repro.obs.clock.ManualClock`.
* **Null variant.**  :class:`NullRegistry` accepts the full API and
  records nothing — the "metrics off" baseline the overhead benchmark
  compares against.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .clock import Clock, SystemClock

LabelKey = Tuple[Tuple[str, str], ...]

_DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (queue depth, loss, ...)."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Streaming distribution summary with bounded memory.

    Tracks exact ``count``/``sum``/``min``/``max`` and a uniform
    reservoir of at most ``reservoir_size`` observations for
    percentile estimates.
    """

    def __init__(self, reservoir_size: int = 512, seed: int = 0,
                 clock: Optional[Clock] = None) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.reservoir_size = reservoir_size
        # random.Random: scalar draws are several times faster than a
        # numpy Generator, and this sits on the per-token hot path.
        self._rng = random.Random(seed)
        self._reservoir: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._clock = clock or SystemClock()
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if len(self._reservoir) < self.reservoir_size:
                self._reservoir.append(value)
            else:
                # Algorithm R: replace a random slot with prob size/count.
                slot = self._rng.randrange(self._count)
                if slot < self.reservoir_size:
                    self._reservoir[slot] = value

    def observe_many(self, values) -> None:
        """Record a batch of observations in one locked, vectorized pass.

        Equivalent to calling :meth:`observe` per value (same exact
        count/sum/min/max, same uniform-reservoir guarantee) but far
        cheaper per element — hot loops collect locally and flush once.
        Deterministic given the sequence of ``observe``/``observe_many``
        calls, though the two consume the seeded stream differently.
        """
        arr = np.asarray(values, dtype=float)
        n = int(arr.size)
        if n == 0:
            return
        with self._lock:
            before = self._count
            self._count = before + n
            self._sum += float(arr.sum())
            lo, hi = float(arr.min()), float(arr.max())
            if self._min is None or lo < self._min:
                self._min = lo
            if self._max is None or hi > self._max:
                self._max = hi
            reservoir = self._reservoir
            size = self.reservoir_size
            fill = min(size - len(reservoir), n)
            if fill > 0:
                reservoir.extend(float(v) for v in arr[:fill])
            if fill < n:
                # Algorithm R for the tail: element with running count c
                # is admitted iff u < size/c, at slot floor(u*c) — one
                # uniform draw per element, identical admission law to
                # the scalar path.
                tail = arr[fill:]
                counts = np.arange(before + fill + 1, before + n + 1)
                rng_random = self._rng.random
                u = np.array([rng_random() for _ in range(n - fill)])
                slots = (u * counts).astype(np.int64)
                for slot, value in zip(slots, tail):
                    if slot < size:
                        reservoir[int(slot)] = float(value)

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager observing the elapsed seconds of its body."""
        start = self._clock.now()
        try:
            yield
        finally:
            self.observe(self._clock.now() - start)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (q in [0, 100]); nan when empty."""
        with self._lock:
            if not self._reservoir:
                return float("nan")
            return float(np.percentile(np.asarray(self._reservoir), q))

    def summary(self, quantiles: Tuple[float, ...] = _DEFAULT_QUANTILES
                ) -> Dict[str, float]:
        """count / sum / mean / min / max / requested percentiles."""
        with self._lock:
            reservoir = np.asarray(self._reservoir) if self._reservoir else None
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        out: Dict[str, float] = {
            "count": float(count),
            "sum": total,
            "mean": total / count if count else float("nan"),
            "min": lo if lo is not None else float("nan"),
            "max": hi if hi is not None else float("nan"),
        }
        for q in quantiles:
            key = f"p{int(q * 100)}"
            out[key] = (float(np.percentile(reservoir, q * 100))
                        if reservoir is not None else float("nan"))
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric and its labeled children.

    ``family.labels(route="/x")`` returns (creating on first use) the
    child for that label set.  Calling instrument methods directly on
    the family operates on the unlabeled child, so metrics without
    labels need no extra step.
    """

    def __init__(self, name: str, kind: str, help: str = "",
                 clock: Optional[Clock] = None, **kind_kwargs) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self._clock = clock or SystemClock()
        self._kind_kwargs = kind_kwargs
        self._children: Dict[LabelKey, object] = {}
        self._lock = threading.Lock()

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(clock=self._clock, **self._kind_kwargs)
        return _KINDS[self.kind]()

    def labels(self, **labels: str):
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def series(self) -> List[Tuple[LabelKey, object]]:
        """All (label-key, child) pairs, sorted for stable exposition."""
        with self._lock:
            return sorted(self._children.items())

    # Unlabeled shorthand — delegate to the () child.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def observe_many(self, values) -> None:
        self.labels().observe_many(values)

    def time(self):
        return self.labels().time()

    @property
    def value(self) -> float:
        return self.labels().value

    def summary(self, quantiles: Tuple[float, ...] = _DEFAULT_QUANTILES):
        return self.labels().summary(quantiles)


class MetricsRegistry:
    """The process-wide metric namespace.

    Getting a metric is idempotent: ``registry.counter("x")`` returns
    the same family every call, so instrumented code never has to
    coordinate "who creates it first".  Re-using a name with a
    different kind raises — that is always a bug.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock or SystemClock()
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instrument accessors
    # ------------------------------------------------------------------
    def _family(self, name: str, kind: str, help: str,
                **kind_kwargs) -> MetricFamily:
        if not name or not name.replace("_", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help=help, clock=self.clock,
                                      **kind_kwargs)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"requested {kind}")
            return family

    def counter(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "gauge", help)

    def histogram(self, name: str, help: str = "",
                  reservoir_size: int = 512) -> MetricFamily:
        return self._family(name, "histogram", help,
                            reservoir_size=reservoir_size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._families

    def reset(self) -> None:
        """Drop every family (tests; a fresh process in one call)."""
        with self._lock:
            self._families.clear()


class _NullChild:
    """Accepts every instrument call; stores nothing."""

    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    @contextmanager
    def time(self) -> Iterator[None]:
        yield

    def percentile(self, q: float) -> float:
        return float("nan")

    def summary(self, quantiles: Tuple[float, ...] = _DEFAULT_QUANTILES):
        return {}


class _NullFamily(_NullChild):
    def labels(self, **labels: str) -> "_NullFamily":
        return self

    def series(self) -> List[Tuple[LabelKey, object]]:
        return []


class NullRegistry(MetricsRegistry):
    """A registry that records nothing — metrics 'off'.

    Instrumented code paths keep working unchanged; the overhead
    benchmark uses this as its baseline.
    """

    _NULL = _NullFamily()

    def _family(self, name: str, kind: str, help: str, **kind_kwargs):
        return self._NULL

    def families(self) -> List[MetricFamily]:
        return []


# ----------------------------------------------------------------------
# Process-wide default
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry instrumented code defaults to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
