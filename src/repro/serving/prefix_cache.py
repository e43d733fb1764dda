"""Prefix KV-cache: a token-trie with an LRU byte budget.

Recipe prompts share long prefixes — every Ratatouille request starts
with the same control tokens and ingredient-list scaffold, and with
retrieval on, a ~200-token exemplar — so the engine stores decoder
state (KV caches + last-position logits) keyed on each prefilled
prompt and resumes a later prompt from the deepest usable prefix
instead of re-running prefill from scratch.

Correctness constraint (see ``docs/SERVING.md`` §4): float rounding in
the numpy/BLAS stack depends on the exact gemm shapes, so a cache hit
is only *bit-reproducible* if resuming from it issues exactly the same
trunk calls a cold run would.  :func:`repro.models.prefill_prompt`
splits prompts at absolute multiples of the chunk size, therefore a
hit is only eligible when its depth is a chunk multiple — or when a
stored entry matches the whole query, in which case no prefill runs
at all.  Construct with ``chunk_size=None`` to disable that gate
(useful for models whose prefill is an exact per-token loop).

One entry per prompt serves its prefixes too: given a ``cut``,
:meth:`PrefixCache.lookup` answers a query that leaves every stored
path with the deepest chunk-aligned depth shorter than the query, cut
from an entry stored under that trie node — exact, because every
prompt through the node ran the same chunk calls over those tokens.

Every method takes the cache lock and snapshots are frozen
(copy-on-append), so readers on other threads (``/api/engine``, the
spill) see a consistent trie.  The cache counts what is the cache's —
evictions, bytes, hit rate — itself, at the point of change; the engine
counts only the outcome of its own lookups.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from ..obs import MetricsRegistry, NullRegistry


class _Node:
    """One trie node; ``entry`` is the snapshot stored at this depth.

    Eviction prunes entry-less leaves, so every node has an entry in
    its subtree — what a cut lookup relies on.
    """

    __slots__ = ("children", "parent", "token", "entry")

    def __init__(self, parent: Optional["_Node"] = None,
                 token: Optional[int] = None) -> None:
        self.children: Dict[int, "_Node"] = {}
        self.parent = parent
        self.token = token
        self.entry: Optional["_Entry"] = None


@dataclass
class _Entry:
    key: Tuple[int, ...]
    value: Any
    nbytes: int
    node: _Node


@dataclass
class PrefixCacheStats:
    """Point-in-time counters; ``snapshot()`` returns a plain dict."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0
    hit_tokens: int = 0
    lookup_tokens: int = 0
    bytes: int = 0
    entries: int = 0

    def as_dict(self) -> Dict[str, float]:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions, "rejected": self.rejected,
            "hit_tokens": self.hit_tokens,
            "lookup_tokens": self.lookup_tokens,
            "bytes": self.bytes,
            "entries": self.entries,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            # Token-denominated reuse: of every prompt token looked up,
            # the fraction served from a stored snapshot.  Computed here
            # — under the same lock as the raw counters via
            # ``stats_snapshot`` — so a reader never mixes a numerator
            # and denominator from two points in time.
            "hit_token_rate": (self.hit_tokens / self.lookup_tokens
                               if self.lookup_tokens else 0.0),
        }


class PrefixCache:
    """LRU map from token prefixes to opaque snapshots, budgeted in bytes.

    Invariants (property-tested in ``tests/test_serving_prefix_cache.py``):

    * total stored bytes never exceed ``max_bytes``;
    * an entry larger than the whole budget is rejected outright;
    * evicted entries are never returned by :meth:`lookup`;
    * :meth:`lookup` returns the deepest *eligible* prefix of the query
      — stored, or cut from a stored entry — and refreshes the LRU
      recency of the entry it came from.

    ``registry`` receives the cache-owned series
    (``engine_prefix_cache_{evictions_total,bytes,hit_rate}``); without
    one the cache keeps only its in-memory :attr:`stats`.
    """

    def __init__(self, max_bytes: int, chunk_size: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 or None")
        self.max_bytes = max_bytes
        self.chunk_size = chunk_size
        self._root = _Node()
        self._entries: "OrderedDict[Tuple[int, ...], _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = PrefixCacheStats()
        registry = registry if registry is not None else NullRegistry()
        self._evictions_total = registry.counter(
            "engine_prefix_cache_evictions_total",
            help="Snapshots evicted to stay under the byte budget").labels()
        self._bytes_gauge = registry.gauge(
            "engine_prefix_cache_bytes",
            help="Bytes currently held by the prefix cache").labels()
        self._hit_rate_gauge = registry.gauge(
            "engine_prefix_cache_hit_rate",
            help="Lifetime prefix-cache hit rate").labels()

    # ------------------------------------------------------------------
    def _eligible(self, depth: int, query_len: int) -> bool:
        if self.chunk_size is None:
            return True
        return depth == query_len or depth % self.chunk_size == 0

    def insert(self, tokens: Iterable[int], value: Any, nbytes: int) -> bool:
        """Store ``value`` for the exact token path; returns False if rejected."""
        key = tuple(int(t) for t in tokens)
        if not key:
            raise ValueError("cannot cache an empty prefix")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        with self._lock:
            if nbytes > self.max_bytes:
                self.stats.rejected += 1
                return False
            existing = self._entries.get(key)
            if existing is not None:
                self.stats.bytes -= existing.nbytes
                existing.value = value
                existing.nbytes = nbytes
                self._entries.move_to_end(key)
            else:
                node = self._root
                for token in key:
                    child = node.children.get(token)
                    if child is None:
                        child = _Node(parent=node, token=token)
                        node.children[token] = child
                    node = child
                node.entry = _Entry(key=key, value=value, nbytes=nbytes,
                                    node=node)
                self._entries[key] = node.entry
                self.stats.entries += 1
            self.stats.bytes += nbytes
            while self.stats.bytes > self.max_bytes:
                self._evict_lru()
            self._bytes_gauge.set(self.stats.bytes)
            return True

    def lookup(self, tokens: Iterable[int],
               cut: Optional[Callable[[Any, int], Any]] = None
               ) -> Tuple[int, Any]:
        """Deepest eligible prefix of ``tokens``.

        A stored entry on the query's path answers at its own depth.
        With ``cut`` — ``cut(value, depth)`` returns the value for the
        first ``depth`` tokens of a stored entry, or ``None`` when that
        entry cannot be cut — the deepest chunk-aligned depth shorter
        than the query answers too, cut from an entry stored under that
        node.  Returns ``(depth, value)``; ``(0, None)`` on a miss.
        """
        key = tuple(int(t) for t in tokens)
        step = self.chunk_size or 1
        with self._lock:
            self.stats.lookup_tokens += len(key)
            depth, value, source, cut_at = 0, None, None, None
            node = self._root
            for at, token in enumerate(key, start=1):
                node = node.children.get(token)
                if node is None:
                    break
                if node.entry is not None and self._eligible(at, len(key)):
                    depth, value, source = at, node.entry.value, node.entry
                if at % step == 0 and at < len(key):
                    cut_at = (at, node)
            if cut is not None and cut_at is not None and cut_at[0] > depth:
                at, node = cut_at
                while node.entry is None:  # pruned trie: one lies below
                    node = next(iter(node.children.values()))
                derived = cut(node.entry.value, at)
                if derived is not None:
                    depth, value, source = at, derived, node.entry
            if source is None:
                self.stats.misses += 1
            else:
                self._entries.move_to_end(source.key)
                self.stats.hits += 1
                self.stats.hit_tokens += depth
            self._hit_rate_gauge.set(
                self.stats.hits / (self.stats.hits + self.stats.misses))
            return depth, value

    # ------------------------------------------------------------------
    def _evict_lru(self) -> None:
        _, entry = self._entries.popitem(last=False)  # LRU end
        self.stats.bytes -= entry.nbytes
        self.stats.entries -= 1
        self.stats.evictions += 1
        self._evictions_total.inc()
        node = entry.node
        node.entry = None
        # Prune now-empty branches so the trie does not leak nodes.
        while (node.parent is not None and not node.children
               and node.entry is None):
            parent = node.parent
            del parent.children[node.token]
            node.parent = None
            node = parent

    def entries_snapshot(self) -> "list[Tuple[Tuple[int, ...], Any, int]]":
        """Every entry as ``(key, value, nbytes)``, oldest (LRU) first.

        Taken under the cache lock so the spill layer
        (:class:`repro.durability.CacheSpill`) sees a consistent cut;
        re-inserting the tuples in order reproduces the LRU ordering.
        """
        with self._lock:
            return [(key, entry.value, entry.nbytes)
                    for key, entry in self._entries.items()]

    def stats_snapshot(self) -> Dict[str, float]:
        """Atomic copy of the counters, taken under the cache lock.

        The metrics path must use this rather than reading
        ``self.stats`` fields directly: a concurrent insert/evict (from
        any of the engines sharing the cache) can otherwise interleave
        between field reads and tear a rate's numerator from its
        denominator.
        """
        with self._lock:
            return self.stats.as_dict()

    def clear(self) -> None:
        with self._lock:
            self._root = _Node()
            self._entries.clear()
            self.stats.bytes = 0
            self.stats.entries = 0
            self._bytes_gauge.set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, tokens: Iterable[int]) -> bool:
        key = tuple(int(t) for t in tokens)
        with self._lock:
            return key in self._entries
