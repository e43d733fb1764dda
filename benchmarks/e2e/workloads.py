"""The four workloads: frozen sizes, latency limits, request generators.

A workload is a list of JSON payloads generated once from ``--seed``
and replayed unchanged on every pass; the server (or the engine) only
ever receives these payloads.  Lists are built in *blocks* that each
contain every decoding shape exactly once, so two lists of different
seeds — or different lengths — carry the same mix of work and differ
only in order and in which ingredient sets they name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

#: ``--seconds`` the frozen sizes below were measured for.  A different
#: ``--seconds`` scales every list linearly (still fixed work: the size
#: is a function of the arguments, never of how fast the run goes).
BASE_SECONDS = 18

DISTINCT_SETS = 64
#: Sampling knobs stated in every payload: the backend's defaults for
#: them differ from ``GenerationConfig``'s, and the sequential oracle
#: builds its config from the payload alone.
SAMPLING = {"temperature": 0.8, "top_k": 20}
INGREDIENTS_PER_SET = 3
WAVE = 64
ZIPF_S = 0.6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "json" → POST /api/generate, "sse" → POST /api/generate_stream,
    #: "engine" → in-process InferenceEngine.submit.
    transport: str
    retrieval: bool
    #: Closed-loop client threads (at most ``min(2, nproc)``).
    clients: int
    #: Timed passes per run, and how many of them are kept: the ones
    #: with the shortest wall time.  The work of a pass is fixed and a
    #: neighbour on a shared box only ever makes a pass slower, so the
    #: passes dropped are the disturbed ones, and every timing is taken
    #: over the requests of the kept passes pooled.
    passes: int
    kept: int
    #: Requests in one pass at ``BASE_SECONDS`` (builder-measured so the
    #: timed passes take about ``BASE_SECONDS`` together).
    requests_per_pass: int
    #: The list length is always a multiple of this.
    block: int
    #: Latency limit of ``slo_share``: 3x the builder-measured
    #: ``latency_p90_ms``, frozen here, so that only a stall misses it.
    slo_ms: float

    @property
    def path(self) -> str:
        return {"json": "/api/generate",
                "sse": "/api/generate_stream"}[self.transport]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="http_sync",
        why="POST /api/generate, 2 closed-loop clients, 20-token prompts: "
            "webapp, resilience and small-batch decode dominate; the "
            "prefix cache can save only a 20-token prefill",
        transport="json", retrieval=False,
        clients=2, passes=20, kept=4, requests_per_pass=30, block=6,
        slo_ms=260.0),
    Workload(
        name="http_stream",
        why="the http_sync requests over SSE /api/generate_stream, a "
            "flush per token: the one HTTP workload where time to first "
            "token differs from latency",
        transport="sse", retrieval=False,
        clients=2, passes=20, kept=5, requests_per_pass=24, block=6,
        slo_ms=350.0),
    Workload(
        name="rag_shared_prefix",
        why="retrieve_k=1 puts a ~200-token prefix on each prompt, 1 client, "
            "Zipf(0.6) over 64 sets: prefill, prefix-cache hits, misses and "
            "evictions, tokenizer and retrieval dominate",
        transport="json", retrieval=True,
        clients=1, passes=12, kept=3, requests_per_pass=40, block=1,
        slo_ms=150.0),
    Workload(
        name="engine_batch",
        why="in-process InferenceEngine, waves of 64 greedy requests at "
            "batch 8, no HTTP: decode kernels and scheduler do the work, a "
            "webapp change must not move it",
        transport="engine", retrieval=False,
        clients=1, passes=8, kept=2, requests_per_pass=64, block=WAVE,
        slo_ms=6200.0),
)}


def scaled_count(workload: Workload, seconds: float) -> int:
    """Requests per pass for ``--seconds``: linear in seconds, a whole
    number of blocks, never fewer than one block."""
    blocks = round(workload.requests_per_pass * seconds / BASE_SECONDS
                   / workload.block)
    return max(1, blocks) * workload.block


def _ingredient_sets(rng: random.Random, catalog: Sequence[str],
                     cost: Optional[Callable[[List[str]], float]]
                     ) -> List[List[str]]:
    """``DISTINCT_SETS`` distinct ingredient sets.

    With ``cost`` (the prompt length a set leads to), four times as
    many candidates are drawn and the sets nearest the median cost are
    kept, in draw order: which ingredients a seed picks then changes
    the content of the prompts but hardly their size, so two seeds ask
    the server for the same amount of work.
    """
    wanted = DISTINCT_SETS * (4 if cost else 1)
    seen = set()
    sets: List[List[str]] = []
    while len(sets) < wanted:
        chosen = rng.sample(list(catalog), INGREDIENTS_PER_SET)
        key = tuple(sorted(chosen))
        if key not in seen:
            seen.add(key)
            sets.append(chosen)
    if cost is None:
        return sets
    costs = [cost(chosen) for chosen in sets]
    middle = sorted(costs)[len(costs) // 2]
    nearest = sorted(range(len(sets)),
                     key=lambda i: (abs(costs[i] - middle), i))
    return [sets[i] for i in sorted(nearest[:DISTINCT_SETS])]


def zipf_counts(n: int, ranks: int = DISTINCT_SETS, s: float = ZIPF_S
                ) -> List[int]:
    """How often each rank appears in ``n`` draws: the Zipf expectation
    rounded by largest remainder, so every list of one length holds the
    same multiset of ranks and only the order depends on the seed."""
    weights = [1.0 / (rank ** s) for rank in range(1, ranks + 1)]
    total = sum(weights)
    exact = [n * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(ranks), key=lambda i: exact[i] - counts[i],
                          reverse=True)
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    return counts


def make_requests(workload: Workload, seed: int, count: int,
                  catalog: Sequence[str],
                  cost: Optional[Callable[[List[str]], float]] = None
                  ) -> List[dict]:
    """The frozen request list of one run.

    ``catalog`` is the ingredient-name list the UI's picker offers
    (``repro.recipedb.default_catalog()``) and ``cost`` the prompt
    length an ingredient set leads to (see ``_ingredient_sets``);
    passing both in keeps this module importable without the repo on
    ``sys.path``.
    """
    if count % workload.block:
        raise ValueError(f"{workload.name}: count {count} is not a "
                         f"multiple of {workload.block}")
    rng = random.Random(f"{workload.name}:{seed}")
    sets = _ingredient_sets(rng, catalog, cost)
    requests: List[dict] = []
    if workload.retrieval:
        # Which rank is asked for when is a property of the workload,
        # not of the seed: the cache sees the same pattern of repeats
        # on every run, the seed decides what the sets contain.
        ranks = [rank for rank, times in enumerate(zipf_counts(count))
                 for _ in range(times)]
        random.Random(workload.name).shuffle(ranks)
        for rank in ranks:
            requests.append({"ingredients": sets[rank], "retrieve_k": 1,
                             "max_new_tokens": 24, "strategy": "greedy",
                             "seed": rng.randrange(2 ** 31), **SAMPLING})
        return requests
    if workload.transport == "engine":
        shapes = [(budget, "greedy") for budget in (64, 96, 128)]
    else:
        shapes = [(budget, strategy) for budget in (32, 64, 96)
                  for strategy in ("greedy", "sample")]
    while len(requests) < count:
        # One block: every shape equally often.  HTTP clients take the
        # shapes in shuffled order; a wave keeps the cyclic order,
        # because which budgets share a batch of 8 sets every latency
        # in the wave.
        block = [shapes[i % len(shapes)] for i in range(workload.block)]
        if workload.transport != "engine":
            rng.shuffle(block)
        for budget, strategy in block:
            requests.append({"ingredients": rng.choice(sets),
                             "max_new_tokens": budget, "strategy": strategy,
                             "seed": rng.randrange(2 ** 31), **SAMPLING})
    return requests

