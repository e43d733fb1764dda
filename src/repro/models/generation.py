"""Decoding strategies: greedy, temperature, top-k, top-p, beam search.

All strategies drive any :class:`~repro.models.base.LanguageModel`
through its incremental API under ``no_grad``, so generation builds no
autograd graph.  Logits processors implement repetition penalty and
the checklist-coverage extension (boosting ingredients the generation
has not yet mentioned — the neural-checklist idea the paper cites as
related work).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..nn import no_grad
from ..nn.attention import PREFILL_CHUNK
from ..obs import MetricsRegistry, Span, Tracer, get_registry, get_tracer
from .base import LanguageModel
from .speculative import DraftModel, SpeculativeMetrics


class _GenerationMetrics:
    """The decode loop's metric handles, resolved once per request."""

    def __init__(self, registry: MetricsRegistry, strategy: str) -> None:
        self.clock = registry.clock
        self.requests = registry.counter(
            "generation_requests_total",
            help="Generation requests by decoding strategy").labels(
                strategy=strategy)
        self.tokens = registry.counter(
            "generation_tokens_total",
            help="Tokens emitted by decoding strategy").labels(
                strategy=strategy)
        self.request_seconds = registry.histogram(
            "generation_request_seconds",
            help="Wall time of one generation request").labels(
                strategy=strategy)
        # Resolve the unlabeled children once: family-level shorthand
        # would repeat the label lookup on every per-token observe.
        self.token_seconds = registry.histogram(
            "generation_token_seconds",
            help="Wall time of one decode step (model forward included)"
        ).labels()
        self.tokens_per_second = registry.gauge(
            "generation_tokens_per_second",
            help="Throughput of the most recent generation request").labels()

    def finish(self, num_tokens: int, elapsed: float) -> None:
        self.requests.inc()
        self.tokens.inc(num_tokens)
        self.request_seconds.observe(elapsed)
        if elapsed > 0:
            self.tokens_per_second.set(num_tokens / elapsed)


@dataclass
class GenerationConfig:
    """Decoding knobs.

    ``strategy`` is one of ``greedy``, ``sample``, ``beam``, ``mcts``.
    For ``sample``, ``temperature``/``top_k``/``top_p`` apply (set
    ``top_k=0`` / ``top_p=1.0`` to disable each filter).  ``mcts``
    (search-guided decoding, ``docs/DECODING.md``) is decomposed by
    :class:`repro.decoding.MCTSDecoder` into seeded greedy/sample
    rollouts — the core decode loops and the engine never see it.
    """

    max_new_tokens: int = 200
    strategy: str = "sample"
    temperature: float = 1.0
    top_k: int = 0
    top_p: float = 1.0
    beam_size: int = 4
    length_penalty: float = 0.7
    repetition_penalty: float = 1.0
    stop_token_id: Optional[int] = None
    seed: int = 0
    #: Draft tokens proposed per speculative verify step; 0 disables
    #: speculative decoding.  Ignored by beam search.
    speculative_k: int = 0
    #: Hard generation constraints: a
    #: :class:`repro.decoding.Constraints` instance (parsed/validated
    #: by the API layer).  ``None`` — the default — leaves every decode
    #: path bit-identical to the unconstrained engine.
    constraints: Optional[object] = None
    #: Rollouts per ``strategy="mcts"`` search; each is a full
    #: constrained decode, so admission charges
    #: ``max_new_tokens * (1 + mcts_rollouts)`` tokens.
    mcts_rollouts: int = 12
    #: PUCT exploration constant for the search tree.
    mcts_c_puct: float = 1.4
    #: Internal marker set by the MCTS driver on the rollout configs it
    #: submits, so engine metrics attribute them to
    #: ``strategy="mcts"``.  Not a client-facing knob.
    mcts_rollout: bool = False

    def validate(self) -> None:
        if self.strategy not in ("greedy", "sample", "beam", "mcts"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        # NaN passes every ``<`` / ``<=`` bound below, and inf passes the
        # one-sided ones; either would reach the shared engine step.
        for name in ("temperature", "top_p", "length_penalty",
                     "repetition_penalty", "mcts_c_puct"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if not 0.0 <= self.length_penalty <= 2.0:
            raise ValueError("length_penalty must be in [0, 2]")
        if self.repetition_penalty < 1.0:
            raise ValueError("repetition_penalty must be >= 1.0")
        if not 0 <= self.speculative_k <= 64:
            raise ValueError("speculative_k must be in [0, 64]")
        if not 1 <= self.mcts_rollouts <= 256:
            raise ValueError("mcts_rollouts must be in [1, 256]")
        if not 0.0 < self.mcts_c_puct <= 10.0:
            raise ValueError("mcts_c_puct must be in (0, 10]")


class LogitsProcessor:
    """Hook that rewrites next-token logits given the history."""

    def __call__(self, logits: np.ndarray, generated: List[int]) -> np.ndarray:
        raise NotImplementedError


class RepetitionPenalty(LogitsProcessor):
    """CTRL-style penalty: dampen logits of already-generated tokens.

    The seen-token index array is maintained incrementally: each call
    consumes only the history suffix the previous call has not seen,
    so the per-step cost is O(new tokens) instead of re-uniquing the
    whole history.  One instance therefore assumes the histories it is
    shown grow monotonically (the decode loops construct a fresh
    processor chain per request, which guarantees that); a shorter
    history resets the cache.
    """

    def __init__(self, penalty: float) -> None:
        if penalty < 1.0:
            raise ValueError("penalty must be >= 1.0")
        self.penalty = penalty
        self._mask: Optional[np.ndarray] = None
        self._seen: Optional[np.ndarray] = None
        self._consumed = 0

    def __call__(self, logits: np.ndarray, generated: List[int]) -> np.ndarray:
        if self.penalty == 1.0 or not generated:
            return logits
        if (self._mask is None or self._mask.shape[0] != logits.shape[0]
                or len(generated) < self._consumed):
            self._mask = np.zeros(logits.shape[0], dtype=bool)
            self._seen = None
            self._consumed = 0
        if len(generated) > self._consumed:
            self._mask[np.asarray(generated[self._consumed:],
                                  dtype=np.intp)] = True
            self._seen = None
            self._consumed = len(generated)
        if self._seen is None:
            # flatnonzero(mask) == np.unique(generated): sorted, deduped
            self._seen = np.flatnonzero(self._mask)
        logits = logits.copy()
        values = logits[self._seen]
        logits[self._seen] = np.where(values > 0, values / self.penalty,
                                      values * self.penalty)
        return logits


class ChecklistBonus(LogitsProcessor):
    """Boost tokens of prompt ingredients not yet mentioned.

    A lightweight take on the neural-checklist model (Kiddon et al.,
    2016, cited by the paper): each prompt ingredient contributes a
    set of token ids; once any of them is generated the ingredient is
    checked off and its boost disappears.
    """

    def __init__(self, ingredient_token_ids: Sequence[Sequence[int]],
                 bonus: float = 2.0) -> None:
        self.ingredient_token_ids = [list(ids) for ids in ingredient_token_ids]
        self.bonus = bonus
        self._done = [False] * len(self.ingredient_token_ids)
        # token id -> indices of ingredients containing it, for O(new
        # tokens) incremental check-off instead of a per-call scan of
        # every pending ingredient's token list.
        self._by_token: dict = {}
        for index, token_ids in enumerate(self.ingredient_token_ids):
            for token in token_ids:
                self._by_token.setdefault(token, []).append(index)
        self._arrays = [np.asarray(ids, dtype=np.intp)
                        for ids in self.ingredient_token_ids]
        self._consumed = 0
        self._bonus_idx: Optional[np.ndarray] = None
        self._bonus_vocab = -1

    @property
    def coverage(self) -> float:
        """Fraction of prompt ingredients mentioned so far."""
        if not self._done:
            return 1.0
        return sum(self._done) / len(self._done)

    def __call__(self, logits: np.ndarray, generated: List[int]) -> np.ndarray:
        if len(generated) < self._consumed:
            # History shrank: a new request (or a failed-over replay of
            # this one) is reusing the instance.  Check-offs from the
            # longer history must not leak into it.
            self._consumed = 0
            self._done = [False] * len(self.ingredient_token_ids)
            self._bonus_idx = None
        for token in generated[self._consumed:]:
            for index in self._by_token.get(token, ()):
                if not self._done[index]:
                    self._done[index] = True
                    self._bonus_idx = None
        self._consumed = len(generated)
        vocab = logits.shape[0]
        if self._bonus_idx is None or self._bonus_vocab != vocab:
            pending = [arr for index, arr in enumerate(self._arrays)
                       if not self._done[index]]
            idx = (np.concatenate(pending) if pending
                   else np.empty(0, dtype=np.intp))
            # Duplicate ids (within or across ingredients) stay
            # duplicated: np.add.at then applies the bonus once per
            # occurrence, matching the original per-token loop.
            self._bonus_idx = idx[(idx >= 0) & (idx < vocab)]
            self._bonus_vocab = vocab
        logits = logits.copy()
        if self._bonus_idx.size:
            np.add.at(logits, self._bonus_idx, self.bonus)
        return logits


class _DecodeWorkspace:
    """Reusable per-thread scratch buffers for one vocab size.

    The sampling filters and softmax in the decode hot loop otherwise
    allocate several vocab-sized float64 arrays per emitted token.
    Buffers are float64 (the dtype ``select_next_token`` promotes
    scores to); all operations write the same values the allocating
    versions produced, so reuse changes nothing bitwise.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.softmax = np.empty(size, dtype=np.float64)
        self.top_k = np.empty(size, dtype=np.float64)
        self.top_p = np.empty(size, dtype=np.float64)
        self.sorted = np.empty(size, dtype=np.float64)
        self.cumsum = np.empty(size, dtype=np.float64)


_workspaces = threading.local()


def _workspace(size: int) -> _DecodeWorkspace:
    ws = getattr(_workspaces, "ws", None)
    if ws is None or ws.size != size:
        ws = _DecodeWorkspace(size)
        _workspaces.ws = ws
    return ws


def _filter_top_k(logits: np.ndarray, k: int,
                  ws: Optional[_DecodeWorkspace] = None) -> np.ndarray:
    if k <= 0 or k >= logits.shape[0]:
        return logits
    # Keep exactly k by index (not by threshold) so tied logits cannot
    # leak extra candidates past the cap.
    keep = np.argpartition(logits, -k)[-k:]
    if ws is None:
        filtered = np.full_like(logits, -np.inf)
    else:
        filtered = ws.top_k
        filtered.fill(-np.inf)
    filtered[keep] = logits[keep]
    return filtered


def _filter_top_p(logits: np.ndarray, p: float,
                  ws: Optional[_DecodeWorkspace] = None) -> np.ndarray:
    if p >= 1.0:
        return logits
    order = np.argsort(logits)[::-1]
    if ws is None:
        sorted_logits = logits[order]
    else:
        sorted_logits = np.take(logits, order, out=ws.sorted)
    probs = _softmax(sorted_logits, out=None if ws is None else ws.softmax)
    cumulative = np.cumsum(probs, out=None if ws is None else ws.cumsum)
    # Keep the smallest prefix whose mass reaches p (always >= 1 token).
    cutoff = int(np.searchsorted(cumulative, p) + 1)
    if ws is None:
        filtered = np.full_like(logits, -np.inf)
    else:
        filtered = ws.top_p
        filtered.fill(-np.inf)
    keep = order[:cutoff]
    filtered[keep] = logits[keep]
    return filtered


def _softmax(logits: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    if out is None:
        shifted = logits - logits.max()
        exp = np.exp(shifted)
        return exp / exp.sum()
    np.subtract(logits, logits.max(), out=out)
    np.exp(out, out=out)
    out /= out.sum()
    return out


def prefill_prompt(model: LanguageModel, prompt_ids: Sequence[int],
                   state=None, start_position: int = 0):
    """Chunked prefill: feed the prompt in fixed position-aligned chunks.

    Chunks always end at absolute multiples of
    :data:`~repro.nn.attention.PREFILL_CHUNK` (plus a final partial
    chunk), regardless of ``start_position``.  That makes
    the sequence of :meth:`~repro.models.base.LanguageModel.prefill`
    calls — and hence the float rounding — a pure function of the
    *absolute* token positions: a serving-engine prefix-cache hit at a
    chunk boundary replays exactly the calls a cold run would make, so
    cached and uncached prefills are bit-identical.

    Returns ``(logits, state)`` where ``logits`` is ``(1, vocab)`` for
    the last prompt token.
    """
    ids = np.asarray(list(prompt_ids))
    if ids.size == 0:
        raise ValueError("prompt must contain at least one token")
    if state is None:
        state = model.start_state(1)
    logits = None
    position = start_position
    end_position = start_position + ids.size
    while position < end_position:
        chunk_end = min(end_position,
                        (position // PREFILL_CHUNK + 1) * PREFILL_CHUNK)
        chunk = ids[position - start_position:chunk_end - start_position]
        logits, state = model.prefill(chunk, state)
        position = chunk_end
    return logits, state


def build_processors(config: GenerationConfig,
                     processors: Sequence[LogitsProcessor] = ()
                     ) -> List[LogitsProcessor]:
    """The per-request processor chain (caller's + config-implied)."""
    all_processors = list(processors)
    if config.repetition_penalty > 1.0:
        all_processors.append(RepetitionPenalty(config.repetition_penalty))
    return all_processors


def _processed_scores(logits: np.ndarray, generated: List[int],
                      processors: Sequence[LogitsProcessor]) -> np.ndarray:
    scores = logits.astype(np.float64)
    for processor in processors:
        scores = processor(scores, generated)
    return scores


def sampling_distribution(logits: np.ndarray, generated: List[int],
                          config: GenerationConfig,
                          processors: Sequence[LogitsProcessor]
                          ) -> np.ndarray:
    """The exact distribution ``strategy="sample"`` draws from.

    Processors, temperature, top-k/top-p filters, softmax — the same
    operations in the same order as :func:`select_next_token`'s
    sampled branch, so speculative rejection sampling targets exactly
    the sequential loop's distribution.  The returned array may alias
    a per-thread workspace buffer: consume it before the next call on
    the same thread.
    """
    ws = _workspace(logits.shape[0])
    scores = _processed_scores(logits, generated, processors)
    scores = scores / config.temperature
    scores = _filter_top_k(scores, config.top_k, ws)
    scores = _filter_top_p(scores, config.top_p, ws)
    return _softmax(scores, out=ws.softmax)


def select_next_token(logits: np.ndarray, generated: List[int],
                      config: GenerationConfig,
                      processors: Sequence[LogitsProcessor],
                      rng: np.random.Generator) -> int:
    """One decode decision: processors, filters, then greedy/sampled pick.

    Shared by the sequential loop below, the speculative walk, and the
    serving engine's batched loop, so all make bit-identical choices
    from identical logits (the engine's batched == sequential equality
    contract).
    """
    if config.strategy == "greedy":
        if not processors:  # the float64 cast is exact and monotone
            return int(logits.argmax())
        return int(_processed_scores(logits, generated, processors).argmax())
    probs = sampling_distribution(logits, generated, config, processors)
    return int(rng.choice(probs.shape[0], p=probs))


@dataclass
class SpecWalkOutcome:
    """Result of one speculative acceptance walk.

    ``accepted`` counts proposal tokens the target agreed with — it is
    also the index into ``verify_chunk``'s ``states`` list to resume
    from.  ``emitted`` counts tokens appended to the history this walk
    (accepted + the correction or bonus token).  ``done`` means the
    walk emitted the stop token or exhausted ``max_new_tokens``.
    """

    accepted: int
    emitted: int
    done: bool


def speculative_walk(chunk_logits: np.ndarray, proposals: Sequence[int],
                     draft_dists: Optional[np.ndarray], generated: List[int],
                     config: GenerationConfig,
                     processors: Sequence[LogitsProcessor],
                     rng: np.random.Generator,
                     on_token=None) -> SpecWalkOutcome:
    """Accept/reject one verified proposal, emitting into ``generated``.

    ``chunk_logits`` is ``(len(proposals) + 1, vocab)`` — the target's
    logits for the chunk ``[pending] + proposals`` where ``pending``
    is the previously emitted, not-yet-verified token: row ``i`` is
    the distribution the sequential loop would see when choosing the
    token at proposal position ``i``, and the final row yields the
    bonus token when every proposal is accepted.

    Greedy decode re-derives each position's argmax via
    :func:`select_next_token`, so the emitted sequence is bit-identical
    to the sequential loop (mismatches merely end the walk early with
    the sequential loop's token as the correction).  Sampled decode
    uses distribution-preserving rejection sampling: accept proposal
    ``t`` with probability ``min(1, p(t) / q(t))`` against the draft
    distribution ``q`` (``draft_dists[i]``), else resample from the
    normalized residual ``max(p - q, 0)`` — each emitted token is an
    exact sample from ``p``, though the rng stream differs from the
    sequential loop's.

    Stateful processors observe exactly one call per emitted position,
    in order, with the same histories as sequential decode.
    """
    emitted = 0
    accepted = 0
    greedy = config.strategy == "greedy"

    def emit(token: int) -> bool:
        nonlocal emitted
        generated.append(token)
        emitted += 1
        if on_token is not None:
            on_token(token)
        if config.stop_token_id is not None and token == config.stop_token_id:
            return True
        return len(generated) >= config.max_new_tokens

    for i in range(len(proposals)):
        proposal = int(proposals[i])
        if greedy:
            choice = select_next_token(chunk_logits[i], generated, config,
                                       processors, rng)
            accept = choice == proposal
        else:
            probs = sampling_distribution(chunk_logits[i], generated, config,
                                          processors)
            q = draft_dists[i]
            q_prob = float(q[proposal])
            accept = (q_prob > 0.0
                      and rng.random() * q_prob < float(probs[proposal]))
            if accept:
                choice = proposal
            else:
                residual = np.maximum(probs - q, 0.0)
                total = residual.sum()
                if total > 0.0:
                    choice = int(rng.choice(residual.shape[0],
                                            p=residual / total))
                else:
                    # p <= q everywhere (p == q up to rounding): any
                    # draw from p is valid.
                    choice = int(rng.choice(probs.shape[0], p=probs))
        if accept:
            accepted += 1
        if emit(choice):
            return SpecWalkOutcome(accepted, emitted, True)
        if not accept:
            return SpecWalkOutcome(accepted, emitted, False)
    # Every proposal accepted: the last row is a free extra token.
    choice = select_next_token(chunk_logits[-1], generated, config,
                               processors, rng)
    done = emit(choice)
    return SpecWalkOutcome(accepted, emitted, done)


def draft_context(draft: DraftModel, prompt_ids: Sequence[int],
                  generated: List[int]) -> List[int]:
    """The history suffix ``draft`` wants, without copying the rest."""
    window = draft.context_window
    if window is not None and len(generated) >= window:
        return generated[-window:]
    history = list(prompt_ids) + generated
    return history if window is None else history[-window:]


def generate(model: LanguageModel, prompt_ids: Sequence[int],
             config: Optional[GenerationConfig] = None,
             processors: Sequence[LogitsProcessor] = (),
             registry: Optional[MetricsRegistry] = None,
             tracer: Optional[Tracer] = None,
             draft: Optional[DraftModel] = None) -> List[int]:
    """Generate a continuation of ``prompt_ids``; returns new ids only.

    Records request/token metrics into ``registry`` and a
    ``generate > prefill / decode > token`` span tree into ``tracer``
    (both default to the process-wide instances; pass
    :class:`~repro.obs.NullRegistry` / :class:`~repro.obs.NullTracer`
    to disable recording).

    When ``config.speculative_k > 0`` and a ``draft`` model is given,
    greedy and sampled decode take the speculative fast path: the
    draft proposes ``speculative_k`` tokens per step and the model
    verifies them in one batched forward (GPT-2 only: a model without
    ``verify_chunk`` raises ``ValueError``).  Greedy output is
    bit-identical to the sequential loop; sampled output follows the
    same distribution but a different rng stream.
    """
    config = config or GenerationConfig()
    config.validate()
    if config.strategy == "mcts":
        raise ValueError(
            "mcts is a search driver, not a decode loop; run it through "
            "repro.decoding.MCTSDecoder (it submits greedy/sample "
            "rollouts here)")
    speculative = (config.strategy != "beam" and config.speculative_k > 0
                   and draft is not None)
    if speculative and not hasattr(model, "verify_chunk"):
        raise ValueError(
            f"speculative decoding needs a model with verify_chunk (GPT-2); "
            f"{type(model).__name__} has none — decode without a draft")
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    metrics = _GenerationMetrics(registry, config.strategy)
    model.eval()
    start = metrics.clock.now()
    with no_grad(), tracer.span("generate", strategy=config.strategy):
        if config.strategy == "beam":
            generated = _beam_search(model, prompt_ids, config, metrics,
                                     tracer)
        elif speculative:
            generated = _speculative_loop(model, prompt_ids, config,
                                          processors, metrics, tracer,
                                          draft, registry)
        else:
            generated = _sample_loop(model, prompt_ids, config, processors,
                                     metrics, tracer)
    metrics.finish(len(generated), metrics.clock.now() - start)
    return generated


def _sample_loop(model: LanguageModel, prompt_ids: Sequence[int],
                 config: GenerationConfig,
                 processors: Sequence[LogitsProcessor],
                 metrics: _GenerationMetrics, tracer: Tracer) -> List[int]:
    rng = np.random.default_rng(config.seed)
    with tracer.span("prefill", tokens=len(prompt_ids)):
        batch_logits, state = prefill_prompt(model, prompt_ids)
        logits = batch_logits[0]
    generated: List[int] = []
    all_processors = build_processors(config, processors)

    now = metrics.clock.now
    # The hot loop only appends (start, end) pairs to a local list;
    # token spans and histogram observations are flushed in one batch
    # after the loop — per-step it costs two clock reads and a tuple.
    token_bounds: List[tuple] = []
    record = token_bounds.append
    with tracer.span("decode") as decode_node:
        for _ in range(config.max_new_tokens):
            step_start = now()
            token = select_next_token(logits, generated, config,
                                      all_processors, rng)
            generated.append(token)
            stop = (config.stop_token_id is not None
                    and token == config.stop_token_id)
            if not stop:
                batch_logits, state = model.next_logits(
                    np.array([token]), state)
                logits = batch_logits[0]
            record((step_start, now()))
            if stop:
                break
    if tracer.enabled:
        decode_node.children.extend(
            Span(name="token", start=s, end=e) for s, e in token_bounds)
    metrics.token_seconds.observe_many([e - s for s, e in token_bounds])
    return generated


def _speculative_loop(model: LanguageModel, prompt_ids: Sequence[int],
                      config: GenerationConfig,
                      processors: Sequence[LogitsProcessor],
                      metrics: _GenerationMetrics, tracer: Tracer,
                      draft: DraftModel,
                      registry: MetricsRegistry) -> List[int]:
    """Draft-and-verify decode loop (standalone, batch of one).

    Invariant between iterations: ``generated[-1]`` has been emitted
    but not yet fed to the model — ``state`` covers the prompt plus
    ``generated[:-1]``.  Each iteration verifies the chunk
    ``[generated[-1]] + proposals`` in one
    :meth:`~repro.models.gpt2.GPT2Model.verify_chunk` call, walks
    the acceptances, and resumes from the state at the last accepted
    position.  If the chunk cannot fit (context window exhausted) the
    loop permanently falls back to plain per-token stepping, which is
    the sequential loop verbatim.
    """
    rng = np.random.default_rng(config.seed)
    sampled = config.strategy == "sample"
    spec_metrics = SpeculativeMetrics(registry, "generate")
    with tracer.span("prefill", tokens=len(prompt_ids)):
        batch_logits, state = prefill_prompt(model, prompt_ids)
        logits = batch_logits[0]
    generated: List[int] = []
    all_processors = build_processors(config, processors)
    prompt_list = list(prompt_ids)
    now = metrics.clock.now
    token_seconds: List[float] = []

    with tracer.span("decode"):
        # First token comes from the prompt logits, exactly as in the
        # sequential loop.
        step_start = now()
        token = select_next_token(logits, generated, config, all_processors,
                                  rng)
        generated.append(token)
        token_seconds.append(now() - step_start)
        done = ((config.stop_token_id is not None
                 and token == config.stop_token_id)
                or len(generated) >= config.max_new_tokens)
        spec_enabled = True
        while not done:
            step_start = now()
            remaining = config.max_new_tokens - len(generated)
            k = min(config.speculative_k, remaining - 1) if remaining > 1 else 0
            dists = None
            if spec_enabled and k > 0:
                context = draft_context(draft, prompt_list, generated)
                if sampled:
                    proposals, dists = draft.propose_sampled(context, k, rng)
                else:
                    proposals = draft.propose(context, k)
            else:
                proposals = []
            chunk = np.asarray([[generated[-1]] + list(proposals)])
            try:
                chunk_logits, states = model.verify_chunk(chunk, state)
            except ValueError:
                # Chunk no longer fits the model's context window; the
                # sequential path handles that (sliding window), so
                # finish the request exactly as sequential decode would.
                spec_enabled = False
                batch_logits, state = model.next_logits(
                    np.array([generated[-1]]), state)
                token = select_next_token(batch_logits[0], generated, config,
                                          all_processors, rng)
                generated.append(token)
                token_seconds.append(now() - step_start)
                done = ((config.stop_token_id is not None
                         and token == config.stop_token_id)
                        or len(generated) >= config.max_new_tokens)
                continue
            outcome = speculative_walk(chunk_logits[0], proposals, dists,
                                       generated, config, all_processors, rng)
            spec_metrics.observe_verify(len(proposals), outcome.accepted,
                                        outcome.emitted)
            elapsed = now() - step_start
            token_seconds.extend([elapsed / outcome.emitted] * outcome.emitted)
            done = outcome.done
            if not done:
                state = states[outcome.accepted]
    metrics.token_seconds.observe_many(token_seconds)
    return generated


@dataclass
class _Beam:
    tokens: List[int] = field(default_factory=list)
    log_prob: float = 0.0
    state: object = None
    logits: Optional[np.ndarray] = None
    finished: bool = False

    def score(self, length_penalty: float = 0.7) -> float:
        length = max(len(self.tokens), 1)
        return self.log_prob / (length ** length_penalty)


def _beam_search(model: LanguageModel, prompt_ids: Sequence[int],
                 config: GenerationConfig, metrics: _GenerationMetrics,
                 tracer: Tracer) -> List[int]:
    """Standard length-normalized beam search (no sampling)."""
    with tracer.span("prefill", tokens=len(prompt_ids)):
        batch_logits, state = prefill_prompt(model, prompt_ids)
        logits = batch_logits[0]
    beams = [_Beam(state=state, logits=logits)]
    completed: List[_Beam] = []

    with tracer.span("decode"):
        return _beam_loop(model, config, beams, completed, metrics)


def _beam_loop(model: LanguageModel, config: GenerationConfig,
               beams: List[_Beam], completed: List[_Beam],
               metrics: _GenerationMetrics) -> List[int]:
    for _ in range(config.max_new_tokens):
        step_start = metrics.clock.now()
        candidates: List[_Beam] = []
        for beam in beams:
            if beam.finished:
                completed.append(beam)
                continue
            log_probs = np.log(_softmax(beam.logits.astype(np.float64)) + 1e-12)
            top = np.argsort(log_probs)[::-1][:config.beam_size]
            for token in top:
                candidates.append(_Beam(
                    tokens=beam.tokens + [int(token)],
                    log_prob=beam.log_prob + float(log_probs[token]),
                    state=beam.state,
                    logits=None,
                    finished=(config.stop_token_id is not None
                              and int(token) == config.stop_token_id),
                ))
        if not candidates:
            break
        candidates.sort(key=lambda b: b.score(config.length_penalty),
                        reverse=True)
        beams = candidates[:config.beam_size]
        # Advance the survivors one step.  Siblings cut from the same
        # parent share that parent's state *object*, and a transformer
        # KV cache appends into spare capacity in place — so when a
        # state is shared, every sibling must resume from a frozen
        # snapshot (append then copies instead of writing the shared
        # buffer).  A state with a single surviving user keeps the
        # cheap in-place path.
        state_users: dict = {}
        for beam in beams:
            if not beam.finished:
                sid = id(beam.state)
                state_users[sid] = state_users.get(sid, 0) + 1
        for beam in beams:
            if beam.finished:
                continue
            state = beam.state
            if state_users[id(state)] > 1:
                state = model.snapshot_state(state)
            logits, new_state = model.next_logits(
                np.array([beam.tokens[-1]]), state)
            beam.logits = logits[0]
            beam.state = new_state
        metrics.token_seconds.observe(metrics.clock.now() - step_start)
        if all(beam.finished for beam in beams):
            completed.extend(beams)
            break
    completed.extend(beam for beam in beams if not beam.finished)
    if not completed:
        return beams[0].tokens
    best = max(completed, key=lambda b: b.score(config.length_penalty))
    return best.tokens
