"""Speculative decoding: cheap drafts, exact batched verification.

Recipe text is highly formulaic — tagged sections, stock phrasing
("preheat the oven", "salt and pepper to taste") — which is exactly
the regime where a cheap draft model guesses the target model's next
tokens correctly most of the time.  Speculative decoding exploits
that: a draft proposes ``k`` tokens, the target model scores the whole
proposal in **one** batched forward
(:meth:`~repro.models.gpt2.GPT2Model.verify_chunk`), and the
longest prefix the target agrees with is accepted.  Each verify
forward emits between 1 and ``k + 1`` tokens, so the expensive model
runs far fewer times per token without changing a single output bit
under greedy decode (the verify pass is bit-identical to sequential
decode — see ``docs/SERVING.md``).

This module holds the draft side: the :class:`DraftModel` protocol,
the n-gram implementation the serving stack uses by default, the
draft-spec parser, and the shared speculative metrics handles.  The
acceptance walk itself lives in :mod:`repro.models.generation`
(it shares ``select_next_token`` with the sequential loop).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import MetricsRegistry

if TYPE_CHECKING:
    from .ngram import NGramLanguageModel


class DraftModel:
    """Protocol for speculative-decoding draft models.

    A draft must be *cheap* — it runs every decode step on top of the
    target model — and is free to be wrong: incorrect proposals cost
    one wasted verify position, never correctness.  Implementations
    provide greedy proposals (for greedy decode) and sampled proposals
    with their full distributions (for rejection sampling).
    """

    #: How many trailing context tokens the draft actually reads, or
    #: ``None`` for "all of them".  Callers use this to avoid
    #: materializing the full prompt+generated history every step.
    context_window: Optional[int] = None

    def propose(self, context: Sequence[int], k: int) -> List[int]:
        """``k`` greedy draft tokens continuing ``context``."""
        raise NotImplementedError

    def propose_sampled(self, context: Sequence[int], k: int,
                        rng: np.random.Generator
                        ) -> Tuple[List[int], np.ndarray]:
        """``k`` sampled draft tokens plus their distributions.

        Returns ``(tokens, dists)`` where ``dists`` is ``(k, vocab)``
        float64 with ``dists[i]`` the distribution token ``i`` was
        drawn from (every ``dists[i, tokens[i]] > 0``) — rejection
        sampling needs the exact proposal probabilities.
        """
        raise NotImplementedError


class NGramDraft(DraftModel):
    """Draft model backed by the stupid-backoff n-gram counts.

    An n-gram table fit on the training corpus proposes in O(vocab)
    numpy work per token — orders of magnitude cheaper than a
    transformer forward — and recipe boilerplate gives it a usefully
    high acceptance rate against targets trained on the same corpus.
    """

    def __init__(self, model: "NGramLanguageModel") -> None:
        self.model = model
        self.context_window = max(model.order - 1, 1)

    @classmethod
    def fit(cls, sequences: Sequence[Sequence[int]], vocab_size: int,
            order: int = 3) -> "NGramDraft":
        """Count n-grams over token-id sequences and wrap them."""
        from .ngram import NGramLanguageModel

        return cls(NGramLanguageModel(vocab_size, order=order).fit(sequences))

    def _walk(self, context: Sequence[int], k: int,
              pick) -> Tuple[List[int], List[np.ndarray]]:
        window = self.context_window
        history = list(context)[-window:]
        tokens: List[int] = []
        dists: List[np.ndarray] = []
        for _ in range(k):
            dist = self.model.next_distribution(history)
            token = pick(dist)
            tokens.append(token)
            dists.append(dist)
            history.append(token)
            del history[:-window]
        return tokens, dists

    def propose(self, context: Sequence[int], k: int) -> List[int]:
        tokens, _ = self._walk(context, k, lambda dist: int(dist.argmax()))
        return tokens

    def propose_sampled(self, context: Sequence[int], k: int,
                        rng: np.random.Generator
                        ) -> Tuple[List[int], np.ndarray]:
        tokens, dists = self._walk(
            context, k,
            lambda dist: int(rng.choice(dist.shape[0], p=dist)))
        return tokens, np.stack(dists, axis=0)


class SpeculativeMetrics:
    """Metric handles for the speculative decode path.

    Shared family names between the standalone loop and the serving
    engine (distinguished by the ``path`` label), so ``/api/metrics``
    shows one coherent view of draft efficiency.
    """

    def __init__(self, registry: MetricsRegistry, path: str) -> None:
        self.draft_tokens = registry.counter(
            "spec_draft_tokens_total",
            help="Draft tokens proposed for verification").labels(path=path)
        self.accepted_tokens = registry.counter(
            "spec_accepted_tokens_total",
            help="Draft tokens accepted by the target model").labels(
                path=path)
        self.verify_forwards = registry.counter(
            "spec_verify_forwards_total",
            help="Batched verify forwards run").labels(path=path)
        self.emitted_tokens = registry.counter(
            "spec_emitted_tokens_total",
            help="Tokens emitted by speculative sequences (accepted + "
                 "corrections + bonus)").labels(path=path)
        self.acceptance_rate = registry.histogram(
            "spec_acceptance_rate",
            help="Fraction of a proposal accepted, one sample per verify"
        ).labels(path=path)
        self._tokens_per_forward = registry.gauge(
            "spec_tokens_per_forward",
            help="Lifetime emitted tokens per verify forward").labels(
                path=path)
        self._emitted = 0
        self._forwards = 0

    def observe_verify(self, proposed: int, accepted: int,
                       emitted: int) -> None:
        """Record one verify forward's outcome."""
        self.verify_forwards.inc()
        self.emitted_tokens.inc(emitted)
        if proposed > 0:
            self.draft_tokens.inc(proposed)
            self.accepted_tokens.inc(accepted)
            self.acceptance_rate.observe(accepted / proposed)
        self._emitted += emitted
        self._forwards += 1
        self._tokens_per_forward.set(self._emitted / self._forwards)
