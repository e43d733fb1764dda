"""Search-guided decoding: PUCT tree search over decode prefixes.

The shape follows "Monte Carlo Tree Search for Recipe Generation using
GPT-2" (arXiv:2401.05199): **selection** walks the tree by PUCT,
**expansion** grows one child per iteration from the first
``expansion_chunk`` tokens of a fresh rollout, the **rollout** itself
is a full grammar-constrained decode submitted through whatever decode
path the caller wires in (the serving engine — whose ``generate``
is also its degraded sequential fallback — or ``models.generate``),
and **backup** propagates the recipe reward to the root.

Submitting rollouts through :class:`~repro.serving.InferenceEngine` is
what makes the tree cheap: sibling rollouts share the exact prompt+
prefix token sequence, so after the first prefill the engine's prefix
KV trie serves every later sibling at full depth (the benchmark gates
>= 50% hit-token rate within one tree).

Determinism: rollout seeds derive from ``config.seed`` and the
iteration index, engine decoding is bit-identical to sequential
decoding by contract, the reward is deterministic, and ties break by
insertion order — a fixed-seed search is bit-identical across runs
(property-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..models.generation import GenerationConfig
from ..obs import MetricsRegistry
from ..serving import DeadlineExceededError
from .grammar import MIN_BUDGET
from .reward import RewardBreakdown

#: Tokens of a rollout that become the new child node's prefix.
EXPANSION_CHUNK = 16

#: Widest a node may grow before selection must descend through it.
MAX_CHILDREN = 3


@dataclass
class _Node:
    prefix: List[int]
    parent: Optional["_Node"] = None
    children: List["_Node"] = field(default_factory=list)
    visits: int = 0
    value_sum: float = 0.0

    @property
    def mean(self) -> float:
        return self.value_sum / self.visits if self.visits else 0.0


@dataclass
class SearchResult:
    """Outcome of one MCTS decode (or its degraded fallback)."""

    tokens: List[int]
    reward: Optional[RewardBreakdown]
    rollouts: int
    nodes_expanded: int
    search_degraded: bool = False
    #: Prompt tokens submitted across all rollouts — the denominator of
    #: the within-tree prefix-cache hit-token rate.
    prompt_tokens_submitted: int = 0


class MCTSDecoder:
    """One search session; construct per request.

    Parameters
    ----------
    submit:
        ``submit(prompt_ids, config, processors, deadline_ms) ->
        List[int]`` — decodes one rollout.  The caller wires this to
        its decode path; rollout configs carry ``mcts_rollout=True`` so
        engine metrics attribute them to ``strategy="mcts"``.
    build_processors:
        ``build_processors(preamble, budget) -> list`` — fresh
        grammar/constraint/user processors for a rollout that resumes
        ``preamble`` with ``budget`` new tokens (processors are
        stateful; sharing one across rollouts corrupts its FSM state).
    reward:
        ``reward(new_tokens) -> RewardBreakdown`` — scores a finished
        rollout.  Must run the ``decoding.reward`` fault check; any
        exception degrades the search to constrained greedy.
    """

    def __init__(self, *,
                 submit: Callable[..., List[int]],
                 build_processors: Callable[[Sequence[int], int], list],
                 reward: Callable[[Sequence[int]], RewardBreakdown],
                 satisfies: Optional[Callable[[Sequence[int]], bool]] = None,
                 registry: Optional[MetricsRegistry] = None,
                 clock=None,
                 expansion_chunk: int = EXPANSION_CHUNK,
                 max_children: int = MAX_CHILDREN) -> None:
        self.submit = submit
        self.build_processors = build_processors
        self.reward = reward
        self.satisfies = satisfies
        self.clock = clock
        self.expansion_chunk = max(1, int(expansion_chunk))
        self.max_children = max(1, int(max_children))
        self._metrics = None
        if registry is not None:
            self._metrics = {
                "rollouts": registry.counter(
                    "decoding_rollouts_total",
                    help="MCTS rollouts decoded").labels(),
                "nodes": registry.counter(
                    "decoding_nodes_expanded_total",
                    help="MCTS tree nodes expanded").labels(),
                "degraded": registry.counter(
                    "decoding_degraded_total",
                    help="Searches degraded to constrained greedy after "
                         "a reward/constraint evaluation failure").labels(),
                "reward": registry.histogram(
                    "decoding_reward",
                    help="Recipe reward of completed rollouts").labels(),
            }

    def _count(self, name: str, value: float = 1) -> None:
        if self._metrics is not None:
            self._metrics[name].inc(value)

    def _observe_reward(self, value: float) -> None:
        if self._metrics is not None:
            self._metrics["reward"].observe(value)

    # -- tree policy ---------------------------------------------------
    def _select(self, root: _Node, c_puct: float) -> _Node:
        node = root
        while node.children and len(node.children) >= self.max_children:
            parent_visits = max(1, node.visits)
            best, best_score = None, -math.inf
            for child in node.children:
                explore = c_puct * math.sqrt(parent_visits) / (1 + child.visits)
                score = child.mean + explore
                if score > best_score:  # strict: ties keep insertion order
                    best, best_score = child, score
            node = best
        return node

    @staticmethod
    def _backup(node: _Node, value: float) -> None:
        while node is not None:
            node.visits += 1
            node.value_sum += value
            node = node.parent

    @staticmethod
    def _rollout_seed(config: GenerationConfig, iteration: int) -> int:
        return (config.seed * 1_000_003 + iteration * 7_919 + 17) % (2 ** 31)

    # -- search --------------------------------------------------------
    def search(self, prompt_ids: Sequence[int], config: GenerationConfig,
               deadline_ms: Optional[float] = None) -> SearchResult:
        """Run ``config.mcts_rollouts`` guided rollouts; return the best.

        Iteration 0 rolls out constrained greedy from the root, so the
        search result is never worse (under the reward) than the greedy
        baseline the benchmark compares against.  A reward failure —
        the ``decoding.reward`` fault point included — degrades to that
        same constrained greedy decode with ``search_degraded=True``
        rather than failing the request.
        """
        prompt = [int(t) for t in prompt_ids]
        root = _Node(prefix=[])
        # Two leaderboards: rollouts passing the constraint predicate
        # outrank every violating one (the masks block canonical
        # spellings, but a subword tokenizer can spell a banned word
        # along a path the masks cannot see; such a rollout must not
        # win on reward alone).
        best_tokens: Optional[List[int]] = None
        best_reward: Optional[RewardBreakdown] = None
        best_is_valid = False
        rollouts = 0
        nodes_expanded = 0
        submitted = 0
        expiry = None
        if deadline_ms is not None and self.clock is not None:
            expiry = self.clock.now() + deadline_ms / 1e3
        try:
            for iteration in range(config.mcts_rollouts):
                remaining_ms = None
                if expiry is not None:
                    remaining_ms = (expiry - self.clock.now()) * 1e3
                    if remaining_ms <= 0:
                        break
                node = self._select(root, config.mcts_c_puct)
                budget = config.max_new_tokens - len(node.prefix)
                rollout_config = replace(
                    config,
                    strategy="greedy" if iteration == 0 else "sample",
                    seed=self._rollout_seed(config, iteration),
                    max_new_tokens=budget,
                    constraints=None,
                    mcts_rollout=True)
                processors = self.build_processors(node.prefix, budget)
                rollout_prompt = prompt + node.prefix
                try:
                    new_tokens = self.submit(rollout_prompt, rollout_config,
                                             processors, remaining_ms)
                except DeadlineExceededError:
                    break
                submitted += len(rollout_prompt)
                rollouts += 1
                self._count("rollouts")
                full = node.prefix + list(new_tokens)
                breakdown = self.reward(full)
                self._observe_reward(breakdown.total)
                self._backup(node, breakdown.total)
                valid = (self.satisfies(full) if self.satisfies is not None
                         else True)
                better = (best_reward is None
                          or (valid and not best_is_valid)
                          or (valid == best_is_valid
                              and breakdown.total > best_reward.total))
                if better:
                    best_tokens, best_reward = full, breakdown
                    best_is_valid = valid
                if (len(new_tokens) > self.expansion_chunk
                        and len(node.children) < self.max_children
                        and config.max_new_tokens
                        - (len(node.prefix) + self.expansion_chunk)
                        >= MIN_BUDGET):
                    child_prefix = (node.prefix
                                    + list(new_tokens[:self.expansion_chunk]))
                    if not any(child.prefix == child_prefix
                               for child in node.children):
                        child = _Node(prefix=child_prefix, parent=node)
                        child.visits, child.value_sum = 1, breakdown.total
                        node.children.append(child)
                        nodes_expanded += 1
                        self._count("nodes")
        except Exception:  # noqa: BLE001 - reward failure degrades, never 500s
            return self._degrade(prompt, config, deadline_ms,
                                 rollouts, nodes_expanded, submitted)
        if best_tokens is None:
            # Deadline expired before the first rollout finished.
            raise DeadlineExceededError(0, deadline_ms or 0.0, [])
        return SearchResult(tokens=best_tokens, reward=best_reward,
                            rollouts=rollouts, nodes_expanded=nodes_expanded,
                            prompt_tokens_submitted=submitted)

    def _degrade(self, prompt: List[int], config: GenerationConfig,
                 deadline_ms: Optional[float], rollouts: int,
                 nodes_expanded: int, submitted: int) -> SearchResult:
        """Constrained greedy fallback after a reward failure."""
        self._count("degraded")
        greedy = replace(config, strategy="greedy", constraints=None,
                         mcts_rollout=True)
        processors = self.build_processors([], config.max_new_tokens)
        tokens = self.submit(prompt, greedy, processors, deadline_ms)
        return SearchResult(tokens=list(tokens), reward=None,
                            rollouts=rollouts, nodes_expanded=nodes_expanded,
                            search_degraded=True,
                            prompt_tokens_submitted=submitted + len(prompt))
