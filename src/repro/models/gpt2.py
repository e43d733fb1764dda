"""GPT-2 language model (the paper's main model, Sec. IV-B).

Architecture-faithful to Radford et al. (2019): learned token and
position embeddings, a stack of pre-LN transformer blocks with causal
multi-head attention and GELU MLPs, a final LayerNorm, and a weight-
tied output head (logits = h @ W_embedᵀ).

The paper fine-tunes HuggingFace's pretrained ``distilgpt2`` (6 layers,
d=768) and ``gpt2-medium`` (24 layers, d=1024).  Pretrained weights
are unavailable offline, so the presets below keep the two models'
*relative* capacity ordering at a scale trainable on one CPU core;
the Table-I benchmark documents the scaling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..nn import (Dropout, Embedding, KVCache, LayerNorm, ModuleList, Tensor,
                  TransformerBlock, is_grad_enabled)
from ..nn.attention import KVArena, KVSlot, linear_rows, padded_head
from ..nn.kernels import InferenceKernels, WeightStore
from .base import LanguageModel


@dataclass(frozen=True)
class GPT2Config:
    """Hyperparameters for :class:`GPT2Model`."""

    vocab_size: int
    context_length: int = 256
    d_model: int = 128
    num_layers: int = 4
    num_heads: int = 4
    d_ff: int = 512
    dropout: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.context_length < 2:
            raise ValueError("context_length must be >= 2")
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class GPT2State:
    """Decoding state: per-layer KV caches + absolute position cursor."""

    caches: List[KVCache]
    position: int

    @property
    def nbytes(self) -> int:
        """The live keys' and values' bytes: what a prefix-cache entry
        (a :meth:`GPT2Model.compact_state`) retains."""
        return sum(c.keys.nbytes + c.values.nbytes for c in self.caches)


class GPT2Model(LanguageModel):
    """GPT-2: token+position embeddings → blocks → LN → tied head."""

    model_type = "gpt2"

    def __init__(self, config: GPT2Config) -> None:
        config.validate()
        super().__init__(config.vocab_size)
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.wte = Embedding(config.vocab_size, config.d_model, rng)
        self.wpe = Embedding(config.context_length, config.d_model, rng, std=0.01)
        self.drop = Dropout(config.dropout, rng)
        self.blocks = ModuleList([
            TransformerBlock(config.d_model, config.num_heads, config.d_ff,
                             config.dropout, rng, num_layers=config.num_layers)
            for _ in range(config.num_layers)
        ])
        self.ln_f = LayerNorm(config.d_model)
        self._head: Optional[np.ndarray] = None  # see _project_rows

    # ------------------------------------------------------------------
    # Shared trunk
    # ------------------------------------------------------------------
    def _trunk(self, ids: np.ndarray, position_offset: int,
               caches: Optional[List[Optional[KVCache]]] = None
               ) -> Tuple[Tensor, List[Optional[KVCache]]]:
        batch, time = ids.shape
        if position_offset + time > self.config.context_length:
            raise ValueError(
                f"sequence of length {position_offset + time} exceeds context "
                f"length {self.config.context_length}")
        positions = np.arange(position_offset, position_offset + time)
        x = self.wte(ids) + self.wpe(np.broadcast_to(positions, (batch, time)))
        x = self.drop(x)
        new_caches: List[Optional[KVCache]] = []
        for index, block in enumerate(self.blocks):
            cache = caches[index] if caches is not None else None
            x, new_cache = block(x, cache=cache)
            new_caches.append(new_cache)
        x = self.ln_f(x)
        return x, new_caches

    def _project(self, hidden: Tensor) -> Tensor:
        """Weight-tied output projection: ``hidden @ wteᵀ``."""
        return hidden @ self.wte.weight.swapaxes(0, 1)

    def _project_rows(self, hidden: Tensor) -> np.ndarray:
        """The tied head for ``(N, 1, d)`` rows the decoder reads, with
        batch-invariant bits: one GEMM against a padded ``wteᵀ`` copy
        (docs/KERNELS.md §1b), kept while the model is in eval mode."""
        if self._head is None or self.training:
            self._head = padded_head(self.wte.weight.data)
        logits = linear_rows(hidden, self._head)
        return logits.data[:, 0, :self.config.vocab_size]

    def train(self, mode: bool = True) -> "GPT2Model":
        if mode:  # the weights may move
            self.disable_kernels()
        if mode or self.training:  # ... or have moved
            self._head = None
        return super().train(mode)

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.disable_kernels()
        super().load_state_dict(state)
        self._head = None

    # ------------------------------------------------------------------
    # Inference kernels
    # ------------------------------------------------------------------
    def enable_kernels(self, mode: str = "fp32",
                       freeze: bool = True) -> InferenceKernels:
        """Attach the buffer-reusing inference kernels, or return the
        attached ones.

        The kernels read the weights through a :class:`WeightStore`
        that freezes them read-only, and switch the model to eval mode:
        attached kernels and frozen weights go together, so the store's
        head copy cannot go stale.  ``train()`` and ``load_state_dict``
        detach them (:meth:`disable_kernels`).  ``mode="fp32",
        freeze=True`` is the one configuration; the benchmark harness
        spells it, and it selects nothing (``docs/LEDGER.md``).
        """
        if (mode, freeze) != ("fp32", True):
            raise ValueError(
                f"the kernels run fp32 over frozen weights only, not "
                f"mode={mode!r}, freeze={freeze!r}")
        if self._kernels is None:
            self.eval()
            self._kernels = InferenceKernels(WeightStore.from_model(self))
        return self._kernels

    def disable_kernels(self) -> None:
        """Detach the kernels and thaw the weights: decode returns to
        the Tensor graph."""
        kernels, self._kernels = self._kernels, None
        if kernels is not None:
            kernels.store.release()

    # ------------------------------------------------------------------
    # Training path
    # ------------------------------------------------------------------
    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError(f"expected (batch, time) ids, got shape {ids.shape}")
        kernels = self._kernels
        if kernels is not None and not is_grad_enabled():
            return Tensor(kernels.full_forward(ids))
        hidden, _ = self._trunk(ids, position_offset=0)
        return self._project(hidden)

    # ------------------------------------------------------------------
    # Generation path
    # ------------------------------------------------------------------
    def start_state(self, batch_size: int) -> GPT2State:
        head_dim = self.config.d_model // self.config.num_heads
        empty = lambda: KVCache(  # noqa: E731 - tiny local factory
            k=np.zeros((batch_size, self.config.num_heads, 0, head_dim),
                       dtype=np.float32),
            v=np.zeros((batch_size, self.config.num_heads, 0, head_dim),
                       dtype=np.float32))
        return GPT2State(caches=[empty() for _ in self.blocks], position=0)

    def _slide(self, state: GPT2State) -> Tuple[List[KVCache], int]:
        """``state``'s caches and position, slid into the window.

        Once the context fills up, evict the oldest cached key/value
        and saturate the position index, so generation can run past
        ``context_length`` (attending to the most recent window)
        instead of raising.
        """
        keep = self.config.context_length - 1
        if state.position <= keep:
            return state.caches, state.position
        return [KVCache(k=c.keys[:, :, -keep:, :], v=c.values[:, :, -keep:, :])
                for c in state.caches], keep

    def kv_arena(self, slots: int) -> KVArena:
        """A :class:`~repro.nn.attention.KVArena` of ``slots`` sequences
        at the full context length, zero-filled: pages no slot has
        written cost no memory."""
        c = self.config
        shape = (slots, c.num_heads, c.context_length, c.d_model // c.num_heads)
        zeros = lambda: [np.zeros(shape, np.float32)  # noqa: E731
                         for _ in self.blocks]
        return KVArena(zeros(), zeros())

    def slot_state(self, slot: KVSlot) -> GPT2State:
        """``slot``'s cache as a state of views onto it: appends through
        the state (a prefill) write into the slot while it has room."""
        i, arena = slot.index, slot.arena
        return GPT2State(caches=[
            KVCache(k=k[i:i + 1], v=v[i:i + 1], length=slot.length)
            for k, v in zip(arena.k, arena.v)], position=slot.length)

    def next_logits(self, ids: np.ndarray,
                    state: Union[GPT2State, List[KVSlot]]
                    ) -> Tuple[np.ndarray, Union[GPT2State, List[KVSlot]]]:
        """One decode step.

        ``state`` is one :class:`GPT2State` for one id -- the sequential
        decoder's step -- or a list of :class:`~repro.nn.attention.KVSlot`
        rows of one arena, one per id: a run of ids sharing one slot is a
        row carrying that many known tokens at consecutive positions (a
        speculative verify chunk).  All rows -- sequences of any, unequal
        lengths -- advance in one forward, returning ``(logits (N, V),
        rows)`` with each slot's ``length`` advanced past its tokens: the
        position-independent ops (LayerNorm, QKV, out-proj, MLP, tied
        head) run once over all ids as batch-invariant ``(N, d)`` GEMMs
        (``docs/KERNELS.md`` §1b), and attention walks each row's own
        slot, so every id gets the bits of a sequential one-token
        ``next_logits`` walk of its row, in any batch (``docs/SERVING.md``
        §2).  A one-token row slides past the context window as a state
        does, shifting its slot in place; a longer row that does not
        :meth:`fits` raises ``ValueError``.
        """
        ids = np.asarray(ids).reshape(-1, 1)  # (N, 1)
        if isinstance(state, list):
            return self._next_logits_slots(ids, state), state
        if ids.shape[0] != 1 or state.caches[0].k.shape[0] != 1:
            raise ValueError(
                f"a state decodes one id in a batch-of-one cache, not "
                f"{ids.shape[0]} ids in a batch of "
                f"{state.caches[0].k.shape[0]}")
        caches, position = self._slide(state)
        if self._kernels is None:  # the Tensor path: a one-slot row
            logits, states = self.verify_chunk(ids.reshape(1, 1),
                                               GPT2State(caches, position))
            return logits[0], states[0]
        logits, caches = self._kernels.decode_step(ids, caches, position)
        return logits, GPT2State(caches=caches, position=position + 1)

    def _next_logits_slots(self, ids: np.ndarray,
                           rows: List[KVSlot]) -> np.ndarray:
        if len(rows) != ids.shape[0]:
            raise ValueError(f"expected {ids.shape[0]} slot rows, one per id")
        arena, context = rows[0].arena, self.config.context_length
        firsts, counts, slots, pasts = [], [], [], []
        for index, slot in enumerate(rows):
            if index and slot is rows[index - 1]:
                past += 1
                counts[-1] += 1
                if past >= context:
                    raise ValueError(f"chunk ending at {past + 1} exceeds "
                                     f"context length {context}")
            else:
                if slot.length >= context:  # _slide, in place
                    for buffer in arena.k + arena.v:
                        buffer[slot.index, :, :-1] = buffer[slot.index, :, 1:]
                    slot.length -= 1
                past = slot.length
                firsts.append(slot)
                counts.append(1)
            slots.append(slot.index)
            pasts.append(past)
        kernels = self._kernels
        if kernels is not None:
            logits = kernels.decode_rows(ids, arena, np.array(slots),
                                         np.array(pasts))
        else:  # the Tensor path, appending through views onto the slots
            x = self.drop(self.wte(ids)
                          + self.wpe(np.array(pasts).reshape(-1, 1)))
            views = [self.slot_state(slot).caches for slot in firsts]
            for index, block in enumerate(self.blocks):
                x, _ = block.forward_rows(x, [v[index] for v in views],
                                          counts)
            logits = self._project_rows(self.ln_f(x))
        for slot, past in zip(rows, pasts):
            slot.length = past + 1
        return logits

    def fits(self, length: int, tokens: int) -> bool:
        """Whether ``tokens`` known tokens decode after ``length`` cached
        ones in one row without sliding: the engine demotes a
        speculative row exactly when :meth:`verify_chunk` makes the
        standalone loop fall back."""
        return length + tokens <= self.config.context_length

    def verify_chunk(self, ids: np.ndarray, state: GPT2State
                     ) -> Tuple[np.ndarray, List[GPT2State]]:
        """Decode a ``(1, steps)`` chunk of *known* tokens in one call.

        The standalone speculative loop's verify step: ``state``'s caches
        become a one-slot :class:`~repro.nn.attention.KVArena` (copied
        first when frozen or short of the context length) and the chunk
        one slot row of :meth:`next_logits`, so ``logits[0, t]`` -- the
        score of the token after chunk token ``t`` -- is bit-identical
        to a one-token walk, and ``states[t]`` resumes after chunk tokens
        ``0..t`` (resume from one; later appends overwrite the rest).
        Raises ``ValueError`` when the chunk does not :meth:`fits`: the
        caller falls back to plain decode, which slides.
        """
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[0] != 1 or ids.shape[1] == 0:
            raise ValueError("verify_chunk expects (1, steps) ids")
        if not self.fits(state.position, ids.shape[1]):
            raise ValueError("verify chunk exceeds the context window")
        caches = [c.reserved(self.config.context_length)
                  for c in state.caches]
        slot = KVArena([c.k for c in caches], [c.v for c in caches]).slots[0]
        slot.length = state.position
        logits, _ = self.next_logits(ids[0], [slot] * ids.shape[1])
        return logits[None], [
            GPT2State(caches=[KVCache(k=c.k, v=c.v, length=position)
                              for c in caches], position=position)
            for position in range(state.position + 1, slot.length + 1)]

    def prefill(self, ids: np.ndarray, state: GPT2State
                ) -> Tuple[np.ndarray, GPT2State]:
        """One trunk pass over a whole prompt chunk (batch of 1).

        The tied head takes the last position as a decode row (a
        one-token chunk is a decode step).  Falls back to the per-token
        sliding-window path when the chunk would overflow the context;
        the criterion is a pure function of position and chunk length,
        so every caller that splits a prompt at the same boundaries
        takes the same path (bit-reproducible).
        """
        ids = np.asarray(ids).reshape(-1)
        if ids.size == 0:
            raise ValueError("prefill requires at least one token")
        if state.caches[0].k.shape[0] != 1:
            raise ValueError("prefill expects a batch-of-one state")
        if (ids.size == 1
                or state.position + ids.size > self.config.context_length):
            return super().prefill(ids, state)
        kernels = self._kernels
        if kernels is not None:
            logits, caches = kernels.prefill_batch(ids.reshape(1, -1),
                                                   state.caches,
                                                   state.position)
            return logits, GPT2State(caches=caches,
                                     position=state.position + ids.size)
        hidden, caches = self._trunk(ids.reshape(1, -1),
                                     position_offset=state.position,
                                     caches=state.caches)
        return (self._project_rows(hidden[:, -1:]),
                GPT2State(caches=caches, position=state.position + ids.size))

    def snapshot_state(self, state: GPT2State) -> GPT2State:
        # Frozen cache aliases: sharable (and storable) without copying;
        # whoever resumes from the snapshot copies on first append.
        return GPT2State(caches=[c.snapshot() for c in state.caches],
                         position=state.position)

    def compact_state(self, state: GPT2State) -> GPT2State:
        """Frozen deep copies of the live cache regions (a prefix-cache
        entry): retains exactly its own bytes, never the capacity buffer
        its live owner keeps appending into."""
        return GPT2State(caches=[c.compact() for c in state.caches],
                         position=state.position)

    def prefix_state(self, state: GPT2State,
                     length: int) -> Optional[GPT2State]:
        """A frozen view of the state after only the first ``length``
        tokens, cut without recompute (``docs/SERVING.md`` §4): row
        ``t`` of an unslid cache is token ``t``'s key/value.  ``None``
        at the context length, where the state may have slid."""
        if (state.position >= self.config.context_length
                or not 0 < length <= state.position):
            return None
        return GPT2State(caches=[KVCache(k=c.k, v=c.v, length=length,
                                         frozen=True)
                                 for c in state.caches],
                         position=length)

    def config_dict(self) -> dict:
        return {"model_type": self.model_type, **asdict(self.config)}


def distilgpt2(vocab_size: int, seed: int = 0,
               context_length: int = 256) -> GPT2Model:
    """DistilGPT2 preset (scaled: 2 layers, d=128 — the *smaller* GPT-2)."""
    return GPT2Model(GPT2Config(
        vocab_size=vocab_size, context_length=context_length,
        d_model=128, num_layers=2, num_heads=4, d_ff=512,
        dropout=0.1, seed=seed))


def gpt2_medium(vocab_size: int, seed: int = 0,
                context_length: int = 256) -> GPT2Model:
    """GPT-2 medium preset (scaled: 4 layers, d=192 — the *larger* GPT-2).

    Relative to :func:`distilgpt2` this doubles depth and widens the
    model ~1.5×, preserving the paper's DistilGPT2 < GPT-2-medium
    capacity ordering at CPU-trainable scale.
    """
    return GPT2Model(GPT2Config(
        vocab_size=vocab_size, context_length=context_length,
        d_model=192, num_layers=4, num_heads=6, d_ff=768,
        dropout=0.1, seed=seed))
