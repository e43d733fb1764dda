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
from typing import Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn import (Dropout, Embedding, KVCache, LayerNorm, ModuleList, Tensor,
                  TransformerBlock, is_grad_enabled)
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


class GPT2Model(LanguageModel):
    """GPT-2: token+position embeddings → blocks → LN → tied head."""

    model_type = "gpt2"
    ragged_decode = True

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

    # ------------------------------------------------------------------
    # Inference kernels
    # ------------------------------------------------------------------
    def enable_kernels(self, mode: str = "fp32", store: Optional[WeightStore]
                       = None, freeze: bool = False) -> InferenceKernels:
        """Attach the buffer-reusing inference kernels.

        ``store`` shares one weight copy across model objects: pass
        the store from another model's kernels (or a
        :meth:`~repro.nn.kernels.WeightStore.from_model` result) and
        this model serves from the same read-only arrays.  ``freeze``
        (only honored when the store is created here) marks the weights
        read-only so no holder can corrupt the shared copy.  Kernels
        are inference-only, so this switches the model to eval mode;
        ``train()`` transparently falls back to the autograd path.
        """
        owns_freeze = False
        if store is None:
            store = WeightStore.from_model(self, freeze=freeze)
            owns_freeze = freeze
        kernels = InferenceKernels(store, mode=mode)
        kernels._owns_freeze = owns_freeze
        self._kernels = kernels
        self.eval()
        return kernels

    # ------------------------------------------------------------------
    # Training path
    # ------------------------------------------------------------------
    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError(f"expected (batch, time) ids, got shape {ids.shape}")
        kernels = self._active_kernels()
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

    def next_logits(self, ids: np.ndarray,
                    state: Union[GPT2State, List[GPT2State]]
                    ) -> Tuple[np.ndarray, Union[GPT2State, List[GPT2State]]]:
        """One decode step; ``state`` is one state or a list of them.

        A **list** of ``B`` batch-of-one states — sequences of any,
        unequal lengths — advances all rows in one forward and returns
        ``(logits (B, V), [states])``: the position-independent ops
        (LayerNorm, QKV, out-proj, MLP, tied head) run once at
        ``(B, 1, d)``, which numpy evaluates as ``B`` separate
        ``(1, d)`` GEMMs, and attention walks each row's own KV cache,
        so row ``r`` gets the bits of ``next_logits(ids[r:r+1],
        states[r])`` (see ``docs/SERVING.md`` §2).
        """
        ids = np.asarray(ids).reshape(-1, 1)  # (B, 1)
        if isinstance(state, list):
            return self._next_logits_rows(ids, state)
        caches, position = self._slide(state)
        kernels = self._active_kernels()
        if kernels is not None:
            logits, new_caches = kernels.decode_step(ids, caches, position)
            return logits, GPT2State(caches=new_caches, position=position + 1)
        hidden, new_caches = self._trunk(ids, position_offset=position,
                                         caches=caches)
        logits = self._project(hidden)
        new_state = GPT2State(caches=new_caches, position=position + 1)
        return logits.data[:, 0, :], new_state

    def _next_logits_rows(self, ids: np.ndarray, states: List[GPT2State]
                          ) -> Tuple[np.ndarray, List[GPT2State]]:
        if len(states) != ids.shape[0] or any(
                state.caches[0].k.shape[0] != 1 for state in states):
            raise ValueError(
                f"expected {ids.shape[0]} batch-of-one states, one per id")
        slid = [self._slide(state) for state in states]
        rows = [caches for caches, _ in slid]
        positions = np.array([position for _, position in slid])
        kernels = self._active_kernels()
        if kernels is not None:
            logits, new_rows = kernels.decode_rows(ids, rows, positions)
        else:
            x = self.drop(self.wte(ids) + self.wpe(positions.reshape(-1, 1)))
            layers = []
            for index, block in enumerate(self.blocks):
                x, new_caches = block.forward_rows(
                    x, [caches[index] for caches in rows])
                layers.append(new_caches)
            logits = self._project(self.ln_f(x)).data[:, 0, :]
            new_rows = [list(row) for row in zip(*layers)]
        return logits, [GPT2State(caches=caches, position=position + 1)
                        for caches, (_, position) in zip(new_rows, slid)]

    def prefill(self, ids: np.ndarray, state: GPT2State
                ) -> Tuple[np.ndarray, GPT2State]:
        """One trunk pass over a whole prompt chunk (batch of 1).

        Falls back to the per-token sliding-window path when the chunk
        would overflow the context; the criterion is a pure function of
        position and chunk length, so every caller that splits a prompt
        at the same boundaries takes the same path (bit-reproducible).
        """
        ids = np.asarray(ids).reshape(-1)
        if ids.size == 0:
            raise ValueError("prefill requires at least one token")
        if state.position + ids.size > self.config.context_length:
            return super().prefill(ids, state)
        kernels = self._active_kernels()
        if kernels is not None:
            logits, caches = kernels.prefill_batch(ids.reshape(1, -1),
                                                   state.caches,
                                                   state.position)
            return logits, GPT2State(caches=caches,
                                     position=state.position + ids.size)
        hidden, caches = self._trunk(ids.reshape(1, -1),
                                     position_offset=state.position,
                                     caches=state.caches)
        logits = self._project(hidden)
        return (logits.data[:, -1, :],
                GPT2State(caches=caches, position=state.position + ids.size))

    def prefill_stacked(self, ids: np.ndarray, state: GPT2State
                        ) -> Tuple[np.ndarray, GPT2State]:
        """Batched chunk prefill over a stacked state.

        The trunk's batched matmuls are per-slice (row-stable), so each
        row's logits and cache come out bit-identical to a batch-of-one
        :meth:`prefill` of the same chunk at the same position.  Raises
        ``ValueError`` when the chunk would overflow the context window;
        callers fall back to the single-sequence path, which slides.
        """
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise ValueError("prefill_stacked expects (batch, chunk) ids")
        if state.position + ids.shape[1] > self.config.context_length:
            raise ValueError(
                f"chunk ending at {state.position + ids.shape[1]} exceeds "
                f"context length {self.config.context_length}")
        kernels = self._active_kernels()
        if kernels is not None:
            logits, caches = kernels.prefill_batch(ids, state.caches,
                                                   state.position)
            return logits, GPT2State(caches=caches,
                                     position=state.position + ids.shape[1])
        hidden, caches = self._trunk(ids, position_offset=state.position,
                                     caches=state.caches)
        logits = self._project(hidden)
        return (logits.data[:, -1, :],
                GPT2State(caches=caches,
                          position=state.position + ids.shape[1]))

    def verify_chunk(self, ids: np.ndarray, state: GPT2State
                     ) -> Tuple[np.ndarray, List[GPT2State]]:
        """Exact batched decode of ``(batch, steps)`` known tokens.

        The speculative-decoding verify pass.  Unlike :meth:`prefill`
        (whose chunked trunk rounds differently from per-token decode
        — that is why ``PREFILL_CHUNK`` boundaries exist), this pass is
        **bit-identical** to ``steps`` sequential :meth:`next_logits`
        calls: every matmul keeps the decode path's per-slice ``(1, D)``
        GEMM shape, batched only along leading dimensions numpy C-loops
        over, and each step's attention row sees exactly the sequential
        step's keys (see ``TransformerBlock.forward_verify``).  The
        returned states are cheap handles onto one shared appended
        cache, truncated per step; resuming from ``states[a]`` simply
        overwrites the buffer past ``a + 1`` on the next append.

        Raises ``ValueError`` when the chunk would overflow the context
        window — callers fall back to plain per-token decode, which
        slides (and therefore so does the sequential reference).
        """
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise ValueError("verify_chunk expects (batch, steps) ids")
        batch, steps = ids.shape
        if state.position + steps > self.config.context_length:
            raise ValueError(
                f"chunk ending at {state.position + steps} exceeds context "
                f"length {self.config.context_length}")
        kernels = self._active_kernels()
        if kernels is not None:
            logits_data, new_caches = kernels.verify_batch(
                ids, state.caches, state.position)
            states = [
                GPT2State(
                    caches=[KVCache(k=c.k, v=c.v,
                                    length=c.length - steps + t + 1)
                            for c in new_caches],
                    position=state.position + t + 1)
                for t in range(steps)
            ]
            return logits_data, states
        positions = np.arange(state.position, state.position + steps)
        x = self.wte(ids) + self.wpe(np.broadcast_to(positions, (batch, steps)))
        x = self.drop(x)
        # Flatten the step axis into the batch axis: every downstream
        # projection then runs at the decode path's (flat, 1, D) shape.
        x = Tensor(np.ascontiguousarray(x.data).reshape(
            batch * steps, 1, self.config.d_model))
        new_caches: List[KVCache] = []
        for index, block in enumerate(self.blocks):
            x, new_cache = block.forward_verify(x, state.caches[index],
                                                batch, steps)
            new_caches.append(new_cache)
        x = self.ln_f(x)
        logits = self._project(x)  # (batch*steps, 1, V)
        logits_data = logits.data.reshape(batch, steps, self.vocab_size)
        states = [
            GPT2State(
                caches=[KVCache(k=c.k, v=c.v, length=c.length - steps + t + 1)
                        for c in new_caches],
                position=state.position + t + 1)
            for t in range(steps)
        ]
        return logits_data, states

    def stacking_key(self, state: GPT2State) -> Optional[Hashable]:
        # Equal position implies equal cache length, so stacked rows see
        # identical per-slice matmul shapes — the bit-exactness condition.
        seq_len = state.caches[0].seq_len if state.caches else 0
        return (self.model_type, state.position, seq_len)

    def stack_states(self, states: Sequence[GPT2State]) -> GPT2State:
        return GPT2State(
            caches=[
                KVCache(
                    k=np.concatenate([s.caches[layer].keys for s in states]),
                    v=np.concatenate([s.caches[layer].values
                                      for s in states]))
                for layer in range(len(self.blocks))
            ],
            position=states[0].position)

    def split_states(self, state: GPT2State, count: int) -> List[GPT2State]:
        # Row views keep the batch's capacity buffer: each row only
        # ever appends into its own slice past ``length``, so split
        # sequences stay independent without copying.
        return [
            GPT2State(caches=[KVCache(k=c.k[i:i + 1], v=c.v[i:i + 1],
                                      length=c.length)
                              for c in state.caches],
                      position=state.position)
            for i in range(count)
        ]

    def snapshot_state(self, state: GPT2State) -> GPT2State:
        # Frozen cache aliases: sharable (and storable) without copying;
        # whoever resumes from the snapshot copies on first append.
        return GPT2State(caches=[c.snapshot() for c in state.caches],
                         position=state.position)

    def compact_state(self, state: GPT2State) -> GPT2State:
        # Frozen deep copies of the live cache regions: retains exactly
        # the snapshot's own bytes, never the source capacity buffer.
        return GPT2State(caches=[c.compact() for c in state.caches],
                         position=state.position)

    def prefix_state(self, state: GPT2State,
                     length: int) -> Optional[GPT2State]:
        # Row t of an unslid cache is token t's key/value.  A state at
        # the context length may have slid (row 0 is no longer token 0).
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
