"""GPT-Neo-style model — the paper's stated future work (Sec. VII).

"For future work, we intend to use GPT-Neo which is built on similar
architecture of GPT-3."  GPT-Neo's distinguishing feature relative to
GPT-2 is *alternating local/global attention*: odd-indexed layers
attend only to a sliding window of recent tokens, halving attention
cost on long recipes while keeping full-context layers in between.

We implement that here as an extension on top of the same transformer
substrate: a windowed causal mask replaces the plain causal mask on
alternating layers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..nn import (Dropout, Embedding, KVCache, LayerNorm, ModuleList, Tensor)
from ..nn.attention import MASK_VALUE, CausalSelfAttention, MLP
from ..nn import functional as F
from ..nn.module import Module
from .base import LanguageModel
from .gpt2 import GPT2Model, GPT2State


class LocalCausalSelfAttention(CausalSelfAttention):
    """Causal attention restricted to a sliding window of keys."""

    def __init__(self, d_model: int, num_heads: int, dropout: float,
                 rng: np.random.Generator, window: int,
                 proj_std: Optional[float] = None) -> None:
        super().__init__(d_model, num_heads, dropout, rng, proj_std=proj_std)
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window

    def forward(self, x: Tensor,
                cache: Optional[KVCache] = None
                ) -> Tuple[Tensor, Optional[KVCache]]:
        batch, seq, _ = x.shape
        qkv = self.qkv(x)
        q = self._split_heads(qkv[:, :, :self.d_model], batch, seq)
        k = self._split_heads(qkv[:, :, self.d_model:2 * self.d_model], batch, seq)
        v = self._split_heads(qkv[:, :, 2 * self.d_model:], batch, seq)

        past_len = 0
        new_cache = None
        if cache is not None:
            past_len = cache.seq_len
            if past_len:
                k = Tensor(np.concatenate([cache.keys, k.data], axis=2))
                v = Tensor(np.concatenate([cache.values, v.data], axis=2))
            # The cache only ever needs the last ``window`` keys.
            keep = min(self.window, k.data.shape[2])
            new_cache = KVCache(k=k.data[:, :, -keep:, :], v=v.data[:, :, -keep:, :])

        total = past_len + seq
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        query_pos = np.arange(past_len, total)[:, None]
        key_pos = np.arange(total)[None, :]
        # Causal AND within the window: position i sees (i - window, i].
        visible = (key_pos <= query_pos) & (key_pos > query_pos - self.window)
        mask = np.where(visible, 0.0, MASK_VALUE).astype(np.float32)
        scores = F.add_mask(scores, mask)
        weights = F.softmax(scores, axis=-1)
        weights = self.attn_dropout(weights)
        context = weights @ v
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.d_model)
        return self.resid_dropout(self.proj(merged)), new_cache


class NeoBlock(Module):
    """Pre-LN block whose attention is either global or windowed."""

    def __init__(self, d_model: int, num_heads: int, d_ff: int, dropout: float,
                 rng: np.random.Generator, num_layers: int,
                 local_window: Optional[int]) -> None:
        super().__init__()
        proj_std = 0.02 / np.sqrt(2 * num_layers)
        self.ln1 = LayerNorm(d_model)
        if local_window is None:
            self.attn = CausalSelfAttention(d_model, num_heads, dropout, rng,
                                            proj_std=proj_std)
        else:
            self.attn = LocalCausalSelfAttention(d_model, num_heads, dropout, rng,
                                                 window=local_window,
                                                 proj_std=proj_std)
        self.ln2 = LayerNorm(d_model)
        self.mlp = MLP(d_model, d_ff, dropout, rng, proj_std=proj_std)

    def forward(self, x: Tensor,
                cache: Optional[KVCache] = None
                ) -> Tuple[Tensor, Optional[KVCache]]:
        attn_out, new_cache = self.attn(self.ln1(x), cache=cache)
        x = x + attn_out
        x = x + self.mlp(self.ln2(x))
        return x, new_cache


@dataclass(frozen=True)
class GPTNeoConfig:
    """Hyperparameters for :class:`GPTNeoModel`."""

    vocab_size: int
    context_length: int = 256
    d_model: int = 128
    num_layers: int = 4
    num_heads: int = 4
    d_ff: int = 512
    dropout: float = 0.1
    local_window: int = 64
    seed: int = 0

    def validate(self) -> None:
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if self.local_window < 1:
            raise ValueError("local_window must be >= 1")


class GPTNeoModel(LanguageModel):
    """GPT-Neo: GPT-2 trunk with alternating global/local attention."""

    model_type = "gpt_neo"

    def __init__(self, config: GPTNeoConfig) -> None:
        config.validate()
        super().__init__(config.vocab_size)
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.wte = Embedding(config.vocab_size, config.d_model, rng)
        self.wpe = Embedding(config.context_length, config.d_model, rng, std=0.01)
        self.drop = Dropout(config.dropout, rng)
        self.blocks = ModuleList([
            NeoBlock(config.d_model, config.num_heads, config.d_ff,
                     config.dropout, rng, config.num_layers,
                     local_window=(config.local_window if index % 2 else None))
            for index in range(config.num_layers)
        ])
        self.ln_f = LayerNorm(config.d_model)

    def _trunk(self, ids: np.ndarray, position_offset: int,
               caches=None) -> Tuple[Tensor, list]:
        batch, time = ids.shape
        if position_offset + time > self.config.context_length:
            raise ValueError("sequence exceeds context length")
        positions = np.arange(position_offset, position_offset + time)
        x = self.wte(ids) + self.wpe(np.broadcast_to(positions, (batch, time)))
        x = self.drop(x)
        new_caches = []
        for index, block in enumerate(self.blocks):
            cache = caches[index] if caches is not None else None
            x, new_cache = block(x, cache=cache)
            new_caches.append(new_cache)
        return self.ln_f(x), new_caches

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        hidden, _ = self._trunk(ids, position_offset=0)
        return hidden @ self.wte.weight.swapaxes(0, 1)

    def start_state(self, batch_size: int) -> GPT2State:
        head_dim = self.config.d_model // self.config.num_heads
        caches = [KVCache(
            k=np.zeros((batch_size, self.config.num_heads, 0, head_dim),
                       dtype=np.float32),
            v=np.zeros((batch_size, self.config.num_heads, 0, head_dim),
                       dtype=np.float32))
            for _ in self.blocks]
        return GPT2State(caches=caches, position=0)

    def next_logits(self, ids: np.ndarray,
                    state: GPT2State) -> Tuple[np.ndarray, GPT2State]:
        ids = np.asarray(ids).reshape(-1, 1)
        # Sliding window past the context length (see GPT2Model).
        position = state.position
        caches = state.caches
        if position >= self.config.context_length:
            keep = self.config.context_length - 1
            caches = [KVCache(k=c.keys[:, :, -keep:, :],
                              v=c.values[:, :, -keep:, :])
                      for c in caches]
            position = keep
        hidden, new_caches = self._trunk(ids, position_offset=position,
                                         caches=caches)
        logits = hidden @ self.wte.weight.swapaxes(0, 1)
        return logits.data[:, 0, :], GPT2State(caches=new_caches,
                                               position=position + 1)

    def config_dict(self) -> dict:
        return {"model_type": self.model_type, **asdict(self.config)}

    # Same KV-cache state as GPT-2, so the same snapshots.  Decode and
    # prefill stay on the per-row, per-token defaults: the local
    # attention (windowed cache, windowed mask) was only written for
    # the full-sequence and single-step cases.
    snapshot_state = GPT2Model.snapshot_state
    compact_state = GPT2Model.compact_state


def gpt_neo_small(vocab_size: int, seed: int = 0,
                  context_length: int = 256) -> GPTNeoModel:
    """The future-work GPT-Neo preset (4 layers, alternating local attn)."""
    return GPTNeoModel(GPTNeoConfig(
        vocab_size=vocab_size, context_length=context_length,
        d_model=128, num_layers=4, num_heads=4, d_ff=512,
        dropout=0.1, local_window=64, seed=seed))
