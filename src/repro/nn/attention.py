"""Causal multi-head self-attention and the GPT-2 transformer block.

This is the architectural core of the paper's best model (Sec. IV-B):
pre-LayerNorm transformer blocks with learned positional embeddings,
GELU MLPs and a causal attention mask.  A key/value cache is supported
so that autoregressive generation is O(T) per new token instead of
O(T^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from .layers import Dropout, LayerNorm, Linear
from .module import Module
from .tensor import Tensor

# Large negative constant used to mask future positions before softmax.
# Finite (rather than -inf) to avoid NaNs from (-inf) - (-inf) in the
# stable-softmax shift.
MASK_VALUE = -1e9


# Extra sequence slots allocated on cache growth, so appending one
# token per decode step reallocates every _CACHE_HEADROOM steps instead
# of copying the whole cache every step.
_CACHE_HEADROOM = 64


@dataclass
class KVCache:
    """Cached keys and values for one attention layer.

    ``k``/``v`` are capacity buffers of shape ``(batch, heads,
    capacity, head_dim)``; only the first ``length`` positions are
    live.  Read through :attr:`keys`/:attr:`values` — raw ``k``/``v``
    may contain uninitialised headroom past ``length``.

    :meth:`append` writes into spare capacity in place, which turns
    the per-token cache update from an O(seq) copy into an O(1) write.
    A cache marked ``frozen`` (a shared snapshot, e.g. a prefix-cache
    entry) instead reallocates on its first append, so the snapshot's
    live region is never clobbered by whoever resumes from it.
    """

    k: np.ndarray
    v: np.ndarray
    length: int = -1
    frozen: bool = False

    def __post_init__(self) -> None:
        if self.length < 0:
            self.length = self.k.shape[2]

    @property
    def seq_len(self) -> int:
        return self.length

    @property
    def keys(self) -> np.ndarray:
        """View of the live keys, ``(batch, heads, length, head_dim)``."""
        return self.k[:, :, :self.length]

    @property
    def values(self) -> np.ndarray:
        """View of the live values, ``(batch, heads, length, head_dim)``."""
        return self.v[:, :, :self.length]

    def snapshot(self) -> "KVCache":
        """A frozen alias sharing this cache's buffers.

        Safe to store: the live owner only ever writes *past* the
        snapshot's ``length``, and anyone appending through the
        snapshot itself copies first (``frozen`` forces reallocation).
        """
        return KVCache(k=self.k, v=self.v, length=self.length, frozen=True)

    def compact(self) -> "KVCache":
        """A frozen deep copy of just the live region.

        Unlike :meth:`snapshot` this shares no memory with the source,
        so storing it retains exactly ``length`` positions' worth of
        bytes — a snapshot of a batch-row view would instead pin the
        whole stacked batch buffer (capacity headroom included) alive.
        """
        # .copy(), not ascontiguousarray: a single-row view is already
        # flagged contiguous, and ascontiguousarray would return the
        # pinning view unchanged.
        return KVCache(k=self.keys.copy(), v=self.values.copy(),
                       length=self.length, frozen=True)

    def append(self, new_k: np.ndarray, new_v: np.ndarray,
               reserve: int = 0) -> "KVCache":
        """Extend by ``new_k``/``new_v`` (``(batch, heads, t, head_dim)``).

        Returns a new :class:`KVCache` handle; buffers are reused in
        place when owned and large enough, else reallocated with
        headroom.  ``reserve`` sets a minimum capacity for any such
        reallocation: the inference kernels pass the model's context
        length so a sequence's cache is sized once and every later
        append is an in-place write (the steady-state zero-allocation
        fast path).  Values are unaffected — only spare capacity.
        """
        step = new_k.shape[2]
        total = self.length + step
        k, v = self.k, self.v
        if self.frozen or total > k.shape[2]:
            shape = list(k.shape)
            shape[2] = max(total + _CACHE_HEADROOM, reserve)
            k = np.empty(tuple(shape), dtype=self.k.dtype)
            v = np.empty(tuple(shape), dtype=self.v.dtype)
            k[:, :, :self.length] = self.keys
            v[:, :, :self.length] = self.values
        k[:, :, self.length:total] = new_k
        v[:, :, self.length:total] = new_v
        return KVCache(k=k, v=v, length=total)


class CausalSelfAttention(Module):
    """Multi-head scaled dot-product attention with a causal mask."""

    def __init__(self, d_model: int, num_heads: int, dropout: float,
                 rng: np.random.Generator, proj_std: Optional[float] = None) -> None:
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by num_heads={num_heads}")
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads
        self.qkv = Linear(d_model, 3 * d_model, rng, std=0.02)
        self.proj = Linear(d_model, d_model, rng, std=proj_std or 0.02)
        self.attn_dropout = Dropout(dropout, rng)
        self.resid_dropout = Dropout(dropout, rng)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, T, D) -> (B, H, T, Hd)
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor,
                cache: Optional[KVCache] = None
                ) -> Tuple[Tensor, Optional[KVCache]]:
        """Attend over ``x`` (shape ``(B, T, D)``).

        When ``cache`` is given (generation), keys/values from previous
        steps are prepended; gradients do not flow through the cache.
        """
        batch, seq, _ = x.shape
        qkv = self.qkv(x)  # (B, T, 3D)
        q = self._split_heads(qkv[:, :, :self.d_model], batch, seq)
        k = self._split_heads(qkv[:, :, self.d_model:2 * self.d_model], batch, seq)
        v = self._split_heads(qkv[:, :, 2 * self.d_model:], batch, seq)

        past_len = 0
        new_cache = None
        if cache is not None:
            past_len = cache.seq_len
            new_cache = cache.append(k.data, v.data)
            if past_len:
                k = Tensor(new_cache.keys)
                v = Tensor(new_cache.values)

        total = past_len + seq
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        # Causal mask: query i (absolute position past_len + i) may only
        # attend to keys at absolute positions <= past_len + i.
        if seq > 1 or past_len == 0:
            query_pos = np.arange(past_len, total)[:, None]
            key_pos = np.arange(total)[None, :]
            mask = np.where(key_pos > query_pos, MASK_VALUE, 0.0).astype(np.float32)
            scores = F.add_mask(scores, mask)
        weights = F.softmax(scores, axis=-1)
        weights = self.attn_dropout(weights)
        context = weights @ v  # (B, H, T, Hd)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.d_model)
        out = self.resid_dropout(self.proj(merged))
        return out, new_cache

    def forward_verify(self, x: Tensor, cache: KVCache, rows: int,
                       steps: int) -> Tuple[Tensor, KVCache]:
        """Exact multi-token decode: ``steps`` tokens per sequence.

        ``x`` is ``(rows * steps, 1, D)``, sequence-major (flat row
        ``b * steps + t`` is sequence ``b``'s ``t``-th chunk token).
        The result is **bit-identical** to calling :meth:`forward`
        ``steps`` times with ``seq == 1``: the qkv/proj projections run
        at the same ``(1, D)`` per-slice GEMM shapes (batched only
        along leading dimensions numpy's matmul C-loops over — BLAS
        never sees a different ``M``), and each step's attention row
        softmaxes over exactly the keys the sequential step would see.
        That is what lets speculative decoding verify a whole proposal
        in one call without perturbing a single output bit (see
        ``docs/SERVING.md``).  Generation-only: gradients do not flow.
        """
        flat = rows * steps
        qkv = self.qkv(x)  # (rows*steps, 1, 3D)
        q = self._split_heads(qkv[:, :, :self.d_model], flat, 1)
        k = self._split_heads(qkv[:, :, self.d_model:2 * self.d_model], flat, 1)
        v = self._split_heads(qkv[:, :, 2 * self.d_model:], flat, 1)

        # (rows*steps, H, 1, Hd) -> (rows, H, steps, Hd): pure data
        # movement, so the appended K/V values are exactly what the
        # sequential per-token appends would have written.
        def regroup(heads: Tensor) -> np.ndarray:
            return (heads.data.reshape(rows, steps, self.num_heads,
                                       self.head_dim).transpose(0, 2, 1, 3))

        past_len = cache.seq_len
        new_cache = cache.append(regroup(k), regroup(v))
        q_steps = q.data.reshape(rows, steps, self.num_heads, 1, self.head_dim)
        contexts = []
        for t in range(steps):
            # Step t attends over the live region the sequential step
            # would see: past keys plus chunk tokens 0..t (no mask —
            # the seq == 1 decode path never applies one).
            keys = Tensor(new_cache.k[:, :, :past_len + t + 1])
            values = Tensor(new_cache.v[:, :, :past_len + t + 1])
            q_t = Tensor(q_steps[:, t])  # (rows, H, 1, Hd)
            scores = (q_t @ keys.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
            weights = self.attn_dropout(F.softmax(scores, axis=-1))
            context = weights @ values  # (rows, H, 1, Hd)
            contexts.append(
                context.data.transpose(0, 2, 1, 3).reshape(rows, 1, self.d_model))
        merged = np.stack(contexts, axis=1).reshape(flat, 1, self.d_model)
        out = self.resid_dropout(self.proj(Tensor(merged)))
        return out, new_cache

    def forward_rows(self, x: Tensor, caches: Sequence[KVCache]
                     ) -> Tuple[Tensor, List[KVCache]]:
        """One decode token for each of ``len(caches)`` sequences of
        unequal length.

        ``x`` is ``(rows, 1, D)``; ``caches[r]`` is row ``r``'s own
        batch-of-one cache.  The qkv/proj projections run once over all
        rows — per-slice ``(1, D)`` GEMMs, as in :meth:`forward_verify`
        — and each row attends over its own cache exactly as
        :meth:`forward` does at batch 1 (including the ``past == 0``
        mask arm), so the result is **bit-identical** to ``rows``
        separate calls.  Generation-only: gradients do not flow.
        """
        rows = len(caches)
        qkv = self.qkv(x)  # (rows, 1, 3D)
        q = self._split_heads(qkv[:, :, :self.d_model], rows, 1).data
        k = self._split_heads(qkv[:, :, self.d_model:2 * self.d_model],
                              rows, 1).data
        v = self._split_heads(qkv[:, :, 2 * self.d_model:], rows, 1).data
        new_caches, contexts = [], []
        for r, cache in enumerate(caches):
            keys, values = k[r:r + 1], v[r:r + 1]
            new_cache = cache.append(keys, values)
            if cache.seq_len:
                keys, values = new_cache.keys, new_cache.values
            scores = (Tensor(q[r:r + 1]) @ Tensor(keys).swapaxes(-1, -2)
                      ) * (1.0 / np.sqrt(self.head_dim))
            if cache.seq_len == 0:
                scores = F.add_mask(scores, np.zeros((1, 1), np.float32))
            weights = self.attn_dropout(F.softmax(scores, axis=-1))
            contexts.append((weights @ Tensor(values)).data)  # (1, H, 1, Hd)
            new_caches.append(new_cache)
        merged = np.concatenate(contexts).transpose(0, 2, 1, 3).reshape(
            rows, 1, self.d_model)
        out = self.resid_dropout(self.proj(Tensor(merged)))
        return out, new_caches


class MLP(Module):
    """Position-wise feed-forward network with GELU (GPT-2 style)."""

    def __init__(self, d_model: int, d_ff: int, dropout: float,
                 rng: np.random.Generator, proj_std: Optional[float] = None) -> None:
        super().__init__()
        self.fc = Linear(d_model, d_ff, rng, std=0.02)
        self.proj = Linear(d_ff, d_model, rng, std=proj_std or 0.02)
        self.dropout = Dropout(dropout, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.dropout(self.proj(self.fc(x).gelu()))


class TransformerBlock(Module):
    """Pre-LN transformer block: ``x + Attn(LN(x))`` then ``x + MLP(LN(x))``."""

    def __init__(self, d_model: int, num_heads: int, d_ff: int, dropout: float,
                 rng: np.random.Generator, num_layers: int = 1) -> None:
        super().__init__()
        # GPT-2 scales residual projections by 1/sqrt(2 * n_layers).
        proj_std = 0.02 / np.sqrt(2 * num_layers)
        self.ln1 = LayerNorm(d_model)
        self.attn = CausalSelfAttention(d_model, num_heads, dropout, rng,
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

    def forward_verify(self, x: Tensor, cache: KVCache, rows: int,
                       steps: int) -> Tuple[Tensor, KVCache]:
        """Block pass for the exact multi-token decode (see
        :meth:`CausalSelfAttention.forward_verify`).  LayerNorm and the
        MLP are per-position ops, so running them over the flattened
        ``(rows * steps, 1, D)`` layout changes nothing bitwise."""
        attn_out, new_cache = self.attn.forward_verify(self.ln1(x), cache,
                                                       rows, steps)
        x = x + attn_out
        x = x + self.mlp(self.ln2(x))
        return x, new_cache

    def forward_rows(self, x: Tensor, caches: Sequence[KVCache]
                     ) -> Tuple[Tensor, List[KVCache]]:
        """Block pass for ragged batched decode (see
        :meth:`CausalSelfAttention.forward_rows`)."""
        attn_out, new_caches = self.attn.forward_rows(self.ln1(x), caches)
        x = x + attn_out
        x = x + self.mlp(self.ln2(x))
        return x, new_caches
