"""Inference-only decode kernels: raw-ndarray forward, shared weights.

The serving stack (continuous batching, speculative verify, in-place
crash recovery) schedules work well, but every decode step still walked the
autograd :class:`~repro.nn.tensor.Tensor` graph: each op wraps its
result in a fresh ``Tensor`` and allocates a fresh ndarray.  This
module provides the hot-path replacement:

``WeightStore``
    One read-only copy of a model's inference weights, shareable by
    reference across any number of engines (a restarted engine
    re-attaches to it; ``docs/LEDGER.md`` questions the rest).

``InferenceKernels``
    The forward pass re-implemented on raw ndarrays with ``out=``
    everywhere, drawing scratch buffers from per-thread workspace
    arenas so steady-state decode performs **zero Python-level array
    allocation** after warmup.  It is **bit-identical** to the
    Tensor-graph inference path: it performs the exact same numpy
    operations, in the same order, at the same shapes and strides, so
    BLAS sees the same GEMM calls and every equality contract in the
    serving stack (engine == sequential, speculative verify, retry
    after a restart) holds unchanged.

Workspace lifecycle (see ``docs/KERNELS.md``): buffers live in two
step-parity arenas per thread.  A managed caller — the serving
engine — calls :meth:`InferenceKernels.begin_step` once per scheduler
iteration, which flips the parity and recycles the arena last used
two steps ago.  Buffers handed out during step ``i`` therefore stay
valid through step ``i + 1``; that matches the engine's lifetime
pattern, where logits produced by step ``i``'s forward are sampled at
the start of step ``i + 1``.  Unmanaged callers (``models.generate``
on a caller thread, evaluation) get defensive copies of the returned
logits instead, so no lifetime contract leaks out of the engine.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .attention import KVCache, MASK_VALUE

__all__ = [
    "InferenceKernels",
    "KERNEL_MODES",
    "WeightStore",
]

# One mode.  The name survives because callers spell it
# (``enable_kernels(mode="fp32")``, ``--kernels fp32``); it selects
# nothing.
KERNEL_MODES = ("fp32",)

_LN_EPS = 1e-5
_GELU_C = np.float32(np.sqrt(2.0 / np.pi))
# Arena blocks are allocated in chunks of at least this many float32
# elements (1 MiB), so warmup settles after a handful of allocations
# rather than one per distinct buffer shape.
_ARENA_BLOCK = 1 << 18


class _BlockWeights:
    """Per-transformer-block weight references."""

    __slots__ = ("ln1_w", "ln1_b", "qkv_w", "qkv_b", "proj_w", "proj_b",
                 "ln2_w", "ln2_b", "fc_w", "fc_b", "out_w", "out_b")

    def __init__(self, **arrays: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, arrays[name])


# ----------------------------------------------------------------------
# Shared weight store
# ----------------------------------------------------------------------
class WeightStore:
    """One read-only copy of a GPT-2 model's inference weights.

    Holds *references* to the model's parameter arrays (no copy), so
    N models attaching kernels through the same store keep exactly
    one weight copy alive between them.  ``freeze=True`` additionally
    marks the arrays read-only, which turns any accidental write from
    a crashing engine into an immediate error instead of silent
    corruption of every later request; :meth:`release` restores
    writability (for example, before resuming training).
    """

    def __init__(self, meta: Dict[str, int], wte: np.ndarray, wpe: np.ndarray,
                 blocks: Sequence[_BlockWeights], ln_f_w: np.ndarray,
                 ln_f_b: np.ndarray, freeze: bool = False) -> None:
        self.meta = dict(meta)
        self.wte = wte
        self.wpe = wpe
        self.blocks = list(blocks)
        self.ln_f_w = ln_f_w
        self.ln_f_b = ln_f_b
        self._frozen: List[np.ndarray] = []
        if freeze:
            self.freeze()

    # -- construction ---------------------------------------------------
    @classmethod
    def from_model(cls, model: Any, freeze: bool = False) -> "WeightStore":
        """Capture a :class:`~repro.models.gpt2.GPT2Model`'s weights."""
        config = model.config
        meta = {
            "vocab_size": config.vocab_size,
            "context_length": config.context_length,
            "d_model": config.d_model,
            "num_layers": config.num_layers,
            "num_heads": config.num_heads,
            "d_ff": config.d_ff,
        }
        blocks = [
            _BlockWeights(
                ln1_w=block.ln1.weight.data, ln1_b=block.ln1.bias.data,
                qkv_w=block.attn.qkv.weight.data,
                qkv_b=block.attn.qkv.bias.data,
                proj_w=block.attn.proj.weight.data,
                proj_b=block.attn.proj.bias.data,
                ln2_w=block.ln2.weight.data, ln2_b=block.ln2.bias.data,
                fc_w=block.mlp.fc.weight.data, fc_b=block.mlp.fc.bias.data,
                out_w=block.mlp.proj.weight.data,
                out_b=block.mlp.proj.bias.data)
            for block in model.blocks
        ]
        return cls(meta, wte=model.wte.weight.data, wpe=model.wpe.weight.data,
                   blocks=blocks, ln_f_w=model.ln_f.weight.data,
                   ln_f_b=model.ln_f.bias.data, freeze=freeze)

    # -- read-only enforcement ------------------------------------------
    def freeze(self) -> None:
        """Mark every referenced weight array read-only (idempotent)."""
        for arr in self.weight_arrays():
            if arr.flags.writeable:
                arr.flags.writeable = False
                self._frozen.append(arr)

    def release(self) -> None:
        """Restore writability to arrays :meth:`freeze` locked."""
        while self._frozen:
            self._frozen.pop().flags.writeable = True

    @property
    def frozen(self) -> bool:
        return bool(self._frozen)

    # -- accounting -----------------------------------------------------
    def weight_arrays(self) -> Iterator[np.ndarray]:
        """Every weight array the store references (for memory
        accounting: unique ids across models measure true footprint)."""
        yield self.wte
        yield self.wpe
        for bw in self.blocks:
            for name in bw.__slots__:
                yield getattr(bw, name)
        yield self.ln_f_w
        yield self.ln_f_b

    @property
    def fp32_nbytes(self) -> int:
        return sum(arr.nbytes for arr in self.weight_arrays())


# ----------------------------------------------------------------------
# Workspace arenas
# ----------------------------------------------------------------------
class _Arena:
    """A bump allocator over persistent float32 blocks.

    ``take`` returns contiguous views carved from large reusable
    blocks; ``reset`` rewinds the cursor without touching the blocks,
    so after warmup no new memory is ever requested.  Contiguity
    matters for bit-identity: a freshly carved view has exactly the
    layout of the fresh allocation the Tensor path would have made,
    so BLAS takes the same code path on it.
    """

    __slots__ = ("blocks", "block_index", "offset")

    def __init__(self) -> None:
        self.blocks: List[np.ndarray] = []
        self.block_index = 0
        self.offset = 0

    def reset(self) -> None:
        self.block_index = 0
        self.offset = 0

    def take(self, owner: "InferenceKernels", count: int) -> np.ndarray:
        blocks = self.blocks
        while self.block_index < len(blocks):
            block = blocks[self.block_index]
            if self.offset + count <= block.size:
                view = block[self.offset:self.offset + count]
                self.offset += count
                return view
            self.block_index += 1
            self.offset = 0
        block = np.empty(max(count, _ARENA_BLOCK), dtype=np.float32)
        owner._note_alloc(block.nbytes)
        blocks.append(block)
        self.block_index = len(blocks) - 1
        self.offset = count
        return block[:count]

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for block in self.blocks)


class _Workspaces(threading.local):
    """Per-thread double-buffered arenas plus the managed flag."""

    def __init__(self) -> None:  # called once per thread by threading.local
        self.arenas = (_Arena(), _Arena())
        self.parity = 0
        self.managed = False


# ----------------------------------------------------------------------
# The kernels
# ----------------------------------------------------------------------
class InferenceKernels:
    """Buffer-reusing GPT-2 forward pass over a :class:`WeightStore`.

    One instance may be shared by many engines: weights are
    read-only and workspaces are per-thread, so concurrent engine
    threads never contend or alias.  Outputs are bit-identical to the
    Tensor-graph path.
    """

    def __init__(self, store: WeightStore, mode: str = "fp32") -> None:
        if mode not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernel mode {mode!r}; expected one of {KERNEL_MODES}")
        self.store = store
        self.mode = mode
        meta = store.meta
        self.vocab_size = meta["vocab_size"]
        self.context_length = meta["context_length"]
        self.d_model = meta["d_model"]
        self.num_layers = meta["num_layers"]
        self.num_heads = meta["num_heads"]
        self.d_ff = meta["d_ff"]
        self.head_dim = self.d_model // self.num_heads
        self._scale = np.float32(1.0 / np.sqrt(self.head_dim))
        # Full causal mask; slicing [past:total, :total] reproduces the
        # Tensor path's per-call np.where mask bit-for-bit.
        positions = np.arange(self.context_length)
        self._mask = np.where(positions[None, :] > positions[:, None],
                              MASK_VALUE, 0.0).astype(np.float32)
        self._mask.flags.writeable = False
        self._wpe = store.wpe
        self._wte = store.wte
        self._blocks = store.blocks
        self._ws = _Workspaces()
        self._alloc_lock = threading.Lock()
        self._alloc_count = 0
        self._alloc_bytes = 0

    # -- workspace lifecycle --------------------------------------------
    def begin_step(self) -> None:
        """Start one managed scheduler step on the calling thread.

        Flips the arena parity: buffers handed out two steps ago are
        recycled, buffers from the previous step stay valid (the
        engine samples step ``i``'s logits at step ``i + 1``).
        """
        ws = self._ws
        ws.managed = True
        ws.parity ^= 1
        ws.arenas[ws.parity].reset()

    def preallocate(self, max_batch: int, chunk: int = 32) -> None:
        """Prime both arenas for up to ``max_batch`` concurrent slots.

        Sizes for the worst of a full-context decode step and a
        prefill chunk, so steady-state serving allocates nothing.
        """
        batch = max(1, int(max_batch))
        need = max(self._workspace_floats(batch, 1),
                   self._workspace_floats(batch, min(chunk,
                                                     self.context_length)))
        ws = self._ws
        for arena in ws.arenas:
            arena.reset()
            arena.take(self, need)
            arena.reset()

    def _workspace_floats(self, batch: int, time: int) -> int:
        """Upper bound on arena floats one forward call can consume."""
        d, h, ff, v = self.d_model, self.num_heads, self.d_ff, self.vocab_size
        total = self.context_length
        return (
            batch * time * (3 * d + 2 * ff + 3 * d + v + 3)  # x/pos/ln/qkv/ff/...
            + batch * h * time * (total + self.head_dim + 2)  # scores/ctx/stats
            + batch * time * d)  # merged

    def _note_alloc(self, nbytes: int) -> None:
        with self._alloc_lock:
            self._alloc_count += 1
            self._alloc_bytes += nbytes

    @property
    def allocation_count(self) -> int:
        """Workspace blocks allocated so far (test hook: this must
        plateau after warmup — steady-state decode allocates nothing)."""
        return self._alloc_count

    def stats(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "workspace_allocations": self._alloc_count,
            "workspace_bytes": self._alloc_bytes,
            "weights_frozen": self.store.frozen,
            "weight_fp32_bytes": self.store.fp32_nbytes,
        }

    # -- arena helpers ---------------------------------------------------
    def _enter(self) -> bool:
        """Per-call arena handling; returns True when outputs must be
        copied (unmanaged caller: no begin_step lifecycle to trust)."""
        ws = self._ws
        if ws.managed:
            return False
        ws.parity ^= 1
        ws.arenas[ws.parity].reset()
        return True

    def _take(self, shape: Tuple[int, ...]) -> np.ndarray:
        ws = self._ws
        count = 1
        for dim in shape:
            count *= dim
        return ws.arenas[ws.parity].take(self, count).reshape(shape)

    # -- fused ops (bit-identical to the Tensor-path op sequences) -------
    def _linear(self, x: np.ndarray, w: np.ndarray, b: np.ndarray,
                out: np.ndarray) -> np.ndarray:
        np.matmul(x, w, out=out)
        np.add(out, b, out=out)
        return out

    def _layer_norm(self, x: np.ndarray, w: np.ndarray, b: np.ndarray,
                    out: np.ndarray, mstat: np.ndarray,
                    vstat: np.ndarray) -> np.ndarray:
        # Mirrors F.layer_norm: mean/var over the last axis, then
        # ((x - mu) * inv_std) * w + b, all in float32.
        n = x.shape[-1]
        np.sum(x, axis=-1, keepdims=True, out=mstat)
        np.divide(mstat, n, out=mstat)
        np.subtract(x, mstat, out=out)
        np.multiply(out, out, out=out)
        np.sum(out, axis=-1, keepdims=True, out=vstat)
        np.divide(vstat, n, out=vstat)
        np.add(vstat, _LN_EPS, out=vstat)
        np.sqrt(vstat, out=vstat)
        np.divide(1.0, vstat, out=vstat)
        np.subtract(x, mstat, out=out)
        np.multiply(out, vstat, out=out)
        np.multiply(out, w, out=out)
        np.add(out, b, out=out)
        return out

    def _softmax(self, scores: np.ndarray, smax: np.ndarray,
                 ssum: np.ndarray) -> None:
        # The reductions np.max / np.sum dispatch to, minus the wrapper.
        np.maximum.reduce(scores, axis=-1, keepdims=True, out=smax)
        np.subtract(scores, smax, out=scores)
        np.exp(scores, out=scores)
        np.add.reduce(scores, axis=-1, keepdims=True, out=ssum)
        np.divide(scores, ssum, out=scores)

    def _gelu(self, x: np.ndarray, scratch: np.ndarray) -> None:
        # Mirrors Tensor.gelu: 0.5 * x * (1 + tanh(c * (x + 0.044715 x^3)))
        np.power(x, 3, out=scratch)
        np.multiply(scratch, 0.044715, out=scratch)
        np.add(x, scratch, out=scratch)
        np.multiply(scratch, _GELU_C, out=scratch)
        np.tanh(scratch, out=scratch)
        np.add(scratch, 1.0, out=scratch)
        np.multiply(x, 0.5, out=x)
        np.multiply(x, scratch, out=x)

    def _check_ids(self, ids: np.ndarray) -> None:
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise IndexError(
                f"token id out of range [0, {self.vocab_size}): "
                f"min={ids.min()}, max={ids.max()}")

    def _embed(self, ids: np.ndarray, position: int) -> np.ndarray:
        """Token + position embeddings into a workspace buffer."""
        self._check_ids(ids)
        batch, time = ids.shape
        x = self._take((batch, time, self.d_model))
        np.take(self._wte, ids, axis=0, out=x)
        np.add(x, self._wpe[position:position + time], out=x)
        return x

    def _project(self, hidden: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Weight-tied head: ``hidden @ wte.T``."""
        np.matmul(hidden, self._wte.swapaxes(0, 1), out=out)
        return out

    def _dense_buffers(self, batch: int, time: int) -> Tuple[np.ndarray, ...]:
        """``(ln, qkv, mstat, vstat, attn, ff, gelu_ws)`` for the
        position-independent ops at ``(batch, time)``."""
        d, ff = self.d_model, self.d_ff
        return tuple(self._take((batch, time, width))
                     for width in (d, 3 * d, 1, 1, d, ff, ff))

    def _block_tail(self, bw: _BlockWeights, x: np.ndarray,
                    merged: np.ndarray, ln: np.ndarray, mstat: np.ndarray,
                    vstat: np.ndarray, attn: np.ndarray, ff: np.ndarray,
                    gelu_ws: np.ndarray) -> None:
        """The post-attention half of a block, into ``x``: out-proj,
        residual, LN2, MLP, residual — position-independent ops every
        forward pass spells the same way."""
        self._linear(merged, bw.proj_w, bw.proj_b, attn)
        np.add(x, attn, out=x)
        self._layer_norm(x, bw.ln2_w, bw.ln2_b, ln, mstat, vstat)
        self._linear(ln, bw.fc_w, bw.fc_b, ff)
        self._gelu(ff, gelu_ws)
        self._linear(ff, bw.out_w, bw.out_b, attn)
        np.add(x, attn, out=x)

    # -- forward passes ---------------------------------------------------
    def _forward_cached(self, ids: np.ndarray,
                        caches: Optional[Sequence[KVCache]], position: int
                        ) -> Tuple[np.ndarray, List[Optional[KVCache]]]:
        """The trunk + head at ``(batch, time)``, updating KV caches.

        Transliterates ``GPT2Model._trunk`` + ``_project`` op by op:
        same shapes, same strides, same numpy calls — only the output
        buffers come from the arena instead of fresh allocations.
        """
        batch, time = ids.shape
        if position + time > self.context_length:
            raise ValueError(
                f"sequence of length {position + time} exceeds context "
                f"length {self.context_length}")
        d, h, hd = self.d_model, self.num_heads, self.head_dim
        past = caches[0].seq_len if caches is not None else 0
        total = past + time

        x = self._embed(ids, position)
        ln, qkv, mstat, vstat, attn, ff, gelu_ws = self._dense_buffers(
            batch, time)
        scores = self._take((batch, h, time, total))
        smax = self._take((batch, h, time, 1))
        ssum = self._take((batch, h, time, 1))
        ctxb = self._take((batch, h, time, hd))
        merged = (ctxb.transpose(0, 2, 1, 3).reshape(batch, time, d)
                  if time == 1 else self._take((batch, time, d)))

        new_caches: List[Optional[KVCache]] = []
        for index, bw in enumerate(self._blocks):
            cache = caches[index] if caches is not None else None
            self._layer_norm(x, bw.ln1_w, bw.ln1_b, ln, mstat, vstat)
            self._linear(ln, bw.qkv_w, bw.qkv_b, qkv)
            # (B, T, 3D) -> three (B, H, T, hd) views: the same strided
            # views the Tensor path's reshape/transpose produces.
            q = qkv[:, :, :d].reshape(batch, time, h, hd).transpose(0, 2, 1, 3)
            k = qkv[:, :, d:2 * d].reshape(batch, time, h,
                                           hd).transpose(0, 2, 1, 3)
            v = qkv[:, :, 2 * d:].reshape(batch, time, h,
                                          hd).transpose(0, 2, 1, 3)
            new_cache = None
            if cache is not None:
                new_cache = cache.append(k, v, reserve=self.context_length)
                if past:
                    k = new_cache.keys
                    v = new_cache.values
            np.matmul(q, k.swapaxes(-1, -2), out=scores)
            np.multiply(scores, self._scale, out=scores)
            if time > 1 or past == 0:
                np.add(scores, self._mask[past:total, :total], out=scores)
            self._softmax(scores, smax, ssum)
            np.matmul(scores, v, out=ctxb)
            if time > 1:
                merged.reshape(batch, time, h, hd)[...] = (
                    ctxb.transpose(0, 2, 1, 3))
            self._block_tail(bw, x, merged, ln, mstat, vstat, attn, ff,
                             gelu_ws)
            new_caches.append(new_cache)

        self._layer_norm(x, self.store.ln_f_w, self.store.ln_f_b, ln,
                         mstat, vstat)
        logits = self._take((batch, time, self.vocab_size))
        self._project(ln, logits)
        return logits, new_caches

    def decode_step(self, ids: np.ndarray, caches: Sequence[KVCache],
                    position: int
                    ) -> Tuple[np.ndarray, List[KVCache]]:
        """One token per sequence: ``next_logits`` minus the state
        wrapper.  Returns ``(logits (B, V), new_caches)``."""
        copy = self._enter()
        logits, new_caches = self._forward_cached(ids, caches, position)
        out = logits[:, 0, :]
        return (out.copy() if copy else out), new_caches

    def decode_rows(self, ids: np.ndarray,
                    caches_per_row: Sequence[Sequence[KVCache]],
                    positions: np.ndarray, counts: Sequence[int]
                    ) -> Tuple[np.ndarray, List[List[KVCache]]]:
        """Known tokens for ``B`` sequences of *unequal* length.

        ``ids`` is ``(N, 1)``: row ``r``'s ``counts[r]`` tokens, rows in
        order; ``caches_per_row[r]`` is row ``r``'s own per-layer
        batch-of-one caches, ``positions`` ``(N,)`` each token's
        position.  The dense ops run once at ``(N, 1, d)`` — to numpy,
        ``N`` separate ``(1, d)`` GEMMs, :meth:`decode_step`'s shape on
        one token — and only attention walks the tokens: token ``t`` of
        row ``r`` attends over row ``r``'s cache plus its own tokens
        ``<= t``, so every token gets the bits of its own single-row
        step and caches are never concatenated.  Returns ``(logits
        (N, V), new_caches_per_row)``, each row appended by all its
        tokens.
        """
        copy = self._enter()
        self._check_ids(ids)
        tokens = ids.shape[0]
        d, h, hd = self.d_model, self.num_heads, self.head_dim
        x = self._take((tokens, 1, d))
        np.take(self._wte, ids, axis=0, out=x)
        pos = self._take((tokens, 1, d))
        np.take(self._wpe, positions.reshape(tokens, 1), axis=0, out=pos)
        np.add(x, pos, out=x)
        ln, qkv, mstat, vstat, attn, ff, gelu_ws = self._dense_buffers(
            tokens, 1)
        smax = self._take((1, h, 1, 1))
        ssum = self._take((1, h, 1, 1))
        ctxb = self._take((tokens, h, 1, hd))
        merged = ctxb.transpose(0, 2, 1, 3).reshape(tokens, 1, d)
        # Per-token views and score buffers, built once for all layers:
        # each is what _forward_cached sees at batch 1 (same strides, a
        # contiguous (1, H, 1, past + 1) scores buffer of its own).
        q, k, v = (qkv[:, :, lo:lo + d].reshape(tokens, 1, h, hd)
                   .transpose(0, 2, 1, 3) for lo in (0, d, 2 * d))
        # (N, H, 1, hd) -> (1, H, N, hd): a row appends its token slice.
        k_all, v_all = k.transpose(2, 1, 0, 3), v.transpose(2, 1, 0, 3)
        rows, start = [], 0
        for caches, count in zip(caches_per_row, counts):
            end = start + count
            views = []
            for i in range(start, end):
                past = caches[0].seq_len + i - start
                views.append((past, q[i:i + 1], k[i:i + 1], v[i:i + 1],
                              self._take((1, h, 1, past + 1)), ctxb[i:i + 1]))
            rows.append((k_all[:, :, start:end], v_all[:, :, start:end],
                         views))
            start = end

        new_rows: List[List[KVCache]] = [[] for _ in rows]
        for index, bw in enumerate(self._blocks):
            self._layer_norm(x, bw.ln1_w, bw.ln1_b, ln, mstat, vstat)
            self._linear(ln, bw.qkv_w, bw.qkv_b, qkv)
            for r, (k_row, v_row, views) in enumerate(rows):
                new_cache = caches_per_row[r][index].append(
                    k_row, v_row, reserve=self.context_length)
                new_rows[r].append(new_cache)
                for past, q_i, k_i, v_i, scores, ctx_i in views:
                    if past:
                        k_i = new_cache.k[:, :, :past + 1]
                        v_i = new_cache.v[:, :, :past + 1]
                    np.matmul(q_i, k_i.swapaxes(-1, -2), out=scores)
                    np.multiply(scores, self._scale, out=scores)
                    if past == 0:
                        np.add(scores, self._mask[:1, :1], out=scores)
                    self._softmax(scores, smax, ssum)
                    np.matmul(scores, v_i, out=ctx_i)
            self._block_tail(bw, x, merged, ln, mstat, vstat, attn, ff,
                             gelu_ws)

        self._layer_norm(x, self.store.ln_f_w, self.store.ln_f_b, ln,
                         mstat, vstat)
        logits = self._take((tokens, 1, self.vocab_size))
        self._project(ln, logits)
        out = logits[:, 0, :]
        return (out.copy() if copy else out), new_rows

    def prefill_batch(self, ids: np.ndarray, caches: Sequence[KVCache],
                      position: int
                      ) -> Tuple[np.ndarray, List[KVCache]]:
        """Whole-chunk prefill; returns ``(last_logits (B, V), caches)``.

        Note the head projects *all* chunk positions before slicing
        the last one — matching the Tensor path's GEMM shape exactly
        is part of the bit-identity contract (BLAS must not see a
        different ``M``).
        """
        copy = self._enter()
        logits, new_caches = self._forward_cached(ids, caches, position)
        out = logits[:, -1, :]
        return (out.copy() if copy else out), new_caches

    def full_forward(self, ids: np.ndarray) -> np.ndarray:
        """Cache-less full-sequence logits ``(B, T, V)`` (evaluation)."""
        copy = self._enter()
        logits, _ = self._forward_cached(ids, None, 0)
        return logits.copy() if copy else logits
