"""Inference-only decode kernels: raw-ndarray forward, frozen weights.

The serving stack (continuous batching, speculative verify, in-place
crash recovery) schedules work well, but every decode step still walked the
autograd :class:`~repro.nn.tensor.Tensor` graph: each op wraps its
result in a fresh ``Tensor`` and allocates a fresh ndarray.  This
module provides the hot-path replacement:

``WeightStore``
    A model's inference weights, referenced and frozen read-only for as
    long as the kernels are attached (a restarted engine re-attaches to
    it), plus the tied head's padded copy, taken once.

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

from .attention import (KVArena, KVCache, MASK_VALUE, PREFILL_CHUNK,
                        matmul_rows, padded_head, row_class_limit)

__all__ = [
    "InferenceKernels",
    "WeightStore",
]

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
# Weight store
# ----------------------------------------------------------------------
class WeightStore:
    """A GPT-2 model's inference weights, frozen read-only.

    Holds *references* to the model's parameter arrays (no copy but
    :attr:`head`) and marks them read-only, which turns any accidental
    write from a crashing engine into an immediate error instead of
    silent corruption of every later request.  Frozen weights cannot
    move, so the tied head's padded copy is taken once, here.
    :meth:`release` restores writability;
    ``GPT2Model.disable_kernels`` calls it before the weights may move
    (``train()``, ``load_state_dict``).
    """

    def __init__(self, meta: Dict[str, int], wte: np.ndarray, wpe: np.ndarray,
                 blocks: Sequence[_BlockWeights], ln_f_w: np.ndarray,
                 ln_f_b: np.ndarray) -> None:
        self.meta = dict(meta)
        self.wte = wte
        self.wpe = wpe
        self.blocks = list(blocks)
        self.ln_f_w = ln_f_w
        self.ln_f_b = ln_f_b
        #: The tied head's read-only :func:`padded_head` copy of ``wte``.
        self.head = padded_head(wte)
        self._frozen: List[np.ndarray] = []
        for arr in self.weight_arrays():
            if arr.flags.writeable:
                arr.flags.writeable = False
                self._frozen.append(arr)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_model(cls, model: Any) -> "WeightStore":
        """Capture (and freeze) a
        :class:`~repro.models.gpt2.GPT2Model`'s weights."""
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
                   ln_f_b=model.ln_f.bias.data)

    # -- read-only enforcement ------------------------------------------
    def release(self) -> None:
        """Restore writability to the arrays this store froze."""
        while self._frozen:
            self._frozen.pop().flags.writeable = True

    @property
    def frozen(self) -> bool:
        return bool(self._frozen)

    # -- accounting -----------------------------------------------------
    def weight_arrays(self) -> Iterator[np.ndarray]:
        """Every weight array the store references, :attr:`head`
        included (what it freezes and :attr:`fp32_nbytes` sums)."""
        yield self.wte
        yield self.wpe
        for bw in self.blocks:
            for name in bw.__slots__:
                yield getattr(bw, name)
        yield self.ln_f_w
        yield self.ln_f_b
        yield self.head

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
    """Per-thread double-buffered arenas, the managed flag, and the slot
    step's buffers by row count with the arena they are carved from."""

    def __init__(self) -> None:  # called once per thread by threading.local
        self.arenas = (_Arena(), _Arena())
        self.parity = 0
        self.managed = False
        self.carving = _Arena()  # never reset
        self.carved: Dict[int, Tuple[Any, ...]] = {}


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

    def __init__(self, store: WeightStore) -> None:
        self.store = store
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
        # The decode GEMMs' row-class probe, once per weight shape.
        shapes = {w.shape for bw in store.blocks
                  for w in (bw.qkv_w, bw.proj_w, bw.fc_w, bw.out_w)}
        self.row_class_limits = {shape: row_class_limit(*shape)
                                 for shape in shapes | {store.head.shape}}
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

    def preallocate(self, max_batch: int) -> None:
        """Prime both arenas for up to ``max_batch`` concurrent slots,
        and carve the decode step's buffers for 1 to ``max_batch`` rows.

        Sizes for the worst of a full-context decode step and a
        prefill chunk, so steady-state serving allocates nothing.
        """
        batch = max(1, int(max_batch))
        chunk = min(PREFILL_CHUNK, self.context_length)
        need = max(self._workspace_floats(batch, 1),
                   self._workspace_floats(batch, chunk))
        ws = self._ws
        for arena in ws.arenas:
            arena.reset()
            arena.take(self, need)
            arena.reset()
        for tokens in range(1, batch + 1):
            self._slot_buffers(tokens)

    def _workspace_floats(self, batch: int, time: int) -> int:
        """Upper bound on arena floats one forward call can consume."""
        d, h, ff = self.d_model, self.num_heads, self.d_ff
        rows = batch * time + 1  # a lone decode row's dummy row
        return rows * (9 * d + 2 * ff + 2 + self.store.head.shape[1]
                       + h * (self.context_length + 2))  # dense/head, scores

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
            "workspace_allocations": self._alloc_count,
            "workspace_bytes": self._alloc_bytes,
            "weights_frozen": self.store.frozen,
            "weight_fp32_bytes": self.store.fp32_nbytes,
            "head_bytes": self.store.head.nbytes,
            "row_class_limits": {f"{k}x{n}": limit for (k, n), limit
                                 in self.row_class_limits.items()},
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
        # 2-D operands are decode rows: batch-invariant GEMMs, the Tensor
        # path's linear_rows.  3-D ones are prefill / full-sequence
        # chunks: numpy's per-slice GEMMs, the Tensor path's Linear.
        if x.ndim == 2:
            matmul_rows(x, w, out)
        else:
            np.matmul(x, w, out=out)
        np.add(out, b, out=out)
        return out

    def _layer_norm(self, x: np.ndarray, w: np.ndarray, b: np.ndarray,
                    out: np.ndarray, mstat: np.ndarray,
                    vstat: np.ndarray) -> np.ndarray:
        # Mirrors F.layer_norm: mean/var over the last axis, then
        # ((x - mu) * inv_std) * w + b, all in float32.  The reductions
        # are the one np.sum dispatches to, minus the wrapper.
        n = x.shape[-1]
        np.add.reduce(x, axis=-1, keepdims=True, out=mstat)
        np.divide(mstat, n, out=mstat)
        np.subtract(x, mstat, out=out)
        np.multiply(out, out, out=out)
        np.add.reduce(out, axis=-1, keepdims=True, out=vstat)
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
        # Mirrors Tensor.gelu: 0.5 * x * (1 + tanh(c * (x + 0.044715 x^3))),
        # with the cube spelled as both paths spell it, (x * x) * x: two
        # IEEE multiplies round alike on every CPU, unlike np.power's
        # SIMD-dispatched float32 loop, at a fraction of its cost
        # (docs/KERNELS.md §1).
        np.multiply(x, x, out=scratch)
        np.multiply(scratch, x, out=scratch)
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

    def _embed_rows(self, ids: np.ndarray, pos: np.ndarray,
                    x: np.ndarray) -> None:
        """A decode step's token + position embeddings into its ``(R, d)``
        rows ``x`` -- a lone token carries one zero dummy row, so every
        dense op is a GEMM of 2 rows (docs/KERNELS.md §1b)."""
        self._check_ids(ids)
        live = x[:ids.shape[0]]
        self._wte.take(ids.reshape(-1), 0, live, "clip")
        np.add(live, pos, out=live)
        x[ids.shape[0]:] = 0

    def _head(self, ln: np.ndarray, rows: int) -> np.ndarray:
        """``(rows, V)`` logits of ``ln``'s first ``rows`` of ``R >= 2``:
        batch-invariant GEMMs against the store's padded ``wteᵀ``."""
        logits = self._take((ln.shape[0], self.store.head.shape[1]))
        matmul_rows(ln, self.store.head, logits)
        return logits[:rows, :self.vocab_size]

    def _dense_buffers(self, *lead: int) -> Tuple[np.ndarray, ...]:
        """``(ln, qkv, mstat, vstat, attn, ff, gelu_ws)`` for the
        position-independent ops, each ``(*lead, width)``."""
        d, ff = self.d_model, self.d_ff
        return tuple(self._take((*lead, width))
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
        """The trunk + final LN at ``(batch, time)``, updating KV caches.

        Transliterates ``GPT2Model._trunk`` op by op: same shapes, same
        strides, same numpy calls — only the output buffers come from
        the arena instead of fresh allocations.  A decode step (one token,
        caches) runs on :meth:`decode_rows`' rows, as the Tensor path's
        rows do.
        """
        batch, time = ids.shape
        if position + time > self.context_length:
            raise ValueError(
                f"sequence of length {position + time} exceeds context "
                f"length {self.context_length}")
        d, h, hd = self.d_model, self.num_heads, self.head_dim
        past = caches[0].seq_len if caches is not None else 0
        total = past + time

        if time == 1 and caches is not None:
            x, _, dense, ctxb, merged = self._slot_buffers(1)[:5]
            self._embed_rows(ids, self._wpe[position], x)
            qkv3, ctxb = dense[1].reshape(2, 1, 3 * d)[:1], ctxb[:1]
        else:
            x = self._embed(ids, position)
            dense = self._dense_buffers(batch, time)
            qkv3 = dense[1]
            ctxb = self._take((batch, h, time, hd))
            merged = (ctxb.transpose(0, 2, 1, 3).reshape(batch, time, d)
                      if time == 1 else self._take((batch, time, d)))
        ln, qkv, mstat, vstat, attn, ff, gelu_ws = dense
        scores = self._take((batch, h, time, total))
        smax = self._take((batch, h, time, 1))
        ssum = self._take((batch, h, time, 1))

        new_caches: List[Optional[KVCache]] = []
        for index, bw in enumerate(self._blocks):
            cache = caches[index] if caches is not None else None
            self._layer_norm(x, bw.ln1_w, bw.ln1_b, ln, mstat, vstat)
            self._linear(ln, bw.qkv_w, bw.qkv_b, qkv)
            # (B, T, 3D) -> three (B, H, T, hd) views: the same strided
            # views the Tensor path's reshape/transpose produces.
            q, k, v = (qkv3[:, :, lo:lo + d].reshape(batch, time, h, hd)
                       .transpose(0, 2, 1, 3) for lo in (0, d, 2 * d))
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
        return ln, new_caches

    def decode_step(self, ids: np.ndarray, caches: Sequence[KVCache],
                    position: int
                    ) -> Tuple[np.ndarray, List[KVCache]]:
        """One token per sequence: ``next_logits`` minus the state
        wrapper.  Returns ``(logits (B, V), new_caches)``."""
        copy = self._enter()
        ln, new_caches = self._forward_cached(ids, caches, position)
        out = self._head(ln, ids.shape[0])
        return (out.copy() if copy else out), new_caches

    def decode_rows(self, ids: np.ndarray, arena: KVArena,
                    slots: np.ndarray, pasts: np.ndarray) -> np.ndarray:
        """``(N, V)`` logits of known tokens for sequences of *unequal*
        length, each cached in a slot of ``arena``.

        Token ``i`` of ``ids`` ``(N, 1)`` goes to slot ``slots[i]`` at
        position ``pasts[i]``: a run of consecutive positions in one slot
        is a row of several tokens (a verify chunk).  The dense ops and
        the tied head run once over all tokens as batch-invariant GEMMs
        (docs/KERNELS.md §1b); each layer scatters every token's key and
        value into the arena at once, then attention walks the tokens,
        each attending over its slot's positions ``<= pasts[i]`` into a
        slice of one flat scores buffer whose softmax runs once.  So
        every token gets the bits of its own single-row step.
        """
        copy = self._enter()
        tokens, h = ids.shape[0], self.num_heads
        (x, pos, dense, _, merged, k_new, v_new, flat, spread, smax, ssum,
         static) = self._slot_buffers(tokens)
        self._wpe.take(pasts, 0, pos)  # raises out of range
        self._embed_rows(ids, pos, x)
        ln, qkv, mstat, vstat, attn, ff, gelu_ws = dense
        lengths = (pasts + 1).repeat(h)  # per (token, head)
        starts = lengths.cumsum() - lengths
        spread_at = np.arange(lengths.size).repeat(lengths)
        total = int(starts[-1] + lengths[-1])
        flat, spread = flat[:total], spread[:total]
        rows = [(q_i, flat[lo:lo + h * end].reshape(1, h, 1, end), ssum_i,
                 ctx_i, slot, end)
                for (q_i, ssum_i, ctx_i), slot, end, lo
                in zip(static, slots.tolist(), (pasts + 1).tolist(),
                       starts[::h].tolist())]

        for index, bw in enumerate(self._blocks):
            self._layer_norm(x, bw.ln1_w, bw.ln1_b, ln, mstat, vstat)
            self._linear(ln, bw.qkv_w, bw.qkv_b, qkv)
            keys, values = arena.k[index], arena.v[index]
            keys[slots, :, pasts] = k_new
            values[slots, :, pasts] = v_new
            for q_i, scores, _, _, slot, end in rows:
                np.matmul(q_i, keys[slot:slot + 1, :, :end].swapaxes(-1, -2),
                          out=scores)
            # One softmax pass over every token's scores; only the sums
            # stay per token (reduceat's sum is not pairwise).  A lone
            # score's weight is 1 whatever its mask, so past == 0 needs
            # none.
            np.multiply(flat, self._scale, out=flat)
            np.maximum.reduceat(flat, starts, out=smax)
            smax.take(spread_at, None, spread, "clip")
            np.subtract(flat, spread, out=flat)
            np.exp(flat, out=flat)
            for _, scores, ssum_i, _, _, _ in rows:
                np.add.reduce(scores, axis=-1, keepdims=True, out=ssum_i)
            ssum.take(spread_at, None, spread, "clip")
            np.divide(flat, spread, out=flat)
            for _, scores, _, ctx_i, slot, end in rows:
                np.matmul(scores, values[slot:slot + 1, :, :end], out=ctx_i)
            self._block_tail(bw, x, merged, ln, mstat, vstat, attn, ff,
                             gelu_ws)

        self._layer_norm(x, self.store.ln_f_w, self.store.ln_f_b, ln,
                         mstat, vstat)
        out = self._head(ln, tokens)
        return out.copy() if copy else out

    def _slot_buffers(self, tokens: int) -> Tuple[Any, ...]:
        """:meth:`decode_rows`' buffers and per-token static views at
        ``tokens`` rows, carved once per thread and row count from an
        arena that is never reset, so no later :meth:`_take` (a prefill
        chunk in the same parity) can alias them.  Only the logits come
        from the step-parity arenas, as :meth:`begin_step` promises."""
        ws = self._ws
        carved = ws.carved.get(tokens)
        if carved is not None:
            return carved
        d, h, hd = self.d_model, self.num_heads, self.head_dim
        arenas, parity = ws.arenas, ws.parity
        ws.arenas, ws.parity = (ws.carving,), 0
        try:
            rows = max(tokens, 2)  # a lone token carries one dummy row
            x = self._take((rows, d))
            pos = self._take((tokens, d))
            dense = self._dense_buffers(rows)
            ctxb = self._take((rows, h, 1, hd))
            ctxb[...] = 0  # the dummy row's context stays zero
            scores = tokens * h * self.context_length
            flat, spread = self._take((scores,)), self._take((scores,))
            smax, ssum = self._take((tokens * h,)), self._take((tokens * h,))
        finally:
            ws.arenas, ws.parity = arenas, parity
        # Per-token views, each what _forward_cached sees at batch 1.
        qkv = dense[1][:tokens]
        q = (dense[1].reshape(rows, 1, 3 * d)[:tokens, :, :d]
             .reshape(tokens, 1, h, hd).transpose(0, 2, 1, 3))
        static = [(q[i:i + 1], ssum[i * h:(i + 1) * h].reshape(1, h, 1, 1),
                   ctxb[i:i + 1]) for i in range(tokens)]
        carved = ws.carved[tokens] = (
            x, pos, dense, ctxb, ctxb.reshape(rows, d),
            qkv[:, d:2 * d].reshape(tokens, h, hd),
            qkv[:, 2 * d:].reshape(tokens, h, hd),
            flat, spread, smax, ssum, static)
        return carved

    def prefill_batch(self, ids: np.ndarray, caches: Sequence[KVCache],
                      position: int
                      ) -> Tuple[np.ndarray, List[KVCache]]:
        """Whole-chunk prefill; returns ``(last_logits (B, V), caches)``.

        Only the last two positions go through the head (:meth:`_head`,
        a 2-row GEMM, as a decode row): the last one's logits are what
        the decoder reads.  A one-token chunk is a decode step.
        """
        if ids.shape[1] < 2:
            raise ValueError("prefill_batch needs a chunk of >= 2 tokens")
        copy = self._enter()
        ln, new_caches = self._forward_cached(ids, caches, position)
        out = self._head(ln[:, -2:].reshape(-1, self.d_model),
                         2 * len(ln))[1::2]
        return (out.copy() if copy else out), new_caches

    def full_forward(self, ids: np.ndarray) -> np.ndarray:
        """Cache-less full-sequence logits ``(B, T, V)`` (evaluation)."""
        copy = self._enter()
        ln, _ = self._forward_cached(ids, None, 0)
        logits = self._take((*ids.shape, self.vocab_size))
        np.matmul(ln, self._wte.swapaxes(0, 1), out=logits)  # the tied head
        return logits.copy() if copy else logits
