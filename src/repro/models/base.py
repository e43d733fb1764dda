"""Language-model interface shared by the LSTM and transformer families.

A model is anything that scores next tokens.  Two call paths:

* :meth:`LanguageModel.forward` — teacher-forced training: a whole
  ``(batch, time)`` id matrix in, ``(batch, time, vocab)`` logits out.
* the incremental API (:meth:`start_state` / :meth:`next_logits`) —
  autoregressive generation: feed one token per call, carrying opaque
  model state (LSTM hidden state or transformer KV cache).

Keeping generation behind the incremental API lets the decoding
strategies in :mod:`repro.models.generation` work with every model.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Module, Tensor


class LanguageModel(Module):
    """Abstract autoregressive language model over a token vocabulary."""

    #: subclasses set this for checkpoint metadata
    model_type = "base"

    def __init__(self, vocab_size: int) -> None:
        super().__init__()
        if vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
        self.vocab_size = vocab_size
        self._kernels = None

    # ------------------------------------------------------------------
    # Inference kernels (optional fast path)
    # ------------------------------------------------------------------
    @property
    def kernels(self):
        """The attached :class:`~repro.nn.kernels.InferenceKernels`,
        or ``None`` when the model runs the Tensor-graph path."""
        return self._kernels

    def enable_kernels(self, mode: str = "fp32", store=None, freeze=False):
        """Attach the inference-only kernel forward path.

        Models with a kernel implementation (the transformer) override
        this; the default refuses so callers fail loudly rather than
        silently running the slow path.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no inference-kernel implementation")

    def disable_kernels(self) -> None:
        """Detach kernels and return to the Tensor-graph forward.

        Releases any read-only freeze this model's own ``enable_kernels``
        call put on the weights (a store the caller supplied is left
        alone — other models may still rely on it).
        """
        kernels = self._kernels
        self._kernels = None
        if kernels is not None and getattr(kernels, "_owns_freeze", False):
            kernels.store.release()

    def _active_kernels(self):
        """Kernels to dispatch to, or ``None``.

        Kernels are inference-only: a model put back in training mode
        transparently falls back to the autograd path.
        """
        kernels = self._kernels
        return kernels if (kernels is not None and not self.training) else None

    # ------------------------------------------------------------------
    # Training path
    # ------------------------------------------------------------------
    def forward(self, ids: np.ndarray) -> Tensor:
        """Teacher-forced logits.

        Parameters
        ----------
        ids:
            Integer array ``(batch, time)``.

        Returns
        -------
        Tensor
            Logits ``(batch, time, vocab_size)``; position ``t`` scores
            token ``t+1``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Generation path
    # ------------------------------------------------------------------
    def start_state(self, batch_size: int) -> Any:
        """Fresh decoding state for ``batch_size`` parallel sequences."""
        raise NotImplementedError

    def next_logits(self, ids: np.ndarray, state: Any) -> Tuple[np.ndarray, Any]:
        """Advance one step.

        Parameters
        ----------
        ids:
            ``(batch,)`` int array: the token just produced (or the
            next prompt token during prefill).
        state:
            Whatever :meth:`start_state` / the previous call returned
            (or, where :attr:`ragged_decode` is set, a list of
            batch-of-one states, one per id).

        Returns
        -------
        (logits, state):
            ``(batch, vocab_size)`` float array of next-token logits
            and the updated state.
        """
        raise NotImplementedError

    def prefill(self, ids: np.ndarray, state: Any) -> Tuple[np.ndarray, Any]:
        """Consume a chunk of prompt tokens; returns last-position logits.

        Parameters
        ----------
        ids:
            ``(time,)`` int array of prompt tokens for ONE sequence.
        state:
            Decoding state for a batch of 1.

        Returns
        -------
        (logits, state):
            ``(1, vocab_size)`` logits after the last chunk token and
            the advanced state.

        The default walks :meth:`next_logits` one token at a time, so
        it is exact for every model; models with a parallel trunk
        (transformers) override it with a single multi-token pass.
        Callers that need bit-reproducible results across cache
        hit/miss patterns must always split a prompt at the same
        absolute chunk boundaries (see
        :func:`repro.models.generation.prefill_prompt`).
        """
        ids = np.asarray(ids).reshape(-1)
        if ids.size == 0:
            raise ValueError("prefill requires at least one token")
        logits: Optional[np.ndarray] = None
        for token in ids:
            logits, state = self.next_logits(np.array([token]), state)
        return logits, state

    def verify_chunk(self, ids: np.ndarray,
                     state: Any) -> Tuple[np.ndarray, List[Any]]:
        """Decode a ``(batch, steps)`` chunk of *known* tokens exactly.

        The speculative-decoding verify step: every row's logits at
        every step must be **bit-identical** to walking
        :meth:`next_logits` one token at a time, because speculative
        greedy decode is contractually bit-identical to the sequential
        decode loop (``docs/SERVING.md``).

        Returns ``(logits, states)`` where ``logits`` is ``(batch,
        steps, vocab)`` (``logits[:, t]`` scores the token *after*
        chunk token ``t``) and ``states[t]`` is the decoding state
        after consuming chunk tokens ``0..t`` — callers resume from
        ``states[a]`` when they accept ``a + 1`` chunk tokens and
        discard the rest.  Only one returned state may be resumed;
        the others are invalidated by that resume (they may share
        buffers).

        The default walks :meth:`next_logits`, which is exact for
        every model but amortizes nothing; transformers override it
        with a batched pass built from per-slice matmuls.
        """
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise ValueError("verify_chunk expects (batch, steps) ids")
        logits_steps: List[np.ndarray] = []
        states: List[Any] = []
        for t in range(ids.shape[1]):
            logits, state = self.next_logits(ids[:, t], state)
            logits_steps.append(logits)
            states.append(self.snapshot_state(state))
        return np.stack(logits_steps, axis=1), states

    def prefill_stacked(self, ids: np.ndarray,
                        state: Any) -> Tuple[np.ndarray, Any]:
        """Prefill one ``(batch, chunk)`` of prompt tokens batched.

        ``state`` must be a stacked state (see :meth:`stack_states`)
        whose rows all sit at the same position.  Implementations must
        guarantee each row's logits and state are **bit-identical** to
        prefilling that row alone with :meth:`prefill` over the same
        chunk — only models whose full trunk is per-slice (row-stable)
        under batching can offer that, so the default refuses.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support batched prefill")

    # ------------------------------------------------------------------
    # Batched decoding (the serving engine's continuous batching)
    # ------------------------------------------------------------------
    #: Whether :meth:`next_logits` also accepts a **list** of
    #: batch-of-one states — sequences of unequal length — and advances
    #: them in one forward, returning ``(logits (B, V), [states])`` with
    #: each row **bit-identical** to its own single-row call.  The
    #: serving engine decodes all plain rows of a step in one such call;
    #: rows of a model that leaves this ``False`` step one by one.
    ragged_decode = False

    def stacking_key(self, state: Any) -> Optional[Hashable]:
        """Grouping key for exact stacked prefill/verify, or ``None``.

        States that return the same (non-``None``) key may be stacked
        into one batched :meth:`prefill_stacked` or :meth:`verify_chunk`
        call with **bit-identical** per-row results (plain decode does
        not stack: see :attr:`ragged_decode`).  The default declares
        states unstackable, which is the only safe answer for models
        whose decode step is a plain 2-D GEMM (e.g. the LSTM): BLAS
        kernels are not row-stable across different batch sizes, so
        stacking would break the engine's batched == sequential
        equality contract.  Transformer decode runs ``(batch, 1, d)``
        batched matmuls that numpy evaluates per-slice, which *is*
        row-stable — GPT-2 overrides this.
        """
        return None

    def stack_states(self, states: Sequence[Any]) -> Any:
        """Stack same-key decode states into one batched state."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support stacked decoding")

    def split_states(self, state: Any, count: int) -> List[Any]:
        """Invert :meth:`stack_states` into per-sequence states."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support stacked decoding")

    def snapshot_state(self, state: Any) -> Any:
        """A frozen copy/alias of ``state`` safe to store and resume from.

        Models whose decode step mutates state buffers in place (the
        transformer KV cache appends into spare capacity) must return a
        snapshot that later appends cannot clobber.  The default is the
        identity, correct for models that build fresh state arrays each
        step.
        """
        return state

    def compact_state(self, state: Any) -> Any:
        """Like :meth:`snapshot_state`, but sharing no memory with ``state``.

        The serving engine's prefix cache stores one of these per
        prefilled prompt (plus one per chunk boundary the model cannot
        :meth:`prefix_state` from it), so a stored entry retains exactly
        its own bytes: a frozen alias of one row of a stacked batch
        state would otherwise pin the entire batch buffer alive while
        byte accounting sees only the row.  The default defers to
        :meth:`snapshot_state`, correct for models whose states are
        already self-contained.
        """
        return self.snapshot_state(state)

    def prefix_state(self, state: Any, length: int) -> Any:
        """The state after only the first ``length`` tokens, or ``None``.

        A frozen view cut from ``state`` without recompute, bit-identical
        to the state a prefill of those tokens at the same chunk
        boundaries leaves — what lets the prefix cache keep one entry
        per prompt and serve its chunk-boundary prefixes from it
        (``docs/SERVING.md`` §4).  The default cannot cut (an LSTM's
        hidden state has no per-token rows).
        """
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def config_dict(self) -> dict:
        """JSON-serializable hyperparameters (for checkpoints)."""
        raise NotImplementedError

    def describe(self) -> str:
        return (f"{type(self).__name__}(vocab={self.vocab_size}, "
                f"params={self.num_parameters():,})")
