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

from typing import Any, List, Optional, Tuple

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
            batch-of-one states, one per id — see there).

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

        The standalone speculative loop's verify step: every row's
        logits at every step must be **bit-identical** to walking
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

        A one-row chunk on a :attr:`ragged_decode` model is one
        list-form :meth:`next_logits` call, and raises ``ValueError``
        when it does not :meth:`fits` — the caller falls back to plain
        decode, which slides; otherwise this walks :meth:`next_logits`,
        exact for every model.
        """
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise ValueError("verify_chunk expects (batch, steps) ids")
        if self.ragged_decode and ids.shape[0] == 1:
            if not self.fits(state, ids.shape[1]):
                raise ValueError("verify chunk exceeds the context window")
            logits, states = self.next_logits(ids[0], [state] * ids.shape[1])
            return logits[None], states
        logits_steps: List[np.ndarray] = []
        states: List[Any] = []
        for t in range(ids.shape[1]):
            logits, state = self.next_logits(ids[:, t], state)
            logits_steps.append(logits)
            states.append(self.snapshot_state(state))
        return np.stack(logits_steps, axis=1), states

    def prefill_stacked(self, ids: np.ndarray,
                        state: Any) -> Tuple[np.ndarray, Any]:
        """Refuses: no model prefills stacked rows any more.

        Every prompt prefills as its own ``(1, T)`` chunk
        (:meth:`prefill`).  This default survives only because the
        ``benchmarks/e2e`` harness wraps ``model.prefill_stacked`` by
        name (``spans.py``); it goes when the harness stops spelling it
        (ROADMAP item 5(d)).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support batched prefill")

    # ------------------------------------------------------------------
    # Batched decoding (the serving engine's continuous batching)
    # ------------------------------------------------------------------
    #: Whether :meth:`next_logits` also accepts a **list** of
    #: batch-of-one states, one per id — sequences of unequal length;
    #: a run of ids sharing one state object is one row carrying that
    #: many known tokens — and advances them all in one forward,
    #: returning ``(logits (N, V), [states])`` with every id
    #: **bit-identical** to a one-token walk of its row.  The serving
    #: engine decodes every row of a step in one such call; rows of a
    #: model that leaves this ``False`` step one by one.
    ragged_decode = False

    def fits(self, state: Any, tokens: int) -> bool:
        """Whether ``tokens`` known tokens decode from ``state`` in one
        row without sliding the context window.

        A pure function of position and token count: the engine demotes
        a speculative row that no longer fits before the step's one
        call, exactly when :meth:`verify_chunk` makes the standalone
        loop fall back.  The default has no window.
        """
        return True

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
        its own bytes: a frozen alias would otherwise pin the capacity
        buffer its live owner keeps appending into, headroom included,
        while byte accounting sees only the live rows.  The default
        defers to :meth:`snapshot_state`, correct for models whose
        states are already self-contained.
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
