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

from typing import Any, Optional, Tuple

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
    # Inference kernels
    # ------------------------------------------------------------------
    @property
    def kernels(self):
        """The attached :class:`~repro.nn.kernels.InferenceKernels`,
        or ``None`` when the model runs the Tensor-graph path."""
        return self._kernels

    def enable_kernels(self, mode: str = "fp32", freeze: bool = True):
        """Attach the inference-only kernel forward path.

        Models with a kernel implementation (the transformer) override
        this; the default refuses so callers fail loudly rather than
        silently running the slow path.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no inference-kernel implementation")

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
            (GPT-2 also takes a list of KV slot rows, one per id:
            :meth:`repro.models.gpt2.GPT2Model.next_logits`).

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

    def prefill_stacked(self, ids: np.ndarray,
                        state: Any) -> Tuple[np.ndarray, Any]:
        """Refuses: no model prefills stacked rows any more.

        Every prompt prefills as its own ``(1, T)`` chunk
        (:meth:`prefill`).  This default survives only because the
        ``benchmarks/e2e`` harness wraps ``model.prefill_stacked`` by
        name (``spans.py``); it goes when the harness stops spelling it
        (ROADMAP item 1).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support batched prefill")

    def snapshot_state(self, state: Any) -> Any:
        """A frozen copy/alias of ``state`` safe to store and resume from.

        Models whose decode step mutates state buffers in place (the
        transformer KV cache appends into spare capacity) must return a
        snapshot that later appends cannot clobber.  The default is the
        identity, correct for models that build fresh state arrays each
        step.
        """
        return state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def config_dict(self) -> dict:
        """JSON-serializable hyperparameters (for checkpoints)."""
        raise NotImplementedError

    def describe(self) -> str:
        return (f"{type(self).__name__}(vocab={self.vocab_size}, "
                f"params={self.num_parameters():,})")
