"""Optimizers and gradient utilities: Adam, AdamW, clipping.

AdamW (decoupled weight decay) is the optimizer the paper's
HuggingFace fine-tuning used under the hood, and the trainer's for
every model here; plain Adam is its base class.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from .module import Parameter


class Optimizer:
    """Base class holding the parameter list and step counter."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.step_count = 0

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: Sequence[float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        bias1 = 1.0 - self.beta1 ** self.step_count
        bias2 = 1.0 - self.beta2 ** self.step_count
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                # Classic (L2-coupled) decay: added to the gradient.
                grad = grad + self.weight_decay * param.data
            m, v = self._m[index], self._v[index]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: Sequence[float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01) -> None:
        super().__init__(params, lr=lr, betas=betas, eps=eps, weight_decay=0.0)
        self.decoupled_weight_decay = weight_decay

    def step(self) -> None:
        if self.decoupled_weight_decay:
            for param in self.params:
                if param.grad is not None and param.data.ndim >= 2:
                    # Decay only matrices; biases/LayerNorm gains are exempt,
                    # matching standard transformer fine-tuning practice.
                    param.data -= self.lr * self.decoupled_weight_decay * param.data
        super().step()


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging / divergence
    detection).
    """
    params = [p for p in params if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for param in params:
            param.grad *= scale
    return total
