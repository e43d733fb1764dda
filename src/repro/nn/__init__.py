"""Neural-network substrate: numpy autograd, layers, optimizers.

This package is a from-scratch replacement for the PyTorch/HuggingFace
stack the paper used, providing everything the recipe-generation
models need: reverse-mode autodiff (:mod:`repro.nn.tensor`), layers
(:mod:`repro.nn.layers`), LSTMs (:mod:`repro.nn.rnn`), transformer
attention (:mod:`repro.nn.attention`), optimizers
(:mod:`repro.nn.optim`) and LR schedules (:mod:`repro.nn.schedule`).
"""

from .._exports import export_lazily

__all__ = [
    "Adam", "AdamW", "CausalSelfAttention", "ConstantLR", "CosineWarmupLR",
    "Dropout", "Embedding", "InferenceKernels", "KVCache", "LayerNorm",
    "Linear", "LinearWarmupLR", "LRSchedule", "LSTM", "LSTMCell", "LSTMState",
    "MLP", "Module", "ModuleList", "Optimizer", "Parameter", "SGD",
    "Sequential", "Tensor", "TransformerBlock", "WeightStore",
    "clip_grad_norm", "functional", "is_grad_enabled", "no_grad", "ones",
    "schedule_from_name", "tensor", "zeros",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "functional": ("functional",),
    "attention": ("CausalSelfAttention", "KVCache", "MLP", "TransformerBlock"),
    "kernels": ("InferenceKernels", "WeightStore"),
    "layers": ("Dropout", "Embedding", "LayerNorm", "Linear", "Sequential"),
    "module": ("Module", "ModuleList", "Parameter"),
    "optim": ("Adam", "AdamW", "Optimizer", "SGD", "clip_grad_norm"),
    "rnn": ("LSTM", "LSTMCell", "LSTMState"),
    "schedule": ("ConstantLR", "CosineWarmupLR", "LinearWarmupLR",
                 "LRSchedule", "schedule_from_name"),
    "tensor": ("Tensor", "is_grad_enabled", "no_grad", "ones", "tensor",
               "zeros"),
})
