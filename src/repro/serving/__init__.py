"""Serving: continuous-batching inference engine + prefix KV cache.

:class:`InferenceEngine` multiplexes many generation requests over one
model with mid-flight admission and retirement, batched decode steps,
and prefix-cache prefill reuse — while keeping every request's output
bit-identical to the sequential :func:`repro.models.generate`.  See
``docs/SERVING.md`` for the design and its float-determinism rules.
"""

from .._exports import export_lazily

__all__ = [
    "DeadlineExceededError", "EngineConfig", "EngineCrashedError",
    "EngineQueueFullError", "EngineRequest", "EngineStoppedError",
    "EngineUnavailableError", "InferenceEngine", "PrefixCache", "PrefixCacheStats",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "engine": ("DeadlineExceededError", "EngineConfig", "EngineCrashedError",
               "EngineQueueFullError", "EngineRequest", "EngineStoppedError",
               "EngineUnavailableError", "InferenceEngine"),
    "prefix_cache": ("PrefixCache", "PrefixCacheStats"),
})
