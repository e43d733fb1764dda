"""Core: the Ratatouille pipeline, configs, registry, checkpoints."""

from .._exports import export_lazily

__all__ = [
    "GeneratedRecipe", "ModelSpec", "PipelineConfig", "Ratatouille",
    "build_from_config", "get_spec", "load_checkpoint", "model_names",
    "save_checkpoint", "table1_models",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "checkpoints": ("load_checkpoint", "save_checkpoint"),
    "config": ("PipelineConfig",),
    "pipeline": ("GeneratedRecipe", "Ratatouille"),
    "registry": ("ModelSpec", "build_from_config", "get_spec", "model_names",
                 "table1_models"),
})
