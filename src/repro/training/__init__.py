"""Training: packed LM dataset, trainer loop, callbacks."""

from .._exports import export_lazily

__all__ = [
    "Callback", "CheckpointCallback", "EarlyStopping", "LMDataset",
    "LossLogger", "MetricsCallback", "Trainer",
    "TrainingConfig", "TrainingResult", "train_val_split",
]

__getattr__, __dir__ = export_lazily(__name__, {
    "callbacks": ("Callback", "CheckpointCallback", "EarlyStopping",
                  "LossLogger", "MetricsCallback"),
    "dataset": ("LMDataset", "train_val_split"),
    "trainer": ("Trainer", "TrainingConfig", "TrainingResult"),
})
