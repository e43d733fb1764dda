"""End-to-end pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..preprocess import PreprocessConfig
    from ..training import TrainingConfig


# Built on first use, so importing the config loads neither package.
def _preprocess_config() -> PreprocessConfig:
    from ..preprocess import PreprocessConfig
    return PreprocessConfig()


def _training_config() -> TrainingConfig:
    from ..training import TrainingConfig
    return TrainingConfig()


@dataclass
class PipelineConfig:
    """Everything needed to go corpus → trained model → generation.

    Defaults are sized for a single CPU core: a few hundred synthetic
    recipes and a few hundred optimizer steps train in minutes while
    still exhibiting the paper's model ordering.
    """

    model_name: str = "gpt2-medium"
    num_recipes: int = 300
    corpus_seed: int = 0
    model_seed: int = 0
    seq_len: int = 128
    val_fraction: float = 0.1
    preprocess: PreprocessConfig = field(default_factory=_preprocess_config)
    training: TrainingConfig = field(default_factory=_training_config)

    def validate(self) -> None:
        if self.num_recipes < 2:
            raise ValueError("num_recipes must be >= 2")
        if self.seq_len < 2:
            raise ValueError("seq_len must be >= 2")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        self.training.validate()
