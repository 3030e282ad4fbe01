"""vitbench: desk-scale vision-transformer and CNN classification benchmark
toolkit built on its own tape-based autograd engine."""

from .tensor import Tape, Tensor, backward, finite_diff_gradcheck, set_strict
from .vit import ViTClassifier, ViTConfig
from .cnn import CnnConfig, CnnModel
from .train import Adam, ConfusionMatrix, MetricsRecord, TrainConfig

__version__ = "0.1.0"

__all__ = [
    "Adam", "ConfusionMatrix", "CnnConfig", "CnnModel", "MetricsRecord",
    "Tape", "Tensor", "TrainConfig", "ViTClassifier", "ViTConfig",
    "backward", "finite_diff_gradcheck", "set_strict",
]
