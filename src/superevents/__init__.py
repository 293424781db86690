"""Latent super-event activity detection.

Learnable Cauchy temporal structure filters with per-class soft attention,
pooled over variable-length feature sequences and concatenated with per-frame
features for multi-label detection; hand-differentiated throughout.
"""

from .data import (
    Dataset,
    DatasetManifest,
    PairedRule,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    load_features,
    load_labels,
    load_manifest,
    save_features,
    save_labels,
    save_manifest,
    split_manifest,
)
from .detector import bce_loss
from .evaluation import EvalReport, average_precision, evaluate
from .model import (
    VARIANTS,
    ModelState,
    init_model,
    load_checkpoint,
    predict_probabilities,
    save_checkpoint,
)
from .pooling import (
    pool_attended,
    pool_baseline,
    pool_relative,
    pool_single,
    soft_attention,
)
from .training import GradcheckReport, TrainConfig, gradcheck, train

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DatasetManifest",
    "EvalReport",
    "GradcheckReport",
    "ModelState",
    "PairedRule",
    "SynthConfig",
    "TrainConfig",
    "VARIANTS",
    "average_precision",
    "bce_loss",
    "evaluate",
    "generate_synthetic",
    "gradcheck",
    "init_model",
    "load_checkpoint",
    "load_dataset",
    "load_features",
    "load_labels",
    "load_manifest",
    "pool_attended",
    "pool_baseline",
    "pool_relative",
    "pool_single",
    "predict_probabilities",
    "save_checkpoint",
    "save_features",
    "save_labels",
    "save_manifest",
    "soft_attention",
    "split_manifest",
    "train",
    "__version__",
]
