"""Semantic-space seen/unseen gating for generalized zero-shot learning.

The library projects batches of feature vectors into a class-embedding
space with a small MLP, decides for each row whether it comes from the
seen or unseen domain using norm/distance statistics calibrated on seen
data, routes it to a per-domain classifier, and scores everything with
per-class top-1 accuracies and their harmonic mean.
"""

from .classify import NearestEmbeddingClassifier
from .data import (
    GzslDataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    normalize_embeddings,
    save_dataset,
)
from .errors import (
    CalibrationError,
    ConfigError,
    DatasetLoadError,
    DivergenceError,
    DomainError,
    EvaluationError,
    GzslError,
    MetricError,
    ShapeError,
    ValidationError,
)
from .gates import (
    Domain,
    ThresholdSet,
    calibrate,
    calibrate_from_samples,
    gate_dl,
    gate_ol,
    gate_statistics,
    gate_ws,
    load_thresholds,
    min_semantic_distance,
    save_thresholds,
)
from .linalg import matmul, mean_and_popstd
from .mlp import (
    MlpParams,
    TrainConfig,
    backward,
    forward,
    forward_batch,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
    train,
)
from .pipeline import (
    BASELINE_TAG,
    STRATEGIES,
    EvaluationReport,
    evaluate,
    evaluate_baseline,
    evaluate_sweep,
    harmonic_mean,
    per_class_top1,
    predict,
)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "BASELINE_TAG",
    "CalibrationError",
    "ConfigError",
    "DatasetLoadError",
    "DivergenceError",
    "Domain",
    "DomainError",
    "EvaluationError",
    "EvaluationReport",
    "GzslDataset",
    "GzslError",
    "MetricError",
    "MlpParams",
    "NearestEmbeddingClassifier",
    "STRATEGIES",
    "ShapeError",
    "SplitMix64",
    "SyntheticSpec",
    "ThresholdSet",
    "TrainConfig",
    "ValidationError",
    "backward",
    "calibrate",
    "calibrate_from_samples",
    "evaluate",
    "evaluate_baseline",
    "evaluate_sweep",
    "forward",
    "forward_batch",
    "gate_dl",
    "gate_ol",
    "gate_statistics",
    "gate_ws",
    "generate_synthetic",
    "harmonic_mean",
    "load_checkpoint",
    "load_dataset",
    "load_thresholds",
    "matmul",
    "mean_and_popstd",
    "min_semantic_distance",
    "mse_loss",
    "normalize_embeddings",
    "per_class_top1",
    "predict",
    "save_checkpoint",
    "save_dataset",
    "save_thresholds",
    "train",
]
