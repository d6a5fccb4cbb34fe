"""Mixture-of-low-rank-experts adapters on a frozen toy transformer,
plus the retrieval, curation, and evaluation pipeline around them.
"""

__version__ = "0.1.0"

from .adapter import MixtureFfn
from .model import AdapterSpec, ToyCausalLm, ToyModelConfig
from .retrieval import (CorpusIndex, RetrievalConfig, TrigramEmbedder,
                        retrieve, split_recursive)
from .training import TrainConfig, TrainExample, gradient_check, train
from .evaluation import EvalConfig, EvalReport, evaluate

__all__ = [
    "AdapterSpec",
    "CorpusIndex",
    "EvalConfig",
    "EvalReport",
    "MixtureFfn",
    "RetrievalConfig",
    "ToyCausalLm",
    "ToyModelConfig",
    "TrainConfig",
    "TrainExample",
    "TrigramEmbedder",
    "evaluate",
    "gradient_check",
    "retrieve",
    "split_recursive",
    "train",
]
