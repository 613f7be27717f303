"""Incremental chunking network for concept learning from raw token streams.

Learns categories by growing a per-modality discrimination tree from labelled
examples, classifies novel sequences through an attention-windowed chunk
vote, and ships the evaluation machinery (five comparison metrics, exact
binomial significance) used to judge model-human fit.
"""

from .attention import (AttentionConfig, Classification, categorise,
                        confidence, retrieve)
from .config import RunConfig, load_config
from .corpus import DatasetManifest, Sample, load_manifest
from .harness import SuiteResult, Trainer, TrainingRun, train
from .metrics import (BinomialQuery, MetricRow, PredictionPair,
                      binomial_at_least, bonferroni, chance_probability,
                      score_pair)
from .network import DiscriminationNet, LearnEvent, MultiModalMemory, Node
from .patterns import Pattern, difference
from .snapshot import load_memory, save_memory
from .stm import StmQueue, co_occupancy

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig", "BinomialQuery", "Classification", "DatasetManifest",
    "DiscriminationNet", "LearnEvent", "MetricRow", "MultiModalMemory",
    "Node", "Pattern", "PredictionPair", "RunConfig", "Sample", "StmQueue",
    "SuiteResult", "Trainer", "TrainingRun", "binomial_at_least",
    "bonferroni", "categorise", "chance_probability", "co_occupancy",
    "confidence", "difference", "load_config",
    "load_manifest", "load_memory", "retrieve", "save_memory",
    "score_pair", "train",
]
