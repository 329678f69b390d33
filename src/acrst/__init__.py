"""Desk-scale simulation of class-rebalancing self-training for detection.

A teacher-student loop over a labeled/unlabeled split, driven by a parametric
synthetic detector instead of a network: a crop memory bank feeds
foreground-background paste mixing, an adaptive class sampling distribution
favors classes with poor pseudo-label recall, and pseudo-labels pass a
two-stage score/activation filter before use.

The package re-exports what the acceptance suite uses; everything else is
imported from its module.
"""

__version__ = "0.1.0"

from .api import (
    BBox,
    CropEntry,
    ImageLevelLabel,
    Instance,
    PastePlacement,
    Prediction,
    merge_annotations,
    two_stage_filter,
    two_stage_mining,
    visible_fraction,
)
from .config import DetectorConfig, ExperimentConfig
from .filtering import FilterConfig, OracleNoise
from .model import DetectorParams, ema_update
from .rebalance import (
    LABELED_ABSENT_PR,
    ClassStats,
    PasteConfig,
    affr_distribution,
    pseudo_recall,
)
from .seeding import derive_seed
from .simloop import run_experiment
from .synthdata import synthetic_dataset
