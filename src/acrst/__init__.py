"""Desk-scale simulation of class-rebalancing self-training for detection.

A teacher-student loop over a labeled/unlabeled split, driven by a parametric
synthetic detector instead of a network: a crop memory bank feeds
foreground-background paste mixing, an adaptive class sampling distribution
favors classes with poor pseudo-label recall, and pseudo-labels pass a
two-stage score/activation filter before use.
"""

__version__ = "0.1.0"

from .config import (
    ConfigError,
    DatasetConfig,
    DetectorConfig,
    ExperimentConfig,
    config_from_dict,
)
from .cropbank import (
    CropBank,
    CropEntry,
    EmptyBankError,
    build_labeled_bank,
    refresh_pseudo_bank,
    sample_crops,
)
from .dataset import (
    BBox,
    Category,
    Dataset,
    ImageRecord,
    Instance,
    ParseError,
    Prediction,
    ValidationError,
    class_counts,
    parse_coco_annotations,
    serialize_coco_annotations,
    split_standard,
)
from .filtering import (
    FilterConfig,
    ImageLevelLabel,
    OracleNoise,
    oracle_image_labels,
    two_stage_filter,
    two_stage_mining,
)
from .metrics import (
    MatchResult,
    ap_50_95,
    average_precision,
    box_miou,
    class_kld,
    fg_ratio,
    iou,
    match_greedy,
    pseudo_quality,
)
from .model import (
    DetectorParams,
    LossBreakdown,
    batch_loss,
    ema_update,
    smooth_l1,
    student_update,
    synth_detect,
)
from .rebalance import (
    LABELED_ABSENT_PR,
    ClassStats,
    MixedRecord,
    PasteConfig,
    PastePlacement,
    SamplingDistribution,
    affr_distribution,
    fbr_mix,
    merge_annotations,
    pseudo_recall,
    visible_fraction,
)
from .seeding import derive_seed, substream
from .simloop import (
    EPOCH_CSV_COLUMNS,
    EpochTrace,
    LoopState,
    RunReport,
    pretrain,
    run_epoch,
    run_experiment,
)
from .synthdata import synthetic_dataset
