"""Experiment configuration: defaults, strict dict parsing and echoing.

Config files are UTF-8 JSON with lower_snake keys. Unknown keys raise
:class:`ConfigError` naming the key, and every parsed config can be echoed
back into a plain dict with all defaults filled in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Any

from .filtering import FilterConfig, OracleNoise
from .model import DetectorParams
from .rebalance import PasteConfig

TOGGLES = ("fbr", "affr", "two_stage", "selective_supervision")


class ConfigError(ValueError):
    """Invalid or unusable experiment configuration."""


@dataclass(frozen=True)
class DetectorConfig:
    """Initial detector parameters plus the two training rates.

    ``initial_recall_skill`` may be a scalar (broadcast over classes) or a
    per-class list.
    """

    initial_recall_skill: float | tuple[float, ...] = 0.35
    confusion_rate: float = 0.2
    loc_skill: float = 0.5
    partial_rate: float = 0.2
    fp_rate: float = 0.5
    confidence_sharpness: float = 8.0
    lr: float = 0.1
    ema_alpha: float = 0.999

    def __post_init__(self) -> None:
        if self.lr <= 0.0 or self.lr >= 1.0:
            raise ConfigError(f"detector.lr must be in (0, 1), got {self.lr}")
        if not 0.0 <= self.ema_alpha <= 1.0:
            raise ConfigError(
                f"detector.ema_alpha must be in [0, 1], got {self.ema_alpha}"
            )

    def build(self, n_classes: int) -> DetectorParams:
        skill = self.initial_recall_skill
        if isinstance(skill, (int, float)):
            recall = (float(skill),) * n_classes
        else:
            recall = tuple(float(s) for s in skill)
            if len(recall) != n_classes:
                raise ConfigError(
                    "detector.initial_recall_skill list must have "
                    f"{n_classes} entries, got {len(recall)}"
                )
        try:
            return DetectorParams(
                recall_skill=recall,
                confusion_rate=self.confusion_rate,
                loc_skill=self.loc_skill,
                partial_rate=self.partial_rate,
                fp_rate=self.fp_rate,
                confidence_sharpness=self.confidence_sharpness,
            )
        except ValueError as e:
            raise ConfigError(f"detector: {e}") from e


@dataclass(frozen=True)
class DatasetConfig:
    """Where the dataset comes from: generator settings or an annotation file."""

    type: str = "synthetic"
    # synthetic source
    images: int = 200
    classes: int = 10
    seed: int | None = None  # derived from the experiment seed when omitted
    skew: float = 0.65
    width: float = 640.0
    height: float = 480.0
    mean_extra_instances: float = 1.8
    min_box: float = 32.0
    max_box: float = 160.0
    # file source
    path: str | None = None

    def __post_init__(self) -> None:
        if self.type not in ("synthetic", "coco_json"):
            raise ConfigError(
                f"dataset.type must be 'synthetic' or 'coco_json', got {self.type!r}"
            )
        if self.type == "coco_json" and not self.path:
            raise ConfigError("dataset.path is required for a coco_json dataset")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs besides the dataset object itself."""

    seed: int = 0
    split_fraction: float = 0.2
    epochs: int = 35
    pretrain_epochs: int = 5
    labeled_batch: int = 16
    unlabeled_batch: int = 16
    batches_per_epoch: int = 2
    lambda_unsup: float = 2.0
    refresh_period: int = 1
    proposal_budget: int = 256
    match_iou: float = 0.5
    fbr: bool = True
    affr: bool = True
    two_stage: bool = True
    selective_supervision: bool = True
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    paste: PasteConfig = field(default_factory=PasteConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    oracle: OracleNoise = field(default_factory=OracleNoise)

    def __post_init__(self) -> None:
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(
                f"split_fraction must be in (0, 1), got {self.split_fraction}"
            )
        if self.pretrain_epochs < 0 or self.epochs < self.pretrain_epochs:
            raise ConfigError("need epochs >= pretrain_epochs >= 0")
        if self.labeled_batch < 1 or self.unlabeled_batch < 1:
            raise ConfigError("batch sizes must be at least 1")
        if self.batches_per_epoch < 1:
            raise ConfigError("batches_per_epoch must be at least 1")
        if self.lambda_unsup < 0.0:
            raise ConfigError(f"lambda_unsup must be non-negative, got {self.lambda_unsup}")
        if self.refresh_period < 1:
            raise ConfigError(f"refresh_period must be at least 1, got {self.refresh_period}")
        if self.proposal_budget < 1:
            raise ConfigError("proposal_budget must be at least 1")
        if not 0.0 < self.match_iou <= 1.0:
            raise ConfigError(f"match_iou must be in (0, 1], got {self.match_iou}")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict echo of the full effective configuration."""
        out: dict[str, Any] = {
            "seed": self.seed,
            "split_fraction": self.split_fraction,
            "epochs": self.epochs,
            "pretrain_epochs": self.pretrain_epochs,
            "labeled_batch": self.labeled_batch,
            "unlabeled_batch": self.unlabeled_batch,
            "batches_per_epoch": self.batches_per_epoch,
            "lambda_unsup": self.lambda_unsup,
            "refresh_period": self.refresh_period,
            "proposal_budget": self.proposal_budget,
            "match_iou": self.match_iou,
            "toggles": {name: getattr(self, name) for name in TOGGLES},
            "dataset": _dataclass_dict(self.dataset),
            "paste": _dataclass_dict(self.paste),
            "filter": _dataclass_dict(self.filter),
            "detector": _dataclass_dict(self.detector),
            "oracle": _dataclass_dict(self.oracle),
        }
        skill = out["detector"]["initial_recall_skill"]
        if isinstance(skill, tuple):
            out["detector"]["initial_recall_skill"] = list(skill)
        return out

    def with_toggles(self, **toggles: bool) -> "ExperimentConfig":
        for name in toggles:
            if name not in TOGGLES:
                raise ConfigError(f"unknown toggle '{name}'")
        return replace(self, **toggles)


def _dataclass_dict(obj: Any) -> dict[str, Any]:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{key}' in {where}")


def _section(data: dict, name: str) -> dict:
    """A copy of the ``name`` section of ``data``; absent or null is empty."""
    section = data.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(
            f"config section '{name}' must be a JSON object, got {type(section).__name__}"
        )
    return dict(section)


def _build_section(cls, data: dict, where: str):
    allowed = {f.name for f in fields(cls)}
    _check_keys(data, allowed, where)
    if cls is DetectorConfig and isinstance(data.get("initial_recall_skill"), list):
        data["initial_recall_skill"] = tuple(data["initial_recall_skill"])
    try:
        return cls(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


# Top-level numbers: key -> "int" or "float", the field's annotation.
_SCALARS = {f.name: f.type for f in fields(ExperimentConfig) if f.type in ("int", "float")}


def _scalar(key: str, value: Any) -> int | float:
    """``value`` if it is a finite JSON number of the kind ``key`` takes."""
    kinds = int if _SCALARS[key] == "int" else (int, float)
    if (
        isinstance(value, bool)
        or not isinstance(value, kinds)
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        what = "an integer" if kinds is int else "a finite number"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


_TOP_LEVEL_KEYS = {
    "seed",
    "split_fraction",
    "epochs",
    "pretrain_epochs",
    "labeled_batch",
    "unlabeled_batch",
    "batches_per_epoch",
    "lambda_unsup",
    "refresh_period",
    "proposal_budget",
    "match_iou",
    "toggles",
    "dataset",
    "paste",
    "filter",
    "detector",
    "oracle",
    "sweep",  # consumed by the sweep command, not by the run itself
}


def config_from_dict(data: dict[str, Any]) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a parsed config document.

    Every key is checked; unknown keys raise :class:`ConfigError` naming the
    offending key. So do a top-level number of the wrong type and a section
    that is not a JSON object or whose values its dataclass rejects. Missing
    keys take their defaults, except ``oracle.tau_ml``, which takes
    ``filter.tau_ml`` and may not differ from it.
    """
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(data, _TOP_LEVEL_KEYS, "the top level")

    toggles = _section(data, "toggles")
    _check_keys(toggles, set(TOGGLES), "toggles")
    for name, value in toggles.items():
        if not isinstance(value, bool):
            raise ConfigError(f"toggle '{name}' must be true or false")

    scalars = {key: _scalar(key, data[key]) for key in _SCALARS if key in data}

    filter_config = _build_section(FilterConfig, _section(data, "filter"), "filter")
    # The oracle's low band ends where the filter's image-level gate starts.
    oracle_data = _section(data, "oracle")
    oracle_data.setdefault("tau_ml", filter_config.tau_ml)
    oracle = _build_section(OracleNoise, oracle_data, "oracle")
    if oracle.tau_ml != filter_config.tau_ml:
        raise ConfigError(
            f"oracle.tau_ml ({oracle.tau_ml}) must equal filter.tau_ml "
            f"({filter_config.tau_ml}); leave it out to take filter.tau_ml"
        )

    return ExperimentConfig(
        **scalars,
        **toggles,
        dataset=_build_section(DatasetConfig, _section(data, "dataset"), "dataset"),
        paste=_build_section(PasteConfig, _section(data, "paste"), "paste"),
        filter=filter_config,
        detector=_build_section(DetectorConfig, _section(data, "detector"), "detector"),
        oracle=oracle,
    )
