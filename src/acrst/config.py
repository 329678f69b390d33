"""Experiment configuration: defaults, one schema table, parsing and echoing.

Config files are UTF-8 JSON with lower_snake keys. :data:`SCHEMA` gives every
key its JSON type and range. Building an :class:`ExperimentConfig`, from a
document by :func:`config_from_dict` or in Python, checks every key against it,
then the cross-key rules, and raises :class:`ConfigError` naming the key. Every
config can be echoed back into a plain dict with all defaults filled in.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field
from itertools import chain
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
        return DetectorParams(
            recall_skill=recall,
            confusion_rate=self.confusion_rate,
            loc_skill=self.loc_skill,
            partial_rate=self.partial_rate,
            fp_rate=self.fp_rate,
            confidence_sharpness=self.confidence_sharpness,
        )


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
        """Check every :data:`SCHEMA` key, then the rules; ``toggles.*`` are top-level fields."""
        for key in SCHEMA:
            section, _, name = key.rpartition(".")
            holder = self if section in ("", "toggles") else getattr(self, section)
            _check(key, getattr(holder, name))
        _check_rules(self)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict echo of the full effective configuration."""
        out = asdict(self)
        out["toggles"] = {name: out.pop(name) for name in TOGGLES}
        # The oracle's low band ends at the filter's tau_ml, its one owner;
        # the echo repeats it under the oracle, so reports keep that key.
        out["oracle"]["tau_ml"] = self.filter.tau_ml
        return out


# Every key's JSON type and range; section keys are written "section.key".
# A type "a | b" takes either kind. "number" is a finite int or float, never
# a boolean, and "list of number" (a list or tuple) checks the range on each
# item. A range is an interval, the allowed strings joined by " | ", or "-"
# for none. Values are never coerced: an int given for a number key stays an int.
SCHEMA: dict[str, tuple[str, str]] = {
    "seed": ("int", "(-inf, inf)"),
    "split_fraction": ("number", "(0, 1)"),
    "epochs": ("int", "[0, inf)"),
    "pretrain_epochs": ("int", "[0, inf)"),
    "labeled_batch": ("int", "[1, inf)"),
    "unlabeled_batch": ("int", "[1, inf)"),
    "batches_per_epoch": ("int", "[1, inf)"),
    "lambda_unsup": ("number", "[0, 1000]"),
    "refresh_period": ("int", "[1, inf)"),
    "proposal_budget": ("int", "[1, 100000]"),
    "match_iou": ("number", "(0, 1]"),
    **{f"toggles.{name}": ("bool", "-") for name in TOGGLES},
    "dataset.type": ("string", "synthetic | coco_json"),
    "dataset.images": ("int", "[1, inf)"),
    "dataset.classes": ("int", "[1, 10000]"),
    "dataset.seed": ("int | null", "[0, inf)"),
    "dataset.skew": ("number", "(0, 1]"),
    "dataset.width": ("number", "(0, 1e9]"),
    "dataset.height": ("number", "(0, 1e9]"),
    "dataset.mean_extra_instances": ("number", "[0, 100]"),
    "dataset.min_box": ("number", "[1, inf)"),
    "dataset.max_box": ("number", "(0, inf)"),
    "dataset.path": ("string | null", "-"),
    "paste.crops_per_image": ("int", "[0, 1000]"),
    "paste.rescale_min": ("number", "[0.01, inf)"),
    "paste.rescale_max": ("number", "(0, inf)"),
    "paste.occlusion_threshold": ("number", "[0, 1]"),
    "paste.beta": ("number", "[0, inf)"),
    "filter.tau_cls": ("number", "[0, 1]"),
    "filter.tau_ml": ("number", "[0, 1]"),
    "filter.mode": ("string", "one_stage | two_stage_filtering | two_stage_mining"),
    "detector.initial_recall_skill": ("number | list of number", "[0, 1]"),
    "detector.confusion_rate": ("number", "[0, 1]"),
    "detector.loc_skill": ("number", "[0, 1]"),
    "detector.partial_rate": ("number", "[0, 1]"),
    "detector.fp_rate": ("number", "[0, 100]"),
    "detector.confidence_sharpness": ("number", "(0, 1000]"),
    "detector.lr": ("number", "(0, 1)"),
    "detector.ema_alpha": ("number", "[0, 1]"),
    "oracle.fn_rate": ("number", "[0, 1]"),
    "oracle.fp_rate": ("number", "[0, 1]"),
}

SECTIONS = ("toggles", "dataset", "paste", "filter", "detector", "oracle")

_KINDS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    # abs() <= the largest double is false for NaN, infinities and huge ints.
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool)
    and abs(v) <= sys.float_info.max,
    "bool": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
}


def _fits(kind: str, value: Any) -> bool:
    item = kind.removeprefix("list of ")
    if item != kind:
        return isinstance(value, (list, tuple)) and all(_KINDS[item](v) for v in value)
    return _KINDS[kind](value)


def _within(value: Any, bounds: str) -> bool:
    if value is None or bounds == "-":
        return True
    if isinstance(value, (list, tuple)):
        return all(_within(v, bounds) for v in value)
    if bounds[0] not in "([":
        return value in bounds.split(" | ")
    lo, hi = (float(b) for b in bounds[1:-1].split(","))
    above = lo < value if bounds[0] == "(" else lo <= value
    below = value < hi if bounds[-1] == ")" else value <= hi
    return above and below


def _check(key: str, value: Any) -> None:
    """Raise :class:`ConfigError` unless ``value`` fits table key ``key``."""
    kinds, bounds = SCHEMA[key]
    if not any(_fits(kind, value) for kind in kinds.split(" | ")) or not _within(value, bounds):
        what = kinds if bounds == "-" else f"{kinds} in {bounds}"
        shown = list(value) if isinstance(value, tuple) else value  # as the JSON list it was
        raise ConfigError(f"{key} must be {what}, got {shown!r}")


def _check_rules(c: ExperimentConfig) -> None:
    """The rules that tie keys together, on the config with defaults filled in."""
    d = c.dataset
    rules = (
        (c.epochs >= c.pretrain_epochs, "epochs must be >= pretrain_epochs"),
        (
            c.paste.rescale_min <= c.paste.rescale_max,
            "paste.rescale_min must be <= paste.rescale_max",
        ),
        (d.type != "coco_json" or d.path, "dataset.path is required for a coco_json dataset"),
        (
            d.type != "synthetic" or d.min_box <= d.max_box <= min(d.width, d.height),
            "dataset.max_box must lie between dataset.min_box and "
            "min(dataset.width, dataset.height) for a synthetic dataset",
        ),
    )
    for holds, message in rules:
        if not holds:
            raise ConfigError(message)


def config_from_dict(data: dict[str, Any], *overrides: dict[str, Any]) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a config document and partial
    documents merged over it in order: a top-level key is replaced, a section
    (a JSON object) has its keys merged one by one, and a null section changes nothing.

    A key outside :data:`SCHEMA` raises :class:`ConfigError`; building the
    result checks the values and the rules. Missing keys take their defaults.
    The base document's ``sweep`` section is skipped.
    """
    if not all(isinstance(doc, dict) for doc in (data, *overrides)):
        raise ConfigError("config document must be a JSON object")
    top: dict[str, Any] = {}
    sections: dict[str, dict[str, Any]] = {name: {} for name in SECTIONS}
    docs = [{k: v for k, v in data.items() if k != "sweep"}, *overrides]
    for key, value in chain.from_iterable(doc.items() for doc in docs):
        if key not in sections:
            if key not in SCHEMA or "." in key:  # "." marks a section key at the top level
                raise ConfigError(f"unknown config key '{key}'")
            top[key] = value
        elif isinstance(value, dict):
            for sub, item in value.items():
                if f"{key}.{sub}" not in SCHEMA:
                    raise ConfigError(f"unknown config key '{key}.{sub}'")
                # The frozen config holds a list as a tuple; both echo as a JSON list.
                sections[key][sub] = tuple(item) if isinstance(item, list) else item
        elif value is not None:
            raise ConfigError(
                f"config section '{key}' must be a JSON object, got {type(value).__name__}"
            )
    return ExperimentConfig(
        **top,
        **sections["toggles"],
        dataset=DatasetConfig(**sections["dataset"]),
        paste=PasteConfig(**sections["paste"]),
        filter=FilterConfig(**sections["filter"]),
        detector=DetectorConfig(**sections["detector"]),
        oracle=OracleNoise(**sections["oracle"]),
    )
