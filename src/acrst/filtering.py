"""Pseudo-label filtering by confidence score and image-level class activations.

Stage one keeps predictions whose score clears ``tau_cls``. Stage two consults
a multi-label image classifier's activation for the predicted class: the
filtering variant requires both stages to agree (AND), the mining variant
keeps a prediction when either stage fires (OR). The image classifier is
simulated by a noisy oracle over the record's hidden ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import ImageRecord, Prediction

# Activation band [0.6, 1.0] for classes the oracle reports as present.
_HIGH_LO, _HIGH_SPAN = 0.6, 1.0 - 0.6


@dataclass(frozen=True)
class ImageLevelLabel:
    """Multi-label activations in [0, 1], one per class, for one image."""

    image_id: int | str
    activations: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(not 0.0 <= a <= 1.0 for a in self.activations):
            raise ValueError("activations must lie in [0, 1]")

    def activation(self, class_id: int) -> float:
        return self.activations[class_id - 1]


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds and variant selection for pseudo-label filtering.

    ``config.SCHEMA`` gives each field's range; the loop trusts it.
    """

    tau_cls: float = 0.7
    tau_ml: float = 0.2
    mode: str = "two_stage_filtering"


@dataclass(frozen=True)
class OracleNoise:
    """Error rates of the simulated image-level classifier.

    ``fn_rate`` is the chance a present class activates in the low band,
    ``fp_rate`` the chance an absent class activates in the high band.
    ``tau_ml`` bounds the low band from above.
    """

    fn_rate: float = 0.1
    fp_rate: float = 0.1
    tau_ml: float = 0.2


class OracleLabel(dict):
    """One image's oracle draws, read as an :class:`ImageLevelLabel` is. A
    class's activation is worked out from its two doubles, band test then band
    value, the first time it is read, and kept."""

    __slots__ = ("draws", "present", "noise")

    def __init__(self, draws: list[float], present: frozenset[int], noise: OracleNoise) -> None:
        self.draws, self.present, self.noise = draws, present, noise

    @property
    def activations(self) -> OracleLabel:
        return self

    def activation(self, class_id: int) -> float:
        return self[class_id - 1]

    def __missing__(self, index: int) -> float:
        test, value, noise = self.draws[2 * index], self.draws[2 * index + 1], self.noise
        high = test >= noise.fn_rate if index + 1 in self.present else test < noise.fp_rate
        # ``lo + (hi - lo) * u`` is what ``Generator.uniform(lo, hi)`` computes.
        self[index] = _HIGH_LO + _HIGH_SPAN * value if high else 0.0 + (noise.tau_ml - 0.0) * value
        return self[index]


def keep_mask(
    class_ids: Sequence[int],
    scores: Sequence[float],
    image_label: ImageLevelLabel | OracleLabel | None,
    config: FilterConfig,
) -> list[bool]:
    """Which of one image's predictions, given as columns, survive filtering:
    score >= tau_cls in ``one_stage``, and also (AND, ``two_stage_filtering``)
    or else (OR, ``two_stage_mining``) an activation of the predicted class
    >= tau_ml, which needs the image label."""
    tau_cls = config.tau_cls
    if config.mode == "one_stage":
        return [s >= tau_cls for s in scores]
    if image_label is None:
        raise ValueError("two-stage filtering needs an image-level label")
    activations, tau_ml = image_label.activations, config.tau_ml
    if config.mode == "two_stage_mining":
        return [s >= tau_cls or activations[c - 1] >= tau_ml for c, s in zip(class_ids, scores)]
    return [s >= tau_cls and activations[c - 1] >= tau_ml for c, s in zip(class_ids, scores)]


def _kept(preds: Sequence[Prediction], image_label, config: FilterConfig) -> list[Prediction]:
    mask = keep_mask([p.class_id for p in preds], [p.score for p in preds], image_label, config)
    return [p for p, keep in zip(preds, mask) if keep]


def two_stage_filter(
    preds: Sequence[Prediction],
    image_label: ImageLevelLabel | None,
    config: FilterConfig,
) -> list[Prediction]:
    """The predictions that :func:`keep_mask` keeps, in order, in ``one_stage``
    or ``two_stage_filtering`` mode; :func:`two_stage_mining` is the OR gate."""
    if config.mode == "two_stage_mining":
        raise ValueError("mining variant is handled by two_stage_mining")
    return _kept(preds, image_label, config)


def two_stage_mining(
    preds: Sequence[Prediction], image_label: ImageLevelLabel, config: FilterConfig
) -> list[Prediction]:
    """The OR gate of :func:`keep_mask`, whatever ``config.mode`` says."""
    return _kept(preds, image_label, replace(config, mode="two_stage_mining"))


def oracle_image_labels(
    record: ImageRecord,
    noise: OracleNoise,
    rng: np.random.Generator,
    n_classes: int,
) -> OracleLabel:
    """Simulate image-level activations from the record's ground truth.

    Present classes draw from the high band [0.6, 1.0] unless a false negative
    fires; absent classes draw from the low band [0, tau_ml) unless a false
    positive fires. Two doubles per class, band test then band value, are
    drawn in one call; an activation is worked out only for the classes that
    are read, which in the loop are those the image's predictions carry.
    """
    return OracleLabel(rng.random(2 * n_classes).tolist(), record.class_ids, noise)
