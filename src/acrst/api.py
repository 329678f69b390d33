"""The object form of the pasting and filtering API, over the row core.

The loop passes rows and columns: ground truth as ``(class_id, x, y, w, h)``
rows, crops as ``(class_id, w, h)`` rows and predictions as detection columns.
The types here are hand-built, and each function is a thin adapter over the
row function the loop calls. No loop module imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from typing import Sequence

import numpy as np

from .filtering import FilterConfig, keep_mask
from .rebalance import _visible, survivor_mask


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box as (left, top, width, height) in pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box sides must be positive, got w={self.w} h={self.h}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    def intersection(self, other: BBox) -> BBox | None:
        """Overlap rectangle with ``other``, or None when disjoint."""
        x1 = max(self.x, other.x)
        y1 = max(self.y, other.y)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 <= x1 or y2 <= y1:
            return None
        return BBox(x1, y1, x2 - x1, y2 - y1)


@dataclass(frozen=True)
class Instance:
    """One ground-truth object: a class id and a box on a source image."""

    class_id: int
    bbox: BBox
    source_image_id: int | str


@dataclass(frozen=True)
class Prediction:
    """One detector output: class, box and confidence score in [0, 1]."""

    class_id: int
    bbox: BBox
    score: float


@dataclass(frozen=True)
class CropEntry(Instance):
    """An instance tagged with its bank and score; the loop's banks hold crop rows."""

    score: float
    origin: str  # "labeled" or "pseudo"

    def __post_init__(self) -> None:
        if self.origin not in ("labeled", "pseudo"):
            raise ValueError(f"unknown crop origin {self.origin!r}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"crop score must be in [0, 1], got {self.score}")
        if self.origin == "labeled" and self.score != 1.0:
            raise ValueError("labeled crops carry score 1.0")


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


def _kept(preds: Sequence[Prediction], image_label, config: FilterConfig) -> list[Prediction]:
    acts = None if image_label is None else [image_label.activation(p.class_id) for p in preds]
    mask = keep_mask([p.score for p in preds], acts, config)
    return [p for p, keep in zip(preds, mask.tolist()) if keep]


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


@dataclass(frozen=True)
class PastePlacement:
    """A crop placed at a destination box, rescaled to the box's size."""

    crop: Instance
    target_bbox: BBox


def visible_fraction(inst: BBox, occluders: Sequence[BBox]) -> float:
    """Fraction of ``inst`` area not covered by the union of ``occluders``.

    Exact for rectangles: the box is cut into the grid induced by all occluder
    edges and each cell is attributed by its center point.
    """
    return _visible(inst.x, inst.y, inst.w, inst.h, [(o.x, o.y, o.x2, o.y2) for o in occluders])


def merge_annotations(
    base: Sequence[Instance],
    pasted: Sequence[PastePlacement],
    occlusion_threshold: float,
) -> list[Instance]:
    """Combine base and pasted annotations after occlusion bookkeeping.

    Pasted instances sit on top and are always kept, in paste order. A base
    instance survives when its visible fraction is at least the threshold;
    fully occluded instances are dropped regardless of threshold.
    """
    if not 0.0 <= occlusion_threshold <= 1.0:
        raise ValueError(f"occlusion threshold must be in [0, 1], got {occlusion_threshold}")
    merged = [Instance(p.crop.class_id, p.target_bbox, p.crop.source_image_id) for p in pasted]
    boxes = [(i.bbox.x, i.bbox.y, i.bbox.w, i.bbox.h) for i in base]
    boxes = np.array(boxes, dtype=float).reshape(-1, 4).T
    # Paste columns on one image, 0; survivor_mask reads no class.
    rects = [(0, 0, b.x, b.y, b.x2, b.y2) for b in (p.target_bbox for p in pasted)]
    pastes = np.array(rects, dtype=float).reshape(-1, 6).T
    alive = survivor_mask(boxes, np.zeros(len(base), dtype=np.intp), pastes, occlusion_threshold)
    return merged + list(compress(base, alive.tolist()))
