"""Foreground-background and foreground-foreground rebalancing.

Two mechanisms act on training images. Crop-and-paste mixing raises the
foreground share of training targets (`fbr_mix`). An adaptive class sampling
distribution decides which classes get pasted: classes whose pseudo-label
recall is low receive high sampling weight (`pseudo_recall`,
`affr_distribution`). Geometry is handled in annotation space only; occluded
base annotations are dropped by visible fraction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

log = logging.getLogger(__name__)

# Pseudo recall assigned to classes absent from the labeled data. Large enough
# to sort such classes ahead of every real value; excluded from weight sums.
LABELED_ABSENT_PR = 1e9

# Visible fractions at or below this count as full occlusion.
_FULL_OCCLUSION_EPS = 1e-12

_Edges = tuple[float, float, float, float]
# A crop as the bank stores it: (class_id, w, h).
Crop = tuple[int, float, float]


@dataclass(frozen=True)
class ClassStats:
    """Per-class pseudo and labeled instance counts plus the data ratio.

    ``ratio`` is the unlabeled-to-labeled data amount ratio used to scale the
    expected pseudo count of each class.
    """

    pseudo_counts: tuple[int, ...]
    labeled_counts: tuple[int, ...]
    ratio: float

    def __post_init__(self) -> None:
        if len(self.pseudo_counts) != len(self.labeled_counts):
            raise ValueError("pseudo and labeled count vectors must align")
        if self.ratio <= 0.0:
            raise ValueError(f"data ratio must be positive, got {self.ratio}")
        if any(c < 0 for c in self.pseudo_counts) or any(
            c < 0 for c in self.labeled_counts
        ):
            raise ValueError("instance counts must be non-negative")


@dataclass(frozen=True)
class SamplingDistribution:
    """Normalized class sampling weights."""

    mu: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.mu:
            raise ValueError("sampling distribution needs at least one class")
        if any(m < 0 for m in self.mu):
            raise ValueError("sampling weights must be non-negative")
        if abs(sum(self.mu) - 1.0) > 1e-9:
            raise ValueError("sampling weights must sum to 1")

    @classmethod
    def normalized(cls, weights: Sequence[float]) -> "SamplingDistribution":
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        if total <= 0.0:
            raise ValueError("cannot normalize an all-zero weight vector")
        return cls(mu=tuple((w / total).tolist()))

    @classmethod
    def uniform(cls, n_classes: int) -> "SamplingDistribution":
        if n_classes < 1:
            raise ValueError("need at least one class")
        return cls(mu=(1.0 / n_classes,) * n_classes)


@dataclass(frozen=True)
class PasteConfig:
    """Crop-and-paste settings for `fbr_mix` plus the sampling exponent."""

    crops_per_image: int = 2
    rescale_min: float = 0.5
    rescale_max: float = 1.0
    occlusion_threshold: float = 0.0
    beta: float = 2.0


class Mix(NamedTuple):
    """The pasted crops' classes in paste order, and each pasted box's edges
    ``(x1, y1, x2, y2)``."""

    class_ids: list[int]
    placements: list[_Edges]


def pseudo_recall(stats: ClassStats) -> np.ndarray:
    """Per-class pseudo recall: pseudo count over ratio-scaled labeled count.

    PR_k = N_k_pseudo / (ratio * N_k_labeled). A class with no labeled
    instances gets the sentinel ``LABELED_ABSENT_PR``; downstream weighting
    excludes the sentinel from sums and gives such classes the minimum weight.
    """
    pseudo = np.asarray(stats.pseudo_counts, dtype=float)
    labeled = np.asarray(stats.labeled_counts, dtype=float)
    pr = np.full(pseudo.shape, LABELED_ABSENT_PR, dtype=float)
    present = labeled > 0
    pr[present] = pseudo[present] / (stats.ratio * labeled[present])
    return pr


def affr_distribution(pr: Sequence[float], beta: float) -> SamplingDistribution:
    """Mirror-rank sampling weights: neglected classes sample most.

    Classes are sorted by descending pseudo recall (ties broken by lower class
    id); the class at rank k receives raw weight
    ``(PR at rank K-k+1 / sum of PR) ** beta`` and raw weights are normalized
    to sum 1. beta = 0 gives the uniform distribution; sentinel classes (no
    labeled instances) are excluded from the sum and receive the minimum raw
    weight. When every raw weight underflows to 0 the result is the
    beta -> inf limit: raw weight 1 for each class whose mirrored PR is the
    largest, 0 for the rest. Falls back to uniform when every real PR is zero.
    """
    if beta < 0.0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    values = np.asarray(pr, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("pseudo recall must be a non-empty vector")
    if (values < 0.0).any():
        raise ValueError("pseudo recall values must be non-negative")

    k = values.size
    sentinel = values >= LABELED_ABSENT_PR
    real = np.flatnonzero(~sentinel)
    total = values[real].sum() if real.size else 0.0
    if total <= 0.0:
        log.warning("every pseudo recall is zero; falling back to uniform sampling")
        return SamplingDistribution.uniform(k)

    order = sorted(real.tolist(), key=lambda i: (-values[i], i))
    mirrored = np.zeros(k, dtype=float)
    mirrored[order] = values[order[::-1]]
    raw = np.zeros(k, dtype=float)
    for class_index in order:
        raw[class_index] = (mirrored[class_index] / total) ** beta
    if raw.sum() <= 0.0:  # every weight underflowed: take the beta -> inf limit
        raw[real] = mirrored[real] == mirrored[real].max()
    if sentinel.any():
        raw[sentinel] = raw[real].min()
    return SamplingDistribution.normalized(raw)


def _visible(x: float, y: float, w: float, h: float, rects: Sequence[_Edges]) -> float:
    """Visible fraction of the box ``(x, y, w, h)`` under the rectangles with
    edges ``rects``. An overlap's right edge is its left edge plus its width,
    ``x1 + (x2 - x1)``, which need not be x2; its bottom edge likewise."""
    ix2, iy2 = x + w, y + h
    clipped = []
    for ox1, oy1, ox2, oy2 in rects:
        if ox2 <= x or ix2 <= ox1 or oy2 <= y or iy2 <= oy1:
            continue  # disjoint, or touching along an edge
        x1, y1 = max(ox1, x), max(oy1, y)
        x2, y2 = min(ox2, ix2), min(oy2, iy2)
        if x2 > x1 and y2 > y1:
            clipped.append((x1, y1, x1 + (x2 - x1), y1 + (y2 - y1)))
    if not clipped:
        return 1.0
    x1, y1, x2, y2 = clipped[0]
    if len(clipped) == 1 and x2 <= ix2 and y2 <= iy2:
        # One overlap whose edges stay inside the box: the only grid cell
        # that can be covered is the overlap itself.
        cx, cy = (x1 + x2) / 2.0, (y1 + y2) / 2.0
        inside = x1 < cx < x2 and y1 < cy < y2
        covered_area = (x2 - x1) * (y2 - y1) if inside else 0.0
    else:
        covered_area = _grid_covered_area((x, y, ix2, iy2), clipped)
    area = w * h
    visible = max(0.0, area - covered_area)
    return min(1.0, visible / area)


def _grid_covered_area(box: _Edges, clipped: Sequence[_Edges]) -> float:
    """Area of the grid cells of ``box`` whose centers some overlap covers, the
    cells x-major and added as ``np.sum`` adds them: left to right below eight."""
    xs = sorted({box[0], box[2], *(c[0] for c in clipped), *(c[2] for c in clipped)})
    ys = sorted({box[1], box[3], *(c[1] for c in clipped), *(c[3] for c in clipped)})
    x_cells = [((a + b) / 2.0, b - a) for a, b in zip(xs, xs[1:])]
    y_cells = [((a + b) / 2.0, b - a) for a, b in zip(ys, ys[1:])]
    areas = [
        w * h
        for cx, w in x_cells
        for cy, h in y_cells
        if any(x1 < cx < x2 and y1 < cy < y2 for x1, y1, x2, y2 in clipped)
    ]
    if len(areas) >= 8:
        return float(np.sum(areas))
    total = 0.0
    for area in areas:
        total += area
    return total


def occlusion_survivors(
    base: Iterable[tuple], rects: Sequence[_Edges], occlusion_threshold: float
) -> list:
    """The first field of each ``(item, x, y, w, h, ...)`` row of ``base`` whose
    box ``rects`` neither occlude fully nor leave less than the threshold
    visible: with the pasted boxes' edges, a pasted image's surviving classes."""
    if not 0.0 <= occlusion_threshold <= 1.0:
        raise ValueError(f"occlusion threshold must be in [0, 1], got {occlusion_threshold}")
    out = []
    for item, x, y, w, h, *_ in base:
        vf = _visible(x, y, w, h, rects)
        if vf > _FULL_OCCLUSION_EPS and vf >= occlusion_threshold:
            out.append(item)
    return out


def fbr_mix(
    size: tuple[float, float],
    crops: Sequence[Crop],
    rng: np.random.Generator,
    config: PasteConfig,
) -> Mix:
    """Paste crops at uniform random in-bounds positions onto an image of
    ``size`` (width, height).

    A crop that fits is pasted at its own size. One that does not is rescaled
    so its longer side becomes a uniform random fraction (config range) of the
    destination's shorter side; if it still cannot fit even at the minimum
    rescale it is skipped with a warning. Which of the image's own boxes the
    pasted ones leave is :func:`occlusion_survivors`' to say.
    """
    width, height = size
    # A crop's draws follow from its geometry: a position (2 doubles) when it
    # fits, a rescale factor and a position (3) when it fits once rescaled, a
    # rescale factor alone (1) when it is skipped. Since a larger factor never
    # fits where the minimum does not, the image's doubles come from one call.
    plans: list[tuple[Crop, bool, float | None]] = []
    n_draws = 0
    for crop in crops:
        w, h = crop[1], crop[2]
        if w > width or h > height:
            # Rescaled: the minimum rescale, or None when even that overflows.
            min_scale = config.rescale_min * min(width, height) / max(w, h)
            if w * min_scale > width or h * min_scale > height:
                plans.append((crop, True, None))
                n_draws += 1
            else:
                plans.append((crop, True, min_scale))
                n_draws += 3
        else:
            plans.append((crop, False, None))
            n_draws += 2
    # Generator.uniform(lo, hi) is lo + (hi - lo) * u for one double u.
    u = iter(rng.random(n_draws).tolist())
    lo, hi = config.rescale_min, config.rescale_max

    class_ids: list[int] = []
    placements: list[_Edges] = []
    for (class_id, w, h), rescaled, min_scale in plans:
        scale = 1.0
        if rescaled:
            factor = lo + (hi - lo) * next(u)
            if min_scale is None:
                log.warning(
                    "crop %.0fx%.0f of class %s does not fit %sx%s even at "
                    "minimum rescale; skipped",
                    w, h, class_id, width, height,
                )
                continue
            scale = factor * min(width, height) / max(w, h)
            if w * scale > width or h * scale > height:
                scale = min_scale
        pw, ph = w * scale, h * scale
        if pw <= 0 or ph <= 0:
            raise ValueError(f"box sides must be positive, got w={pw} h={ph}")
        x = 0.0 + (width - pw) * next(u)
        y = 0.0 + (height - ph) * next(u)
        class_ids.append(class_id)
        placements.append((x, y, x + pw, y + ph))
    return Mix(class_ids, placements)
