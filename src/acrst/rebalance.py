"""Foreground-background and foreground-foreground rebalancing.

Two mechanisms act on training images. Crop-and-paste mixing raises the
foreground share of training targets: per pass, `place_pastes` picks the
crops and places them from each image's doubles, and `survivor_mask` drops
the base boxes they occlude by visible fraction. An adaptive class sampling distribution
decides which classes get pasted: classes whose pseudo-label recall is low
receive high sampling weight (`pseudo_recall`, `affr_distribution`).
Geometry is handled in annotation space only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

log = logging.getLogger(__name__)

# Pseudo recall assigned to classes absent from the labeled data. Large enough
# to sort such classes ahead of every real value; excluded from weight sums.
LABELED_ABSENT_PR = 1e9

# Visible fractions at or below this count as full occlusion.
_FULL_OCCLUSION_EPS = 1e-12

# A row whose overlaps' summed areas leave a visible share this far past the
# threshold survives without the cell grid. The grid adds at most (2m+1)**2
# cell areas for m overlaps, each product and addition rounding by at most
# 2**-53 relative, and misses cells one ulp wide but never adds one, so it
# never covers more than that sum but for rounding: 1e-9 covers m up to the
# crops_per_image cap of 1000. No bound may drop a row, as missed cells
# would make that unsafe.
_UNION_BOUND_MARGIN = 1e-9

_Edges = tuple[float, float, float, float]


@dataclass(frozen=True)
class ClassStats:
    """Per-class pseudo and labeled instance counts plus the data ratio.

    ``ratio`` is the unlabeled-to-labeled data amount ratio used to scale the
    expected pseudo count of each class.
    """

    pseudo_counts: Sequence[int]
    labeled_counts: Sequence[int]
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
    """Non-negative class sampling weights summing to 1, as their only makers
    build them: :meth:`uniform` over k >= 1 classes, :meth:`normalized` of a positive sum."""

    mu: tuple[float, ...]

    @classmethod
    def normalized(cls, weights: Sequence[float]) -> "SamplingDistribution":
        w = np.asarray(weights, dtype=float)
        return cls(mu=tuple((w / w.sum()).tolist()))

    @classmethod
    def uniform(cls, n_classes: int) -> "SamplingDistribution":
        return cls(mu=(1.0 / n_classes,) * n_classes)


@dataclass(frozen=True)
class PasteConfig:
    """Crop-and-paste settings for `place_pastes` plus the sampling exponent."""

    crops_per_image: int = 2
    rescale_min: float = 0.5
    rescale_max: float = 1.0
    occlusion_threshold: float = 0.0
    beta: float = 2.0


@dataclass(frozen=True, eq=False)
class ClassTable:
    """An epoch's crops by class (:meth:`CropBank.class_table`): class and (w, h)
    columns, each pool's start and length, the pools' CDF and the largest (w, h)."""

    class_id: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    cdf: np.ndarray
    largest: np.ndarray

    def fits(self, sizes: np.ndarray) -> np.ndarray:
        """Per (width, height) column of ``sizes``, whether every crop of the
        table fits it as it is."""
        return (sizes >= self.largest).all(axis=0)


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
        x1, y1 = max(ox1, x), max(oy1, y)
        x2, y2 = min(ox2, ix2), min(oy2, iy2)
        if x2 > x1 and y2 > y1:
            clipped.append((x1, y1, x1 + (x2 - x1), y1 + (y2 - y1)))
    if not clipped:
        return 1.0
    area = w * h
    visible = max(0.0, area - _grid_covered_area((x, y, ix2, iy2), clipped))
    return visible / area


def _grid_covered_area(box: _Edges, clipped: Sequence[_Edges]) -> float:
    """Area of the grid cells of ``box`` whose centers some overlap covers, the
    cells x-major and added by ``np.sum``."""
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
    return float(np.sum(areas))


def survivor_mask(
    boxes: np.ndarray, image: np.ndarray, pastes: np.ndarray, occlusion_threshold: float
) -> np.ndarray:
    """Per row of ``boxes`` ((x, y, w, h) columns) on image ``image``, whether
    the pasted boxes of that image, in :func:`place_pastes`' columns with
    images ascending, leave it neither fully occluded nor less than the
    threshold visible. A row that no pasted box overlaps survives, as does one
    whose overlaps' summed areas leave ``_UNION_BOUND_MARGIN`` more than the
    threshold visible; :func:`_visible` decides every other row, with its
    image's pasted edges in order.
    """
    first = np.searchsorted(pastes[1], image, side="left")
    count = np.searchsorted(pastes[1], image, side="right") - first
    pair_row = np.repeat(np.arange(len(image)), count)
    pair_paste = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(pair_row))
    # _visible's overlap test and clipped edges, pair by pair.
    x, y, w, h = boxes[:, pair_row]
    ox1, oy1, ox2, oy2 = pastes[2:, pair_paste]
    ix2, iy2 = x + w, y + h
    x1, x2 = np.maximum(ox1, x), np.minimum(ox2, ix2)
    y1, y2 = np.maximum(oy1, y), np.minimum(oy2, iy2)
    hit = (x2 > x1) & (y2 > y1)
    clipped_area = ((x1 + (x2 - x1)) - x1) * ((y1 + (y2 - y1)) - y1)
    alive = np.bincount(pair_row[hit], minlength=len(image)) == 0
    bound = np.bincount(pair_row[hit], weights=clipped_area[hit], minlength=len(image))[~alive]
    area = boxes[2, ~alive] * boxes[3, ~alive]
    floor = max(occlusion_threshold, _FULL_OCCLUSION_EPS) + _UNION_BOUND_MARGIN
    alive[~alive] = (area - bound) / area >= floor
    for i in np.flatnonzero(~alive).tolist():
        vf = _visible(*boxes[:, i].tolist(), pastes[2:, first[i]:first[i] + count[i]].T.tolist())
        alive[i] = vf > _FULL_OCCLUSION_EPS and vf >= occlusion_threshold
    return alive


def place_pastes(draws: np.ndarray, sizes: np.ndarray, table: ClassTable,
                 config: PasteConfig) -> np.ndarray:
    """The paste columns (class, image, x1, y1, x2, y2) of a pass's images, in
    order, from row j of ``draws``, image j's doubles, with ``sizes`` its
    (width, height) in column j: a class double per crop, an entry double per
    crop, then per crop its placement slots, x and y on an image that the
    table :meth:`~ClassTable.fits`, and a rescale double, x and y on one it
    does not. A crop's class is drawn by the table's CDF, then its entry
    uniformly within the class's pool. A crop that fits is pasted at its own
    size and reads x and y. One that does not is rescaled so its longer side
    becomes a uniform random fraction (config range) of the image's shorter
    side and reads all three, or is skipped with a warning, reading none, if
    even the minimum rescale overflows."""
    n, lo, hi = config.crops_per_image, config.rescale_min, config.rescale_max
    image = np.repeat(np.arange(len(draws)), n)
    pool = np.searchsorted(table.cdf, draws[:, :n].ravel(), side="right")
    entry = table.starts[pool] + (draws[:, n:2 * n].ravel() * table.lengths[pool]).astype(np.intp)
    class_id, (pw, ph), (width, height) = table.class_id[entry], table.sizes[:, entry], sizes[:, image]
    crop = np.arange(len(image)) % n
    at = 2 * n + 2 * crop  # each crop's x double; its y double follows
    outsized = ~table.fits(sizes)
    if outsized.any():
        at = np.where(outsized[image], at + crop + 1, at)  # past each crop's rescale double
        out = np.flatnonzero((pw > width) | (ph > height))
        w, h, W, H = pw[out], ph[out], width[out], height[out]
        short, long = np.minimum(W, H), np.maximum(w, h)
        with np.errstate(over="ignore"):  # huge rescale bounds overflow to inf, as in floats
            min_scale = lo * short / long
            skip = (w * min_scale > W) | (h * min_scale > H)
            # Generator.uniform(lo, hi) is lo + (hi - lo) * u for one double u.
            scale = (lo + (hi - lo) * draws[image[out], at[out] - 1]) * short / long
            scale = np.where((w * scale > W) | (h * scale > H), min_scale, scale)
            pw[out], ph[out] = w * scale, h * scale
        for cw, ch, c, cW, cH in zip(*(v[skip].tolist() for v in (w, h, class_id[out], W, H))):
            log.warning("crop %.0fx%.0f of class %s does not fit %sx%s even at minimum rescale; "
                        "skipped", cw, ch, c, cW, cH)
        class_id, image, width, height, pw, ph, at = (
            np.delete(v, out[skip]) for v in (class_id, image, width, height, pw, ph, at))
    x = 0.0 + (width - pw) * draws[image, at]
    y = 0.0 + (height - ph) * draws[image, at + 1]
    return np.array((class_id, image, x, y, x + pw, y + ph), dtype=float)
