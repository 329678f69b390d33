"""Detection metrics: a one-pass evaluator of AP and pseudo-label matches,
foreground ratio and class distribution divergence.

:func:`evaluate` scores a whole epoch's evaluation from one IoU pass over its
same-image, same-class pairs, and runs the greedy matcher only on the images
where a prediction or a ground truth has two candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


# IoU thresholds of AP50:95, in this order; index 0 is AP50.
AP_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))
# Recall levels at which the interpolated AP samples the precision envelope.
RECALL_POINTS = np.linspace(0.0, 1.0, 101)


def _iou(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Class-aware IoU of (x, y, w, h, class) columns ``p`` and ``g``, broadcast.

    The overlap's width is the lesser right edge ``x + w`` minus the greater
    left edge, its height likewise. Pairs of different classes are 0, which no
    threshold in (0, 1] matches.
    """
    px, py, pw, ph, pc = p
    gx, gy, gw, gh, gc = g
    iw = np.minimum(px + pw, gx + gw) - np.maximum(px, gx)
    ih = np.minimum(py + ph, gy + gh) - np.maximum(py, gy)
    overlaps = (iw > 0) & (ih > 0) & (pc == gc)
    inter = np.where(overlaps, iw * ih, 0.0)
    return inter / ((pw * ph + gw * gh) - inter)


def _same_key_pairs(p_key: np.ndarray, g_key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (prediction, ground truth) index pair of equal keys, by prediction first."""
    g_order = np.argsort(g_key, kind="stable")
    g_sorted = g_key[g_order]
    first = np.searchsorted(g_sorted, p_key, side="left")
    count = np.searchsorted(g_sorted, p_key, side="right") - first
    pair_p = np.repeat(np.arange(len(p_key)), count)
    offset = np.repeat(first - np.cumsum(count) + count, count)
    return pair_p, g_order[offset + np.arange(len(pair_p))]


def _greedy(
    ious: np.ndarray, scores: np.ndarray, thresholds: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy matching of one image at every threshold in one pass.

    Returns the claim order (descending score, then prediction index) and a
    (threshold, prediction) array of the claimed ground-truth index, -1 where
    the prediction matched nothing. At each threshold a prediction claims the
    free ground truth of highest IoU, the lower index on equal IoU, if that
    IoU is at or above the threshold.
    """
    order = np.argsort(-scores, kind="stable")
    claims = [[-1] * len(scores) for _ in thresholds]
    if ious.size:
        lowest = min(thresholds)
        values = ious.tolist()
        # Each row's ground truths by descending IoU, the lower index first on ties.
        ranked = np.argsort(-ious, axis=1, kind="stable").tolist()
        taken: list[set[int]] = [set() for _ in thresholds]
        for pi in order.tolist():
            row = values[pi]
            candidates = [gi for gi in ranked[pi] if row[gi] >= lowest]
            if not candidates:
                continue
            for thr, claimed, claim in zip(thresholds, taken, claims):
                # The first free candidate holds the highest IoU still free.
                for gi in candidates:
                    if gi not in claimed:
                        if row[gi] >= thr:
                            claimed.add(gi)
                            claim[pi] = gi
                        break
    return order, np.array(claims, dtype=np.intp).reshape(len(thresholds), len(scores))


def fg_ratio(foreground: int, background: int) -> float:
    """Foreground share of training target assignments."""
    if foreground < 0 or background < 0:
        raise ValueError("target counts must be non-negative")
    total = foreground + background
    if total == 0:
        raise ValueError("foreground ratio undefined for zero targets")
    return foreground / total


def class_kld(pseudo_counts: Sequence[int], truth_counts: Sequence[int]) -> float:
    """KL divergence (nats) of the pseudo class distribution from the truth.

    Both count vectors have 1e-6 added to each entry and are normalized
    first, so the result is finite even with empty classes. Direction is
    pseudo || truth.
    """
    p = np.asarray(pseudo_counts, dtype=float)
    q = np.asarray(truth_counts, dtype=float)
    if p.shape != q.shape or p.ndim != 1 or p.size == 0:
        raise ValueError("count vectors must be non-empty and aligned")
    if (p < 0).any() or (q < 0).any():
        raise ValueError("counts must be non-negative")
    if q.sum() <= 0:
        raise ValueError("truth counts must not be all zero")
    p = p + 1e-6
    q = q + 1e-6
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))


def _interpolated_aps(ranked_hits: np.ndarray, n_gt: int) -> np.ndarray:
    """101-point interpolated AP of each row of flags ranked by descending score."""
    tp, n = np.cumsum(ranked_hits, axis=1), ranked_hits.shape[1]
    recall = tp / n_gt
    precision = tp / np.arange(1, n + 1)
    # Precision envelope: best precision achievable at or beyond each recall.
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    indices = np.array([np.searchsorted(row, RECALL_POINTS, side="left") for row in recall])
    sampled = np.take_along_axis(envelope, np.minimum(indices, n - 1), axis=1)
    return np.where(indices < n, sampled, 0.0).mean(axis=1)


@dataclass(frozen=True)
class Evaluation:
    """Teacher evaluation over a set of images, from one matching pass.

    ``aps`` is the AP of the raw predictions at each of :data:`AP_THRESHOLDS`.
    ``matched`` counts the kept predictions that match a ground truth at the
    pseudo-label threshold, and ``iou_sum`` adds up their IoUs.
    """

    aps: tuple[float, ...]
    matched: int
    iou_sum: float

    @property
    def ap50(self) -> float:
        return self.aps[0]

    @property
    def ap5095(self) -> float:
        return float(np.mean(self.aps))


def evaluate(
    preds: np.ndarray,
    p_count: Sequence[int],
    kept: np.ndarray,
    truths: np.ndarray,
    g_count: Sequence[int],
    match_iou: float,
) -> Evaluation:
    """AP50:95 of the raw predictions and pseudo-label matches of the kept ones.

    ``preds`` holds (x, y, w, h, class, score) columns and ``truths`` (x, y,
    w, h, class) columns, image after image; ``p_count`` and ``g_count`` give
    each image's number of rows, and ``kept`` marks the pseudo-labels.

    Matching is greedy and one-to-one, in descending score order: each
    prediction claims the free ground truth of its class with the highest IoU
    at or above the threshold. Equal scores go by prediction index, equal IoUs
    by the lower ground-truth index.

    The IoU of every same-image, same-class pair is computed in one pass. In
    an image where no prediction and no ground truth has two pairs at or above
    the lowest threshold, a pair matches at a threshold exactly when its IoU
    reaches it; only the other, contested images go through the greedy
    matcher. The raw predictions are matched at all of :data:`AP_THRESHOLDS`;
    pooled over images and ranked by a stable sort on descending score, they
    give every threshold's 101-point interpolated AP in one pass over the
    (threshold, prediction) hits, 0.0 when there is no ground truth. The kept
    predictions are matched at ``match_iou``.
    """
    kept = np.asarray(kept, dtype=bool)
    sizes = (len(p_count), sum(p_count), sum(p_count), sum(g_count))
    if sizes != (len(g_count), preds.shape[1], len(kept), truths.shape[1]):
        raise ValueError("prediction, kept and ground-truth rows must match the per-image counts")
    if not 0.0 < match_iou <= 1.0:
        raise ValueError(f"iou threshold must be in (0, 1], got {match_iou}")
    n_images = len(p_count)
    p_start = np.cumsum([0, *p_count]).tolist()
    g_start = np.cumsum([0, *g_count]).tolist()
    boxes, scores = preds[:5], preds[5]

    p_image = np.repeat(np.arange(n_images), p_count)
    g_image = np.repeat(np.arange(n_images), g_count)
    # A same-image, same-class pair shares the key image * span + class offset.
    classes = np.concatenate((boxes[4], truths[4])).astype(np.int64)
    classes -= classes.min(initial=0)
    keys = np.concatenate((p_image, g_image)) * (classes.max(initial=0) + 1) + classes
    pair_p, pair_g = _same_key_pairs(keys[:len(scores)], keys[len(scores):])
    ious = _iou(boxes[:, pair_p], truths[:, pair_g])

    candidate = ious >= min(AP_THRESHOLDS[0], match_iou)
    cand_p, cand_g = pair_p[candidate], pair_g[candidate]
    contested = np.zeros(n_images, dtype=bool)
    contested[p_image[np.bincount(cand_p, minlength=len(scores)) > 1]] = True
    contested[g_image[np.bincount(cand_g, minlength=len(g_image)) > 1]] = True
    # Uncontested, a prediction's one candidate is its match at every
    # threshold its IoU reaches. A kept prediction's claimed IoU is 0.0 where
    # it matched nothing, since a match has an IoU of at least match_iou > 0.
    best = np.zeros(len(scores))
    best[cand_p] = ious[candidate]
    hits = best >= np.array(AP_THRESHOLDS)[:, None]
    claimed_iou = np.where(kept & (best >= match_iou), best, 0.0)
    for i in np.flatnonzero(contested).tolist():
        a, b = p_start[i], p_start[i + 1]
        image_ious = _iou(boxes[:, a:b, None], truths[:, None, g_start[i]:g_start[i + 1]])
        hits[:, a:b] = _greedy(image_ious, scores[a:b], AP_THRESHOLDS)[1] >= 0
        rows = np.flatnonzero(kept[a:b])
        claims = _greedy(image_ious[rows], scores[a:b][rows], (match_iou,))[1][0]
        claimed = claims >= 0
        claimed_iou[a:b] = 0.0
        claimed_iou[a + rows[claimed]] = image_ious[rows[claimed], claims[claimed]]

    # Per-image sums in claim order, then their total: the float additions
    # that box_miou in report.json has always been computed with.
    matches = np.flatnonzero(claimed_iou)
    matches = matches[np.lexsort((-scores[matches], p_image[matches]))]
    values = claimed_iou[matches].tolist()
    cuts = (np.flatnonzero(np.diff(p_image[matches])) + 1).tolist()
    iou_sum = 0.0
    for a, b in zip([0, *cuts], [*cuts, len(values)]):
        iou_sum += sum(values[a:b])
    aps = (0.0,) * len(AP_THRESHOLDS)
    if len(g_image) and len(scores):
        ranked = hits[:, np.argsort(-scores, kind="stable")]
        aps = tuple(_interpolated_aps(ranked, len(g_image)).tolist())
    return Evaluation(aps=aps, matched=len(values), iou_sum=iou_sum)
