"""Detection metrics: a one-pass evaluator of AP and pseudo-label matches,
foreground ratio and class distribution divergence.

:func:`evaluate` scores a whole epoch's evaluation from one IoU pass over its
same-image, same-class pairs, and runs the greedy matcher, once, over the
scored pairs of the images where a prediction or a ground truth has two
candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


# IoU thresholds of AP50:95, in this order; index 0 is AP50.
AP_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))
# Recall levels at which the interpolated AP samples the precision envelope.
RECALL_POINTS = np.linspace(0.0, 1.0, 101)


def _iou(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """IoU of (x, y, w, h) columns ``p`` and ``g``, broadcast.

    The overlap's width is the lesser right edge ``x + w`` minus the greater
    left edge, its height likewise. Classes are not compared here:
    :func:`evaluate` pairs only same-image, same-class rows.
    """
    px, py, pw, ph = p
    gx, gy, gw, gh = g
    iw = np.minimum(px + pw, gx + gw) - np.maximum(px, gx)
    ih = np.minimum(py + ph, gy + gh) - np.maximum(py, gy)
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
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


def _greedy(pair_p: np.ndarray, pair_g: np.ndarray, ious: np.ndarray, scores: np.ndarray,
            kept: np.ndarray, match_iou: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy one-to-one matching over (prediction, ground truth) pairs and
    their IoUs, at every threshold in one pass.

    Lane ``t`` matches every prediction at ``AP_THRESHOLDS[t]``, and a last
    lane the predictions that ``kept`` marks at ``match_iou``. Predictions
    claim in descending ``scores`` order, equal scores by index; in each of
    its lanes a prediction claims the free ground truth of highest IoU among
    its pairs, the lower index on equal IoU, if that IoU reaches the lane's
    threshold. Returns the lane and the pair index of each claim.
    """
    thresholds = (*AP_THRESHOLDS, match_iou)
    every, with_kept = range(len(AP_THRESHOLDS)), range(len(thresholds))
    # Pairs by claim order, each prediction's by descending IoU, then ground truth.
    order = np.lexsort((pair_g, -ious, pair_p, -scores[pair_p]))
    taken: list[set[int]] = [set() for _ in thresholds]
    claim_lanes, claim_pairs = [], []
    current, lanes = -1, []
    for at, p, g, iou in zip(order.tolist(), pair_p[order].tolist(), pair_g[order].tolist(),
                             ious[order].tolist()):
        if p != current:
            current, lanes = p, list(with_kept if kept[p] else every)
        # A lane stays open past taken ground truths; the first free one
        # holds the highest IoU still free, and closes the lane.
        still = []
        for lane in lanes:
            if g in taken[lane]:
                still.append(lane)
            elif iou >= thresholds[lane]:
                taken[lane].add(g)
                claim_lanes.append(lane)
                claim_pairs.append(at)
        lanes = still
    return np.array(claim_lanes, dtype=np.intp), np.array(claim_pairs, dtype=np.intp)


def fg_ratio(foreground: int, background: int) -> float:
    """Foreground share of training target assignments."""
    return foreground / (foreground + background)


def class_kld(pseudo_counts: Sequence[int], truth_counts: Sequence[int]) -> float:
    """KL divergence (nats) of the pseudo class distribution from the truth.

    The arguments are per-class counts of one length, the truth's not all
    zero. Both have 1e-6 added to each entry and are normalized first, so
    the result is finite even with empty classes. Direction is pseudo || truth.
    Each log is ``math.log``'s: numpy picks its log kernel by CPU, and the
    report's bytes may not depend on the CPU.
    """
    p = np.asarray(pseudo_counts, dtype=float) + 1e-6
    q = np.asarray(truth_counts, dtype=float) + 1e-6
    p = p / p.sum()
    q = q / q.sum()
    logs = np.array([math.log(r) for r in (p / q).tolist()])
    return float(np.sum(p * logs))


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
    reaches it; only the other, contested images' pairs at or above it go
    through the greedy matcher, in one pass that matches every threshold at
    once. The raw predictions are matched at all of :data:`AP_THRESHOLDS`;
    pooled over images and ranked by a stable sort on descending score, they
    give every threshold's 101-point interpolated AP in one pass over the
    (threshold, prediction) hits, 0.0 when there is no ground truth. The kept
    predictions are matched at ``match_iou``.
    """
    kept = np.asarray(kept, dtype=bool)
    n_images = len(p_count)
    scores = preds[5]

    p_image = np.repeat(np.arange(n_images), p_count)
    g_image = np.repeat(np.arange(n_images), g_count)
    # A same-image, same-class pair shares the key image * span + class.
    classes = np.concatenate((preds[4], truths[4])).astype(np.int64)
    keys = np.concatenate((p_image, g_image)) * (classes.max(initial=0) + 1) + classes
    pair_p, pair_g = _same_key_pairs(keys[:len(scores)], keys[len(scores):])
    ious = _iou(preds[:4].take(pair_p, axis=1), truths[:4].take(pair_g, axis=1))

    candidate = ious >= min(AP_THRESHOLDS[0], match_iou)
    cand_p, cand_g, cand_iou = pair_p[candidate], pair_g[candidate], ious[candidate]
    contested = np.zeros(n_images, dtype=bool)
    contested[p_image[np.bincount(cand_p, minlength=len(scores)) > 1]] = True
    contested[g_image[np.bincount(cand_g, minlength=len(g_image)) > 1]] = True
    # Uncontested, a prediction's one candidate is its match at every
    # threshold its IoU reaches. A kept prediction's claimed IoU is 0.0 where
    # it matched nothing, since a match has an IoU of at least match_iou > 0.
    best = np.zeros(len(scores))
    best[cand_p] = cand_iou
    hits = best >= np.array(AP_THRESHOLDS)[:, None]
    claimed_iou = np.where(kept & (best >= match_iou), best, 0.0)
    # The contested images' predictions are matched over their candidate pairs.
    pick = contested[p_image[cand_p]]
    if pick.any():
        pair_p, pair_g, pair_iou = cand_p[pick], cand_g[pick], cand_iou[pick]
        lane, pair = _greedy(pair_p, pair_g, pair_iou, scores, kept, match_iou)
        in_contested = contested[p_image]
        hits[:, in_contested], claimed_iou[in_contested] = False, 0.0
        ap = lane < len(AP_THRESHOLDS)
        hits[lane[ap], pair_p[pair[ap]]] = True
        claimed_iou[pair_p[pair[~ap]]] = pair_iou[pair[~ap]]

    # Per-image sums in claim order, then their total, added left to right:
    # the built-in sum compensates from Python 3.12 on, and rounds otherwise.
    matches = np.flatnonzero(claimed_iou)
    matches = matches[np.lexsort((-scores[matches], p_image[matches]))]
    values = claimed_iou[matches].tolist()
    cuts = (np.flatnonzero(np.diff(p_image[matches])) + 1).tolist()
    iou_sum = 0.0
    for a, b in zip([0, *cuts], [*cuts, len(values)]):
        image_sum = 0.0
        for value in values[a:b]:
            image_sum += value
        iou_sum += image_sum
    aps = (0.0,) * len(AP_THRESHOLDS)
    if len(g_image) and len(scores):
        ranked = hits[:, np.argsort(-scores, kind="stable")]
        aps = tuple(_interpolated_aps(ranked, len(g_image)).tolist())
    return Evaluation(aps=aps, matched=len(values), iou_sum=iou_sum)
