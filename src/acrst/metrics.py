"""Detection metrics: a one-pass evaluator of AP and pseudo-label matches,
foreground ratio and class distribution divergence.

Matching runs on one IoU matrix per image and serves every threshold from it:
:func:`evaluate` scores a whole epoch's evaluation in one pass per image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Instance, Prediction


# IoU thresholds of AP50:95, in this order; index 0 is AP50.
AP_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))


def _iou_matrix(preds: Sequence[Prediction], gts: Sequence[Instance]) -> np.ndarray:
    """Class-aware IoU of every prediction (row) with every ground truth (column).

    The intersection is that of :meth:`BBox.intersection`. Pairs of different
    classes are 0, which no threshold in (0, 1] matches.
    """
    if not preds or not gts:
        return np.zeros((len(preds), len(gts)))
    p = np.array([(q.bbox.x, q.bbox.y, q.bbox.w, q.bbox.h, q.class_id) for q in preds], dtype=float)
    g = np.array([(t.bbox.x, t.bbox.y, t.bbox.w, t.bbox.h, t.class_id) for t in gts], dtype=float)
    px, py, pw, ph, pc = p.T[:, :, None]
    gx, gy, gw, gh, gc = g.T[:, None, :]
    iw = np.minimum(px + pw, gx + gw) - np.maximum(px, gx)
    ih = np.minimum(py + ph, gy + gh) - np.maximum(py, gy)
    overlaps = (iw > 0) & (ih > 0) & (pc == gc)
    inter = np.where(overlaps, iw * ih, 0.0)
    return inter / ((pw * ph + gw * gh) - inter)


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


def class_kld(
    pseudo_counts: Sequence[int],
    truth_counts: Sequence[int],
    epsilon: float = 1e-6,
) -> float:
    """KL divergence (nats) of the pseudo class distribution from the truth.

    Both count vectors are epsilon-smoothed and normalized first, so the
    result is finite even with empty classes. Direction is pseudo || truth.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    p = np.asarray(pseudo_counts, dtype=float)
    q = np.asarray(truth_counts, dtype=float)
    if p.shape != q.shape or p.ndim != 1 or p.size == 0:
        raise ValueError("count vectors must be non-empty and aligned")
    if (p < 0).any() or (q < 0).any():
        raise ValueError("counts must be non-negative")
    if q.sum() <= 0:
        raise ValueError("truth counts must not be all zero")
    p = p + epsilon
    q = q + epsilon
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))


def _interpolated_ap(ranked_hits: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP of true-positive flags in descending score order."""
    tp = np.cumsum(ranked_hits)
    fp = np.cumsum(~ranked_hits)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # Precision envelope: best precision achievable at or beyond each recall.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    sample_points = np.linspace(0.0, 1.0, 101)
    indices = np.searchsorted(recall, sample_points, side="left")
    sampled = np.where(indices < len(envelope), envelope[np.minimum(indices, len(envelope) - 1)], 0.0)
    return float(sampled.mean())


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


def _positions(kept: Sequence[Prediction], raw: Sequence[Prediction]) -> list[int]:
    """Indices in ``raw`` of ``kept``, an order-preserving subset of its objects."""
    positions = []
    candidates = iter(enumerate(raw))
    for pred in kept:
        for i, other in candidates:
            if other is pred:
                positions.append(i)
                break
        else:
            raise ValueError("kept predictions must be an ordered subset of the raw ones")
    return positions


def evaluate(
    raw_by_image: Sequence[Sequence[Prediction]],
    kept_by_image: Sequence[Sequence[Prediction]],
    gts_by_image: Sequence[Sequence[Instance]],
    match_iou: float,
) -> Evaluation:
    """AP50:95 of the raw predictions and pseudo-label matches of the kept ones.

    Matching is greedy and one-to-one, in descending score order: each
    prediction claims the free ground truth of its class with the highest IoU
    at or above the threshold. Equal scores go by prediction index, equal IoUs
    by the lower ground-truth index.

    Each image's IoU matrix is computed once. The raw predictions are matched
    at all of :data:`AP_THRESHOLDS` on it in one pass; pooled over images and
    ranked by a stable sort on descending score, they give each threshold's
    101-point interpolated AP, 0.0 when there is no ground truth. The kept
    predictions, an ordered subset of the raw ones, are matched at
    ``match_iou`` from its rows.
    """
    if not len(raw_by_image) == len(kept_by_image) == len(gts_by_image):
        raise ValueError("raw, kept and ground-truth image lists must align")
    if not 0.0 < match_iou <= 1.0:
        raise ValueError(f"iou threshold must be in (0, 1], got {match_iou}")
    scores, hits = [], []
    matched = 0
    iou_sum = 0.0
    for raw, kept, gts in zip(raw_by_image, kept_by_image, gts_by_image):
        ious = _iou_matrix(raw, gts)
        scores.append(np.array([p.score for p in raw], dtype=float))
        hits.append(_greedy(ious, scores[-1], AP_THRESHOLDS)[1] >= 0)
        rows = _positions(kept, raw)
        kept_ious = ious[rows]
        order, claims = _greedy(kept_ious, scores[-1][rows], (match_iou,))
        pairs = order[claims[0, order] >= 0]
        matched += len(pairs)
        # Per-image sums in claim order, then their total: the float additions
        # that box_miou in report.json has always been computed with.
        iou_sum += sum(kept_ious[pairs, claims[0, pairs]].tolist())
    n_gt = sum(len(gts) for gts in gts_by_image)
    if n_gt == 0 or not any(len(s) for s in scores):
        aps = (0.0,) * len(AP_THRESHOLDS)
    else:
        ranked = np.concatenate(hits, axis=1)[:, np.argsort(-np.concatenate(scores), kind="stable")]
        aps = tuple(_interpolated_ap(row, n_gt) for row in ranked)
    return Evaluation(aps=aps, matched=matched, iou_sum=iou_sum)
