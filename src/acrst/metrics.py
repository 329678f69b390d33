"""Detection metrics: IoU, greedy matching, pseudo-label quality, distribution
divergence and average precision.

Matching runs on one IoU matrix per image and serves every threshold from it:
:func:`evaluate` scores a whole epoch's evaluation in one pass per image.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import BBox, Instance, Prediction

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching predictions against ground truth on one image.

    ``pairs`` holds (prediction index, ground-truth index, IoU) triples; each
    index appears at most once across the result.
    """

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_preds: tuple[int, ...]
    unmatched_gts: tuple[int, ...]


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes."""
    inter = a.intersection(b)
    if inter is None:
        return 0.0
    overlap = inter.area
    return overlap / (a.area + b.area - overlap)


# IoU thresholds of AP50:95, in this order; index 0 is AP50.
AP_THRESHOLDS = tuple(0.5 + 0.05 * i for i in range(10))


def _check_thresholds(thresholds: Sequence[float]) -> None:
    for thr in thresholds:
        if not 0.0 < thr <= 1.0:
            raise ValueError(f"iou threshold must be in (0, 1], got {thr}")


def _scores(preds: Sequence[Prediction]) -> np.ndarray:
    return np.array([p.score for p in preds], dtype=float)


def _iou_matrix(
    preds: Sequence[Prediction], gts: Sequence[Instance], class_aware: bool = True
) -> np.ndarray:
    """IoU of every prediction (row) with every ground truth (column).

    The float operations are those of :func:`iou`, so each entry equals it bit
    for bit. With ``class_aware``, pairs of different classes are 0, which no
    threshold in (0, 1] matches.
    """
    if not preds or not gts:
        return np.zeros((len(preds), len(gts)))
    p = np.array([(q.bbox.x, q.bbox.y, q.bbox.w, q.bbox.h, q.class_id) for q in preds], dtype=float)
    g = np.array([(t.bbox.x, t.bbox.y, t.bbox.w, t.bbox.h, t.class_id) for t in gts], dtype=float)
    px, py, pw, ph, pc = p.T[:, :, None]
    gx, gy, gw, gh, gc = g.T[:, None, :]
    iw = np.minimum(px + pw, gx + gw) - np.maximum(px, gx)
    ih = np.minimum(py + ph, gy + gh) - np.maximum(py, gy)
    overlaps = (iw > 0) & (ih > 0)
    if class_aware:
        overlaps &= pc == gc
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


def match_greedy(
    preds: Sequence[Prediction],
    gts: Sequence[Instance],
    iou_thr: float,
    class_aware: bool = True,
) -> MatchResult:
    """Greedy one-to-one matching in descending score order.

    Each prediction claims the unclaimed ground truth with the highest IoU at
    or above the threshold (same class when ``class_aware``). Ties are broken
    deterministically: equal scores by prediction index, equal IoUs by lower
    ground-truth index.
    """
    _check_thresholds((iou_thr,))
    ious = _iou_matrix(preds, gts, class_aware)
    order, claims = _greedy(ious, _scores(preds), (iou_thr,))
    claim = claims[0].tolist()
    return MatchResult(
        pairs=tuple(
            (pi, claim[pi], float(ious[pi, claim[pi]])) for pi in order.tolist() if claim[pi] >= 0
        ),
        unmatched_preds=tuple(pi for pi, gi in enumerate(claim) if gi < 0),
        unmatched_gts=tuple(gi for gi in range(len(gts)) if gi not in claim),
    )


def pseudo_quality(
    preds: Sequence[Prediction],
    gts: Sequence[Instance],
    iou_thr: float = 0.5,
) -> tuple[float, float]:
    """(accuracy, recall) of predictions under class-aware matching.

    Accuracy is the matched share of predictions, recall the matched share of
    ground truths. Both degenerate vacuously to 1.0 when their denominator is
    empty.
    """
    result = match_greedy(preds, gts, iou_thr, class_aware=True)
    accuracy = len(result.pairs) / len(preds) if preds else 1.0
    recall = len(result.pairs) / len(gts) if gts else 1.0
    return accuracy, recall


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


def box_miou(
    preds: Sequence[Prediction],
    gts: Sequence[Instance],
    iou_thr: float = 0.5,
) -> float:
    """Mean IoU over matched prediction/ground-truth pairs.

    Returns 0.0 (logged) when nothing matches, so callers can tell the
    degenerate case apart only by the match count.
    """
    result = match_greedy(preds, gts, iou_thr, class_aware=True)
    if not result.pairs:
        log.debug("box_miou: no matched pairs, reporting 0.0")
        return 0.0
    return sum(v for _, _, v in result.pairs) / len(result.pairs)


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


def _average_precisions(
    preds_by_image: Sequence[Sequence[Prediction]],
    gts_by_image: Sequence[Sequence[Instance]],
    thresholds: Sequence[float],
) -> tuple[list[float], list[np.ndarray], list[np.ndarray]]:
    """AP at each threshold, plus each image's IoU matrix and scores.

    Each image is matched at every threshold in one pass. Rows are pooled in
    image order, then prediction order, and ranked by a stable sort on
    descending score.
    """
    if len(preds_by_image) != len(gts_by_image):
        raise ValueError("prediction and ground-truth image lists must align")
    _check_thresholds(thresholds)
    ious, scores, hits = [], [], []
    for preds, gts in zip(preds_by_image, gts_by_image):
        ious.append(_iou_matrix(preds, gts))
        scores.append(_scores(preds))
        hits.append(_greedy(ious[-1], scores[-1], thresholds)[1] >= 0)
    n_gt = sum(len(gts) for gts in gts_by_image)
    if n_gt == 0 or not any(len(s) for s in scores):
        return [0.0] * len(thresholds), ious, scores
    ranked = np.concatenate(hits, axis=1)[:, np.argsort(-np.concatenate(scores), kind="stable")]
    return [_interpolated_ap(row, n_gt) for row in ranked], ious, scores


def average_precision(
    preds_by_image: Sequence[Sequence[Prediction]],
    gts_by_image: Sequence[Sequence[Instance]],
    iou_thr: float,
) -> float:
    """101-point interpolated average precision at one IoU threshold.

    Predictions are pooled over images and ranked by score; true positives
    come from per-image class-aware greedy matching. Returns 0.0 when there
    are no ground truths.
    """
    return _average_precisions(preds_by_image, gts_by_image, (iou_thr,))[0][0]


def ap_50_95(
    preds_by_image: Sequence[Sequence[Prediction]],
    gts_by_image: Sequence[Sequence[Instance]],
) -> float:
    """Mean average precision over IoU thresholds 0.50, 0.55, ..., 0.95."""
    return float(np.mean(_average_precisions(preds_by_image, gts_by_image, AP_THRESHOLDS)[0]))


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

    Each image's class-aware IoU matrix is computed once. Greedy matching at
    all of :data:`AP_THRESHOLDS` runs on it in one pass, and the kept
    predictions, a subset of the raw ones, are matched at ``match_iou`` from
    its rows. The results equal :func:`average_precision` at each threshold
    and :func:`match_greedy` on the kept predictions.
    """
    if len(kept_by_image) != len(raw_by_image):
        raise ValueError("raw and kept prediction image lists must align")
    _check_thresholds((match_iou,))
    aps, ious_by_image, scores_by_image = _average_precisions(
        raw_by_image, gts_by_image, AP_THRESHOLDS
    )
    matched = 0
    iou_sum = 0.0
    for raw, kept, ious, scores in zip(raw_by_image, kept_by_image, ious_by_image, scores_by_image):
        rows = _positions(kept, raw)
        kept_ious = ious[rows]
        order, claims = _greedy(kept_ious, scores[rows], (match_iou,))
        pairs = order[claims[0, order] >= 0]
        matched += len(pairs)
        # Per-image sums in claim order, then their total: the float additions
        # that box_miou in report.json has always been computed with.
        iou_sum += sum(kept_ious[pairs, claims[0, pairs]].tolist())
    return Evaluation(aps=tuple(aps), matched=matched, iou_sum=iou_sum)
