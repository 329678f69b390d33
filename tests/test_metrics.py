import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrst.api import BBox, Instance, Prediction
from acrst.metrics import (
    AP_THRESHOLDS,
    RECALL_POINTS,
    _greedy,
    _interpolated_aps,
    class_kld,
    evaluate,
    fg_ratio,
)


def gt(class_id, x, y, w, h):
    return Instance(class_id=class_id, bbox=BBox(x, y, w, h), source_image_id=1)


def pred(class_id, x, y, w, h, score):
    return Prediction(class_id=class_id, bbox=BBox(x, y, w, h), score=score)


def evaluate_images(raw_by_image, keep_by_image, gts_by_image, match_iou):
    """:func:`evaluate` of per-image predictions, keep masks and ground truths."""
    preds = [(p.bbox.x, p.bbox.y, p.bbox.w, p.bbox.h, p.class_id, p.score)
             for raw in raw_by_image for p in raw]
    truths = [(t.bbox.x, t.bbox.y, t.bbox.w, t.bbox.h, t.class_id)
              for gts in gts_by_image for t in gts]
    return evaluate(
        np.array(preds, dtype=float).reshape(-1, 6).T,
        [len(raw) for raw in raw_by_image],
        np.array([k for keep in keep_by_image for k in keep], dtype=bool),
        np.array(truths, dtype=float).reshape(-1, 5).T,
        [len(gts) for gts in gts_by_image],
        match_iou,
    )


def match(preds, gts, match_iou):
    """Evaluation of one image whose predictions are all kept."""
    return evaluate_images([preds], [[True] * len(preds)], [gts], match_iou)


def pair_iou(a, b):
    """IoU of two same-class boxes, which match at any positive threshold."""
    return match([Prediction(1, a, 0.9)], [Instance(1, b, 1)], 1e-12).iou_sum


def ap(preds_by_image, gts_by_image):
    """Evaluation of the raw predictions only, for their APs."""
    keep = [[False] * len(preds) for preds in preds_by_image]
    return evaluate_images(preds_by_image, keep, gts_by_image, 0.5)


class TestIou:
    def test_one_seventh(self):
        # Two 2x2 boxes overlapping in a unit square: 1 / (4 + 4 - 1).
        a = BBox(0, 0, 2, 2)
        b = BBox(1, 1, 2, 2)
        assert math.isclose(pair_iou(a, b), 1 / 7, abs_tol=1e-12)

    def test_identity(self):
        a = BBox(3, 4, 5, 6)
        assert pair_iou(a, a) == 1.0

    def test_disjoint(self):
        assert match([pred(1, 0, 0, 1, 1, 0.9)], [gt(1, 5, 5, 1, 1)], 1e-12).matched == 0

    def test_touching(self):
        assert match([pred(1, 0, 0, 2, 2, 0.9)], [gt(1, 2, 0, 2, 2)], 1e-12).matched == 0

    def test_symmetric(self):
        a = BBox(0, 0, 4, 4)
        b = BBox(2, 1, 5, 2)
        assert pair_iou(a, b) == pair_iou(b, a)


class TestMatching:
    def test_high_score_claims_best_gt(self):
        gts = [gt(1, 0, 0, 10, 10), gt(1, 100, 0, 10, 10)]
        preds = [
            pred(1, 1, 0, 10, 10, score=0.5),
            pred(1, 0, 0, 10, 10, score=0.9),
        ]
        # The 0.9 prediction matches first and takes gt 0 exactly; the 0.5
        # one, which would have matched it, is left over.
        result = match(preds, gts, 0.5)
        assert (result.matched, result.iou_sum) == (1, 1.0)

    def test_class_aware_blocks_cross_class(self):
        gts = [gt(2, 0, 0, 10, 10)]
        preds = [pred(1, 0, 0, 10, 10, score=0.9)]
        assert match(preds, gts, 0.5).matched == 0
        assert match(preds, [gt(1, 0, 0, 10, 10)], 0.5).matched == 1

    def test_one_to_one(self):
        gts = [gt(1, 0, 0, 10, 10)]
        preds = [pred(1, 0, 0, 10, 10, 0.9), pred(1, 1, 1, 10, 10, 0.8)]
        result = match(preds, gts, 0.3)
        assert (result.matched, result.iou_sum) == (1, 1.0)

    def test_iou_tie_takes_lower_gt_index(self):
        # The first prediction is at IoU 0.5 with both halves of its box. It
        # claims the lower index, the top half, which leaves the bottom half
        # to the second prediction, an exact copy of it.
        gts = [gt(1, 0, 0, 10, 5), gt(1, 0, 5, 10, 5)]
        preds = [pred(1, 0, 0, 10, 10, 0.9), pred(1, 0, 5, 10, 5, 0.8)]
        result = match(preds, gts, 0.5)
        assert (result.matched, result.iou_sum) == (2, 1.5)
        # Swapping the halves leaves the copy's ground truth claimed.
        result = match(preds, gts[::-1], 0.5)
        assert (result.matched, result.iou_sum) == (1, 0.5)

    def test_score_tie_takes_lower_pred_index(self):
        gts = [gt(1, 0, 0, 10, 10)]
        exact, short = pred(1, 0, 0, 10, 10, 0.7), pred(1, 0, 0, 10, 8, 0.7)
        assert match([exact, short], gts, 0.5).iou_sum == 1.0
        assert match([short, exact], gts, 0.5).iou_sum == 0.8

    def test_below_threshold_not_matched(self):
        gts = [gt(1, 0, 0, 2, 2)]
        preds = [pred(1, 1, 1, 2, 2, 0.9)]
        assert match(preds, gts, 0.5).matched == 0
        assert match(preds, gts, 1 / 7).matched == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            evaluate_images([], [], [], 0.0)
        with pytest.raises(ValueError):
            evaluate_images([], [], [], 1.1)


class TestPseudoQuality:
    def test_two_thirds_accuracy_half_recall(self):
        gts = [
            gt(1, 0, 0, 10, 10),
            gt(1, 20, 0, 10, 10),
            gt(2, 40, 0, 10, 10),
            gt(3, 60, 0, 10, 10),
        ]
        preds = [
            pred(1, 0, 0, 10, 10, 0.9),
            pred(1, 20, 0, 10, 10, 0.8),
            pred(2, 80, 0, 10, 10, 0.7),
        ]
        # 2 of 3 kept predictions match, and 2 of 4 ground truths.
        assert match(preds, gts, 0.5).matched == 2


class TestFgRatio:
    def test_value(self):
        assert fg_ratio(32, 224) == 0.125

    def test_all_foreground(self):
        assert fg_ratio(10, 0) == 1.0

    def test_zero_total(self):
        with pytest.raises(ValueError):
            fg_ratio(0, 0)

    def test_negative(self):
        with pytest.raises(ValueError):
            fg_ratio(-1, 5)


class TestClassKld:
    def test_worked_example(self):
        # (0.25, 0.75) against (0.5, 0.5): 0.25 ln(1/2) + 0.75 ln(3/2).
        value = class_kld([10, 30], [20, 20])
        expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert math.isclose(value, expected, abs_tol=1e-4)
        assert math.isclose(value, 0.130812, abs_tol=1e-4)

    def test_identical_distributions_zero(self):
        assert class_kld([5, 5, 10], [10, 10, 20]) < 1e-9

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = rng.integers(0, 50, size=4)
            q = rng.integers(0, 50, size=4)
            if q.sum() == 0:
                continue
            assert class_kld(p, q) >= -1e-12

    def test_empty_class_is_finite(self):
        assert math.isfinite(class_kld([0, 10], [5, 5]))

    def test_validation(self):
        with pytest.raises(ValueError):
            class_kld([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            class_kld([1, 2], [0, 0])
        with pytest.raises(ValueError):
            class_kld([1, 2], [1, 2], epsilon=0.0)


class TestBoxMiou:
    def test_mean_over_matched_pairs(self):
        gts = [gt(1, 0, 0, 10, 10), gt(1, 20, 0, 10, 10)]
        preds = [
            pred(1, 0, 0, 10, 10, 0.9),
            pred(1, 20, 0, 10, 8, 0.8),
        ]
        result = match(preds, gts, 0.5)
        assert math.isclose(result.iou_sum / result.matched, (1.0 + 0.8) / 2, abs_tol=1e-12)

    def test_no_matches_reports_zero(self):
        for preds in ([], [pred(1, 50, 50, 5, 5, 0.9)]):
            result = match(preds, [gt(1, 0, 0, 5, 5)], 0.5)
            assert (result.matched, result.iou_sum) == (0, 0.0)


class TestAveragePrecision:
    def test_perfect_detection(self):
        gts = [[gt(1, 0, 0, 10, 10)]]
        preds = [[pred(1, 0, 0, 10, 10, 0.9)]]
        assert ap(preds, gts).ap50 == 1.0

    def test_half_recall_is_near_half(self):
        gts = [[gt(1, 0, 0, 10, 10), gt(1, 20, 0, 10, 10)]]
        preds = [[pred(1, 0, 0, 10, 10, 0.9)]]
        ap50 = ap(preds, gts).ap50
        assert math.isclose(ap50, 51 / 101, abs_tol=1e-12)
        assert abs(ap50 - 0.5) < 0.01

    def test_tp_fp_tp_envelope(self):
        # Ranked TP, FP, TP over two ground truths: envelope gives
        # 51 points at precision 1 and 50 at 2/3.
        gts = [[gt(1, 0, 0, 10, 10), gt(1, 20, 0, 10, 10)]]
        preds = [
            [
                pred(1, 0, 0, 10, 10, 0.9),
                pred(1, 50, 0, 10, 10, 0.8),
                pred(1, 20, 0, 10, 10, 0.7),
            ]
        ]
        expected = (51 * 1.0 + 50 * (2 / 3)) / 101
        assert math.isclose(ap(preds, gts).ap50, expected, abs_tol=1e-12)

    def test_no_ground_truth_is_zero(self):
        zeros = (0.0,) * len(AP_THRESHOLDS)
        assert ap([[pred(1, 0, 0, 5, 5, 0.9)]], [[]]).aps == zeros
        assert ap([], []).aps == zeros

    def test_pooled_across_images(self):
        # Splitting the same predictions across images changes nothing when
        # boxes stay disjoint per image.
        g1, g2 = gt(1, 0, 0, 10, 10), gt(1, 20, 0, 10, 10)
        p1 = pred(1, 0, 0, 10, 10, 0.9)
        p2 = pred(1, 50, 0, 10, 10, 0.8)
        pooled = ap([[p1, p2]], [[g1, g2]]).ap50
        split = ap([[p1], [p2]], [[g1], [g2]]).ap50
        assert math.isclose(pooled, split, abs_tol=1e-12)

    def test_order_invariance_within_image(self):
        rng = np.random.default_rng(4)
        gts = [[gt(1, 0, 0, 10, 10), gt(2, 20, 0, 10, 10), gt(1, 40, 0, 10, 10)]]
        base = [
            pred(1, 1, 0, 10, 10, 0.9),
            pred(2, 20, 0, 10, 10, 0.6),
            pred(1, 40, 2, 10, 10, 0.8),
            pred(2, 70, 0, 10, 10, 0.4),
        ]
        reference = ap([base], gts).ap50
        for _ in range(10):
            shuffled = list(base)
            rng.shuffle(shuffled)
            assert math.isclose(ap([shuffled], gts).ap50, reference, abs_tol=1e-12)

    def test_misaligned_image_lists(self):
        with pytest.raises(ValueError):
            evaluate_images([[]], [[]], [], 0.5)


class TestAp5095:
    def test_perfect_is_one(self):
        gts = [[gt(1, 0, 0, 10, 10)]]
        preds = [[pred(1, 0, 0, 10, 10, 0.9)]]
        assert ap(preds, gts).ap5095 == 1.0

    def test_iou_point_eight_passes_seven_thresholds(self):
        # A single pair at IoU exactly 0.8 counts at 0.50 through 0.80.
        gts = [[gt(1, 0, 0, 10, 10)]]
        preds = [[pred(1, 0, 0, 10, 8, 0.9)]]
        result = ap(preds, gts)
        assert result.aps == (1.0,) * 7 + (0.0,) * 3
        assert math.isclose(result.ap5095, 0.7, abs_tol=1e-12)

    def test_tighter_boxes_score_higher(self):
        gts = [[gt(1, 0, 0, 10, 10)]]
        loose = [[pred(1, 0, 0, 10, 6, 0.9)]]
        tight = [[pred(1, 0, 0, 10, 9, 0.9)]]
        assert ap(tight, gts).ap5095 > ap(loose, gts).ap5095


# Reference oracle: the per-threshold matching and AP that the one-pass
# evaluator replaced, kept verbatim so the evaluator can be held to it exactly.


def _ref_iou(a, b):
    inter = a.intersection(b)
    if inter is None:
        return 0.0
    overlap = inter.area
    return overlap / (a.area + b.area - overlap)


def _ref_match(preds, gts, iou_thr):
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    claimed = [False] * len(gts)
    pairs = []
    for pi in order:
        pred = preds[pi]
        best_gi = -1
        best_iou = 0.0
        for gi, g in enumerate(gts):
            if claimed[gi] or g.class_id != pred.class_id:
                continue
            overlap = _ref_iou(pred.bbox, g.bbox)
            if overlap >= iou_thr and overlap > best_iou:
                best_gi, best_iou = gi, overlap
        if best_gi >= 0:
            claimed[best_gi] = True
            pairs.append((pi, best_gi, best_iou))
    return pairs


def _ref_average_precision(preds_by_image, gts_by_image, iou_thr):
    rows = []
    n_gt = 0
    for preds, gts in zip(preds_by_image, gts_by_image):
        n_gt += len(gts)
        matched = {pi for pi, _, _ in _ref_match(preds, gts, iou_thr)}
        rows.extend((p.score, i in matched) for i, p in enumerate(preds))
    if n_gt == 0 or not rows:
        return 0.0
    rows.sort(key=lambda r: -r[0])
    tp = np.cumsum([r[1] for r in rows])
    fp = np.cumsum([not r[1] for r in rows])
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    sample_points = np.linspace(0.0, 1.0, 101)
    indices = np.searchsorted(recall, sample_points, side="left")
    sampled = np.where(indices < len(envelope), envelope[np.minimum(indices, len(envelope) - 1)], 0.0)
    return float(sampled.mean())


def _ref_ap_50_95(preds_by_image, gts_by_image):
    thresholds = [0.5 + 0.05 * i for i in range(10)]
    return float(
        np.mean([_ref_average_precision(preds_by_image, gts_by_image, t) for t in thresholds])
    )


# Coordinates on a coarse grid, scaled by a step that is either exact (whole
# numbers) or not (tenths and thirds), so scenes hold duplicate boxes,
# edge-touching boxes and exactly representable IoUs as well as rounded ones.
_step = st.sampled_from([1, 0.1, 1 / 3, 2.5])
_corner = st.integers(0, 12)
_side = st.integers(1, 10)
_score = st.sampled_from([0.0, 0.3, 0.5, 0.5, 0.7, 0.9, 1.0])


@st.composite
def _image(draw):
    step = draw(_step)

    def box():
        return BBox(draw(_corner) * step, draw(_corner) * step,
                    draw(_side) * step, draw(_side) * step)

    def jittered(b):
        # A near miss of a ground truth box: IoUs that are neither 0 nor 1.
        dx, dy, dw, dh = (draw(st.integers(-1, 1)) * step for _ in range(4))
        return BBox(b.x + dx, b.y + dy, max(b.w + dw, step), max(b.h + dh, step))

    classes = st.integers(1, 2)
    gts = [Instance(draw(classes), box(), 1) for _ in range(draw(st.integers(0, 6)))]
    preds = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["copy", "jitter", "free"]) if gts else st.just("free"))
        if kind == "free":
            preds.append(Prediction(draw(classes), box(), draw(_score)))
            continue
        # Copies give equal IoUs against duplicates; jitters give rounded ones.
        source = draw(st.sampled_from(gts))
        bbox = source.bbox if kind == "copy" else jittered(source.bbox)
        preds.append(Prediction(source.class_id, bbox, draw(_score)))
    return preds, [draw(st.booleans()) for _ in preds], gts


_HALF_IOU_SCENE = (
    # A 10x5 box on a 10x10 box at the same origin: IoU exactly 0.5, plus
    # two equal-score duplicates and an edge-touching neighbour.
    [[Prediction(1, BBox(0, 0, 10, 5), 0.9), Prediction(1, BBox(0, 0, 10, 10), 0.7),
      Prediction(1, BBox(0, 0, 10, 10), 0.7), Prediction(1, BBox(10, 0, 10, 10), 0.7)]],
    [[Instance(1, BBox(0, 0, 10, 10), 1), Instance(1, BBox(0, 0, 10, 10), 1),
      Instance(1, BBox(20, 0, 10, 10), 1)]],
)


class TestOnePassEquivalence:
    """The evaluator equals per-threshold matching exactly, not approximately."""

    @settings(max_examples=300, deadline=None)
    @given(
        scene=st.lists(_image(), max_size=4),
        match_iou=st.sampled_from([0.5, 0.3, 0.75, 1.0, 1 / 7]),
    )
    @example(
        scene=[(_HALF_IOU_SCENE[0][0], [True, True, False, False], _HALF_IOU_SCENE[1][0])],
        match_iou=0.5,
    )
    def test_matches_the_per_threshold_oracle(self, scene, match_iou):
        raw = [s[0] for s in scene]
        keep = [s[1] for s in scene]
        gts = [s[2] for s in scene]
        result = evaluate_images(raw, keep, gts, match_iou)

        expected_aps = tuple(_ref_average_precision(raw, gts, t) for t in AP_THRESHOLDS)
        assert result.aps == expected_aps
        assert result.ap50 == _ref_average_precision(raw, gts, 0.5)
        assert result.ap5095 == _ref_ap_50_95(raw, gts)

        matched = 0
        iou_sum = 0.0
        for preds, k, g in zip(raw, keep, gts):
            pairs = _ref_match([p for p, kept in zip(preds, k) if kept], g, match_iou)
            matched += len(pairs)
            iou_sum += sum(v for _, _, v in pairs)
        assert result.matched == matched
        assert result.iou_sum == iou_sum

    def test_half_iou_scene(self):
        raw, gts = _HALF_IOU_SCENE
        assert pair_iou(raw[0][0].bbox, gts[0][0].bbox) == 0.5
        # At 0.5 the 10x5 box claims ground truth 0 (the lower of two equal
        # IoUs), the first duplicate takes ground truth 1, and the touching
        # box matches nothing. At 0.55 both duplicates match exactly.
        assert _ref_match(raw[0], gts[0], 0.5) == [(0, 0, 0.5), (1, 1, 1.0)]
        assert _ref_match(raw[0], gts[0], 0.55) == [(1, 0, 1.0), (2, 1, 1.0)]
        for match_iou, expected in ((0.5, (2, 1.5)), (0.55, (2, 2.0))):
            result = match(raw[0], gts[0], match_iou)
            assert (result.matched, result.iou_sum) == expected

    def test_rows_must_match_the_counts(self):
        preds = np.array([[0.0], [0.0], [10.0], [10.0], [1.0], [0.9]])
        truths = np.array([[0.0], [0.0], [10.0], [10.0], [1.0]])
        assert evaluate(preds, [1], [True], truths, [1], 0.5).matched == 1
        for p_count, kept, g_count in (([2], [True], [1]), ([1], [True, False], [1]),
                                       ([1], [True], [0]), ([1, 0], [True], [1])):
            with pytest.raises(ValueError):
                evaluate(preds, p_count, kept, truths, g_count, 0.5)
        with pytest.raises(ValueError):
            evaluate(preds, [1], [True], truths, [1], 0.0)


# Reference oracle: the per-image evaluator that the one-pass IoU evaluator
# replaced, kept verbatim but for its IoU matrix, which is rebuilt from the
# box objects here. Every image goes through the greedy matcher, and every
# threshold's AP through the per-threshold AP that the batched AP replaced.


def _interpolated_ap(ranked_hits, n_gt):
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


def _per_image_iou_matrix(preds, gts):
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


def _per_image_evaluate(raw_by_image, keep_by_image, gts_by_image, match_iou):
    scores, hits = [], []
    matched = 0
    iou_sum = 0.0
    for raw, keep, gts in zip(raw_by_image, keep_by_image, gts_by_image):
        ious = _per_image_iou_matrix(raw, gts)
        scores.append(np.array([p.score for p in raw], dtype=float))
        hits.append(_greedy(ious, scores[-1], AP_THRESHOLDS)[1] >= 0)
        rows = np.flatnonzero(np.array(keep, dtype=bool))
        kept_ious = ious[rows]
        order, claims = _greedy(kept_ious, scores[-1][rows], (match_iou,))
        pairs = order[claims[0, order] >= 0]
        matched += len(pairs)
        iou_sum += sum(kept_ious[pairs, claims[0, pairs]].tolist())
    n_gt = sum(len(gts) for gts in gts_by_image)
    if n_gt == 0 or not any(len(s) for s in scores):
        aps = (0.0,) * len(AP_THRESHOLDS)
    else:
        ranked = np.concatenate(hits, axis=1)[:, np.argsort(-np.concatenate(scores), kind="stable")]
        aps = tuple(_interpolated_ap(row, n_gt) for row in ranked)
    return aps, matched, iou_sum


@st.composite
def _crowded_image(draw):
    """An image of few classes and many overlaps: duplicated ground truths,
    copied, jittered and class-confused predictions, and repeated scores."""
    step = draw(_step)

    def box():
        return BBox(draw(st.integers(0, 6)) * step, draw(st.integers(0, 6)) * step,
                    draw(st.integers(2, 8)) * step, draw(st.integers(2, 8)) * step)

    classes = st.integers(1, 3)
    gts = []
    for _ in range(draw(st.integers(0, 7))):
        if gts and draw(st.booleans()):
            gts.append(draw(st.sampled_from(gts)))  # a duplicate ground truth
        else:
            gts.append(Instance(draw(classes), box(), 1))
    preds = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["copy", "jitter", "confused", "free"]) if gts
                    else st.just("free"))
        if kind == "free":
            preds.append(Prediction(draw(classes), box(), draw(_score)))
            continue
        source = draw(st.sampled_from(gts))
        bbox = source.bbox
        if kind == "jitter":
            dx, dy, dw, dh = (draw(st.integers(-1, 1)) * step for _ in range(4))
            bbox = BBox(bbox.x + dx, bbox.y + dy, max(bbox.w + dw, step), max(bbox.h + dh, step))
        class_id = draw(classes) if kind == "confused" else source.class_id
        preds.append(Prediction(class_id, bbox, draw(_score)))
    return preds, [draw(st.booleans()) for _ in preds], gts


class TestPerImageEquivalence:
    """The one-pass IoU evaluator equals the per-image evaluator exactly."""

    @settings(max_examples=400, deadline=None)
    @given(
        scene=st.lists(st.one_of(_crowded_image(), _image()), max_size=6),
        match_iou=st.sampled_from([0.3, 0.5, 1.0]),
    )
    @example(
        scene=[(_HALF_IOU_SCENE[0][0], [True, True, False, False], _HALF_IOU_SCENE[1][0])],
        match_iou=0.5,
    )
    @example(scene=[([], [], [gt(1, 0, 0, 4, 4)]),
                    ([pred(1, 0, 0, 4, 4, 0.5)] * 2, [False, False], [])],
             match_iou=0.3)
    def test_matches_the_per_image_evaluator(self, scene, match_iou):
        raw = [s[0] for s in scene]
        keep = [s[1] for s in scene]
        gts = [s[2] for s in scene]
        result = evaluate_images(raw, keep, gts, match_iou)
        aps, matched, iou_sum = _per_image_evaluate(raw, keep, gts, match_iou)
        assert result.aps == aps
        assert result.matched == matched
        assert result.iou_sum == iou_sum

    def test_greedy_runs_on_contested_images_only(self, monkeypatch):
        calls = []

        def counted(ious, scores, thresholds):
            calls.append(ious.shape)
            return _greedy(ious, scores, thresholds)

        monkeypatch.setattr("acrst.metrics._greedy", counted)
        lone = ([pred(1, 0, 0, 10, 10, 0.9)], [gt(1, 0, 0, 10, 10), gt(2, 0, 0, 10, 10)])
        # Two predictions over one ground truth: both clear 0.5 against it.
        crowded = ([pred(1, 0, 0, 10, 10, 0.9), pred(1, 0, 0, 10, 9, 0.8)], [gt(1, 0, 0, 10, 10)])
        result = evaluate_images([lone[0], crowded[0]], [[True], [True, True]],
                                 [lone[1], crowded[1]], 0.5)
        # The crowded image is matched at the AP thresholds, then at match_iou.
        assert calls == [(2, 1), (2, 1)]
        assert (result.matched, result.iou_sum) == (2, 2.0)
        calls.clear()
        evaluate_images([lone[0]], [[True]], [lone[1]], 0.5)
        assert calls == []


def _hex(values):
    return [float(v).hex() for v in values]


@st.composite
def _hit_rows(draw):
    """(rows of true-positive flags, ground-truth count): 1 to 12 rows of one
    length, each row's flags free or all equal."""
    n = draw(st.integers(1, 40))
    row = st.one_of(
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.booleans().map(lambda flag: [flag] * n),
    )
    rows = np.array(draw(st.lists(row, min_size=1, max_size=12)), dtype=bool)
    return rows, draw(st.integers(max(1, int(rows.sum(axis=1).max())), n + 5))


class TestBatchedAp:
    """Every row's AP from the one 2-D pass equals the per-threshold AP, bit
    for bit."""

    def test_recall_points(self):
        assert RECALL_POINTS.tolist() == np.linspace(0.0, 1.0, 101).tolist()

    @settings(max_examples=400, deadline=None)
    @given(case=_hit_rows())
    @example(case=(np.zeros((10, 7), dtype=bool), 3))  # no hits
    @example(case=(np.ones((10, 7), dtype=bool), 7))  # all hits
    @example(case=(np.ones((10, 7), dtype=bool), 9))  # all hits, recall short of 1
    @example(case=(np.array([[True]] * 5 + [[False]] * 5), 1))  # a single prediction
    @example(case=(np.array([[False], [True]]), 4))
    def test_matches_per_threshold_ap(self, case):
        rows, n_gt = case
        got = _interpolated_aps(rows, n_gt)
        assert _hex(got) == _hex(_interpolated_ap(row, n_gt) for row in rows)

    @pytest.mark.parametrize("score", [0.0, 0.5, 1.0])
    def test_tied_scores_through_evaluate(self, score):
        # Every score ties, so the stable sort keeps the prediction order.
        # Prediction 1 sits one pixel off its ground truth (IoU 9/11), a hit
        # at the low thresholds only; three predictions and two ground truths
        # match nothing.
        gts = [gt(1, 20 * i, 0, 10, 10) for i in range(6)]
        preds = [pred(1, 20 * i + i % 2, 0, 10, 10, score) for i in range(5)]
        preds += [pred(2, 0, 0, 10, 10, score), pred(1, 200, 0, 5, 5, score)]
        raw, keep = [preds[:4], preds[4:]], [[True] * 4, [False] * 3]
        got = evaluate_images(raw, keep, [gts[:3], gts[3:]], 0.5)
        aps, _, _ = _per_image_evaluate(raw, keep, [gts[:3], gts[3:]], 0.5)
        assert _hex(got.aps) == _hex(aps)
        assert 0.0 < got.ap50 < 1.0 and got.aps[-1] < got.ap50
