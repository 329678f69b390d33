import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrst.api import BBox, Instance, Prediction
from acrst.dataset import MIN_BOX_SIDE, ClassCdfs, ImageRecord
from acrst.model import (
    CONFUSION_FLOOR,
    PARTIAL_FLOOR,
    Detections,
    DetectorParams,
    LossBreakdown,
    batch_loss,
    detect,
    ema_update,
    smooth_l1,
    student_update,
)
from acrst.synthdata import synthetic_dataset


def params(
    recall=(0.5, 0.5),
    confusion=0.2,
    loc=0.5,
    partial=0.2,
    fp=0.5,
    sharpness=8.0,
):
    return DetectorParams(
        recall_skill=recall,
        confusion_rate=confusion,
        loc_skill=loc,
        partial_rate=partial,
        fp_rate=fp,
        confidence_sharpness=sharpness,
    )


def record(instances, width=200, height=200):
    """An image whose truth rows are those of ``instances``."""
    rows = tuple((i.class_id, i.bbox.x, i.bbox.y, i.bbox.w, i.bbox.h) for i in instances)
    return ImageRecord(id=1, width=width, height=height, truth_rows=rows)


def truth_instances(rec):
    """The truth rows of ``rec`` as instances, as the reference detector reads them."""
    return [Instance(c, BBox(x, y, w, h), rec.id) for c, x, y, w, h in rec.truth_rows]


def inst(class_id, x=50, y=50, w=40, h=40):
    return Instance(class_id=class_id, bbox=BBox(x, y, w, h), source_image_id=1)


def synth_detect(params, record, rng, class_weights=None):
    """Reference per-image detector: :func:`detect` on one image as
    predictions, its classes drawn by ``class_weights`` (uniform when omitted)."""
    k = params.n_classes
    weights = np.ones(k) if class_weights is None else np.asarray(class_weights, dtype=float)
    if weights.shape != (k,):
        raise ValueError("class_weights must have one entry per class")
    out = Detections()
    detect(params, record, rng, ClassCdfs(weights), out)
    return [Prediction(c, BBox(x, y, w, h), s) for c, x, y, w, h, s in out.rows()]


class TestParams:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            params(confusion=1.5)
        with pytest.raises(ValueError):
            params(recall=(0.5, -0.1))
        with pytest.raises(ValueError):
            params(fp=-1.0)
        with pytest.raises(ValueError):
            params(sharpness=0.0)

    def test_n_classes(self):
        assert params(recall=(0.1, 0.2, 0.3)).n_classes == 3


class TestEma:
    def test_alpha_one_keeps_teacher(self):
        t, s = params(recall=(0.8, 0.8)), params(recall=(0.2, 0.2))
        assert ema_update(t, s, alpha=1.0) == t

    def test_alpha_zero_copies_student(self):
        t, s = params(recall=(0.8, 0.8)), params(recall=(0.2, 0.2))
        assert ema_update(t, s, alpha=0.0) == s

    def test_single_step_blend(self):
        t = params(recall=(0.8, 0.6), confusion=0.3, loc=0.7, partial=0.1, fp=0.5)
        s = params(recall=(0.2, 0.4), confusion=0.1, loc=0.3, partial=0.3, fp=0.1)
        out = ema_update(t, s, alpha=0.999)
        assert math.isclose(out.recall_skill[0], 0.999 * 0.8 + 0.001 * 0.2, abs_tol=1e-12)
        assert math.isclose(out.confusion_rate, 0.999 * 0.3 + 0.001 * 0.1, abs_tol=1e-12)
        assert math.isclose(out.fp_rate, 0.999 * 0.5 + 0.001 * 0.1, abs_tol=1e-12)

    def test_geometric_approach_closed_form(self):
        # Against a fixed student, n steps give s + alpha^n (t0 - s).
        alpha = 0.9
        t = params(recall=(0.8,), confusion=0.6, loc=0.8, partial=0.6, fp=0.5)
        s = params(recall=(0.2,), confusion=0.2, loc=0.2, partial=0.2, fp=0.1)
        current = t
        for _ in range(50):
            current = ema_update(current, s, alpha)
        expected = 0.2 + alpha**50 * (0.8 - 0.2)
        assert math.isclose(current.recall_skill[0], expected, abs_tol=1e-9)
        assert math.isclose(current.loc_skill, expected, abs_tol=1e-9)

    def test_alpha_range(self):
        t = params()
        with pytest.raises(ValueError):
            ema_update(t, t, alpha=1.5)

    def test_class_count_mismatch(self):
        with pytest.raises(ValueError):
            ema_update(params(recall=(0.5,)), params(recall=(0.5, 0.5)), alpha=0.5)


class TestSynthDetect:
    def perfect(self, n_classes=2):
        return params(
            recall=(1.0,) * n_classes, confusion=0.0, loc=1.0, partial=0.0, fp=0.0
        )

    def test_noiseless_limit_reproduces_ground_truth(self):
        rec = record([inst(1), inst(2, x=120, y=120)])
        preds = synth_detect(self.perfect(), rec, np.random.default_rng(0))
        assert len(preds) == 2
        for p, g in zip(preds, truth_instances(rec)):
            assert p.class_id == g.class_id
            overlap = p.bbox.intersection(g.bbox).area
            iou = overlap / (p.bbox.area + g.bbox.area - overlap)
            assert math.isclose(iou, 1.0, abs_tol=1e-9)
            assert p.score >= 0.85

    def test_zero_skill_emits_nothing(self):
        rec = record([inst(1), inst(1)])
        p = params(recall=(0.0, 0.0), fp=0.0)
        assert synth_detect(p, rec, np.random.default_rng(0)) == []

    def test_recall_frequency_within_two_percent(self):
        rec = record([inst(1)])
        p = params(recall=(0.35, 0.5), confusion=0.0, partial=0.0, fp=0.0)
        rng = np.random.default_rng(1)
        n = 10_000
        emitted = sum(bool(synth_detect(p, rec, rng)) for _ in range(n))
        assert abs(emitted / n - 0.35) < 0.02

    def test_always_confused_never_true_class(self):
        rec = record([inst(1)])
        p = params(recall=(1.0, 1.0), confusion=1.0, partial=0.0, fp=0.0, loc=1.0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            (pred,) = synth_detect(p, rec, rng)
            assert pred.class_id == 2

    def test_single_class_cannot_confuse(self):
        rec = record([inst(1)])
        p = params(recall=(1.0,), confusion=1.0, partial=0.0, fp=0.0, loc=1.0)
        (pred,) = synth_detect(p, rec, np.random.default_rng(3))
        assert pred.class_id == 1

    def test_confusion_targets_follow_class_weights(self):
        rec = record([inst(1)])
        p = params(recall=(1.0, 1.0, 1.0), confusion=1.0, partial=0.0, fp=0.0, loc=1.0)
        rng = np.random.default_rng(4)
        weights = [0.0, 3.0, 1.0]
        hits = [0, 0, 0]
        n = 4000
        for _ in range(n):
            (pred,) = synth_detect(p, rec, rng, class_weights=weights)
            hits[pred.class_id - 1] += 1
        assert hits[0] == 0
        assert abs(hits[1] / n - 0.75) < 0.02

    def test_partial_box_area_fraction(self):
        rec = record([inst(1)])
        p = params(recall=(1.0,), confusion=0.0, partial=1.0, fp=0.0, loc=1.0)
        rng = np.random.default_rng(5)
        g = truth_instances(rec)[0].bbox
        for _ in range(200):
            (pred,) = synth_detect(p, rec, rng)
            frac = pred.bbox.area / g.area
            assert 0.4 - 1e-9 <= frac <= 0.7 + 1e-9
            # Truncation stays inside the (noise-free) original box.
            assert pred.bbox.x >= g.x - 1e-9 and pred.bbox.x2 <= g.x2 + 1e-9
            assert pred.bbox.y >= g.y - 1e-9 and pred.bbox.y2 <= g.y2 + 1e-9

    def test_false_positive_rate_and_geometry(self):
        rec = record([])
        p = params(recall=(0.0, 0.0), fp=3.0)
        rng = np.random.default_rng(6)
        counts = []
        for _ in range(2000):
            fps = synth_detect(p, rec, rng)
            counts.append(len(fps))
            for fp_pred in fps:
                b = fp_pred.bbox
                assert 0 <= b.x and b.x2 <= rec.width
                assert 0 <= b.y and b.y2 <= rec.height
                assert 0.05 * rec.width - 1e-9 <= b.w <= 0.4 * rec.width + 1e-9
                assert 0.3 <= fp_pred.score <= 0.8
        assert abs(np.mean(counts) - 3.0) < 0.1

    def test_noisy_boxes_stay_clipped(self):
        rec = record([inst(1, x=0, y=0, w=30, h=30)], width=100, height=100)
        p = params(recall=(1.0,), confusion=0.0, partial=0.0, fp=0.0, loc=0.0)
        rng = np.random.default_rng(7)
        for _ in range(300):
            for pred in synth_detect(p, rec, rng):
                b = pred.bbox
                assert b.x >= 0 and b.y >= 0
                assert b.x2 <= rec.width + 1e-9 and b.y2 <= rec.height + 1e-9

    def test_deterministic_per_seed(self):
        rec = record([inst(1), inst(2, x=120)])
        p = params()
        a = synth_detect(p, rec, np.random.default_rng(42))
        b = synth_detect(p, rec, np.random.default_rng(42))
        assert a == b

    def test_class_weights_validation(self):
        rec = record([inst(1)])
        with pytest.raises(ValueError):
            synth_detect(params(), rec, np.random.default_rng(0), class_weights=[1.0])


class TestStudentUpdate:
    def test_zero_batch_is_identity(self):
        p = params()
        assert student_update(p, [0, 0], 0, lr=0.1) == p

    def test_worked_example(self):
        p = params(recall=(0.5, 0.5), confusion=0.2, loc=0.5, partial=0.2)
        out = student_update(p, [3, 1], 2, lr=0.1)
        assert math.isclose(out.recall_skill[0], 0.5 + 0.1 * 0.75 * 0.5, abs_tol=1e-12)
        assert math.isclose(out.recall_skill[1], 0.5 + 0.1 * 0.25 * 0.5, abs_tol=1e-12)
        assert math.isclose(out.loc_skill, 0.5 + 0.1 * 0.5 * 0.5, abs_tol=1e-12)
        assert math.isclose(out.confusion_rate, 0.01 + 0.19 * 0.95, abs_tol=1e-12)
        assert math.isclose(out.partial_rate, 0.01 + 0.19 * 0.95, abs_tol=1e-12)

    def test_unexposed_class_unchanged(self):
        p = params(recall=(0.5, 0.5))
        out = student_update(p, [4, 0], 0, lr=0.2)
        assert out.recall_skill[1] == 0.5
        assert out.recall_skill[0] > 0.5

    def test_saturation_never_exceeds_one(self):
        p = params(recall=(0.99, 0.5))
        for _ in range(200):
            p = student_update(p, [50, 0], 50, lr=1.0)
        assert p.recall_skill[0] <= 1.0
        assert p.loc_skill <= 1.0

    def test_rates_decay_to_floor_not_below(self):
        p = params(confusion=0.3, partial=0.4)
        for _ in range(500):
            p = student_update(p, [10, 10], 20, lr=0.5)
        assert math.isclose(p.confusion_rate, CONFUSION_FLOOR, abs_tol=1e-9)
        assert math.isclose(p.partial_rate, PARTIAL_FLOOR, abs_tol=1e-9)
        assert p.confusion_rate >= CONFUSION_FLOOR
        assert p.partial_rate >= PARTIAL_FLOOR

    def test_more_reg_targets_better_loc(self):
        p = params(loc=0.5)
        few = student_update(p, [10, 10], 2, lr=0.1)
        many = student_update(p, [10, 10], 20, lr=0.1)
        assert many.loc_skill > few.loc_skill

    def test_fp_rate_and_sharpness_untouched(self):
        p = params(fp=0.7, sharpness=6.0)
        out = student_update(p, [5, 5], 10, lr=0.3)
        assert out.fp_rate == 0.7
        assert out.confidence_sharpness == 6.0

    def test_validation(self):
        p = params()
        with pytest.raises(ValueError):
            student_update(p, [1], 0, lr=0.1)
        with pytest.raises(ValueError):
            student_update(p, [-1, 0], 0, lr=0.1)
        with pytest.raises(ValueError):
            student_update(p, [1, 1], -1, lr=0.1)


class TestSmoothL1:
    def test_quadratic_region(self):
        assert math.isclose(smooth_l1(0.5), 0.125, abs_tol=1e-12)

    def test_linear_region(self):
        assert math.isclose(smooth_l1(2.0), 1.5, abs_tol=1e-12)
        assert math.isclose(smooth_l1(-2.0), 1.5, abs_tol=1e-12)

    def test_continuous_at_transition(self):
        eps = 1e-9
        assert abs(smooth_l1(1.0 - eps) - smooth_l1(1.0 + eps)) < 1e-6

    def test_custom_transition(self):
        assert math.isclose(smooth_l1(1.0, transition=2.0), 0.25, abs_tol=1e-12)
        assert math.isclose(smooth_l1(3.0, transition=2.0), 2.0, abs_tol=1e-12)


ZERO_LOSS = LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)


class TestLossBreakdown:
    def test_log_two_example(self):
        student = params(recall=(0.5,), confusion=0.0, loc=1.0)
        out = batch_loss(student, [[1]], budget=1, n_reg=1)
        assert math.isclose(out.rpn_cls, math.log(2), abs_tol=1e-12)
        assert math.isclose(out.roi_cls, math.log(2), abs_tol=1e-12)
        assert out.rpn_reg == 0.0
        assert math.isclose(out.total, 2 * math.log(2), abs_tol=1e-12)

    def test_perfect_targets_zero_loss(self):
        # A perfect student still pays the objectness clamp, but nothing else.
        student = params(recall=(1.0,), confusion=0.0, loc=1.0)
        out = batch_loss(student, [[1, 1]], budget=2, n_reg=2)
        assert out.roi_cls == 0.0
        assert out.rpn_reg == out.roi_reg == 0.0
        assert math.isclose(out.rpn_cls, -math.log(1.0 - 1e-4), abs_tol=1e-12)

    def test_background_uses_complement_objectness(self):
        # Zero mean recall puts background objectness at 0.02 + 0.2.
        student = params(recall=(0.0, 0.0))
        out = batch_loss(student, [[]], budget=1, n_reg=0)
        assert math.isclose(out.rpn_cls, -math.log(0.78), abs_tol=1e-12)
        assert math.isclose(out.roi_cls, -math.log(0.78), abs_tol=1e-12)

    def test_regression_mode_gating(self):
        student = params(loc=0.0)  # box residuals of 0.1 per coordinate
        expected = 4 * smooth_l1(0.1)
        assert math.isclose(batch_loss(student, [[1]], 1, 1).rpn_reg, expected)
        assert batch_loss(student, [[1]], 1, 0).rpn_reg == 0.0
        # Every target carries the same residuals, so the mean is one target's.
        assert math.isclose(batch_loss(student, [[1, 2]], 1, 1).rpn_reg, expected)

    def test_selective_at_least_cls_only(self):
        # One of the two instances pasted: selective supervision regresses
        # it, class-only supervision nothing.
        batch = [[1, 2]]
        selective = batch_loss(params(), batch, 3, 1)
        cls_only = batch_loss(params(), batch, 3, 0)
        assert selective.total >= cls_only.total
        assert selective.rpn_cls == cls_only.rpn_cls

    def test_total_composition(self):
        out = batch_loss(params(), [[1]], 2, 1)
        assert math.isclose(
            out.total, out.rpn_cls + out.rpn_reg + out.roi_cls + out.roi_reg, abs_tol=1e-12
        )
        assert out.rpn_reg == out.roi_reg

    def test_reg_averages_over_reg_pool_only(self):
        out = batch_loss(params(loc=0.0), [[1]], 3, 1)
        assert math.isclose(out.rpn_reg, 4 * smooth_l1(0.1), abs_tol=1e-12)

    def test_empty_targets(self):
        assert batch_loss(params(), [], 16, 0) == ZERO_LOSS
        assert batch_loss(params(), [[], []], 0, 0) == ZERO_LOSS

    def test_clamped_log_finite(self):
        student = params(recall=(0.0, 0.0), confusion=1.0)
        out = batch_loss(student, [[1, 2]], 2, 2)
        assert math.isfinite(out.total)


# The per-proposal loss composition that batch_loss replaces, kept verbatim
# as the oracle: one target object per proposal, summed in proposal order. It
# takes each image's instances and how many of them were pasted, and the
# regression mode that batch_loss once took in place of a count.


@dataclass(frozen=True)
class _Target:
    foreground: bool
    objectness: float
    true_class_prob: float
    box_delta: tuple[float, float, float, float] | None = None
    from_cropbank: bool = False


def _oracle_safe_log(p):
    return math.log(max(p, 1e-12))


def _oracle_image_targets(student, instances, n_pasted, budget):
    mean_recall = sum(student.recall_skill) / student.n_classes
    bg_objectness = min(0.98, 0.02 + 0.2 * (1.0 - mean_recall))
    delta = (1.0 - student.loc_skill) * 0.1
    targets = []
    for i, instance in enumerate(instances):
        skill = student.recall_skill[instance.class_id - 1]
        objectness = min(max(skill, 1e-4), 1.0 - 1e-4)
        p_true = min(max(skill * (1.0 - student.confusion_rate), 1e-4), 1.0)
        targets.append(
            _Target(
                foreground=True,
                objectness=objectness,
                true_class_prob=p_true,
                box_delta=(delta, delta, delta, delta),
                from_cropbank=i < n_pasted,
            )
        )
    n_bg = max(budget - len(targets), 0)
    if n_bg:
        bg = _Target(
            foreground=False,
            objectness=bg_objectness,
            true_class_prob=1.0 - bg_objectness,
            box_delta=None,
            from_cropbank=False,
        )
        targets.extend([bg] * n_bg)
    return targets


def _oracle_loss_breakdown(targets, mode):
    if not targets:
        return LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
    rpn_cls = 0.0
    roi_cls = 0.0
    for t in targets:
        p_fg = t.objectness if t.foreground else 1.0 - t.objectness
        rpn_cls -= _oracle_safe_log(p_fg)
        roi_cls -= _oracle_safe_log(t.true_class_prob)
    rpn_cls /= len(targets)
    roi_cls /= len(targets)
    if mode == "unsup_cls_only":
        reg_pool = []
    else:
        reg_pool = [
            t
            for t in targets
            if t.foreground
            and t.box_delta is not None
            and (mode == "supervised" or t.from_cropbank)
        ]
    if reg_pool:
        reg = sum(sum(smooth_l1(d) for d in t.box_delta) for t in reg_pool) / len(reg_pool)
    else:
        reg = 0.0
    total = rpn_cls + reg + roi_cls + reg
    return LossBreakdown(
        rpn_cls=rpn_cls, rpn_reg=reg, roi_cls=roi_cls, roi_reg=reg, total=total
    )


def _oracle_batch_loss(student, images, budget, mode):
    targets = []
    for instances, n_pasted in images:
        targets.extend(_oracle_image_targets(student, instances, n_pasted, budget))
    return _oracle_loss_breakdown(targets, mode)


def image(classes, n_pasted=0):
    """One oracle image: the class ids of its instances, the first
    ``n_pasted`` of them pasted."""
    return list(classes), n_pasted


def _n_reg(images, mode):
    """The regression count ``run_epoch`` passes for what ``mode`` meant."""
    if mode == "supervised":
        return sum(len(class_ids) for class_ids, _ in images)
    return sum(n_pasted for _, n_pasted in images) if mode == "unsup_selective" else 0


def _as_instances(images):
    """The ``(class_ids, n_pasted)`` images as ``(instances, n_pasted)``."""
    return [(tuple(inst(c) for c in class_ids), n_pasted) for class_ids, n_pasted in images]


# Edge values, plus uniform floats: np.log differs from math.log in the last
# bit on a fraction of a percent of those, so a swapped log shows up.
_rate = st.one_of(
    st.sampled_from([0.0, 1e-4, 0.5, 1.0 - 1e-4, 1.0]),
    st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).random()),
)


@st.composite
def _loss_batch(draw):
    k = draw(st.integers(1, 4))
    student = params(
        recall=tuple(draw(_rate) for _ in range(k)),
        confusion=draw(_rate),
        loc=draw(_rate),
    )
    images = [
        image(classes, draw(st.integers(0, len(classes))))
        for classes in draw(st.lists(st.lists(st.integers(1, k), max_size=8), max_size=6))
    ]
    budget = draw(st.one_of(st.integers(0, 10), st.just(512)))
    return student, images, budget


class TestBatchLossEquivalence:
    """batch_loss on class ids and a regression count equals the per-proposal
    composition on the same images' instances exactly, in every mode the
    count stands for."""

    @settings(max_examples=300, deadline=None)
    @given(batch=_loss_batch())
    @example(batch=(params(), [], 16))
    @example(batch=(params(), [image([1, 2], 1), image([])], 0))
    @example(batch=(params(), [image([1, 2, 1, 2, 1], 3)], 3))
    @example(batch=(params(recall=(1.0,), confusion=0.0, loc=1.0), [image([1, 1])], 2))
    def test_matches_per_target_oracle(self, batch):
        student, images, budget = batch
        for mode in ("supervised", "unsup_cls_only", "unsup_selective"):
            class_ids = [ids for ids, _ in images]
            got = batch_loss(student, class_ids, budget, _n_reg(images, mode))
            want = _oracle_batch_loss(student, _as_instances(images), budget, mode)
            for field in ("rpn_cls", "rpn_reg", "roi_cls", "roi_reg", "total"):
                assert getattr(got, field) == getattr(want, field), (mode, field)
                # == cannot tell 0.0 from -0.0, and the report prints both.
                assert math.copysign(1.0, getattr(got, field)) == math.copysign(
                    1.0, getattr(want, field)
                ), (mode, field)

    def test_single_proposal_log_terms_bit_for_bit(self):
        # With one proposal per batch each log term reaches the loss unsummed,
        # so a log that is off in the last bit cannot round away.
        for skill in np.random.default_rng(0).random(2000):
            student = params(recall=(float(skill),), confusion=0.0, loc=1.0)
            for ids in ([1], []):
                assert batch_loss(student, [ids], 1, len(ids)) == _oracle_batch_loss(
                    student, _as_instances([image(ids)]), 1, "supervised"
                )


def _choice_draw_weighted(rng, weights, exclude=None):
    """Reference class draw through rng.choice(p=...)."""
    w = weights.astype(float).copy()
    if exclude is not None:
        w[exclude - 1] = 0.0
    total = w.sum()
    if total <= 0.0:
        w = np.ones_like(w)
        if exclude is not None and w.size > 1:
            w[exclude - 1] = 0.0
        total = w.sum()
    return int(rng.choice(w.size, p=w / total)) + 1


@st.composite
def _weights_and_exclude(draw):
    k = draw(st.integers(1, 8))
    weights = np.array(
        draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 50.0)), min_size=k, max_size=k))
    )
    exclude = draw(st.one_of(st.none(), st.integers(1, k)))
    return weights, exclude


def _eager_class_cdfs(class_weights):
    """Reference table: every row built up front, index 0 over every class,
    index c without class c."""
    weights = np.asarray(class_weights, dtype=float)
    if (weights < 0).any():
        raise ValueError("class_weights must be non-negative")
    cdfs = []
    for exclude in range(weights.size + 1):
        w = weights.copy()
        if exclude:
            w[exclude - 1] = 0.0
        if w.sum() <= 0.0:
            w = np.ones_like(w)
            if exclude and w.size > 1:
                w[exclude - 1] = 0.0
        cdf = np.cumsum(w / w.sum())
        cdf /= cdf[-1]
        cdfs.append(cdf.tolist())
    return cdfs


def _hex_row(row):
    return [float(v).hex() for v in row]


class TestClassCdfs:
    """Rows built on first lookup equal the eager table's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=_weights_and_exclude(), order_seed=st.integers(0, 2**32 - 1))
    @example(case=(np.array([0.0]), 1), order_seed=0)
    @example(case=(np.array([1.0]), None), order_seed=0)
    @example(case=(np.array([0.0, 0.0, 0.0]), 2), order_seed=1)
    @example(case=(np.array([0.0, 5.0, 0.0]), 2), order_seed=2)
    def test_rows_match_eager_table(self, case, order_seed):
        weights, _ = case
        want = _eager_class_cdfs(weights)
        table = ClassCdfs(weights)
        assert len(table) == 0
        order = np.random.default_rng(order_seed).permutation(weights.size + 1).tolist()
        for built, exclude in enumerate(order, start=1):
            assert _hex_row(table[exclude]) == _hex_row(want[exclude])
            assert len(table) == built
            assert table[exclude] is table[exclude]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ClassCdfs([1.0, -1.0])

    def test_kept_on_the_dataset(self):
        ds = synthetic_dataset(30, 4, seed=3)
        table = ds.class_cdfs
        assert table is ds.class_cdfs
        assert len(table) == 0
        want = _eager_class_cdfs(ds.class_counts)
        assert [_hex_row(table[c]) for c in range(5)] == [_hex_row(row) for row in want]


class TestDrawWeightedEquivalence:
    """A draw from the class CDFs picks what rng.choice picked, from the same double."""

    @settings(max_examples=300, deadline=None)
    @given(
        cases=st.lists(_weights_and_exclude(), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(cases=[(np.array([0.0, 0.0, 0.0]), None), (np.array([0.0, 0.0]), 2)], seed=0)
    @example(cases=[(np.array([1.0]), 1), (np.array([1.0]), None)], seed=1)
    @example(cases=[(np.array([0.0, 3.0, 0.0, 1.0]), 2)] * 20, seed=2)
    def test_matches_choice(self, cases, seed):
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        for weights, exclude in cases:
            got = bisect_right(ClassCdfs(weights)[exclude or 0], rng_got.random()) + 1
            want = _choice_draw_weighted(rng_want, weights, exclude)
            assert got == want
        assert rng_got.random() == rng_want.random()

    def test_synth_detect_unchanged(self):
        # Confusions and background false positives draw classes by weight.
        p = params(recall=(0.9, 0.6, 0.3), confusion=0.6, fp=3.0)
        rec = record([inst(c) for c in (1, 2, 3, 1)], width=120, height=100)

        def detect_all(detector):
            rng = np.random.default_rng(11)
            preds = [detector(p, rec, rng, class_weights=(5.0, 0.0, 1.0)) for _ in range(50)]
            return [_bits(image) for image in preds], rng.random()

        def choice_detector(*args, **kwargs):
            return _oracle_synth_detect(*args, **kwargs, draw=_choice_draw_weighted)

        assert detect_all(synth_detect) == detect_all(choice_detector)


# Reference oracle: the detector as it drew before its bulk draws, one scalar
# draw per value, a CDF rebuilt per class draw and min/max clipping, kept
# verbatim. The detector must give the same predictions and leave the stream
# at the same place.


def _cdf_draw_weighted(rng, weights, exclude=None):
    w = weights.astype(float)
    if exclude is not None:
        w[exclude - 1] = 0.0
    total = w.sum()
    if total <= 0.0:
        w = np.ones_like(w)
        if exclude is not None and w.size > 1:
            w[exclude - 1] = 0.0
        total = w.sum()
    cdf = np.cumsum(w / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right")) + 1


def _oracle_clip_box(x, y, w, h, width, height):
    x1 = min(max(x, 0.0), width - 1e-3)
    y1 = min(max(y, 0.0), height - 1e-3)
    x2 = max(min(x + w, width), x1 + 1e-3)
    y2 = max(min(y + h, height), y1 + 1e-3)
    return BBox(x1, y1, x2 - x1, y2 - y1)


def _oracle_synth_detect(params, record, rng, class_weights=None, draw=_cdf_draw_weighted):
    k = params.n_classes
    if class_weights is None:
        weights = np.ones(k, dtype=float)
    else:
        weights = np.asarray(class_weights, dtype=float)
    width, height = record.width, record.height
    preds = []
    for inst in truth_instances(record):
        skill = params.recall_skill[inst.class_id - 1]
        if rng.random() >= skill:
            continue
        box = inst.bbox
        noise_scale = (1.0 - params.loc_skill) * 0.1 * min(box.w, box.h)
        dx, dy, dw, dh = rng.normal(0.0, 1.0, size=4) * noise_scale
        x, y = box.x + dx, box.y + dy
        w = max(box.w + dw, 1e-3)
        h = max(box.h + dh, 1e-3)
        if rng.random() < params.partial_rate:
            area_frac = rng.uniform(0.4, 0.7)
            frac_w = rng.uniform(area_frac, 1.0)
            frac_h = area_frac / frac_w
            new_w, new_h = w * frac_w, h * frac_h
            x = x + rng.uniform(0.0, w - new_w)
            y = y + rng.uniform(0.0, h - new_h)
            w, h = new_w, new_h
        class_id = inst.class_id
        if rng.random() < params.confusion_rate and k > 1:
            class_id = draw(rng, weights, exclude=inst.class_id)
        score_base = 1.0 / (1.0 + math.exp(-params.confidence_sharpness * (skill - 0.5)))
        score = min(1.0, max(0.0, score_base + rng.uniform(-0.1, 0.1)))
        clipped = _oracle_clip_box(x, y, w, h, width, height)
        preds.append(Prediction(class_id=class_id, bbox=clipped, score=float(score)))
    for _ in range(rng.poisson(params.fp_rate)):
        class_id = draw(rng, weights)
        w = rng.uniform(0.05, 0.4) * width
        h = rng.uniform(0.05, 0.4) * height
        x = rng.uniform(0.0, width - w)
        y = rng.uniform(0.0, height - h)
        score = float(rng.uniform(0.3, 0.8))
        preds.append(Prediction(class_id=class_id, bbox=BBox(x, y, w, h), score=score))
    return preds


def _bits(preds):
    """Each prediction's class and the exact doubles of its box and score."""
    return [
        (p.class_id, *(float(v).hex() for v in (p.bbox.x, p.bbox.y, p.bbox.w, p.bbox.h)),
         float(p.score).hex())
        for p in preds
    ]


_edge_rate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _detect_case(draw):
    k = draw(st.integers(1, 4))
    detector = params(
        recall=tuple(draw(st.one_of(st.just(1.0), _edge_rate)) for _ in range(k)),
        confusion=draw(_edge_rate),
        loc=draw(_edge_rate),
        partial=draw(_edge_rate),
        fp=draw(st.sampled_from([0.0, 0.5, 5.0, 40.0])),
        sharpness=draw(st.sampled_from([1.0, 8.0, 30.0])),
    )
    weights = draw(st.one_of(
        st.none(),
        st.just([0.0] * k),
        st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=k, max_size=k),
    ))
    width, height = draw(st.sampled_from([(200, 150), (40, 30), (640, 480)]))
    records = []
    for _ in range(draw(st.integers(1, 4))):
        instances = []
        for _ in range(draw(st.integers(0, 6))):
            # Boxes up to the full image, flush with its edges at times.
            w, h = draw(st.integers(1, width)), draw(st.integers(1, height))
            x, y = draw(st.integers(0, width - w)), draw(st.integers(0, height - h))
            instances.append(inst(draw(st.integers(1, k)), x, y, w, h))
        records.append(record(instances, width, height))
    return detector, weights, records


class TestSynthDetectEquivalence:
    """synth_detect equals the scalar-draw detector, prediction for prediction."""

    @settings(max_examples=300, deadline=None)
    @given(case=_detect_case(), seed=st.integers(0, 2**32 - 1))
    @example(
        case=(params(recall=(1.0,), confusion=1.0, loc=0.0, partial=1.0, fp=5.0), None,
              [record([inst(1, 0, 0, 200, 200), inst(1, 150, 150, 50, 50)])]),
        seed=0,
    )
    @example(
        case=(params(recall=(1.0, 1.0), confusion=1.0, loc=1.0, partial=0.0, fp=5.0), [0.0, 0.0],
              [record([inst(1), inst(2)]), record([])]),
        seed=1,
    )
    def test_matches_scalar_draws(self, case, seed):
        detector, weights, records = case
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        for rec in records:
            got = synth_detect(detector, rec, rng_got, class_weights=weights)
            want = _oracle_synth_detect(detector, rec, rng_want, class_weights=weights)
            assert _bits(got) == _bits(want)
        assert rng_got.random() == rng_want.random()

    @settings(max_examples=300, deadline=None)
    @given(case=_detect_case(), seed=st.integers(0, 2**32 - 1))
    @example(
        case=(params(recall=(1.0,), confusion=1.0, loc=0.0, partial=1.0, fp=40.0), [0.0],
              [record([inst(1, 0, 0, 200, 200), inst(1, 150, 150, 50, 50)])]),
        seed=2,
    )
    @example(
        case=(params(recall=(1.0, 1.0, 1.0), confusion=1.0, loc=0.5, partial=0.0, fp=5.0),
              [0.0, 0.0, 0.0], [record([inst(1), inst(2), inst(3)]), record([inst(2)])]),
        seed=3,
    )
    def test_columns_match_scalar_draws(self, case, seed):
        # The loop's detector: one set of class CDFs for every image, and the
        # images' rows one after another in one set of columns.
        detector, weights, records = case
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        cdfs = ClassCdfs([1.0] * detector.n_classes if weights is None else weights)
        out = Detections()
        for rec in records:
            start = len(out.score)
            detect(detector, rec, rng_got, cdfs, out)
            want = _oracle_synth_detect(detector, rec, rng_want, class_weights=weights)
            rows = [(c, *(float(v).hex() for v in values)) for c, *values in list(out.rows())[start:]]
            assert rows == _bits(want)
        assert rng_got.random() == rng_want.random()

    @settings(max_examples=300, deadline=None)
    @given(
        corner=st.tuples(*[st.sampled_from([-0.0, 0.0, -5.0, 1e-4, 39.999, 40.0, 55.5])] * 2),
        size=st.tuples(*[st.sampled_from([1e-3, 0.5, 10.0, 39.999, 40.0, 80.0])] * 2),
    )
    @example(corner=(-0.0, -0.0), size=(10.0, 10.0))
    def test_clip_matches_min_max(self, corner, size):
        # A 10x10 box at (-0.0, -0.0) with loc_skill 0 has a noise scale of
        # 1.0, so the four normals move its corner to ``corner``, signed zeros
        # included (-0.0 + -0.0 is -0.0, -0.0 + 0.0 is 0.0), and give it about
        # ``size``; the detector then clips it to the 40x30 image.
        detector = params(recall=(1.0,), confusion=0.0, loc=0.0, partial=0.0, fp=0.0)
        rec = record([inst(1, -0.0, -0.0, 10, 10)], width=40.0, height=30.0)
        normals = [corner[0], corner[1], size[0] - 10, size[1] - 10]
        out = Detections()
        detect(detector, rec, _FixedDraws(normals), ClassCdfs([1.0]), out)
        (_, *got, _), = out.rows()
        x, y = -0.0 + normals[0] * 1.0, -0.0 + normals[1] * 1.0
        assert (x.hex(), y.hex()) == (corner[0].hex(), corner[1].hex())
        w, h = max(10 + normals[2] * 1.0, 1e-3), max(10 + normals[3] * 1.0, 1e-3)
        want = _oracle_clip_box(x, y, w, h, 40.0, 30.0)
        assert _bits([Prediction(1, BBox(*got), 0.5)]) == _bits([Prediction(1, want, 0.5)])


class TestOnePass:
    """``detect`` draws per image and computes per pass: one set of columns
    over several images, read once, with other draws between the images as
    the label pass makes them, equals the scalar-draw detector image by image
    and leaves the generator where it does."""

    @settings(max_examples=300, deadline=None)
    @given(case=_detect_case(), foreign=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
    # The last truth row emitted: its doubles end the row, with no emission
    # double of a next row among them.
    @example(
        case=(params(recall=(1.0,), confusion=0.0, partial=0.0, fp=0.0), None,
              [record([inst(1), inst(1, 0, 0, 30, 20)]), record([inst(1)])]),
        foreign=2, seed=4,
    )
    # One row both partial and confused: 3 + 1, then 4, then 1 doubles.
    @example(
        case=(params(recall=(1.0, 1.0), confusion=1.0, partial=1.0, fp=0.5), [1.0, 3.0],
              [record([inst(1), inst(2, 10, 20, 60, 30)])]),
        foreign=4, seed=5,
    )
    # Every row missed: one emission double each and no normals.
    @example(
        case=(params(recall=(0.0, 0.0), fp=5.0), None,
              [record([inst(1), inst(2), inst(1)]), record([inst(2)])]),
        foreign=4, seed=6,
    )
    # An image without truth rows, then one with: no emission double first.
    @example(
        case=(params(recall=(1.0,), confusion=0.0, partial=0.5, fp=0.0), None,
              [record([]), record([inst(1), inst(1, 100, 100, 80, 90)])]),
        foreign=1, seed=7,
    )
    def test_pass_matches_scalar_draws(self, case, foreign, seed):
        detector, weights, records = case
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        cdfs = ClassCdfs([1.0] * detector.n_classes if weights is None else weights)
        out, want = Detections(), []
        for rec in records:
            detect(detector, rec, rng_got, cdfs, out)
            rng_got.random(foreign)
            want.append(_oracle_synth_detect(detector, rec, rng_want, class_weights=weights))
            rng_want.random(foreign)
        rows = iter([(c, *(float(v).hex() for v in values)) for c, *values in out.rows()])
        assert [list(islice(rows, n)) for n in out.counts] == [_bits(preds) for preds in want]
        assert next(rows, None) is None
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


class _CountingDraws:
    """A generator that counts the calls of each draw method it passes on."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), Counter()

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return draw(*args, **kwargs)

        return counted


class TestDrawCalls:
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_one_uniform_call_per_row(self, n):
        # Every row emitted, none partial or confused, no false positives: the
        # image's first emission double, then per row four normals in one call
        # and its partial, confusion and score doubles with the next row's
        # emission double in another; the scalar path made 4n uniform calls.
        exact = params(recall=(1.0,), confusion=0.0, partial=0.0, fp=0.0)
        rng = _CountingDraws(0)
        out = Detections()
        detect(exact, record([inst(1)] * n), rng, ClassCdfs([1.0]), out)
        assert rng.calls == {"random": n + 1, "standard_normal": n, "poisson": 1}
        assert out.counts == [n]


class TestTruthRows:
    """``detect`` reads a record's ground truth from its (class, x, y, w, h) rows."""

    def test_synthetic_and_fractional_records(self):
        # A detector without noise, misses or confusion emits each truth row.
        perfect = params(recall=(1.0,) * 5, confusion=0.0, loc=1.0, partial=0.0, fp=0.0)
        records = [*synthetic_dataset(30, 5, seed=2).images,
                   record([inst(1, 20, 15, 313.2, 235.6), inst(2, 0.5, 0, 3, 0.25)], 333.3, 250.7)]
        for rec in records:
            out = Detections()
            detect(perfect, rec, np.random.default_rng(0), ClassCdfs([1.0] * 5), out)
            assert out.counts == [len(rec.truth_rows)] and rec.truth_rows
            for (c, *box, _), (want_c, *want_box) in zip(out.rows(), rec.truth_rows):
                assert c == want_c
                assert box == pytest.approx(want_box, rel=1e-12, abs=1e-12)


class _FixedDraws:
    """A generator stand-in: the given standard normals, every double 0.0, no
    Poisson events."""

    def __init__(self, normals):
        self.normals = normals

    def standard_normal(self, n):
        return np.array(self.normals[:n])

    def random(self, n=None):
        return 0.0 if n is None else np.zeros(n)

    def poisson(self, lam):
        return 0


@st.composite
def _fractional_case(draw):
    """A detector and one image with fractional sides, its boxes inside it."""
    detector = params(
        recall=(1.0,),
        confusion=0.0,
        loc=draw(_edge_rate),
        partial=draw(_edge_rate),
        fp=draw(st.sampled_from([0.0, 5.0, 40.0])),
    )
    width, height = draw(st.floats(1.0, 1000.0)), draw(st.floats(1.0, 1000.0))
    instances = []
    for _ in range(draw(st.integers(0, 6))):
        x, y = width * draw(st.floats(0.0, 0.99)), height * draw(st.floats(0.0, 0.99))
        # At least the smallest side an ImageRecord holds; width - x is 0.01 px or more.
        w = max((width - x) * draw(st.floats(0.01, 1.0)), MIN_BOX_SIDE)
        h = max((height - y) * draw(st.floats(0.01, 1.0)), MIN_BOX_SIDE)
        if x + w <= width and y + h <= height:
            instances.append(inst(1, x, y, w, h))
    return detector, record(instances, width, height)


class TestDetectBounds:
    """Every row ``detect`` writes is a positive box inside the image, up to
    one ulp past the right and bottom edges: ``x1 + (x2 - x1)`` need not round
    back to x2, and a false positive's ``(width - w) * u + w`` need not stay
    at width."""

    @settings(max_examples=300, deadline=None)
    @given(case=_fractional_case(), seed=st.integers(0, 2**32 - 1))
    # The fractional-size corpus whose pasted images exited 1 when the loop
    # re-checked these boxes against the image.
    @example(
        case=(params(recall=(1.0,), confusion=0.0, loc=0.0, partial=0.0, fp=0.0),
              record([inst(1, 20, 15, 313.2, 235.6)], 333.3, 250.7)),
        seed=0,
    )
    def test_rows_stay_inside_the_image(self, case, seed):
        detector, rec = case
        rng = np.random.default_rng(seed)
        out = Detections()
        for _ in range(20):
            detect(detector, rec, rng, ClassCdfs([1.0]), out)
        x_max = math.nextafter(rec.width, math.inf)
        y_max = math.nextafter(rec.height, math.inf)
        for _, x, y, w, h, _ in out.rows():
            assert x >= 0 and y >= 0 and w > 0 and h > 0
            assert x + w <= x_max and y + h <= y_max
