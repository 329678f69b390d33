"""Parametric synthetic detector and its teacher-student update rules.

There is no network here: a small parameter vector stands in for detector
weights. Detection quality is simulated directly from those parameters
(per-class recall, localization noise, class confusion, partial boxes,
background false positives), training improves them through saturating
updates, and the teacher tracks the student by exponential moving average.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .dataset import MIN_BOX_SIDE, ClassCdfs, ImageRecord

# Decay floors: confusion and partial-box rates never fall below these.
CONFUSION_FLOOR = 0.01
PARTIAL_FLOOR = 0.01

_LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class DetectorParams:
    """Snapshot of detector skill.

    recall_skill: per-class detection probability in [0, 1].
    confusion_rate: chance an emitted box carries a wrong class.
    loc_skill: localization quality in [0, 1]; 1 means exact boxes.
    partial_rate: chance an emitted box is truncated to a sub-rectangle.
    fp_rate: expected background false positives per image.
    confidence_sharpness: slope of the skill-to-score logistic.
    """

    recall_skill: tuple[float, ...]
    confusion_rate: float
    loc_skill: float
    partial_rate: float
    fp_rate: float
    confidence_sharpness: float

    def __post_init__(self) -> None:
        if not self.recall_skill:
            raise ValueError("recall_skill needs at least one class")
        for name in ("confusion_rate", "loc_skill", "partial_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if any(not 0.0 <= s <= 1.0 for s in self.recall_skill):
            raise ValueError("recall_skill values must be in [0, 1]")
        if self.fp_rate < 0.0:
            raise ValueError(f"fp_rate must be non-negative, got {self.fp_rate}")
        if self.confidence_sharpness <= 0.0:
            raise ValueError("confidence_sharpness must be positive")

    @property
    def n_classes(self) -> int:
        return len(self.recall_skill)

    @cached_property
    def score_bases(self) -> tuple[float, ...]:
        """Per class, the logistic in skill that detection scores center on."""
        s = self.confidence_sharpness
        return tuple(1.0 / (1.0 + math.exp(-s * (skill - 0.5))) for skill in self.recall_skill)


@dataclass(frozen=True)
class LossBreakdown:
    """The four detector loss terms and their sum."""

    rpn_cls: float
    rpn_reg: float
    roi_cls: float
    roi_reg: float
    total: float


def ema_update(
    teacher: DetectorParams, student: DetectorParams, alpha: float
) -> DetectorParams:
    """Blend every parameter: alpha * teacher + (1 - alpha) * student."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if teacher.n_classes != student.n_classes:
        raise ValueError("teacher and student must cover the same classes")

    def blend(t: float, s: float) -> float:
        return alpha * t + (1.0 - alpha) * s

    recall = tuple(
        min(1.0, max(0.0, blend(t, s)))
        for t, s in zip(teacher.recall_skill, student.recall_skill)
    )
    return DetectorParams(
        recall_skill=recall,
        confusion_rate=min(1.0, max(0.0, blend(teacher.confusion_rate, student.confusion_rate))),
        loc_skill=min(1.0, max(0.0, blend(teacher.loc_skill, student.loc_skill))),
        partial_rate=min(1.0, max(0.0, blend(teacher.partial_rate, student.partial_rate))),
        fp_rate=max(0.0, blend(teacher.fp_rate, student.fp_rate)),
        confidence_sharpness=max(
            1e-9, blend(teacher.confidence_sharpness, student.confidence_sharpness)
        ),
    )


class Detections:
    """Detector output as the columns class_id, x, y, w, h and score: one list
    each, one row per box, one image's rows after another's. ``counts`` holds
    each image's number of rows."""

    def __init__(self) -> None:
        self.class_id, self.x, self.y, self.w, self.h, self.score = ([] for _ in range(6))
        self.counts: list[int] = []

    def rows(self) -> Iterator[tuple[int, float, float, float, float, float]]:
        """(class, x, y, w, h, score) of each row."""
        return zip(self.class_id, self.x, self.y, self.w, self.h, self.score)


def detect(
    params: DetectorParams,
    record: ImageRecord,
    rng: np.random.Generator,
    cdfs: ClassCdfs,
    out: Detections,
) -> None:
    """Simulate detector output on one image from its hidden ground truth.

    Appends one row per box, and their number, to ``out``. Each ground-truth
    row ``(class_id, x, y, w, h)`` of ``record.truth_rows`` of class k is
    emitted with probability recall_skill[k]. Emitted boxes are perturbed by
    zero-mean noise with per-coordinate scale (1 - loc_skill) * 0.1 * min(w, h),
    truncated with probability partial_rate to a random sub-rectangle covering
    40-70% of the instance area, and flipped to a frequency-weighted wrong
    class with probability confusion_rate. Scores follow a logistic in the
    true class's skill plus uniform +-0.1 noise, clamped to [0, 1].
    Poisson(fp_rate) background false positives are added with
    frequency-weighted classes and scores uniform in [0.3, 0.8], all of the
    image's drawn in one call, six doubles each. Boxes are clipped to the image.

    ``cdfs`` are the :class:`ClassCdfs` of the class frequencies that
    confusion targets and false-positive classes are drawn by.
    """
    recall, score_bases = params.recall_skill, params.score_bases
    confuses, min_side = len(recall) > 1, MIN_BOX_SIDE
    partial_rate, confusion_rate = params.partial_rate, params.confusion_rate
    loc_scale = (1.0 - params.loc_skill) * 0.1
    width, height = record.width, record.height
    x1_max, y1_max = width - MIN_BOX_SIDE, height - MIN_BOX_SIDE
    random, standard_normal = rng.random, rng.standard_normal
    add_class, add_x, add_y = out.class_id.append, out.x.append, out.y.append
    add_w, add_h, add_score = out.w.append, out.h.append, out.score.append
    n_before = len(out.score)
    # The doubles come in the order one scalar draw each took them, and
    # ``lo + (hi - lo) * u`` is what ``Generator.uniform(lo, hi)`` makes of one.
    for true_class, box_x, box_y, box_w, box_h in record.truth_rows:
        if random() >= recall[true_class - 1]:
            continue
        noise_scale = loc_scale * (box_w if box_w <= box_h else box_h)
        dx, dy, dw, dh = standard_normal(4).tolist()
        x, y = box_x + dx * noise_scale, box_y + dy * noise_scale
        w, h = box_w + dw * noise_scale, box_h + dh * noise_scale
        w = w if w >= min_side else min_side
        h = h if h >= min_side else min_side
        if random() < partial_rate:
            u_area, u_w, u_x, u_y = random(4).tolist()
            area_frac = 0.4 + (0.7 - 0.4) * u_area
            frac_w = area_frac + (1.0 - area_frac) * u_w
            frac_h = area_frac / frac_w
            new_w, new_h = w * frac_w, h * frac_h
            x, y, w, h = x + (w - new_w) * u_x, y + (h - new_h) * u_y, new_w, new_h
        if random() < confusion_rate and confuses:
            add_class(bisect_right(cdfs[true_class], random()) + 1)
        else:
            add_class(true_class)
        score = score_bases[true_class - 1] + (-0.1 + (0.1 - (-0.1)) * random())
        score = score if score > 0.0 else 0.0
        add_score(score if score < 1.0 else 1.0)
        # Clipped to the image with a minimal positive extent; min/max as comparisons.
        x1 = x if x >= 0.0 else 0.0
        x1 = x1_max if x1_max < x1 else x1
        y1 = y if y >= 0.0 else 0.0
        y1 = y1_max if y1_max < y1 else y1
        x2 = x + w if x + w <= width else width
        x2 = x1 + min_side if x1 + min_side > x2 else x2
        y2 = y + h if y + h <= height else height
        y2 = y1 + min_side if y1 + min_side > y2 else y2
        add_x(x1)
        add_y(y1)
        add_w(x2 - x1)
        add_h(y2 - y1)

    background = cdfs[0]
    # Six doubles per false positive, all drawn in one call: class, box, score.
    n_fp = rng.poisson(params.fp_rate)
    if n_fp:
        draws = iter(random(6 * n_fp).tolist())
        for u_class, u_w, u_h, u_x, u_y, u_score in zip(*[draws] * 6):
            add_class(bisect_right(background, u_class) + 1)
            w = (0.05 + (0.4 - 0.05) * u_w) * width
            h = (0.05 + (0.4 - 0.05) * u_h) * height
            add_x((width - w) * u_x)
            add_y((height - h) * u_y)
            add_w(w)
            add_h(h)
            add_score(0.3 + (0.8 - 0.3) * u_score)
    out.counts.append(len(out.score) - n_before)


def student_update(
    params: DetectorParams,
    batch_class_exposure: Sequence[int],
    batch_reg_targets: int,
    lr: float,
) -> DetectorParams:
    """Saturating skill update from one batch.

    Per-class recall moves toward 1 in proportion to the class's share of
    batch instances. Localization moves toward 1 with the share of instances
    that carried regression supervision, and the confusion and partial-box
    rates decay toward their floors by the same signal. Zero exposure and
    zero regression targets leave the parameters unchanged.
    """
    exposure = np.asarray(batch_class_exposure, dtype=float)
    if exposure.shape != (params.n_classes,):
        raise ValueError("exposure vector must have one entry per class")
    if (exposure < 0).any():
        raise ValueError("exposure counts must be non-negative")
    if batch_reg_targets < 0:
        raise ValueError("regression target count must be non-negative")

    total = exposure.sum()
    share = exposure / max(1.0, total)
    recall = tuple(
        min(1.0, s + lr * e * (1.0 - s))
        for s, e in zip(params.recall_skill, share)
    )
    reg_signal = batch_reg_targets / max(1.0, total)
    loc = min(1.0, params.loc_skill + lr * reg_signal * (1.0 - params.loc_skill))
    decay = 1.0 - lr * reg_signal
    confusion = CONFUSION_FLOOR + max(0.0, params.confusion_rate - CONFUSION_FLOOR) * decay
    partial = PARTIAL_FLOOR + max(0.0, params.partial_rate - PARTIAL_FLOOR) * decay
    return DetectorParams(
        recall_skill=recall,
        confusion_rate=min(1.0, max(0.0, confusion)),
        loc_skill=max(0.0, loc),
        partial_rate=min(1.0, max(0.0, partial)),
        fp_rate=params.fp_rate,
        confidence_sharpness=params.confidence_sharpness,
    )


def smooth_l1(x: float, transition: float = 1.0) -> float:
    """Huber-style penalty: quadratic below the transition, linear above."""
    ax = abs(x)
    if ax < transition:
        return 0.5 * x * x / transition
    return ax - 0.5 * transition


def _safe_log(p: float) -> float:
    return math.log(max(p, _LOG_CLAMP))


def batch_loss(
    params: DetectorParams,
    images: Sequence[Sequence[int]],
    budget: int,
    n_reg: int,
) -> LossBreakdown:
    """Compose the four detector loss terms for one batch of images.

    ``images`` holds each image's class ids, one per instance. Each image
    contributes one foreground proposal per instance, in order, then
    ``max(budget - n_instances, 0)`` background proposals. Foreground scores
    reflect the student's current skill on the instance's class, so losses
    fall as it improves.

    rpn_cls is binary cross-entropy of objectness against the fg/bg
    assignment; roi_cls is cross-entropy of the assigned class (background
    for background proposals). Regression terms average smooth-L1 over the
    box residuals of the ``n_reg`` foreground proposals that carry regression
    targets; the caller decides which those are. Every proposal of a class
    scores alike, so each distinct log term is taken once per batch and the
    per-proposal terms are summed in proposal order.
    """
    k = params.n_classes
    term_index: list[int] = []  # a class id, or k + 1 for the background term
    repeats: list[int] = []
    for class_ids in images:
        term_index.extend(class_ids)
        repeats.extend([1] * len(class_ids))
        term_index.append(k + 1)
        repeats.append(max(budget - len(class_ids), 0))
    n_targets = sum(repeats)
    if not n_targets:
        return LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)

    mean_recall = sum(params.recall_skill) / k
    bg_objectness = min(0.98, 0.02 + 0.2 * (1.0 - mean_recall))
    bg_log = _safe_log(1.0 - bg_objectness)
    objectness_logs = []
    class_logs = []
    for skill in params.recall_skill:
        objectness_logs.append(_safe_log(min(max(skill, 1e-4), 1.0 - 1e-4)))
        class_logs.append(
            _safe_log(min(max(skill * (1.0 - params.confusion_rate), 1e-4), 1.0))
        )
    term_index_arr = np.asarray(term_index, dtype=np.intp) - 1
    repeats_arr = np.asarray(repeats, dtype=np.intp)

    def mean_nll(class_terms: list[float]) -> float:
        table = np.asarray(class_terms + [bg_log], dtype=float)
        per_target = np.repeat(table[term_index_arr], repeats_arr)
        # cumsum adds left to right, as a Python loop over the proposals
        # would; np.sum adds pairwise and rounds differently. Subtracting
        # from 0.0 keeps an all-zero sum at +0.0, as that loop did.
        return (0.0 - float(np.cumsum(per_target)[-1])) / n_targets

    rpn_cls = mean_nll(objectness_logs)
    roi_cls = mean_nll(class_logs)

    if n_reg:
        delta = (1.0 - params.loc_skill) * 0.1
        per_target = sum(smooth_l1(d) for d in (delta, delta, delta, delta))
        reg = sum([per_target] * n_reg) / n_reg
    else:
        reg = 0.0
    total = rpn_cls + reg + roi_cls + reg
    return LossBreakdown(
        rpn_cls=rpn_cls, rpn_reg=reg, roi_cls=roi_cls, roi_reg=reg, total=total
    )
