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

# Per emitted truth row: its 5 fields, 4 normals, class emitted, score base and double.
_ROW_FIELDS = 12


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
    """Detector output over a sequence of images: the columns class_id, x, y,
    w, h and score, one row per box, one image's rows after another's, and
    ``counts``, each image's number of rows; ``table`` holds the columns as
    one (x, y, w, h, class, score) float array. :func:`detect` records only
    draws: reading a column computes every row recorded since the last read.
    """

    def __init__(self) -> None:
        self.counts: list[int] = []
        self._table = np.empty((6, 0))
        # The draws since the last read, flat. Per image: width, height, noise
        # scale per px of the shorter side, emitted truth rows, false positives;
        # per truth row its _ROW_FIELDS; per partial box its row and 4 doubles;
        # per false positive its class and 5 doubles.
        self._images, self._rows, self._partial, self._fps = [], [], [], []

    @property
    def table(self) -> np.ndarray:
        if self._images:
            self._table = np.concatenate((self._table, self._arithmetic()), axis=1)
            self._images, self._rows, self._partial, self._fps = [], [], [], []
        return self._table

    class_id = property(lambda self: self.table[4].astype(np.intp))
    x, y, w, h, score = (property(lambda self, i=i: self.table[i]) for i in (0, 1, 2, 3, 5))

    def rows(self) -> Iterator[tuple[int, float, float, float, float, float]]:
        """(class, x, y, w, h, score) of each row."""
        return zip(self.class_id.tolist(), *self.table[:4].tolist(), self.score.tolist())

    def _arithmetic(self) -> np.ndarray:
        """The table columns of the rows recorded since the last read, in one
        numpy pass. Each ``a if cond else b`` of the per-row detector became
        ``np.where(cond, a, b)``, so NaN and signed zeros come out as they did.
        """
        images = np.array(self._images).reshape(-1, 5).T
        n_rows, n_fp = images[3:].astype(np.intp)
        rows = np.array(self._rows, dtype=float).reshape(-1, _ROW_FIELDS).T
        corner, size, normals, (cls, base, u_score) = rows[1:3], rows[3:5], rows[5:9], rows[9:]
        noise = np.repeat(images[2], n_rows) * np.where(size[0] <= size[1], size[0], size[1])
        corner, size = corner + normals[:2] * noise, size + normals[2:] * noise
        size = np.where(size >= MIN_BOX_SIDE, size, MIN_BOX_SIDE)
        at, u_area, u_w, *u_corner = np.array(self._partial).reshape(-1, 5).T
        at = at.astype(np.intp)
        area_frac = 0.4 + (0.7 - 0.4) * u_area
        frac_w = area_frac + (1.0 - area_frac) * u_w
        part_size = size[:, at] * (frac_w, area_frac / frac_w)
        corner[:, at] += (size[:, at] - part_size) * u_corner
        size[:, at] = part_size
        score = base + (-0.1 + (0.1 - (-0.1)) * u_score)
        score = np.where(score > 0.0, score, 0.0)
        score = np.where(score < 1.0, score, 1.0)
        # Clipped to the image with a minimal positive extent.
        side = np.repeat(images[:2], n_rows, axis=1)
        lo = np.where(corner >= 0.0, corner, 0.0)
        lo = np.where(side - MIN_BOX_SIDE < lo, side - MIN_BOX_SIDE, lo)
        hi = np.where(corner + size <= side, corner + size, side)
        hi = np.where(lo + MIN_BOX_SIDE > hi, lo + MIN_BOX_SIDE, hi)
        # A false positive's class, then its w, h, x, y and score doubles.
        fp = np.array(self._fps).reshape(-1, 6).T
        fp_side = np.repeat(images[:2], n_fp, axis=1)
        fp_size = (0.05 + (0.4 - 0.05) * fp[1:3]) * fp_side
        fp_corner, fp_score = (fp_side - fp_size) * fp[3:5], 0.3 + (0.8 - 0.3) * fp[5]
        # Each image's truth rows, then its false positives.
        key = np.repeat(np.tile(np.arange(len(n_rows)), 2), np.concatenate((n_rows, n_fp)))
        return np.concatenate((np.vstack((lo, hi - lo, cls, score)),
                               np.vstack((fp_corner, fp_size, fp[0], fp_score))),
                              axis=1)[:, np.argsort(key, kind="stable")]


def detect(
    params: DetectorParams,
    record: ImageRecord,
    rng: np.random.Generator,
    cdfs: ClassCdfs,
    out: Detections,
) -> None:
    """Simulate detector output on one image from its hidden ground truth,
    appending the image's draws and its number of rows to ``out``.

    Each ground-truth row ``(class_id, x, y, w, h)`` of class k is emitted
    with probability recall_skill[k], perturbed by zero-mean noise with
    per-coordinate scale (1 - loc_skill) * 0.1 * min(w, h), truncated with
    probability partial_rate to a random sub-rectangle covering 40-70% of its
    area, and flipped to a frequency-weighted wrong class with probability
    confusion_rate. Scores follow a logistic in the true class's skill plus
    uniform +-0.1 noise, clamped to [0, 1]. Poisson(fp_rate) background false
    positives get frequency-weighted classes and scores uniform in [0.3, 0.8].
    Boxes are clipped to the image. ``cdfs`` are the :class:`ClassCdfs` that
    confusion targets and false-positive classes are drawn by.

    The stream is the one a scalar draw per value took: per emitted row four
    normals, then partial, [4 box], confusion, [class] and score doubles,
    then the next row's emission double. PCG64 makes ``random(n)`` the doubles
    of n ``random()`` calls, so a row takes those it is sure to draw before
    its next normal in one call: 3, plus 1 when a row follows; then 4 once the
    partial double fires, and 1 once the confusion double fires among two or
    more classes. The first emission double, and one after a missed row, take
    a call each; false positives take ``poisson``, then six doubles each in
    one call.
    """
    recall, score_bases, confuses = params.recall_skill, params.score_bases, params.n_classes > 1
    partial_rate, confusion_rate = params.partial_rate, params.confusion_rate
    random, standard_normal = rng.random, rng.standard_normal
    truth, rows, partial = record.truth_rows, out._rows, out._partial
    n_before, last = len(rows), len(truth) - 1
    u = random() if truth else 0.0
    for j, row in enumerate(truth):
        true_class = row[0]
        if u >= recall[true_class - 1]:
            if j < last:
                u = random()
            continue
        rows += row
        rows += standard_normal(4).tolist()
        d = random(4 if j < last else 3).tolist()  # the row's doubles, in stream order
        at = 1  # where the confusion double lies in d
        if d[0] < partial_rate:
            d += random(4).tolist()
            partial += (len(rows) // _ROW_FIELDS, *d[1:5])
            at = 5
        cls = true_class
        if d[at] < confusion_rate and confuses:
            d.append(random())
            at += 1
            cls = bisect_right(cdfs[true_class], d[at]) + 1
        rows += (cls, score_bases[true_class - 1], d[at + 1])
        u = d[-1]
    n_rows = (len(rows) - n_before) // _ROW_FIELDS
    n_fp = rng.poisson(params.fp_rate)
    if n_fp:
        draws = random(6 * n_fp).tolist()
        draws[::6] = [bisect_right(cdfs[0], v) + 1 for v in draws[::6]]
        out._fps += draws
    out._images += (record.width, record.height, (1.0 - params.loc_skill) * 0.1, n_rows, n_fp)
    out.counts.append(n_rows + n_fp)


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
