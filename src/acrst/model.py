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
from typing import Callable, Sequence

import numpy as np

from .dataset import MIN_BOX_SIDE, ClassCdfs, Dataset

# Decay floors: confusion and partial-box rates never fall below these.
CONFUSION_FLOOR = 0.01
PARTIAL_FLOOR = 0.01


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
    """The output of detector ``params`` over images of ``dataset``, classes
    drawn by ``cdfs``: one row per box, image after image, and ``counts``, each
    image's number of rows. The recorder that :func:`detect` binds to it once
    per pass records only draws: per image its index and numbers of rows and
    false positives; per emitted truth row its index into
    ``dataset.truth_columns``, the class it emitted, its score double, and its
    four normals, in place in an array that doubles when full.

    Once the pass is recorded, the first read computes a group of columns:
    ``labels`` (class, score) or ``boxes`` (x, y, w, h), in one row order; a
    pass read for classes and scores alone computes no box. ``class_id`` and
    ``score`` are the labels' rows, ``table`` the (x, y, w, h, class, score) rows.
    """

    def __init__(self, dataset: Dataset, params: DetectorParams, cdfs: ClassCdfs) -> None:
        self.dataset, self.params, self.cdfs = dataset, params, cdfs
        self._normals = np.empty((64, 4))
        # The pass's draws, flat: 3 values per image, 3 per truth row, a row
        # and 4 doubles per partial box; 6 doubles per false positive.
        self._images, self._rows, self._partial, self._fps = [], [], [], []

    @cached_property
    def _draws(self) -> tuple[np.ndarray, ...]:
        """The draws as arrays, and the order that puts each image's truth
        rows, then its false positives, in place."""
        image, n_rows, n_fp = np.array(self._images, dtype=np.intp).reshape(-1, 3).T
        truth, cls, u_score = np.array(self._rows, dtype=float).reshape(-1, 3).T
        fp = np.concatenate((np.empty(0), *self._fps)).reshape(-1, 6).T
        key = np.repeat(np.arange(2 * len(n_rows)) % len(n_rows), np.concatenate((n_rows, n_fp)))
        order = np.argsort(key, kind="stable")
        return self.dataset.image_sizes[:, image], n_rows, n_fp, truth.astype(np.intp), cls, u_score, fp, order

    @cached_property
    def labels(self) -> np.ndarray:
        """The (class, score) rows. Each ``a if cond else b`` of the per-row
        detector became ``np.where(cond, a, b)``, here and in :attr:`boxes`,
        so NaN and signed zeros come out as they did."""
        _, _, _, truth, cls, u_score, fp, order = self._draws
        true_class = self.dataset.truth_columns[0][4, truth].astype(np.intp)
        base = np.array(self.params.score_bases)[true_class - 1]
        score = base + (-0.1 + (0.1 - (-0.1)) * u_score)
        score = np.where(score > 0.0, score, 0.0)
        score = np.where(score < 1.0, score, 1.0)
        # A false positive's class double comes first of its six, its score's last.
        fp_cls = np.searchsorted(self.cdfs[0], fp[0], side="right") + 1
        fp_score = 0.3 + (0.8 - 0.3) * fp[5]
        return np.concatenate(((cls, score), (fp_cls, fp_score)), axis=1).take(order, axis=1)

    @cached_property
    def boxes(self) -> np.ndarray:
        """The (x, y, w, h) rows."""
        sides, n_rows, n_fp, truth, _, _, fp, order = self._draws
        columns = self.dataset.truth_columns[0][:4, truth]
        corner, size = columns[:2], columns[2:]
        normals = self._normals[:len(truth)].T
        noise = (1.0 - self.params.loc_skill) * 0.1 * np.where(size[0] <= size[1], size[0], size[1])
        corner, size = corner + normals[:2] * noise, size + normals[2:] * noise
        size = np.where(size >= MIN_BOX_SIDE, size, MIN_BOX_SIDE)
        at, u_area, u_w, *u_corner = np.array(self._partial, dtype=float).reshape(-1, 5).T
        at = at.astype(np.intp)
        area_frac = 0.4 + (0.7 - 0.4) * u_area
        frac_w = area_frac + (1.0 - area_frac) * u_w
        part_size = size[:, at] * (frac_w, area_frac / frac_w)
        corner[:, at] += (size[:, at] - part_size) * u_corner
        size[:, at] = part_size
        # Clipped to the image with a minimal positive extent.
        side = np.repeat(sides, n_rows, axis=1)
        lo = np.where(corner >= 0.0, corner, 0.0)
        lo = np.where(side - MIN_BOX_SIDE < lo, side - MIN_BOX_SIDE, lo)
        hi = np.where(corner + size <= side, corner + size, side)
        hi = np.where(lo + MIN_BOX_SIDE > hi, lo + MIN_BOX_SIDE, hi)
        # A false positive's w, h, x and y doubles follow its class double.
        fp_side = np.repeat(sides, n_fp, axis=1)
        fp_size = (0.05 + (0.4 - 0.05) * fp[1:3]) * fp_side
        fp_corner = (fp_side - fp_size) * fp[3:5]
        return np.concatenate((np.concatenate((lo, hi - lo)), np.concatenate((fp_corner, fp_size))),
                              axis=1).take(order, axis=1)

    table = property(lambda self: np.concatenate((self.boxes, self.labels)))
    class_id = cached_property(lambda self: self.labels[0].astype(np.intp))
    counts = cached_property(lambda self: (self._draws[1] + self._draws[2]).tolist())
    score = property(lambda self: self.labels[1])


def detect(out: Detections, rng: np.random.Generator) -> Callable[[int], None]:
    """A recorder, bound once per pass, whose call ``record(image)`` simulates
    ``out.params``' output on ``out.dataset.images[image]`` from its hidden
    ground truth, appending the image's index, numbers of rows and false
    positives, and its draws to ``out``, which must not have been read, since
    its columns are computed once; the loop records each pass into a new one.

    Each ground-truth row ``(class_id, x, y, w, h)`` of class k is emitted
    with probability recall_skill[k], perturbed by zero-mean noise with
    per-coordinate scale (1 - loc_skill) * 0.1 * min(w, h), truncated with
    probability partial_rate to a random sub-rectangle covering 40-70% of its
    area, and flipped to a frequency-weighted wrong class with probability
    confusion_rate. Scores follow a logistic in the true class's skill plus
    uniform +-0.1 noise, clamped to [0, 1]. Poisson(fp_rate) background false
    positives get frequency-weighted classes and scores uniform in [0.3, 0.8].
    Boxes are clipped to the image. Confusion targets and false-positive
    classes are drawn by ``out.cdfs``.

    The stream is the one a scalar draw per value took: per emitted row four
    normals, then partial, [4 box], confusion, [class] and score doubles,
    then the next row's emission double. PCG64 makes ``random(n)`` the doubles
    of n ``random()`` calls, so a row takes those it is sure to draw before
    its next normal in one call: 3, plus 1 when a row follows; then 4 once the
    partial double fires, and 1 once the confusion double fires among two or
    more classes. The first emission double, and one after a missed row, take
    a call each; false positives take ``poisson``, then six doubles each in
    one call. A row draws into fixed buffers and keeps copies of its doubles.
    """
    params, cdfs, dataset = out.params, out.cdfs, out.dataset
    recall = (0.0, *params.recall_skill)  # by class id
    confuses, fp_rate = params.n_classes > 1, params.fp_rate
    partial_rate, confusion_rate = params.partial_rate, params.confusion_rate
    random, standard_normal, poisson = rng.random, rng.standard_normal, rng.poisson
    images, offsets = dataset.images, dataset.truth_columns[2]
    rows, partial, per_image, fps = out._rows, out._partial, out._images, out._fps
    three, four, box = np.empty(3), np.empty(4), np.empty(4)

    def record(image: int) -> None:
        img, first, normals = images[image], offsets[image], out._normals
        truth = img.truth_rows
        n = n_before = len(rows) // 3
        cap = len(normals)
        last = first + len(truth) - 1
        u = random() if truth else 0.0
        for t, row in enumerate(truth, first):
            true_class = row[0]
            if u >= recall[true_class]:
                if t < last:
                    u = random()
                continue
            if n == cap:  # full: double it
                normals = out._normals = np.concatenate((normals, np.empty_like(normals)))
                cap += cap
            standard_normal(out=normals[n])
            buffer = four if t < last else three
            random(out=buffer)
            d = buffer.tolist()  # the row's doubles, in stream order
            at = 1  # where the confusion double lies in d
            if d[0] < partial_rate:
                random(out=box)
                d += box.tolist()
                partial.extend((n, *d[1:5]))
                at = 5
            cls = true_class
            if d[at] < confusion_rate and confuses:
                d.append(random())
                at += 1
                cls = bisect_right(cdfs[true_class], d[at]) + 1
            rows.extend((t, cls, d[at + 1]))
            n += 1
            u = d[-1]
        n_fp = poisson(fp_rate)
        if n_fp:
            fps.append(random(6 * n_fp))
        per_image.extend((image, n - n_before, n_fp))

    return record


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
    rates decay toward their floors by the same signal. The exposure holds one
    count per class, none negative; zero exposure and zero regression targets
    change nothing.

    Every parameter comes back a plain float, the value numpy computes: the
    recorder :func:`detect` binds tests them once per truth row, and a test
    against a numpy scalar is slower than one between two floats.
    """
    exposure = np.asarray(batch_class_exposure, dtype=float)
    total = float(exposure.sum())
    share = (exposure / max(1.0, total)).tolist()
    recall = tuple(min(1.0, s + lr * e * (1.0 - s)) for s, e in zip(params.recall_skill, share))
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


def smooth_l1(x: float) -> float:
    """Huber-style penalty with its transition at 1: ``0.5 * x * x`` below,
    ``abs(x) - 0.5`` above."""
    ax = abs(x)
    return 0.5 * x * x if ax < 1.0 else ax - 0.5


def batch_loss(
    params: DetectorParams,
    class_ids: Sequence[int],
    counts: Sequence[int],
    budget: int,
    n_reg: int,
) -> LossBreakdown:
    """Compose the four detector loss terms for one batch of images.

    ``class_ids`` holds the batch's class ids, one per instance, image after
    image, and ``counts`` each image's number of them. Each image contributes
    one foreground proposal per instance, in order, then
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
    ids = np.asarray(class_ids, dtype=np.intp)
    counts = np.asarray(counts, dtype=np.intp)
    n_bg = np.maximum(budget - counts, 0)
    n_targets = len(ids) + int(n_bg.sum())
    if not n_targets:
        return LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
    # Per image, a term per instance, then the background term (index k)
    # repeated once per background proposal.
    bg_slots = np.cumsum(counts + 1) - 1
    foreground = np.ones(len(ids) + len(counts), dtype=bool)
    foreground[bg_slots] = False
    term_index = np.full(len(foreground), k, dtype=np.intp)
    term_index[foreground] = ids - 1
    repeats = np.ones(len(foreground), dtype=np.intp)
    repeats[bg_slots] = n_bg

    # Every float sum here is a cumsum, which adds left to right: np.sum adds
    # pairwise, and the built-in sum compensates from Python 3.12 on.
    mean_recall = float(np.cumsum(params.recall_skill)[-1]) / k
    bg_objectness = min(0.98, 0.02 + 0.2 * (1.0 - mean_recall))
    bg_log = math.log(1.0 - bg_objectness)
    skills = params.recall_skill
    objectness_logs = [math.log(min(max(s, 1e-4), 1.0 - 1e-4)) for s in skills]
    class_logs = [math.log(min(max(s * (1.0 - params.confusion_rate), 1e-4), 1.0)) for s in skills]

    def mean_nll(class_terms: list[float]) -> float:
        table = np.asarray(class_terms + [bg_log], dtype=float)
        per_target = np.repeat(table[term_index], repeats)
        # Subtracting from 0.0 keeps an all-zero sum at +0.0, as a Python
        # loop over the proposals did.
        return (0.0 - float(np.cumsum(per_target)[-1])) / n_targets

    rpn_cls = mean_nll(objectness_logs)
    roi_cls = mean_nll(class_logs)

    if n_reg:
        per_box = smooth_l1((1.0 - params.loc_skill) * 0.1)  # each of the four residuals
        per_target = per_box + per_box + per_box + per_box
        reg = float(np.cumsum(np.full(n_reg, per_target))[-1]) / n_reg
    else:
        reg = 0.0
    return LossBreakdown(rpn_cls, reg, roi_cls, reg, rpn_cls + reg + roi_cls + reg)
