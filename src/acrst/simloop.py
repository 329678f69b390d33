"""Teacher-student self-training loop over a labeled/unlabeled split.

One mutual-learning epoch runs a fixed number of batches. Per batch: the
teacher labels an unlabeled batch, predictions are filtered, crops sampled
from the bank are pasted onto the pseudo-labeled images, losses are composed,
the student takes a saturating update and the teacher follows by EMA. Per
epoch: the teacher is evaluated on the full unlabeled set, the pseudo bank is
refreshed on its period, and a trace row is emitted.

All randomness flows from the experiment seed through named substreams, so a
run is reproducible bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from .config import ConfigError, ExperimentConfig
from .cropbank import CropBank, build_labeled_bank, refresh_pseudo_bank
from .dataset import ClassCdfs, Dataset, split_standard
from .filtering import keep_mask, oracle_activations
from .metrics import class_kld, evaluate, fg_ratio
from .model import (
    DetectorParams,
    Detections,
    LossBreakdown,
    batch_loss,
    detect,
    ema_update,
    student_update,
)
from .rebalance import ClassStats, ClassTable, SamplingDistribution, affr_distribution
from .rebalance import place_pastes, pseudo_recall, survivor_mask
from .seeding import derive_seed, substream

EPOCH_CSV_COLUMNS = (
    "epoch",
    "fg_ratio",
    "kld",
    "pseudo_acc",
    "pseudo_rec",
    "box_miou",
    "ap50",
    "ap5095",
    "n_pseudo",
)


@dataclass(frozen=True)
class EpochTrace:
    """Metrics and bookkeeping for one mutual-learning epoch.

    ``ap50`` and ``ap5095`` are pooled over classes: all detections ranked in
    one list against all ground truth, not a mean of per-class AP.
    """

    epoch: int
    sup_loss: LossBreakdown
    unsup_loss: LossBreakdown
    total_loss: float
    fg_ratio: float
    kld: float
    pseudo_acc: float
    pseudo_rec: float
    box_miou: float
    ap50: float
    ap5095: float
    n_pseudo: int
    n_u: int
    pr: tuple[float, ...]
    mu: tuple[float, ...]
    class_exposure: tuple[int, ...]
    pasted_counts: tuple[int, ...]


@dataclass(frozen=True)
class LoopState:
    """Everything the next epoch needs."""

    teacher: DetectorParams
    student: DetectorParams
    bank: CropBank
    labeled: Dataset
    unlabeled: Dataset
    epoch: int = 0


@dataclass(frozen=True)
class RunReport:
    """Configuration echo, per-epoch traces and the final summary."""

    config: dict[str, Any]
    seed: int
    categories: tuple[dict[str, Any], ...]
    traces: tuple[EpochTrace, ...]
    summary: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "seed": self.seed,
            "categories": list(self.categories),
            "epochs": [  # vars, not asdict's deep copy; the other fields are numbers or tuples
                {**vars(t), "sup_loss": {**vars(t.sup_loss)}, "unsup_loss": {**vars(t.unsup_loss)}}
                for t in self.traces
            ],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def epochs_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(EPOCH_CSV_COLUMNS)
        for t in self.traces:
            writer.writerow([getattr(t, column) for column in EPOCH_CSV_COLUMNS])
        return buf.getvalue()


def _pastes(config: ExperimentConfig) -> bool:
    """Whether epochs paste bank crops; ``affr`` only steers what ``fbr`` pastes."""
    return config.fbr and config.paste.crops_per_image > 0


def _class_counts(class_ids: Sequence[int], k: int) -> np.ndarray:
    """How many of ``class_ids`` fall in each class (index k-1 = class k)."""
    return np.bincount(np.array(class_ids, dtype=np.int64) - 1, minlength=k)


def _mean_breakdown(parts: list[LossBreakdown]) -> LossBreakdown:
    """Each loss term's mean over batches, its sum added left to right."""
    sums = np.cumsum([(p.rpn_cls, p.rpn_reg, p.roi_cls, p.roi_reg, p.total) for p in parts],
                     axis=0)[-1]
    return LossBreakdown(*(sums / len(parts)).tolist())


def pretrain(
    config: ExperimentConfig, labeled: Dataset, rng: np.random.Generator
) -> DetectorParams:
    """Burn in the student on labeled batches only.

    Every pretraining step draws a labeled batch and applies the saturating
    update with full regression supervision. With zero pretrain epochs the
    configured initial parameters come back untouched.
    """
    params = config.detector.build(labeled.num_classes)
    n = len(labeled.images)
    k = labeled.num_classes
    for _ in range(config.pretrain_epochs):
        for _ in range(config.batches_per_epoch):
            idx = rng.choice(n, size=min(config.labeled_batch, n), replace=False)
            batch = [row[0] for i in idx for row in labeled.images[int(i)].truth_rows]
            params = student_update(params, _class_counts(batch, k), len(batch), config.detector.lr)
    return params


def label_pass(
    teacher: DetectorParams,
    dataset: Dataset,
    indices: Sequence[int],
    rng: np.random.Generator,
    config: ExperimentConfig,
    cdfs: ClassCdfs,
    paste: ClassTable | None = None,
) -> tuple[Detections, np.ndarray, np.ndarray]:
    """Pseudo-label ``dataset.images[i]`` for each ``i`` of ``indices``, in order.

    Per image the pass only draws: the teacher's detections (by ``cdfs``, into
    one recorder that :func:`detect` binds), then in one call into its row of
    one array, in a two-stage filter mode the oracle's two doubles per class
    and, given ``paste`` (a :meth:`CropBank.class_table`), a class and an
    entry double per crop, then per crop its placement slots: x and y on an
    image that the table :meth:`~ClassTable.fits`, a rescale double, x and y
    on one it does not (:func:`place_pastes`). Array passes then compute every
    detection's class and score (its box only when read), oracle activation
    (against :attr:`Dataset.class_presence`, the filter's ``tau_ml`` the low
    band's edge) and keep bit, by score alone with ``two_stage`` off, and the
    pastes. Returns the detections, the keep bits and :func:`place_pastes`'
    columns."""
    fcfg = config.filter if config.two_stage else replace(config.filter, mode="one_stage")
    two_stage = fcfg.mode != "one_stage"
    k2 = 2 * dataset.num_classes if two_stage else 0
    n = config.paste.crops_per_image if paste else 0
    dets = Detections(dataset, teacher, cdfs)
    record = detect(dets, rng)
    # Oracle doubles, class and entry doubles, then 2 placement slots a crop, or 3.
    draws = np.zeros((len(indices), k2 + 5 * n))
    rows = draws[:, :k2 + 4 * n]
    fits = [True] * len(indices)
    if paste:
        sizes = dataset.image_sizes[:, indices]
        fits = paste.fits(sizes).tolist()
    for j, i in enumerate(indices):
        record(i)
        if k2 or n:
            rng.random(out=rows[j] if fits[j] else draws[j])
    pastes = place_pastes(draws[:, k2:], sizes, paste, config.paste) if paste else np.zeros((6, 0))
    activations = None
    if two_stage:
        image = np.repeat(np.arange(len(indices)), dets.counts)
        cls = dets.class_id - 1
        present = dataset.class_presence[np.asarray(indices, dtype=np.intp)[image], cls]
        oracle = draws[:, :k2].reshape(len(indices), dataset.num_classes, 2)[image, cls]
        activations = oracle_activations(oracle, present, config.oracle, fcfg.tau_ml)
    return dets, keep_mask(dets.score, activations, fcfg), pastes


def run_epoch(
    state: LoopState, config: ExperimentConfig, rng: np.random.Generator
) -> tuple[LoopState, EpochTrace]:
    """Advance the loop by one mutual-learning epoch.

    Batch phase: teacher labels an unlabeled batch, predictions are filtered,
    bank crops are pasted onto the pseudo-labeled images, losses are composed,
    the student updates and the teacher follows by EMA. Epoch phase: the
    teacher is evaluated on the whole unlabeled set, the pseudo bank refreshes
    on its period and the trace row is assembled.
    """
    teacher, student, bank = state.teacher, state.student, state.bank
    labeled, unlabeled = state.labeled, state.unlabeled
    k = labeled.num_classes
    n_lab, n_unl = len(labeled.images), len(unlabeled.images)
    budget, occlusion_threshold = config.proposal_budget, config.paste.occlusion_threshold

    # The sampling distribution is fixed for the epoch: the bank only changes
    # at the refresh step below.
    bank_counts = np.bincount(bank.pseudo_class_ids - 1, minlength=k)
    pr = pseudo_recall(ClassStats(bank_counts, labeled.class_counts, n_unl / n_lab))
    # Until the first refresh the pseudo bank is empty, so every pseudo recall
    # is zero and affr_distribution would fall back to uniform with a warning.
    before_first_refresh = state.epoch == 0 and not bank.n_pseudo
    if config.affr and not before_first_refresh:
        dist = affr_distribution(pr, config.paste.beta)
    else:
        dist = SamplingDistribution.uniform(k)

    fg_total = 0
    bg_total = 0
    exposure_total = np.zeros(k, dtype=np.int64)
    pasted_total = np.zeros(k, dtype=np.int64)
    sup_losses: list[LossBreakdown] = []
    unsup_losses: list[LossBreakdown] = []
    cdfs = labeled.class_cdfs
    paste = bank.class_table(dist.mu) if _pastes(config) else None

    for _ in range(config.batches_per_epoch):
        batch = rng.choice(n_unl, size=min(config.unlabeled_batch, n_unl), replace=False).tolist()
        dets, keep, pastes = label_pass(teacher, unlabeled, batch, rng, config, cdfs, paste)
        image = np.repeat(np.arange(len(batch)), dets.counts)[keep]
        class_ids = dets.class_id[keep]
        pasted = pastes[0].astype(np.intp)
        if paste:
            # Per image, the pasted class ids in paste order, then the kept
            # rows that survive them in row order.
            alive = survivor_mask(dets.boxes[:, keep], image, pastes, occlusion_threshold)
            image = np.concatenate((pastes[1].astype(np.intp), image[alive]))
            class_ids = np.concatenate((pasted, class_ids[alive]))[np.argsort(image, kind="stable")]
        counts = np.bincount(image, minlength=len(batch))
        fg_total += len(class_ids)
        bg_total += int(np.maximum(budget - counts, 0).sum())
        pasted_total += _class_counts(pasted, k)

        lab_idx = rng.choice(n_lab, size=min(config.labeled_batch, n_lab), replace=False)
        lab_rows = [labeled.images[int(i)].truth_rows for i in lab_idx]
        lab_ids = [row[0] for rows in lab_rows for row in rows]
        # Labeled instances always carry regression targets; pasted crops
        # join them only under selective supervision.
        lab_reg = len(lab_ids)
        unsup_reg = len(pasted) if config.selective_supervision else 0
        sup_losses.append(batch_loss(student, lab_ids, list(map(len, lab_rows)), budget, lab_reg))
        unsup_losses.append(batch_loss(student, class_ids, counts, budget, unsup_reg))

        exposure = _class_counts(lab_ids, k) + _class_counts(class_ids, k)
        student = student_update(student, exposure, lab_reg + unsup_reg, config.detector.lr)
        teacher = ema_update(teacher, student, config.detector.ema_alpha)
        exposure_total += exposure

    # Full-set teacher evaluation; also the pseudo-label source for refresh.
    dets, kept, _ = label_pass(teacher, unlabeled, range(n_unl), rng, config, cdfs)
    pseudo_counts = np.bincount(dets.class_id[kept] - 1, minlength=k)
    evaluation = evaluate(dets.table, dets.counts, kept, *unlabeled.truth_columns[:2], config.match_iou)
    matched = evaluation.matched
    n_kept_total = int(kept.sum())
    n_gt_total = sum(unlabeled.truth_columns[1])

    truth_counts = unlabeled.class_counts
    sup, unsup = _mean_breakdown(sup_losses), _mean_breakdown(unsup_losses)
    trace = EpochTrace(
        epoch=state.epoch,
        sup_loss=sup,
        unsup_loss=unsup,
        total_loss=sup.total + config.lambda_unsup * unsup.total,
        fg_ratio=fg_ratio(fg_total, bg_total),
        kld=class_kld(pseudo_counts, truth_counts) if truth_counts.sum() else 0.0,
        pseudo_acc=matched / n_kept_total if n_kept_total else 1.0,
        pseudo_rec=matched / n_gt_total if n_gt_total else 1.0,
        box_miou=evaluation.iou_sum / matched if matched else 0.0,
        ap50=evaluation.ap50,
        ap5095=evaluation.ap5095,
        n_pseudo=n_kept_total,
        n_u=bank.n_pseudo,
        pr=tuple(float(v) for v in pr),
        mu=dist.mu,
        class_exposure=tuple(int(c) for c in exposure_total),
        pasted_counts=tuple(int(c) for c in pasted_total),
    )
    # Off-period epochs pass on the same bank.
    if state.epoch % config.refresh_period == 0:
        bank = refresh_pseudo_bank(bank, dets, kept)
    return replace(state, teacher=teacher, student=student, bank=bank, epoch=state.epoch + 1), trace


def run_experiment(config: ExperimentConfig, dataset: Dataset) -> RunReport:
    """Split, pretrain, run all mutual-learning epochs and assemble the report.

    Identical config and dataset give identical reports, byte for byte once
    serialized.
    """
    if not dataset.images:
        raise ConfigError("experiment needs a non-empty dataset")
    k = dataset.num_classes
    for img in dataset.images:
        for row in img.truth_rows:
            if not 1 <= row[0] <= k:
                raise ConfigError(f"image {img.id}: ground-truth class {row[0]} is not in 1..{k}")
    seed = config.seed
    labeled, unlabeled = split_standard(dataset, config.split_fraction, derive_seed(seed, "split"))
    if not labeled.images or not unlabeled.images:
        raise ConfigError(
            "split produced an empty side; adjust split_fraction or dataset size"
        )

    bank = build_labeled_bank(labeled)
    if _pastes(config) and not bank.n_labeled:
        raise ConfigError(
            "fbr needs labeled crops to paste, but the labeled split drew no "
            "instances; adjust split_fraction or the dataset"
        )
    student = pretrain(config, labeled, substream(seed, "pretrain"))
    state = LoopState(
        teacher=student, student=student, bank=bank, labeled=labeled, unlabeled=unlabeled
    )

    traces: list[EpochTrace] = []
    for epoch in range(config.epochs - config.pretrain_epochs):
        state, trace = run_epoch(state, config, substream(seed, "epoch", epoch))
        traces.append(trace)

    summary: dict[str, Any] = {
        "epochs_run": len(traces),
        "pretrain_epochs": config.pretrain_epochs,
        "n_labeled_images": len(labeled.images),
        "n_unlabeled_images": len(unlabeled.images),
        "n_labeled_instances": int(labeled.class_counts.sum()),
    }
    if traces:
        final = traces[-1]
        summary["final"] = {
            column: getattr(final, column) for column in EPOCH_CSV_COLUMNS if column != "epoch"
        }

    return RunReport(
        config=config.to_dict(),
        seed=seed,
        categories=tuple(
            {"id": c.id, "name": c.name, "source_id": c.source_id}
            for c in dataset.categories
        ),
        traces=tuple(traces),
        summary=summary,
    )
