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
import math
from dataclasses import asdict, astuple, dataclass, replace
from itertools import compress, islice
from typing import Any, Sequence

import numpy as np

from .config import ConfigError, ExperimentConfig
from .cropbank import CropBank, build_labeled_bank, refresh_pseudo_bank, sample_crops
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
from .rebalance import ClassStats, SamplingDistribution, affr_distribution, fbr_mix, pseudo_recall
from .rebalance import Mix, occlusion_survivors
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

    def __post_init__(self) -> None:
        for name in (
            "total_loss", "fg_ratio", "kld", "pseudo_acc",
            "pseudo_rec", "box_miou", "ap50", "ap5095",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"trace field {name} is not finite")


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
            "epochs": [asdict(t) for t in self.traces],
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
    """Each loss term's mean over batches, summed in batch order."""
    if not parts:
        return LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
    columns = zip(*(astuple(p) for p in parts))
    return LossBreakdown(*(sum(column) / len(parts) for column in columns))


def pretrain(
    config: ExperimentConfig, labeled: Dataset, rng: np.random.Generator
) -> DetectorParams:
    """Burn in the student on labeled batches only.

    Every pretraining step draws a labeled batch and applies the saturating
    update with full regression supervision. With zero pretrain epochs the
    configured initial parameters come back untouched.
    """
    if not labeled.images:
        raise ConfigError("pretraining requires a non-empty labeled dataset")
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
    paste: tuple[CropBank, SamplingDistribution] | None = None,
) -> tuple[Detections, np.ndarray, list[Mix]]:
    """Pseudo-label ``dataset.images[i]`` for each ``i`` of ``indices``, in order.

    Per image the pass only draws: the teacher's detections (by ``cdfs``), in
    a two-stage filter mode the oracle's two doubles per class, and, given
    ``paste`` (a bank and its sampling distribution), the image's crops and
    their placements. Array passes then compute every detection's box and
    score, and set each row's oracle activation, against
    :attr:`Dataset.class_presence` with the filter's ``tau_ml`` as the low
    band's edge, and its keep bit. With the ``two_stage`` toggle off,
    filtering is by score alone. Returns the detections, the keep bits and,
    when pasting, each image's paste.
    """
    fcfg = config.filter if config.two_stage else replace(config.filter, mode="one_stage")
    two_stage = fcfg.mode != "one_stage"
    dets, mixes = Detections(), []
    draws = np.empty((len(indices), dataset.num_classes, 2)) if two_stage else None
    for j, i in enumerate(indices):
        img = dataset.images[i]
        detect(teacher, img, rng, cdfs, dets)
        if two_stage:
            rng.random(out=draws[j])
        if paste:
            crops = sample_crops(*paste, config.paste.crops_per_image, rng)
            mixes.append(fbr_mix((img.width, img.height), crops, rng, config.paste))
    activations = None
    if two_stage:
        image = np.repeat(np.arange(len(indices)), dets.counts)
        cls = dets.class_id - 1
        present = dataset.class_presence[np.asarray(indices, dtype=np.intp)[image], cls]
        activations = oracle_activations(draws[image, cls], present, config.oracle, fcfg.tau_ml)
    return dets, keep_mask(dets.score, activations, fcfg), mixes


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
    labeled_counts = labeled.class_counts

    # The sampling distribution is fixed for the epoch: the bank only changes
    # at the refresh step below.
    stats = ClassStats(
        pseudo_counts=tuple(_class_counts([row[0] for row in bank.pseudo_bank], k).tolist()),
        labeled_counts=tuple(int(c) for c in labeled_counts),
        ratio=n_unl / n_lab,
    )
    pr = pseudo_recall(stats)
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
    paste = (bank, dist) if _pastes(config) else None

    for _ in range(config.batches_per_epoch):
        batch = rng.choice(n_unl, size=min(config.unlabeled_batch, n_unl), replace=False).tolist()
        dets, keep, mixes = label_pass(teacher, unlabeled, batch, rng, config, cdfs, paste)
        # Per image, its class ids with the pasted ones first.
        unsup_images: list[list[int]] = []
        rows, bits = dets.rows(), iter(keep.tolist())
        for j, n in enumerate(dets.counts):
            kept = list(compress(islice(rows, n), islice(bits, n)))
            if paste:
                mix = mixes[j]
                survivors = occlusion_survivors(kept, mix.placements, occlusion_threshold)
                class_ids = mix.class_ids + survivors
            else:
                class_ids = [row[0] for row in kept]
            unsup_images.append(class_ids)
            fg_total += len(class_ids)
            bg_total += max(budget - len(class_ids), 0)
        pasted = [c for mix in mixes for c in mix.class_ids]
        pasted_total += _class_counts(pasted, k)

        lab_idx = rng.choice(n_lab, size=min(config.labeled_batch, n_lab), replace=False)
        lab_images = [[row[0] for row in labeled.images[int(i)].truth_rows] for i in lab_idx]
        # Labeled instances always carry regression targets; pasted crops
        # join them only under selective supervision.
        lab_reg = sum(map(len, lab_images))
        unsup_reg = len(pasted) if config.selective_supervision else 0
        sup_losses.append(batch_loss(student, lab_images, budget, lab_reg))
        unsup_losses.append(batch_loss(student, unsup_images, budget, unsup_reg))

        exposure = _class_counts([c for ids in lab_images + unsup_images for c in ids], k)
        student = student_update(student, exposure, lab_reg + unsup_reg, config.detector.lr)
        teacher = ema_update(teacher, student, config.detector.ema_alpha)
        exposure_total += exposure

    # Full-set teacher evaluation; also the pseudo-label source for refresh.
    dets, kept, _ = label_pass(teacher, unlabeled, range(n_unl), rng, config, cdfs)
    pseudo_counts = np.bincount(dets.class_id[kept] - 1, minlength=k)
    evaluation = evaluate(dets.table, dets.counts, kept, *unlabeled.truth_columns, config.match_iou)
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
    # Off-period epochs pass on the same bank, and with it its class tables.
    if state.epoch % config.refresh_period == 0:
        bank = refresh_pseudo_bank(bank, dets, kept.tolist())
    new_state = LoopState(
        teacher=teacher,
        student=student,
        bank=bank,
        labeled=labeled,
        unlabeled=unlabeled,
        epoch=state.epoch + 1,
    )
    return new_state, trace


def run_experiment(config: ExperimentConfig, dataset: Dataset) -> RunReport:
    """Split, pretrain, run all mutual-learning epochs and assemble the report.

    Identical config and dataset give identical reports, byte for byte once
    serialized.
    """
    if not dataset.images:
        raise ConfigError("experiment needs a non-empty dataset")
    seed = config.seed
    labeled, unlabeled = split_standard(
        dataset, config.split_fraction, derive_seed(seed, "split")
    )
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
    teacher = student
    state = LoopState(
        teacher=teacher, student=student, bank=bank, labeled=labeled, unlabeled=unlabeled
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
