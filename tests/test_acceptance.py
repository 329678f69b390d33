"""End-to-end acceptance gate.

Two kinds of checks live here. The exactness checks (01-04) pit a module
against an independent re-implementation of its formula on large random case
sets. The dynamics checks (05-09) run the full training loop on a fixed
synthetic corpus and assert that each mechanism moves its target metric in
the right direction; check 10 pins CLI-level determinism.

Every test reports one PASS/FAIL line through ``acceptance_report`` (echoed
in the terminal summary) and asserts a wall-clock budget alongside the
behavioral bound.

The dynamics constants below are tuned so that each mechanism's effect is
visible above seed noise at desk scale: a small labeled batch keeps the
regression signal scarce, a large unlabeled batch with two pastes per image
makes paste-driven dilution and recovery measurable, and 20 mutual epochs
stop short of saturating every arm of the comparisons.
"""

import dataclasses
import json
import time

import numpy as np

from acrst import (
    LABELED_ABSENT_PR,
    BBox,
    ClassStats,
    CropEntry,
    DetectorConfig,
    DetectorParams,
    ExperimentConfig,
    FilterConfig,
    ImageLevelLabel,
    Instance,
    OracleNoise,
    PasteConfig,
    PastePlacement,
    Prediction,
    affr_distribution,
    derive_seed,
    ema_update,
    merge_annotations,
    pseudo_recall,
    run_experiment,
    synthetic_dataset,
    two_stage_filter,
    two_stage_mining,
    visible_fraction,
)
from acrst.cli import main

SEEDS = (101, 202, 303, 404, 505)

_RUN_CACHE = {}


def _acceptance_config(seed, *, epochs=25, mode="two_stage_filtering",
                       fn_rate=0.05, fp_rate=0.1, **toggles):
    config = ExperimentConfig(
        seed=seed,
        split_fraction=0.2,
        epochs=epochs,
        pretrain_epochs=5,
        labeled_batch=4,
        unlabeled_batch=32,
        batches_per_epoch=2,
        refresh_period=1,
        proposal_budget=256,
        detector=DetectorConfig(
            initial_recall_skill=0.35,
            confusion_rate=0.2,
            loc_skill=0.3,
            partial_rate=0.25,
            fp_rate=0.5,
            confidence_sharpness=8.0,
            lr=0.25,
            ema_alpha=0.65,
        ),
        paste=PasteConfig(crops_per_image=2, beta=1.0),
        filter=FilterConfig(tau_cls=0.7, tau_ml=0.2, mode=mode),
        oracle=OracleNoise(fn_rate=fn_rate, fp_rate=fp_rate),
    )
    return dataclasses.replace(config, **toggles)


def _run(seed, **kwargs):
    key = (seed, tuple(sorted(kwargs.items())))
    if key not in _RUN_CACHE:
        config = _acceptance_config(seed, **kwargs)
        dataset = synthetic_dataset(
            200, 10, derive_seed(seed, "dataset"), skew=0.65
        )
        _RUN_CACHE[key] = run_experiment(config, dataset)
    return _RUN_CACHE[key]


def _verdict(report, label, ok, detail, elapsed, budget):
    within = elapsed <= budget
    status = "PASS" if ok and within else "FAIL"
    report(f"[{status}] {label}: {detail}  [{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, f"{label}: {detail}"
    assert within, f"{label} took {elapsed:.1f}s, budget {budget:.0f}s"


def _raster_visible(inst, occluders):
    """Pixel-center rasterization of the un-occluded fraction (integer boxes)."""
    xs = inst.x + np.arange(int(inst.w))[None, :] + 0.5
    ys = inst.y + np.arange(int(inst.h))[:, None] + 0.5
    covered = np.zeros((int(inst.h), int(inst.w)), dtype=bool)
    for occ in occluders:
        covered |= (xs >= occ.x) & (xs < occ.x2) & (ys >= occ.y) & (ys < occ.y2)
    return 1.0 - covered.sum() / covered.size


def _is_subsequence(shorter, longer):
    it = iter(longer)
    return all(any(item is candidate for candidate in it) for item in shorter)


def test_01_rebalance_weights_match_brute_force(acceptance_report):
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)

    def brute_pr(pseudo, labeled, ratio):
        return [
            LABELED_ABSENT_PR if n_lab == 0 else n_pse / (ratio * n_lab)
            for n_pse, n_lab in zip(pseudo, labeled)
        ]

    def brute_mu(pr, beta):
        k = len(pr)
        real = [i for i in range(k) if pr[i] < LABELED_ABSENT_PR]
        total = sum(pr[i] for i in real)
        if total <= 0.0:
            return [1.0 / k] * k
        order = sorted(real, key=lambda i: (-pr[i], i))
        raw = [0.0] * k
        for rank, idx in enumerate(order):
            mirrored = pr[order[len(order) - 1 - rank]]
            raw[idx] = (mirrored / total) ** beta
        floor = min(raw[i] for i in real)
        for i in range(k):
            if pr[i] >= LABELED_ABSENT_PR:
                raw[i] = floor
        scale = sum(raw)
        return [w / scale for w in raw]

    max_err = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        pseudo = tuple(int(c) for c in rng.integers(0, 41, size=k))
        labeled = tuple(int(c) for c in rng.integers(0, 26, size=k))
        ratio = float(rng.uniform(0.5, 8.0))
        beta = float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.7]))
        stats = ClassStats(pseudo_counts=pseudo, labeled_counts=labeled, ratio=ratio)
        pr = pseudo_recall(stats)
        pr_err = np.abs(pr - np.asarray(brute_pr(pseudo, labeled, ratio))).max()
        mu = affr_distribution(pr, beta).mu
        mu_err = np.abs(np.asarray(mu) - np.asarray(brute_mu(list(pr), beta))).max()
        max_err = max(max_err, pr_err, mu_err)

    example = affr_distribution([0.2, 1.0], beta=2.0).mu
    example_err = max(abs(example[0] - 0.961538), abs(example[1] - 0.038462))

    elapsed = time.perf_counter() - start
    ok = max_err <= 1e-12 and example_err <= 1e-6
    _verdict(
        acceptance_report,
        "rebalance weights match brute force",
        ok,
        f"max error {max_err:.2e} over 1000 cases (tol 1e-12), "
        f"worked example off by {example_err:.2e} (tol 1e-6)",
        elapsed,
        budget=1.0,
    )


def test_02_ema_matches_closed_form(acceptance_report):
    start = time.perf_counter()
    alpha, steps = 0.995, 1000
    teacher = DetectorParams(
        recall_skill=(0.2, 0.5, 0.9, 0.35),
        confusion_rate=0.3,
        loc_skill=0.4,
        partial_rate=0.25,
        fp_rate=3.0,
        confidence_sharpness=8.0,
    )
    student = DetectorParams(
        recall_skill=(0.8, 0.1, 0.6, 0.95),
        confusion_rate=0.05,
        loc_skill=0.9,
        partial_rate=0.02,
        fp_rate=0.5,
        confidence_sharpness=6.0,
    )
    current = teacher
    for _ in range(steps):
        current = ema_update(current, student, alpha)

    decay = alpha**steps

    def closed(t0, s):
        return decay * t0 + (1.0 - decay) * s

    errors = [
        abs(c - closed(t0, s))
        for c, t0, s in zip(
            current.recall_skill, teacher.recall_skill, student.recall_skill
        )
    ]
    for name in ("confusion_rate", "loc_skill", "partial_rate", "fp_rate",
                 "confidence_sharpness"):
        errors.append(
            abs(getattr(current, name) - closed(getattr(teacher, name),
                                                getattr(student, name)))
        )
    max_err = max(errors)

    elapsed = time.perf_counter() - start
    _verdict(
        acceptance_report,
        "teacher EMA matches closed form",
        max_err <= 1e-9,
        f"max error {max_err:.2e} after {steps} steps (tol 1e-9)",
        elapsed,
        budget=1.0,
    )


def test_03_occlusion_accounting_matches_rasterization(acceptance_report):
    start = time.perf_counter()
    rng = np.random.default_rng(31337)

    max_err = 0.0
    for _ in range(1000):
        inst = BBox(
            int(rng.integers(0, 30)),
            int(rng.integers(0, 30)),
            int(rng.integers(4, 56)),
            int(rng.integers(4, 56)),
        )
        occluders = [
            BBox(
                int(rng.integers(-10, 60)),
                int(rng.integers(-10, 60)),
                int(rng.integers(1, 70)),
                int(rng.integers(1, 70)),
            )
            for _ in range(int(rng.integers(0, 7)))
        ]
        err = abs(visible_fraction(inst, occluders) - _raster_visible(inst, occluders))
        max_err = max(max_err, err)

    merge_mismatches = 0
    for case in range(200):
        base = [
            Instance(
                class_id=int(rng.integers(1, 6)),
                bbox=BBox(
                    int(rng.integers(0, 40)),
                    int(rng.integers(0, 40)),
                    int(rng.integers(4, 30)),
                    int(rng.integers(4, 30)),
                ),
                source_image_id=case,
            )
            for _ in range(int(rng.integers(1, 6)))
        ]
        placements = [
            PastePlacement(
                crop=CropEntry(
                    source_image_id=900 + j,
                    bbox=BBox(0, 0, 10, 10),
                    class_id=int(rng.integers(1, 6)),
                    score=1.0,
                    origin="labeled",
                ),
                target_bbox=BBox(
                    int(rng.integers(0, 50)),
                    int(rng.integers(0, 50)),
                    int(rng.integers(4, 30)),
                    int(rng.integers(4, 30)),
                ),
            )
            for j in range(int(rng.integers(0, 5)))
        ]
        rects = [p.target_bbox for p in placements]
        for threshold in (0.0, 0.3, 0.7):
            expected = [
                Instance(p.crop.class_id, p.target_bbox, p.crop.source_image_id)
                for p in placements
            ]
            for inst in base:
                vf = _raster_visible(inst.bbox, rects) if rects else 1.0
                if vf <= 1e-12 or vf < threshold:
                    continue
                expected.append(inst)
            if merge_annotations(base, placements, threshold) != expected:
                merge_mismatches += 1

    elapsed = time.perf_counter() - start
    ok = max_err <= 1e-9 and merge_mismatches == 0
    _verdict(
        acceptance_report,
        "occlusion accounting matches rasterization",
        ok,
        f"max visible-fraction error {max_err:.2e} over 1000 cases (tol 1e-9), "
        f"{merge_mismatches} merge mismatches over 200 scenes x 3 thresholds",
        elapsed,
        budget=10.0,
    )


def test_04_filter_variants_are_set_exact(acceptance_report):
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    n_classes = 6
    tau_cls, tau_ml = 0.7, 0.2
    and_cfg = FilterConfig(tau_cls=tau_cls, tau_ml=tau_ml, mode="two_stage_filtering")
    one_cfg = FilterConfig(tau_cls=tau_cls, tau_ml=tau_ml, mode="one_stage")
    or_cfg = FilterConfig(tau_cls=tau_cls, tau_ml=tau_ml, mode="two_stage_mining")

    mismatches = 0
    subset_violations = 0
    for case in range(10000):
        preds = []
        for _ in range(int(rng.integers(0, 13))):
            roll = rng.random()
            if roll < 0.08:
                score = tau_cls
            elif roll < 0.12:
                score = tau_ml
            else:
                score = float(rng.random())
            preds.append(
                Prediction(
                    class_id=int(rng.integers(1, n_classes + 1)),
                    bbox=BBox(0.0, 0.0, 10.0, 10.0),
                    score=score,
                )
            )
        activations = tuple(
            tau_ml if rng.random() < 0.1 else float(rng.random())
            for _ in range(n_classes)
        )
        label = ImageLevelLabel(image_id=case, activations=activations)

        both = two_stage_filter(preds, label, and_cfg)
        one = two_stage_filter(preds, None, one_cfg)
        either = two_stage_mining(preds, label, or_cfg)

        exp_both = [
            p for p in preds
            if p.score >= tau_cls and activations[p.class_id - 1] >= tau_ml
        ]
        exp_one = [p for p in preds if p.score >= tau_cls]
        exp_either = [
            p for p in preds
            if p.score >= tau_cls or activations[p.class_id - 1] >= tau_ml
        ]
        if both != exp_both or one != exp_one or either != exp_either:
            mismatches += 1
        if not (_is_subsequence(both, one) and _is_subsequence(one, either)):
            subset_violations += 1

    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and subset_violations == 0
    _verdict(
        acceptance_report,
        "filter variants are set-exact",
        ok,
        f"{mismatches} mismatches and {subset_violations} subset violations "
        f"over 10000 random prediction sets",
        elapsed,
        budget=5.0,
    )


def test_05_paste_mixing_lifts_foreground_ratio(acceptance_report):
    start = time.perf_counter()
    ratios = []
    for seed in SEEDS:
        mixed = _run(seed, epochs=30)
        plain = _run(seed, epochs=30, fbr=False, affr=False)
        mean_fg = lambda report: sum(t.fg_ratio for t in report.traces) / len(report.traces)
        ratios.append(mean_fg(mixed) / mean_fg(plain))

    elapsed = time.perf_counter() - start
    _verdict(
        acceptance_report,
        "paste mixing lifts foreground ratio",
        min(ratios) >= 1.5,
        "epoch-mean fg_ratio lift per seed: "
        + ", ".join(f"{r:.2f}x" for r in ratios)
        + " (need >= 1.50x)",
        elapsed,
        budget=120.0,
    )


def test_06_adaptive_sampling_reduces_class_divergence(acceptance_report):
    start = time.perf_counter()
    adaptive = [_run(seed).traces[-1].kld for seed in SEEDS]
    uniform = [_run(seed, affr=False).traces[-1].kld for seed in SEEDS]
    mean_adaptive = sum(adaptive) / len(adaptive)
    mean_uniform = sum(uniform) / len(uniform)
    reduction = 1.0 - mean_adaptive / mean_uniform

    elapsed = time.perf_counter() - start
    _verdict(
        acceptance_report,
        "adaptive crop sampling reduces class divergence",
        reduction >= 0.10,
        f"final KLD mean {mean_adaptive:.4f} adaptive vs {mean_uniform:.4f} "
        f"uniform: {reduction * 100:.1f}% reduction (need >= 10%)",
        elapsed,
        budget=300.0,
    )


def test_07_filter_variants_trade_accuracy_for_recall(acceptance_report):
    start = time.perf_counter()

    def epoch_means(mode):
        accs, recs = [], []
        for seed in SEEDS:
            # first mutual epoch excluded: the pseudo bank is still warming up
            traces = [t for t in _run(seed, mode=mode, fn_rate=0.1).traces if t.epoch > 0]
            accs.append(sum(t.pseudo_acc for t in traces) / len(traces))
            recs.append(sum(t.pseudo_rec for t in traces) / len(traces))
        return sum(accs) / len(accs), sum(recs) / len(recs)

    one_acc, one_rec = epoch_means("one_stage")
    and_acc, and_rec = epoch_means("two_stage_filtering")
    or_acc, or_rec = epoch_means("two_stage_mining")

    ok = (
        and_acc > one_acc
        and and_rec <= one_rec
        and or_rec > one_rec
        and or_acc <= one_acc
    )
    elapsed = time.perf_counter() - start
    _verdict(
        acceptance_report,
        "filter variants trade accuracy for recall",
        ok,
        f"acc/rec one-stage {one_acc:.3f}/{one_rec:.3f}, "
        f"filtering {and_acc:.3f}/{and_rec:.3f} (acc up, rec not up), "
        f"mining {or_acc:.3f}/{or_rec:.3f} (rec up, acc not up)",
        elapsed,
        budget=300.0,
    )


def test_08_selective_regression_improves_box_quality(acceptance_report):
    start = time.perf_counter()
    deltas = [
        _run(seed).traces[-1].box_miou
        - _run(seed, selective_supervision=False).traces[-1].box_miou
        for seed in SEEDS
    ]

    elapsed = time.perf_counter() - start
    _verdict(
        acceptance_report,
        "selective regression improves box quality",
        min(deltas) > 0.0,
        "final box mIoU delta per seed: "
        + ", ".join(f"{d:+.4f}" for d in deltas)
        + " (need all > 0)",
        elapsed,
        budget=300.0,
    )


def test_09_ablation_ladder_orders_endpoints(acceptance_report):
    start = time.perf_counter()
    rows = {
        "baseline": dict(mode="one_stage", fbr=False, affr=False,
                         selective_supervision=False),
        "+two_stage": dict(fbr=False, affr=False, selective_supervision=False),
        "+fbr": dict(affr=False, selective_supervision=False),
        "+fbr+affr": dict(selective_supervision=False),
        "+all": dict(),
    }
    means = {
        name: sum(_run(seed, **kwargs).traces[-1].ap5095 for seed in SEEDS) / len(SEEDS)
        for name, kwargs in rows.items()
    }
    others_low = min(v for k, v in means.items() if k != "baseline")
    others_high = max(v for k, v in means.items() if k != "+all")
    ok = means["baseline"] < others_low and means["+all"] > others_high

    elapsed = time.perf_counter() - start
    _verdict(
        acceptance_report,
        "ablation ladder orders the endpoints",
        ok,
        "final AP50:95 means "
        + ", ".join(f"{name} {value:.4f}" for name, value in means.items())
        + " (baseline strictly lowest, +all strictly highest)",
        elapsed,
        budget=900.0,
    )


def test_10_cli_runs_are_byte_identical(acceptance_report, tmp_path):
    start = time.perf_counter()
    config = {
        "seed": 101,
        "split_fraction": 0.2,
        "epochs": 25,
        "pretrain_epochs": 5,
        "labeled_batch": 4,
        "unlabeled_batch": 32,
        "batches_per_epoch": 2,
        "refresh_period": 1,
        "proposal_budget": 256,
        "dataset": {"type": "synthetic", "images": 200, "classes": 10, "skew": 0.65},
        "paste": {"crops_per_image": 2, "beta": 1.0},
        "filter": {"tau_cls": 0.7, "tau_ml": 0.2},
        "detector": {
            "initial_recall_skill": 0.35,
            "confusion_rate": 0.2,
            "loc_skill": 0.3,
            "partial_rate": 0.25,
            "fp_rate": 0.5,
            "confidence_sharpness": 8.0,
            "lr": 0.25,
            "ema_alpha": 0.65,
        },
        "oracle": {"fn_rate": 0.05, "fp_rate": 0.1},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    exit_codes = [
        main(["run", "--config", str(config_path), "--out", str(tmp_path / name)])
        for name in ("first", "second")
    ]
    report_same = (tmp_path / "first" / "report.json").read_bytes() == (
        tmp_path / "second" / "report.json"
    ).read_bytes()
    csv_same = (tmp_path / "first" / "epochs.csv").read_bytes() == (
        tmp_path / "second" / "epochs.csv"
    ).read_bytes()

    elapsed = time.perf_counter() - start
    ok = exit_codes == [0, 0] and report_same and csv_same
    _verdict(
        acceptance_report,
        "CLI runs are byte-identical",
        ok,
        f"exit codes {exit_codes}, report.json identical: {report_same}, "
        f"epochs.csv identical: {csv_same}",
        elapsed,
        budget=120.0,
    )
