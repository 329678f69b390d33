"""Golden sha256 of report.json for fixed configs, and of the example sweep's summary.csv.

A change that only makes the loop faster must leave every report byte for
byte the same. The figures depend on numpy's random streams, so the test runs
only with the numpy version CI pins.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from acrst.cli import main

pytestmark = pytest.mark.skipif(
    np.__version__ != "2.4.6", reason="golden shas are recorded with numpy 2.4.6"
)

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example.json"

EXAMPLE_SHA256 = "04f0401fc9181d0a0b21501ecc1d160bcd4296685a5ba17f6b13134bf5053983"
RESCALE_SHA256 = "1e86f032469edcb740d79a4bc58aa2c77230555ec126ba9d949fe46f02a42145"
CROWDED_SHA256 = "e8d9d5ea6a4b4275fc237ade63821dbe5fe2302ee11ced7aec4d9e32748dd1d3"
PASTE_HEAVY_SHA256 = "458146a921532efc6510e877166413c21ed9d79667d761bbd59e50bf7fc766fd"
BANK_REUSE_SHA256 = "adff4358499c3dfc6b593abd9c37f7c434cfc25efc62c6a49172bdbe95c3cfc1"
EXAMPLE_SWEEP_SHA256 = "6408d2ce36f3d2108168a56b445063d38cb072e4e0f5b7aaea8d25487adbaefd"


def rescale_coco() -> dict:
    """Large and small images: crops from large images often outsize small ones.

    Large images carry near-square boxes that need a rescale on a 100x60
    image, and square ones that do not fit there even at ``rescale_min``.
    """
    large_boxes = [[10, 10, 200, 180], [100, 40, 200, 200], [5, 150, 150, 60], [260, 20, 40, 30]]
    small_boxes = [[5, 5, 20, 15], [60, 30, 30, 20]]
    images, annotations = [], []
    for image_id in range(1, 41):
        large = image_id % 2 == 1
        width, height = (320, 240) if large else (100, 60)
        images.append({"id": image_id, "width": width, "height": height})
        boxes = large_boxes if large else small_boxes
        for j in range(1 + image_id % len(boxes)):
            annotations.append({
                "id": len(annotations) + 1,
                "image_id": image_id,
                "category_id": 1 + (image_id + j) % 3,
                "bbox": boxes[j],
            })
    categories = [{"id": k, "name": f"c{k}"} for k in (1, 2, 3)]
    return {"images": images, "annotations": annotations, "categories": categories}


RESCALE_CONFIG = {
    "seed": 101,
    "split_fraction": 0.3,
    "epochs": 6,
    "pretrain_epochs": 2,
    "labeled_batch": 4,
    "unlabeled_batch": 8,
    "batches_per_epoch": 2,
    "proposal_budget": 64,
    "dataset": {"type": "coco_json", "path": "coco.json"},
    "paste": {"crops_per_image": 3, "rescale_min": 1.1, "rescale_max": 1.6, "beta": 1.0},
    "filter": {"tau_cls": 0.6, "tau_ml": 0.2, "mode": "two_stage_filtering"},
    "detector": {"initial_recall_skill": 0.5, "fp_rate": 0.5, "lr": 0.25, "ema_alpha": 0.65},
    "oracle": {"fn_rate": 0.05, "fp_rate": 0.1},
}


def crowded_coco() -> dict:
    """Sixty crowded images with three classes: same-class boxes overlap often.

    Each image holds 2-9 boxes on a 160x120 canvas, so at a low match IoU one
    prediction often clears the threshold against two ground truths, and two
    predictions against one.
    """
    rng = np.random.default_rng(7)
    images, annotations = [], []
    for image_id in range(1, 61):
        images.append({"id": image_id, "width": 160, "height": 120})
        for _ in range(2 + int(rng.integers(0, 8))):
            w, h = (int(v) for v in rng.integers(16, 61, size=2))
            annotations.append({
                "id": len(annotations) + 1,
                "image_id": image_id,
                "category_id": 1 + int(rng.integers(0, 3)),
                "bbox": [int(rng.integers(0, 161 - w)), int(rng.integers(0, 121 - h)), w, h],
            })
    categories = [{"id": k, "name": f"c{k}"} for k in (1, 2, 3)]
    return {"images": images, "annotations": annotations, "categories": categories}


CROWDED_CONFIG = {
    "seed": 202,
    "split_fraction": 0.25,
    "epochs": 8,
    "pretrain_epochs": 2,
    "labeled_batch": 4,
    "unlabeled_batch": 8,
    "batches_per_epoch": 2,
    "proposal_budget": 64,
    "match_iou": 0.3,
    "toggles": {"fbr": False, "affr": False, "two_stage": False, "selective_supervision": False},
    "dataset": {"type": "coco_json", "path": "coco.json"},
    "filter": {"tau_cls": 0.6, "tau_ml": 0.2, "mode": "two_stage_mining"},
    "detector": {"initial_recall_skill": 0.5, "loc_skill": 0.3, "fp_rate": 1.5, "lr": 0.25,
                 "ema_alpha": 0.65},
    "oracle": {"fn_rate": 0.05, "fp_rate": 0.1},
}


# Shaped like the paste_heavy benchmark workload, at a tenth of its work: a
# small synthetic corpus, four crops on every unlabeled image, 512 proposals,
# mining and every toggle on, so crop sampling, pasting, occlusion and
# selective supervision all reach the report.
PASTE_HEAVY_CONFIG = {
    "seed": 303,
    "split_fraction": 0.2,
    "epochs": 8,
    "pretrain_epochs": 2,
    "labeled_batch": 4,
    "unlabeled_batch": 24,
    "batches_per_epoch": 2,
    "lambda_unsup": 2.0,
    "refresh_period": 1,
    "proposal_budget": 512,
    "toggles": {"fbr": True, "affr": True, "two_stage": True, "selective_supervision": True},
    "dataset": {"type": "synthetic", "images": 60, "classes": 10, "skew": 0.65},
    "paste": {"crops_per_image": 4, "beta": 1.0},
    "filter": {"tau_cls": 0.7, "tau_ml": 0.2, "mode": "two_stage_mining"},
    "detector": {"initial_recall_skill": 0.35, "confusion_rate": 0.2, "loc_skill": 0.3,
                 "partial_rate": 0.25, "fp_rate": 0.5, "lr": 0.25, "ema_alpha": 0.65},
    "oracle": {"fn_rate": 0.05, "fp_rate": 0.1},
}


# The pseudo bank refreshes every third epoch, so two epochs in three sample
# the bank an earlier epoch built; a base box half hidden by pasted crops is
# dropped; and without selective supervision the unlabeled loss is
# classification only. Each of the three settings moves the report.
BANK_REUSE_CONFIG = {
    "seed": 404,
    "split_fraction": 0.25,
    "epochs": 9,
    "pretrain_epochs": 2,
    "labeled_batch": 4,
    "unlabeled_batch": 12,
    "batches_per_epoch": 2,
    "refresh_period": 3,
    "proposal_budget": 128,
    "toggles": {"fbr": True, "affr": True, "two_stage": True, "selective_supervision": False},
    "dataset": {"type": "synthetic", "images": 60, "classes": 6, "skew": 0.6},
    "paste": {"crops_per_image": 3, "occlusion_threshold": 0.5, "beta": 1.5},
    "filter": {"tau_cls": 0.65, "tau_ml": 0.2, "mode": "two_stage_filtering"},
    "detector": {"initial_recall_skill": 0.4, "confusion_rate": 0.15, "loc_skill": 0.4,
                 "partial_rate": 0.2, "fp_rate": 0.5, "lr": 0.25, "ema_alpha": 0.65},
    "oracle": {"fn_rate": 0.05, "fp_rate": 0.1},
}


def report_sha256(config: Path, out: Path) -> str:
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return hashlib.sha256((out / "report.json").read_bytes()).hexdigest()


def test_example_config_report(tmp_path):
    assert report_sha256(EXAMPLE_CONFIG, tmp_path / "out") == EXAMPLE_SHA256


def test_rescaling_coco_report(tmp_path, monkeypatch):
    # The report echoes dataset.path, so the annotation file sits at a fixed
    # relative path in the working directory.
    monkeypatch.chdir(tmp_path)
    Path("coco.json").write_text(json.dumps(rescale_coco()), encoding="utf-8")
    Path("config.json").write_text(json.dumps(RESCALE_CONFIG), encoding="utf-8")
    assert report_sha256(Path("config.json"), Path("out")) == RESCALE_SHA256


def test_crowded_coco_report(tmp_path, monkeypatch):
    # Crowded same-class boxes at match_iou 0.3: images where one prediction
    # or ground truth has two candidates go through the greedy matcher.
    monkeypatch.chdir(tmp_path)
    Path("coco.json").write_text(json.dumps(crowded_coco()), encoding="utf-8")
    Path("config.json").write_text(json.dumps(CROWDED_CONFIG), encoding="utf-8")
    assert report_sha256(Path("config.json"), Path("out")) == CROWDED_SHA256


def test_paste_heavy_report(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(PASTE_HEAVY_CONFIG), encoding="utf-8")
    assert report_sha256(config, tmp_path / "out") == PASTE_HEAVY_SHA256


def test_bank_reuse_report(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BANK_REUSE_CONFIG), encoding="utf-8")
    assert report_sha256(config, tmp_path / "out") == BANK_REUSE_SHA256


def test_example_config_sweep_summary(tmp_path):
    # Each run's config is the file with the run's keys and seed merged over it.
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(EXAMPLE_CONFIG), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest() == EXAMPLE_SWEEP_SHA256
