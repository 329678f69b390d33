"""Benchmark workloads: each turns a benchmark seed into `acrst run` inputs.

A benchmark run drives a sequence of complete runs; run ``index`` uses the
experiment seed ``experiment_seed(seed, index)``, so one benchmark seed fixes
every input. Generated files go to a stable path relative to the checkout
root, because the report's config echo embeds ``dataset.path`` and a path
that changed between runs would change the report's sha256.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORK_DIR = Path(".perfbench_work")
EXAMPLE_CONFIG = Path("configs") / "example.json"

ALL_ON = {"fbr": True, "affr": True, "two_stage": True, "selective_supervision": True}
ALL_OFF = {name: False for name in ALL_ON}

# Detector and oracle settings of configs/example.json, copied so that the
# generated workloads stay fixed when the shipped example changes.
_DETECTOR = {
    "initial_recall_skill": 0.35,
    "confusion_rate": 0.2,
    "loc_skill": 0.3,
    "partial_rate": 0.25,
    "fp_rate": 0.5,
    "confidence_sharpness": 8.0,
    "lr": 0.25,
    "ema_alpha": 0.65,
}
_ORACLE = {"fn_rate": 0.05, "fp_rate": 0.1}


def experiment_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def example_config(seed: int, run_dir: Path) -> dict:
    config = json.loads(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
    config.pop("sweep", None)
    config["seed"] = seed
    return config


def paste_heavy_config(seed: int, run_dir: Path) -> dict:
    return {
        "seed": seed,
        "split_fraction": 0.2,
        "epochs": 25,
        "pretrain_epochs": 5,
        "labeled_batch": 4,
        "unlabeled_batch": 48,
        "batches_per_epoch": 4,
        "lambda_unsup": 2.0,
        "refresh_period": 1,
        "proposal_budget": 512,
        "match_iou": 0.5,
        "toggles": dict(ALL_ON),
        "dataset": {"type": "synthetic", "images": 60, "classes": 10, "skew": 0.65},
        "paste": {"crops_per_image": 4, "beta": 1.0},
        "filter": {"tau_cls": 0.7, "tau_ml": 0.2, "mode": "two_stage_mining"},
        "detector": dict(_DETECTOR),
        "oracle": dict(_ORACLE),
    }


def crowded_coco(
    seed: int,
    n_images: int = 250,
    n_classes: int = 10,
    mean_extra: float = 6.0,
    skew: float = 0.65,
) -> dict:
    """COCO document of crowded 640x480 images: 1 + Poisson(mean_extra) boxes each.

    Classes are geometrically skewed like the synthetic generator's; boxes
    have integer sides in [32, 160] and lie inside the image.
    """
    rng = np.random.default_rng([seed, 0xC0C0])
    weights = skew ** np.arange(n_classes)
    weights = weights / weights.sum()
    width, height = 640, 480
    images, annotations = [], []
    for image_id in range(1, n_images + 1):
        images.append({"id": image_id, "width": width, "height": height})
        for _ in range(1 + int(rng.poisson(mean_extra))):
            w, h = (int(v) for v in rng.integers(32, 161, size=2))
            x = int(rng.integers(0, width - w + 1))
            y = int(rng.integers(0, height - h + 1))
            annotations.append({
                "id": len(annotations) + 1,
                "image_id": image_id,
                "category_id": int(rng.choice(n_classes, p=weights)) + 1,
                "bbox": [x, y, w, h],
            })
    categories = [{"id": k, "name": f"class_{k:02d}"} for k in range(1, n_classes + 1)]
    return {"images": images, "annotations": annotations, "categories": categories}


def crowded_eval_config(seed: int, run_dir: Path) -> dict:
    coco_path = run_dir / "coco.json"
    coco_path.write_text(json.dumps(crowded_coco(seed)), encoding="utf-8")
    return {
        "seed": seed,
        "split_fraction": 0.2,
        "epochs": 25,
        "pretrain_epochs": 5,
        "labeled_batch": 4,
        "unlabeled_batch": 32,
        "batches_per_epoch": 2,
        "toggles": dict(ALL_OFF),
        "dataset": {"type": "coco_json", "path": coco_path.as_posix()},
        "filter": {"tau_cls": 0.7, "tau_ml": 0.2, "mode": "two_stage_filtering"},
        "detector": dict(_DETECTOR),
        "oracle": dict(_ORACLE),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: Callable[[int, Path], dict]

    def prepare(self, seed: int) -> tuple[Path, dict]:
        """Write the inputs of the run with experiment seed ``seed``.

        Returns the config path, relative to the checkout root, and the config.
        """
        run_dir = WORK_DIR / self.name / f"s{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        config = self.make_config(seed, run_dir)
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
        return config_path, config


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "example",
            "configs/example.json as shipped: the config users run and the acceptance "
            "suite uses; it mixes every layer",
            example_config,
        ),
        Workload(
            "paste_heavy",
            "small corpus, large frequent unlabeled batches, 4 crops per image and "
            "512 proposals: loss composition, pasting and crop sampling dominate",
            paste_heavy_config,
        ),
        Workload(
            "crowded_eval",
            "generated crowded COCO corpus, all toggles off: evaluation matching and "
            "COCO parsing dominate; oracle, crop sampling and pasting are bypassed",
            crowded_eval_config,
        ),
    )
}
