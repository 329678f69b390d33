"""Generator for small synthetic detection datasets with skewed class frequencies."""

from __future__ import annotations

import numpy as np

from .dataset import BBox, Category, Dataset, ImageRecord, Instance


def synthetic_dataset(
    n_images: int,
    n_classes: int,
    seed: int,
    *,
    width: float = 640.0,
    height: float = 480.0,
    mean_extra_instances: float = 1.8,
    skew: float = 0.65,
    min_box: float = 32.0,
    max_box: float = 160.0,
) -> Dataset:
    """Build a dataset of random boxes with geometrically skewed class frequencies.

    Class k is drawn with probability proportional to ``skew**(k-1)``, so low
    ids are frequent and high ids are rare. Every image holds at least one
    instance; the extra count is Poisson with the given mean. Deterministic
    for a fixed seed.
    """
    if n_images < 1 or n_classes < 1:
        raise ValueError("need at least one image and one class")
    if not 0.0 < skew <= 1.0:
        raise ValueError(f"skew must be in (0, 1], got {skew}")
    if not 0 < min_box <= max_box:
        raise ValueError("box size range must satisfy 0 < min_box <= max_box")
    if max_box > min(width, height):
        raise ValueError("max_box must not exceed the image's shorter side")

    rng = np.random.default_rng(seed)
    weights = skew ** np.arange(n_classes)
    weights = weights / weights.sum()

    images = []
    for i in range(n_images):
        image_id = i + 1
        n_inst = 1 + int(rng.poisson(mean_extra_instances))
        instances = []
        for _ in range(n_inst):
            class_id = int(rng.choice(n_classes, p=weights)) + 1
            w = float(rng.uniform(min_box, max_box))
            h = float(rng.uniform(min_box, max_box))
            x = float(rng.uniform(0.0, width - w))
            y = float(rng.uniform(0.0, height - h))
            instances.append(
                Instance(class_id=class_id, bbox=BBox(x, y, w, h), source_image_id=image_id)
            )
        images.append(
            ImageRecord(
                id=image_id, width=width, height=height, ground_truth=tuple(instances)
            )
        )

    categories = tuple(
        Category(id=k, name=f"class_{k:02d}", source_id=k)
        for k in range(1, n_classes + 1)
    )
    return Dataset(images=tuple(images), categories=categories)
