"""Generator for small synthetic detection datasets with skewed class frequencies."""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .dataset import Category, ClassCdfs, Dataset, ImageRecord


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
    # The CDF ``Generator.choice(p=...)`` builds from the normalized weights.
    cdf = ClassCdfs(skew ** np.arange(n_classes))[0]
    # As doubles, as ``Generator.uniform`` takes its bounds.
    box_lo, box_span = float(min_box), float(max_box) - float(min_box)

    images = []
    for image_id in range(1, n_images + 1):
        n_inst = 1 + int(rng.poisson(mean_extra_instances))
        # Five doubles per instance, class then w, h, x, y, in the order one
        # scalar draw each took them; ``lo + (hi - lo) * u`` is what
        # ``Generator.uniform(lo, hi)`` makes of one.
        draws = iter(rng.random(5 * n_inst).tolist())
        rows = []
        for u_class, u_w, u_h, u_x, u_y in zip(*[draws] * 5):
            w = box_lo + box_span * u_w
            h = box_lo + box_span * u_h
            x = 0.0 + (width - w) * u_x
            y = 0.0 + (height - h) * u_y
            rows.append((bisect_right(cdf, u_class) + 1, x, y, w, h))
        images.append(ImageRecord(image_id, width, height, tuple(rows)))

    categories = tuple(
        Category(id=k, name=f"class_{k:02d}", source_id=k)
        for k in range(1, n_classes + 1)
    )
    return Dataset(images=tuple(images), categories=categories)
