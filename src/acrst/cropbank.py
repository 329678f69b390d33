"""Crop memory bank: a fixed labeled bank plus a pseudo bank rebuilt on refresh.

The labeled bank is built once from ground truth and never changes. The pseudo
bank is replaced wholesale from post-filtering predictions whenever the loop
refreshes it; the loop alone owns that schedule, and each refresh counts the
new pseudo bank's classes once. Sampling is two-level: first a class from a
sampling distribution, then a uniform entry of that class from the union of
both banks; :meth:`CropBank.class_table` builds both levels' tables and
:func:`~acrst.rebalance.draw_pastes` draws by them. A crop is the class and
size that pasting reads: a ``(class_id, w, h)`` row in the labeled bank and
the pools, an entry of two columns in the pseudo bank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .model import Detections
from .rebalance import Crop


@dataclass(frozen=True, eq=False)
class CropBank:
    """Immutable snapshot of both banks, labeled crop rows and pseudo crop
    columns, and the pseudo bank's count per class (index k-1 = class k)."""

    labeled_bank: tuple[Crop, ...]
    pseudo_class_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    pseudo_sizes: np.ndarray = field(default_factory=lambda: np.zeros((2, 0)))
    pseudo_counts: Sequence[int] = ()

    @property
    def n_labeled(self) -> int:
        return len(self.labeled_bank)

    @property
    def n_pseudo(self) -> int:
        return len(self.pseudo_class_ids)

    def class_table(self, mu: tuple[float, ...]) -> tuple[tuple, list[float]]:
        """Crop pools of the classes with stored crops, and their class CDF,
        which :func:`~acrst.rebalance.draw_pastes` draws crops by.

        A class's pool holds its labeled rows, then its pseudo rows, built
        here alone, once per epoch that pastes. The CDF, a list, is the one
        ``Generator.choice`` builds from the weights renormalized over the
        classes with crops. The loop calls this only when the labeled bank
        holds a crop of a class in 1..k, and every such class has positive
        weight in ``mu``.
        """
        groups: dict[int, list[Crop]] = {}
        pseudo_bank = zip(self.pseudo_class_ids.tolist(), *self.pseudo_sizes.tolist())
        for crop in chain(self.labeled_bank, pseudo_bank):
            groups.setdefault(crop[0], []).append(crop)
        available = [k for k in range(1, len(mu) + 1) if k in groups]
        weights = np.asarray(mu, dtype=float)[np.array(available) - 1]
        cdf = np.cumsum(weights / weights.sum())
        cdf /= cdf[-1]
        return tuple(groups[k] for k in available), cdf.tolist()


def build_labeled_bank(labeled: Dataset) -> CropBank:
    """The labeled split's ground-truth crops, a ``(class_id, w, h)`` row per
    truth row, in image order, and an empty pseudo bank's zero counts."""
    _, _, w, h, class_id = labeled.truth_columns[0]
    crops = zip(class_id.astype(np.intp).tolist(), w.tolist(), h.tolist())
    return CropBank(labeled_bank=tuple(crops), pseudo_counts=np.zeros(labeled.num_classes, dtype=np.int64))


def refresh_pseudo_bank(bank: CropBank, dets: Detections, kept: Sequence[bool]) -> CropBank:
    """``bank`` with its pseudo bank replaced wholesale: the class and (w, h)
    columns of the rows of ``dets`` that ``kept`` marks, and their count per class."""
    class_ids = dets.class_id[kept]
    counts = np.bincount(class_ids - 1, minlength=len(bank.pseudo_counts))
    return CropBank(bank.labeled_bank, class_ids, dets.boxes[2:, kept], counts)
