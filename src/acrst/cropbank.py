"""Crop memory bank: a fixed labeled bank plus a pseudo bank rebuilt on refresh.

The labeled bank is built once from ground truth and never changes. The pseudo
bank is replaced wholesale from post-filtering predictions whenever the loop
refreshes it; the loop alone owns that schedule. Sampling is two-level: first a class from a
sampling distribution, then a uniform entry of that class from the union of
both banks; :meth:`CropBank.class_table` builds both levels' tables and
:func:`~acrst.rebalance.place_pastes` draws by them. A crop is the class and
size that pasting reads, kept as columns in both banks and the class table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .model import Detections
from .rebalance import ClassTable


@dataclass(frozen=True, eq=False)
class CropBank:
    """Immutable snapshot of both banks, each a class id column and a (w, h)
    column pair."""

    labeled_class_ids: np.ndarray
    labeled_sizes: np.ndarray
    pseudo_class_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    pseudo_sizes: np.ndarray = field(default_factory=lambda: np.zeros((2, 0)))

    @property
    def n_labeled(self) -> int:
        return len(self.labeled_class_ids)

    @property
    def n_pseudo(self) -> int:
        return len(self.pseudo_class_ids)

    def class_table(self, mu: tuple[float, ...]) -> ClassTable:
        """The :class:`~acrst.rebalance.ClassTable` of the classes in 1..k with
        crops, by a stable sort of both banks' columns once per pasting epoch: a
        pool holds its labeled crops, then its pseudo crops; the CDF is the one
        ``Generator.choice`` builds from their weights in ``mu``, renormalized.
        The loop calls this only when the labeled bank holds such a crop."""
        class_id = np.concatenate((self.labeled_class_ids, self.pseudo_class_ids))
        order = np.argsort(class_id, kind="stable")
        class_id = class_id[order]
        edges = np.searchsorted(class_id, np.arange(1, len(mu) + 2))
        lengths = np.diff(edges)
        available = lengths > 0
        weights = np.asarray(mu, dtype=float)[available]
        cdf = np.cumsum(weights / weights.sum())
        cdf /= cdf[-1]
        sizes = np.concatenate((self.labeled_sizes, self.pseudo_sizes), axis=1)[:, order[:edges[-1]]]
        return ClassTable(class_id[:edges[-1]], sizes, edges[:-1][available], lengths[available],
                          cdf, sizes[:, edges[0]:].max(axis=1, keepdims=True))


def build_labeled_bank(labeled: Dataset) -> CropBank:
    """The labeled split's ground-truth crops, class and (w, h) columns of its
    truth rows in image order, and an empty pseudo bank."""
    columns = labeled.truth_columns[0]
    return CropBank(columns[4].astype(np.intp), columns[2:4])


def refresh_pseudo_bank(bank: CropBank, dets: Detections, kept: Sequence[bool]) -> CropBank:
    """``bank`` with its pseudo bank replaced wholesale: the class and (w, h)
    columns of the rows of ``dets`` that ``kept`` marks."""
    return CropBank(bank.labeled_class_ids, bank.labeled_sizes, dets.class_id[kept], dets.boxes[2:, kept])
