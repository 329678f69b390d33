"""Crop memory bank: a fixed labeled bank plus a pseudo bank rebuilt on refresh.

The labeled bank is built once from ground truth and never changes. The pseudo
bank is replaced wholesale from post-filtering predictions whenever the loop
refreshes it; the loop alone owns that schedule. Sampling is two-level: first
a class from a sampling distribution, then a uniform entry of that class from
the union of both banks; :meth:`CropBank.class_table` holds both levels'
tables and :func:`~acrst.rebalance.draw_pastes` draws by them. A crop is a
row ``(class_id, w, h)``: pasting reads its class and size, never where it
came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .model import Detections
from .rebalance import Crop


class EmptyBankError(RuntimeError):
    """Sampling was requested but no class has any stored crop."""


@dataclass(frozen=True)
class CropBank:
    """Immutable snapshot of both banks, each a tuple of crop rows."""

    labeled_bank: tuple[Crop, ...]
    pseudo_bank: tuple[Crop, ...] = ()

    @property
    def n_labeled(self) -> int:
        return len(self.labeled_bank)

    @property
    def n_pseudo(self) -> int:
        return len(self.pseudo_bank)

    @cached_property
    def _class_tables(self) -> dict[tuple[float, ...], tuple[tuple, list[float]]]:
        return {}

    def class_table(self, mu: tuple[float, ...]) -> tuple[tuple, list[float]]:
        """Crop pools of the classes with stored crops, and their class CDF,
        which :func:`~acrst.rebalance.draw_pastes` draws crops by.

        A class's pool holds its labeled rows, then its pseudo rows. Built
        once per sampling weight vector and kept, since a bank never changes.
        The CDF, a list, is the one ``Generator.choice`` builds from the
        weights renormalized over the classes with crops.
        """
        table = self._class_tables.get(mu)
        if table is not None:
            return table
        groups: dict[int, list[Crop]] = {}
        for crop in chain(self.labeled_bank, self.pseudo_bank):
            groups.setdefault(crop[0], []).append(crop)
        if not groups:
            raise EmptyBankError("both banks are empty, nothing to sample")
        available = [k for k in range(1, len(mu) + 1) if groups.get(k)]
        if not available:
            raise EmptyBankError("no stored crop falls inside the distribution's classes")
        weights = np.asarray(mu, dtype=float)[np.array(available) - 1]
        total = weights.sum()
        if total <= 0.0:
            raise ValueError("no available class has positive sampling probability")
        cdf = np.cumsum(weights / total)
        cdf /= cdf[-1]
        table = self._class_tables[mu] = (tuple(groups[k] for k in available), cdf.tolist())
        return table


def build_labeled_bank(labeled: Dataset) -> CropBank:
    """The labeled split's ground-truth crops, a ``(class_id, w, h)`` row per
    truth row, in image order."""
    return CropBank(labeled_bank=tuple(
        (row[0], row[3], row[4]) for img in labeled.images for row in img.truth_rows
    ))


def refresh_pseudo_bank(bank: CropBank, dets: Detections, kept: Sequence[bool]) -> CropBank:
    """``bank`` with its pseudo bank replaced wholesale: the crop of each row
    of ``dets`` that ``kept`` marks, in order."""
    rows = zip(dets.class_id[kept].tolist(), *dets.boxes[2:, kept].tolist())
    return CropBank(bank.labeled_bank, tuple(rows))
