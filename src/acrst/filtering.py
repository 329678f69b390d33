"""Pseudo-label filtering by confidence score and image-level class activations.

Stage one keeps predictions whose score clears ``tau_cls``. Stage two consults
a multi-label image classifier's activation for the predicted class: the
filtering variant requires both stages to agree (AND), the mining variant
keeps a prediction when either stage fires (OR). The image classifier is
simulated by a noisy oracle over the record's hidden ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Activation band [0.6, 1.0] for classes the oracle reports as present.
_HIGH_LO, _HIGH_SPAN = 0.6, 1.0 - 0.6


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds and variant selection for pseudo-label filtering.

    ``config.SCHEMA`` gives each field's range; the loop trusts it.
    """

    tau_cls: float = 0.7
    tau_ml: float = 0.2
    mode: str = "two_stage_filtering"


@dataclass(frozen=True)
class OracleNoise:
    """Error rates of the simulated image-level classifier.

    ``fn_rate`` is the chance a present class activates in the low band,
    ``fp_rate`` the chance an absent class activates in the high band.
    """

    fn_rate: float = 0.1
    fp_rate: float = 0.1


def keep_mask(
    scores: Sequence[float], activations: Sequence[float] | None, config: FilterConfig
) -> np.ndarray:
    """Which predictions, given as columns, survive filtering: score >= tau_cls
    in ``one_stage``, and also (AND, ``two_stage_filtering``) or else (OR,
    ``two_stage_mining``) an activation of the predicted class >= tau_ml, which
    needs each row's activation."""
    passed = np.asarray(scores, dtype=float) >= config.tau_cls
    if config.mode == "one_stage":
        return passed
    if activations is None:
        raise ValueError("two-stage filtering needs each row's activation")
    active = np.asarray(activations, dtype=float) >= config.tau_ml
    return passed | active if config.mode == "two_stage_mining" else passed & active


def oracle_activations(
    draws: np.ndarray, present: np.ndarray, noise: OracleNoise, tau_ml: float
) -> np.ndarray:
    """Image-level activations of classes from their oracle doubles: each pair
    along the last axis of ``draws`` is a class's band test then band value on
    one image, and ``present`` says whether the class is in that image's ground
    truth.

    Present classes draw from the high band [0.6, 1.0] unless a false negative
    fires; absent classes draw from the low band [0, tau_ml) unless a false
    positive fires. The loop passes the filter's ``tau_ml``, so the low band
    ends where the image-level gate starts.
    """
    test, value = draws[..., 0], draws[..., 1]
    high = np.where(present, test >= noise.fn_rate, test < noise.fp_rate)
    # ``lo + (hi - lo) * u`` is what ``Generator.uniform(lo, hi)`` computes.
    return np.where(high, _HIGH_LO + _HIGH_SPAN * value, 0.0 + (tau_ml - 0.0) * value)
