import copy
import logging
from bisect import bisect_right
import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrst import rebalance
from acrst.api import BBox, Instance, PastePlacement, merge_annotations, visible_fraction
from acrst.config import ExperimentConfig
from acrst.cropbank import CropBank
from acrst.dataset import MIN_BOX_SIDE, Category, ClassCdfs, Dataset, ImageRecord
from acrst.filtering import FilterConfig
from acrst.model import Detections, DetectorParams, detect
from acrst.rebalance import (
    _FULL_OCCLUSION_EPS,
    LABELED_ABSENT_PR,
    ClassStats,
    ClassTable,
    PasteConfig,
    SamplingDistribution,
    _visible,
    affr_distribution,
    place_pastes,
    pseudo_recall,
    survivor_mask,
)
from acrst.simloop import label_pass


def crop(class_id, w, h, image_id=1):
    return Instance(class_id=class_id, bbox=BBox(0, 0, w, h), source_image_id=image_id)


def truth_instances(record):
    """The truth rows of ``record`` as instances, as the reference paste loop reads them."""
    return [Instance(c, BBox(x, y, w, h), record.id) for c, x, y, w, h in record.truth_rows]


class Mix(NamedTuple):
    """An image after pasting: its class ids, the pasted ones first in paste
    order, then the surviving base ones, and each pasted box's edges."""

    class_ids: list[int]
    placements: list[tuple[float, float, float, float]]


def _forcing_table(rows, rng):
    """A class table of one crop row a pool, under which ``rng``'s next class
    draws pick ``rows`` in order: the CDF steps midway between the sorted
    doubles those draws will take."""
    u = copy.deepcopy(rng).random(len(rows)).tolist()
    order = sorted(range(len(rows)), key=u.__getitem__)
    steps = [u[i] for i in order]
    cdf = [(a + b) / 2.0 for a, b in zip(steps, steps[1:])] + [1.0]
    class_id, w, h = np.array([rows[i] for i in order], dtype=float).reshape(-1, 3).T
    sizes = np.stack((w, h))
    return ClassTable(class_id.astype(np.intp), sizes, np.arange(len(rows)),
                      np.ones(len(rows), dtype=np.intp), np.array(cdf),
                      sizes.max(axis=1, initial=0.0, keepdims=True))


# A teacher that draws nothing on an image without ground truth.
_BLIND = DetectorParams(recall_skill=(1.0,), confusion_rate=0.0, loc_skill=1.0, partial_rate=0.0,
                        fp_rate=0.0, confidence_sharpness=8.0)


def paste(size, rows, rng, config):
    """label_pass's paste columns, a (6, pastes) array, on one image of
    ``size`` without ground truth, whose crops are the rows ``rows``, in order."""
    table = _forcing_table(rows, rng)
    one_stage = ExperimentConfig(two_stage=False, paste=replace(config, crops_per_image=len(rows)))
    dataset = Dataset((ImageRecord(1, *size, ()),), ())
    return label_pass(_BLIND, dataset, [0], rng, one_stage, ClassCdfs([1.0]), table)[2]


def mix(record, crops, rng, config):
    """label_pass's pastes onto a record, each crop given as an instance, then the
    record's ground truth that survivor_mask keeps under the pasted boxes, as
    the loop merges them: the pasted classes first, then the surviving base
    classes."""
    rows = [(c.class_id, c.bbox.w, c.bbox.h) for c in crops]
    pastes = paste((record.width, record.height), rows, rng, config)
    base = np.array([row[1:] for row in record.truth_rows], dtype=float).reshape(-1, 4).T
    image = np.zeros(len(record.truth_rows), dtype=np.intp)
    alive = survivor_mask(base, image, pastes, config.occlusion_threshold).tolist()
    survivors = [row[0] for row, keep in zip(record.truth_rows, alive) if keep]
    edges = [tuple(e) for e in pastes[2:].T.tolist()]
    return Mix(pastes[0].astype(int).tolist() + survivors, edges)


class TestPseudoRecall:
    def test_worked_example(self):
        stats = ClassStats(pseudo_counts=(2, 10), labeled_counts=(2, 2), ratio=5.0)
        pr = pseudo_recall(stats)
        np.testing.assert_allclose(pr, [0.2, 1.0], atol=1e-12)

    def test_absent_class_gets_sentinel(self):
        stats = ClassStats(pseudo_counts=(3, 0), labeled_counts=(0, 4), ratio=2.0)
        pr = pseudo_recall(stats)
        assert pr[0] == LABELED_ABSENT_PR
        assert pr[1] == 0.0

    def test_misaligned_counts(self):
        with pytest.raises(ValueError):
            ClassStats(pseudo_counts=(1,), labeled_counts=(1, 2), ratio=1.0)

    def test_negative_ratio(self):
        with pytest.raises(ValueError):
            ClassStats(pseudo_counts=(1,), labeled_counts=(1,), ratio=0.0)


class TestAffrDistribution:
    def test_worked_example_two_classes(self):
        dist = affr_distribution([0.2, 1.0], beta=2.0)
        np.testing.assert_allclose(dist.mu, [25 / 26, 1 / 26], atol=1e-6)
        np.testing.assert_allclose(dist.mu, [0.961538, 0.038462], atol=1e-6)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pr = rng.uniform(0.01, 2.0, size=rng.integers(1, 9))
            dist = affr_distribution(pr, beta=float(rng.uniform(0.0, 4.0)))
            assert math.isclose(sum(dist.mu), 1.0, abs_tol=1e-9)

    def test_mirror_is_antitone_in_recall(self):
        pr = [0.1, 0.4, 0.9, 2.0]
        dist = affr_distribution(pr, beta=2.0)
        assert dist.mu[0] > dist.mu[1] > dist.mu[2] > dist.mu[3]

    def test_beta_zero_is_uniform(self):
        dist = affr_distribution([0.2, 1.0, 3.0], beta=0.0)
        np.testing.assert_allclose(dist.mu, [1 / 3] * 3, atol=1e-12)

    def test_tie_broken_by_lower_class_id(self):
        # Classes 0 and 1 tie at the top; the lower id takes the earlier rank
        # and therefore receives the weight mirrored from the lowest recall.
        dist = affr_distribution([1.0, 1.0, 0.1], beta=1.0)
        np.testing.assert_allclose(dist.mu, [0.1 / 2.1, 1.0 / 2.1, 1.0 / 2.1], atol=1e-12)

    def test_sentinel_class_gets_minimum_raw_weight(self):
        dist = affr_distribution([0.5, LABELED_ABSENT_PR, 1.0], beta=2.0)
        np.testing.assert_allclose(dist.mu, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)

    def test_all_zero_falls_back_to_uniform(self, caplog):
        with caplog.at_level(logging.WARNING):
            dist = affr_distribution([0.0, 0.0], beta=2.0)
        np.testing.assert_allclose(dist.mu, [0.5, 0.5], atol=1e-12)
        assert any("uniform" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "pr, limit",
        [
            ([0.3, 0.7, 0.0], [0.0, 0.0, 1.0]),
            # The top recall is tied: the two lowest ranks share it mirrored.
            ([0.5, 0.5, 0.2], [0.0, 0.5, 0.5]),
            # A sentinel takes the smallest real weight, 0 unless all tie.
            ([0.5, LABELED_ABSENT_PR, 0.2], [0.0, 0.0, 1.0]),
            ([0.5, LABELED_ABSENT_PR, 0.5], [1 / 3, 1 / 3, 1 / 3]),
        ],
    )
    def test_largest_weight_never_falls_as_beta_grows(self, pr, limit, caplog):
        # Once every raw weight underflows, the result is the beta -> inf
        # limit, not the uniform distribution.
        largest = 0.0
        with caplog.at_level(logging.WARNING):
            for beta in (1.0, 10.0, 100.0, 1e3, 3e3, 1e6, 1e308):
                mu = affr_distribution(pr, beta=beta).mu
                assert max(mu) >= largest
                largest = max(mu)
        np.testing.assert_allclose(mu, limit, atol=1e-12)
        assert not caplog.records

    @settings(max_examples=300, deadline=None)
    @given(
        pr=st.lists(st.one_of(st.just(LABELED_ABSENT_PR), st.floats(0.0, 1e6)), max_size=7),
        real=st.floats(0.0, 1e6),
        at=st.integers(0, 7),
        beta=st.one_of(st.floats(0.0, 10.0), st.floats(10.0, 1e308)),
    )
    def test_real_classes_keep_positive_weight(self, pr, real, at, beta):
        # A class with labeled crops is a real class, so the crop bank's class
        # table always has weight to draw by, even once every raw weight underflows.
        pr.insert(at, real)
        mu = np.asarray(affr_distribution(pr, beta=beta).mu)
        assert mu[np.asarray(pr) < LABELED_ABSENT_PR].sum() > 0.0

    def test_all_sentinel_falls_back_to_uniform(self):
        dist = affr_distribution([LABELED_ABSENT_PR] * 4, beta=2.0)
        np.testing.assert_allclose(dist.mu, [0.25] * 4, atol=1e-12)

    def test_negative_beta(self):
        with pytest.raises(ValueError):
            affr_distribution([0.5, 1.0], beta=-1.0)

    def test_negative_recall(self):
        with pytest.raises(ValueError):
            affr_distribution([-0.1, 1.0], beta=1.0)

    def test_empty_vector(self):
        with pytest.raises(ValueError):
            affr_distribution([], beta=1.0)

    def test_brute_force_cross_check(self):
        """Direct mirror-rank computation agrees on random inputs."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            pr = rng.uniform(0.0, 3.0, size=k)
            if pr.sum() == 0.0:
                continue
            beta = float(rng.uniform(0.0, 3.0))
            order = sorted(range(k), key=lambda i: (-pr[i], i))
            total = pr.sum()
            raw = np.empty(k)
            for rank, idx in enumerate(order):
                raw[idx] = (pr[order[k - 1 - rank]] / total) ** beta
            expected = raw / raw.sum()
            got = affr_distribution(pr, beta=beta)
            np.testing.assert_allclose(got.mu, expected, atol=1e-12)


class TestVisibleFraction:
    def test_no_occluders(self):
        assert visible_fraction(BBox(0, 0, 10, 10), []) == 1.0

    def test_quarter_covered(self):
        vf = visible_fraction(BBox(0, 0, 10, 10), [BBox(5, 5, 10, 10)])
        assert math.isclose(vf, 0.75, abs_tol=1e-12)

    def test_overlapping_occluders_counted_once(self):
        # Two half-covers overlapping in one quadrant: union covers 3/4.
        occ = [BBox(0, 0, 10, 5), BBox(0, 0, 5, 10)]
        vf = visible_fraction(BBox(0, 0, 10, 10), occ)
        assert math.isclose(vf, 0.25, abs_tol=1e-12)

    def test_full_cover(self):
        vf = visible_fraction(BBox(2, 2, 4, 4), [BBox(0, 0, 10, 10)])
        assert vf == 0.0

    def test_touching_edge_does_not_occlude(self):
        vf = visible_fraction(BBox(0, 0, 4, 4), [BBox(4, 0, 4, 4)])
        assert vf == 1.0

    def test_matches_pixel_rasterization(self):
        """Exact grid decomposition agrees with integer-grid pixel counting."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y = rng.integers(0, 20, size=2)
            w, h = rng.integers(1, 30, size=2)
            inst = BBox(float(x), float(y), float(w), float(h))
            occluders = []
            for _ in range(int(rng.integers(0, 5))):
                ox, oy = rng.integers(0, 40, size=2)
                ow, oh = rng.integers(1, 25, size=2)
                occluders.append(BBox(float(ox), float(oy), float(ow), float(oh)))
            mask = np.zeros((int(h), int(w)), dtype=bool)
            for occ in occluders:
                x1 = int(np.clip(occ.x - x, 0, w))
                y1 = int(np.clip(occ.y - y, 0, h))
                x2 = int(np.clip(occ.x2 - x, 0, w))
                y2 = int(np.clip(occ.y2 - y, 0, h))
                mask[y1:y2, x1:x2] = True
            expected = 1.0 - mask.sum() / (w * h)
            assert math.isclose(
                visible_fraction(inst, occluders), expected, abs_tol=1e-9
            )


class TestMerge:
    def setup_method(self):
        self.base = [
            Instance(class_id=1, bbox=BBox(0, 0, 10, 10), source_image_id=5),
            Instance(class_id=2, bbox=BBox(20, 0, 10, 10), source_image_id=5),
        ]
        # Covers exactly half of the first base instance, none of the second.
        self.pasted = [
            PastePlacement(crop=crop(3, 10, 5), target_bbox=BBox(0, 0, 10, 5))
        ]

    def test_pasted_always_first_in_paste_order(self):
        placements = [
            PastePlacement(crop=crop(3, 2, 2), target_bbox=BBox(0, 0, 2, 2)),
            PastePlacement(crop=crop(4, 2, 2), target_bbox=BBox(5, 5, 2, 2)),
        ]
        merged = merge_annotations([], placements, occlusion_threshold=0.0)
        assert [m.class_id for m in merged] == [3, 4]

    def test_threshold_zero_keeps_partially_visible(self):
        merged = merge_annotations(self.base, self.pasted, occlusion_threshold=0.0)
        assert [m.class_id for m in merged] == [3, 1, 2]

    def test_threshold_point_three_keeps_half_visible(self):
        merged = merge_annotations(self.base, self.pasted, occlusion_threshold=0.3)
        assert [m.class_id for m in merged] == [3, 1, 2]

    def test_threshold_point_seven_drops_half_visible(self):
        merged = merge_annotations(self.base, self.pasted, occlusion_threshold=0.7)
        assert [m.class_id for m in merged] == [3, 2]

    def test_fully_occluded_dropped_even_at_zero_threshold(self):
        pasted = [
            PastePlacement(crop=crop(3, 10, 10), target_bbox=BBox(0, 0, 10, 10))
        ]
        merged = merge_annotations(self.base, pasted, occlusion_threshold=0.0)
        assert [m.class_id for m in merged] == [3, 2]

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            merge_annotations(self.base, self.pasted, occlusion_threshold=1.5)


class TestFbrMix:
    def record(self, width=100, height=80):
        return ImageRecord(id=1, width=width, height=height, truth_rows=((1, 10, 10, 20, 20),))

    def test_returns_the_pasted_columns_alone(self):
        got = paste((100, 80), [(2, 30, 20), (3, 5, 5)], np.random.default_rng(1), PasteConfig())
        assert got[0].tolist() == [2, 3] and got[1].tolist() == [0, 0] and got.shape == (6, 2)
        assert paste((100, 80), [], np.random.default_rng(1), PasteConfig()).shape == (6, 0)

    def test_no_crops_passes_through(self):
        mixed = mix(self.record(), [], np.random.default_rng(0), PasteConfig())
        assert mixed == Mix(class_ids=[1], placements=[])

    def test_fitting_crop_keeps_own_size(self):
        rec = self.record()
        mixed = mix(rec, [crop(2, 30, 20)], np.random.default_rng(1), PasteConfig())
        ((x1, y1, x2, y2),) = mixed.placements
        assert (x2, y2) == (x1 + 30, y1 + 20)
        assert 0 <= x1 <= rec.width - 30
        assert 0 <= y1 <= rec.height - 20
        assert mixed.class_ids == [2, 1]

    def test_oversized_crop_rescaled_into_bounds(self):
        rec = self.record(width=100, height=80)
        config = PasteConfig(rescale_min=0.5, rescale_max=1.0)
        big = crop(2, 200, 100)
        for seed in range(20):
            mixed = mix(rec, [big], np.random.default_rng(seed), config)
            ((x1, y1, x2, y2),) = mixed.placements
            longer = max(x2 - x1, y2 - y1)
            assert x2 - x1 < big.bbox.w
            # Longer side becomes a fraction in [min, max] of the shorter image side.
            assert 0.5 * 80 - 1e-9 <= longer <= 1.0 * 80 + 1e-9
            assert x2 <= rec.width + 1e-9
            assert y2 <= rec.height + 1e-9

    def test_unfittable_crop_skipped_with_warning(self, caplog):
        # Rescale factors above 1 can push the longer side past the narrow
        # image dimension; the crop must then be skipped, not clipped.
        rec = self.record(width=50, height=40)
        config = PasteConfig(rescale_min=2.0, rescale_max=3.0)
        with caplog.at_level(logging.WARNING):
            mixed = mix(rec, [crop(2, 100, 100)], np.random.default_rng(0), config)
        assert mixed == Mix(class_ids=[1], placements=[])
        assert any("skipped" in r.message for r in caplog.records)

    def test_class_double_on_a_cdf_step_takes_the_next_class(self):
        # As bisect_right picked it in the per-crop loop: a class double equal
        # to a step of the CDF falls in the class after the step.
        table = ClassTable(np.array([1, 2]), np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([0, 1]),
                           np.array([1, 1]), np.array([0.25, 1.0]), np.array([[2.0], [2.0]]))
        config = PasteConfig(crops_per_image=1)
        got = place_pastes(np.array([[0.25, 0.0, 0.5, 0.5]]), np.array([[10.0], [10.0]]), table,
                           config)
        assert got.T.tolist() == [[2.0, 0.0, 4.0, 4.0, 6.0, 6.0]]
        # On a 1.5x1.5 image, which the 2x2 crop outsizes, class 2's crop takes
        # the rescale double: 0.75 * 1.5 / 2 makes it 1.125 wide. Class 1's
        # 1x1 crop would fit and read x from the fourth double.
        got = place_pastes(np.array([[0.25, 0.0, 0.5, 0.5, 0.5]]), np.array([[1.5], [1.5]]), table,
                           config)
        assert got.T.tolist() == [[2.0, 0.0, 0.1875, 0.1875, 1.3125, 1.3125]]

    def test_paste_occlusion_bookkeeping(self):
        # Crops as large as the image force placement at the origin, so the
        # first paste is fully hidden by the second and the base instance dies.
        rec = ImageRecord(id=1, width=10, height=10, truth_rows=((1, 0, 0, 5, 5),))
        crops = [crop(2, 10, 10, image_id=7), crop(3, 10, 10, image_id=8)]
        mixed = mix(rec, crops, np.random.default_rng(0), PasteConfig())
        assert mixed.class_ids == [2, 3]
        assert len(mixed.placements) == 2


def _grid_visible_fraction(inst, occluders):
    """Reference visibility: BBox intersections and the cell grid for any overlap."""
    clipped = [c for c in (occ.intersection(inst) for occ in occluders) if c is not None]
    if not clipped:
        return 1.0
    xs = np.unique(np.array([inst.x, inst.x2] + [v for c in clipped for v in (c.x, c.x2)]))
    ys = np.unique(np.array([inst.y, inst.y2] + [v for c in clipped for v in (c.y, c.y2)]))
    cx = (xs[:-1] + xs[1:]) / 2.0
    cy = (ys[:-1] + ys[1:]) / 2.0
    covered = np.zeros((cx.size, cy.size), dtype=bool)
    for c in clipped:
        covered |= np.outer((cx > c.x) & (cx < c.x2), (cy > c.y) & (cy < c.y2))
    covered_area = float(np.outer(np.diff(xs), np.diff(ys))[covered].sum())
    visible = max(0.0, inst.area - covered_area)
    return min(1.0, visible / inst.area)


def _grid_merge(base, pasted, occlusion_threshold):
    rects = [p.target_bbox for p in pasted]
    merged = [Instance(p.crop.class_id, p.target_bbox, p.crop.source_image_id) for p in pasted]
    for inst in base:
        vf = _grid_visible_fraction(inst.bbox, rects)
        if vf <= 1e-12 or vf < occlusion_threshold:
            continue
        merged.append(inst)
    return merged


@dataclass(frozen=True)
class MixedRecord:
    """A base image after the reference paste loop: the pasted instances
    first, one per placement in paste order, then the surviving base ones."""

    placements: tuple[PastePlacement, ...]
    merged_annotations: tuple[Instance, ...]


def _as_mix(mixed):
    """A reference result as :func:`mix` gives it: class ids and edges."""
    return Mix(
        [inst.class_id for inst in mixed.merged_annotations],
        [(b.x, b.y, b.x2, b.y2) for b in (p.target_bbox for p in mixed.placements)],
    )


def _per_crop_fbr_mix(record, crops, rng, config, largest=None):
    """Reference paste loop: scalar draws, crop by crop, after the class and
    entry doubles that pick ``crops`` in order under :func:`_forcing_table`.
    On an image that the table's largest crop, ``largest`` (w, h) or else the
    largest of ``crops``, outsizes, each crop draws three doubles: a rescale
    double, x and y; on any other, two: x and y.

    Returns the mixed record and the scale applied to each placed crop.
    """
    rng.random(2 * len(crops))
    width, height = record.width, record.height
    if largest is None:
        largest = [max((getattr(c.bbox, side) for c in crops), default=0.0) for side in "wh"]
    outsized = largest[0] > width or largest[1] > height
    lo, hi = config.rescale_min, config.rescale_max
    placements, scales = [], []
    for c in crops:
        u = rng.random(3 if outsized else 2).tolist()
        w, h = c.bbox.w, c.bbox.h
        scale = 1.0
        if w > width or h > height:
            scale = (lo + (hi - lo) * u[0]) * min(width, height) / max(w, h)
            if w * scale > width or h * scale > height:
                scale = lo * min(width, height) / max(w, h)
                if w * scale > width or h * scale > height:
                    continue
        pw, ph = w * scale, h * scale
        x, y = 0.0 + (width - pw) * u[-2], 0.0 + (height - ph) * u[-1]
        placements.append(PastePlacement(crop=c, target_bbox=BBox(x, y, pw, ph)))
        scales.append(scale)
    merged = _grid_merge(truth_instances(record), placements, config.occlusion_threshold)
    return MixedRecord(placements=tuple(placements), merged_annotations=tuple(merged)), scales


_coord = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 5.0, 7.5, 10.0]),
    st.floats(0.0, 12.0),
)
_side = st.one_of(st.sampled_from([0.5, 2.5, 5.0, 10.0]), st.floats(1e-3, 12.0))


@st.composite
def _box(draw):
    return BBox(draw(_coord), draw(_coord), draw(_side), draw(_side))


def _occluder(inst, kind, other):
    """An occluder placed relative to ``inst``."""
    up = math.inf
    return {
        "any": other,
        "equal": inst,
        "nested": BBox(inst.x + inst.w / 4, inst.y + inst.h / 4, inst.w / 2, inst.h / 2),
        "around": BBox(inst.x - 1.0, inst.y - 1.0, inst.w + 2.0, inst.h + 2.0),
        "shared_edge": BBox(inst.x2, inst.y, 3.0, inst.h),
        "one_ulp": BBox(math.nextafter(inst.x2, -up), inst.y - 1.0, 3.0, inst.h + 2.0),
        "two_ulp": BBox(
            math.nextafter(math.nextafter(inst.x2, -up), -up), inst.y, 3.0, inst.h / 2
        ),
    }[kind]


_KINDS = ["any", "any", "equal", "nested", "around", "shared_edge", "one_ulp", "two_ulp"]


@st.composite
def _occluded_box(draw):
    inst = draw(_box())
    occluders = [
        _occluder(inst, draw(st.sampled_from(_KINDS)), draw(_box()))
        for _ in range(draw(st.integers(0, 6)))
    ]
    return inst, occluders


@st.composite
def _paste_case(draw):
    records = []
    for image_id in range(draw(st.integers(1, 3))):
        width, height = draw(st.sampled_from([(10, 10), (37, 23), (60, 100), (100, 60)]))
        gt = []
        for _ in range(draw(st.integers(0, 4))):
            w, h = draw(st.integers(1, width)), draw(st.integers(1, height))
            x, y = draw(st.integers(0, width - w)), draw(st.integers(0, height - h))
            gt.append((1, x, y, w, h))
        sides = st.one_of(st.sampled_from([1.0, 10.0, 23.0, 60.0, 100.0]), st.floats(0.5, 250.0))
        crops = [
            crop(2, draw(sides), draw(sides), image_id=j) for j in range(draw(st.integers(0, 5)))
        ]
        records.append(
            (ImageRecord(id=image_id, width=width, height=height, truth_rows=tuple(gt)), crops)
        )
    rescale_min = draw(st.sampled_from([0.25, 0.5, 1.0, 1.3, 2.0]))
    config = PasteConfig(
        crops_per_image=2,
        rescale_min=rescale_min,
        rescale_max=rescale_min + draw(st.sampled_from([0.0, 0.5, 1.5])),
        occlusion_threshold=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
    )
    return records, config


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _per_crop_pass(dataset, indices, crop_rows, mu, config, teacher, rng):
    """Reference paste columns and skip warnings of a pass: per image the
    detector's draws, in a two-stage mode the oracle's two doubles per class,
    then the class and entry doubles that pick its crops from pools of
    instances and :func:`_per_crop_fbr_mix`'s scalar placement draws, given
    the largest crop over the pools in 1..k."""
    k, n = dataset.num_classes, config.paste.crops_per_image
    pools = {}
    for c, w, h in crop_rows:
        pools.setdefault(c, []).append(crop(c, w, h))
    available = [c for c in range(1, k + 1) if c in pools]
    largest = [max(row[side] for row in crop_rows if 1 <= row[0] <= k) for side in (1, 2)]
    weights = np.asarray(mu)[np.array(available) - 1]
    cdf = np.cumsum(weights / weights.sum())
    cdf = (cdf / cdf[-1]).tolist()
    record = detect(Detections(dataset, teacher, dataset.class_cdfs), rng)
    columns, warnings = [], []
    for j, i in enumerate(indices):
        record(i)
        if config.two_stage:
            rng.random(2 * k)
        u = copy.deepcopy(rng).random(2 * n).tolist()
        crops = []
        for a, b in zip(u[:n], u[n:]):
            pool = pools[available[bisect_right(cdf, a)]]
            crops.append(pool[int(b * len(pool))])
        img = dataset.images[i]
        mixed, _ = _per_crop_fbr_mix(img, crops, rng, config.paste, largest)
        columns += [[float(p.crop.class_id), float(j), b.x, b.y, b.x2, b.y2]
                    for p, b in ((p, p.target_bbox) for p in mixed.placements)]
        placed = {id(p.crop) for p in mixed.placements}
        warnings += [f"crop {c.bbox.w:.0f}x{c.bbox.h:.0f} of class {c.class_id} does not fit "
                     f"{img.width}x{img.height} even at minimum rescale; skipped"
                     for c in crops if id(c) not in placed]
    return columns, warnings


# Every crop of the strategy below fits the 500x450 image as it is.
_PASS_SIZES = [(10.0, 10.0), (37.0, 23.0), (100.0, 60.0), (60.0, 100.0), (320.0, 240.0),
               (500.0, 450.0), (500.0, 450.0)]


@st.composite
def _mixed_pass(draw):
    """Images of mixed sizes, some with ground truth, the order a pass labels
    them in, and a bank whose crops fit some images as they are, need a
    rescale on others and fit some not even at the minimum rescale; some
    crops lie past class 3, and at least one labeled crop inside it."""
    records = draw(st.lists(st.tuples(st.sampled_from(_PASS_SIZES), st.integers(0, 2)),
                            min_size=1, max_size=6))
    side = st.one_of(st.sampled_from([5.0, 20.0, 60.0, 150.0, 200.0, 300.0]), st.floats(1.0, 400.0))
    row = st.tuples(st.integers(1, 4), side, side)
    labeled = draw(st.lists(row, max_size=6))
    labeled.insert(0, (draw(st.integers(1, 3)), draw(side), draw(side)))
    pseudo_rows = draw(st.lists(row, max_size=4))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=3))
    indices = draw(st.lists(st.integers(0, len(records) - 1), min_size=1, max_size=8))
    rescale_min = draw(st.sampled_from([0.25, 0.5, 1.0, 1.3, 2.0]))
    paste_config = PasteConfig(
        crops_per_image=draw(st.integers(1, 4)),
        rescale_min=rescale_min,
        rescale_max=rescale_min + draw(st.sampled_from([0.0, 0.5, 1.5])),
    )
    return (tuple(records), tuple(labeled), tuple(pseudo_rows), tuple(weights), indices,
            draw(st.booleans()), paste_config)


class TestPasteEquivalence:
    """Bulk draws and the occlusion grid reproduce the per-crop loop and the
    reference cell grid exactly."""

    @settings(max_examples=400, deadline=None)
    @given(case=_occluded_box())
    @example(case=(BBox(0, 0, 10, 10), [BBox(0, 0, 10, 10)]))
    @example(case=(BBox(0, 0, 10, 10), [BBox(10, 0, 5, 10), BBox(0, 10, 10, 5)]))
    @example(case=(BBox(0, 0, 10, 10), [BBox(2, 2, 4, 4)]))
    @example(case=(BBox(0, 0, 10, 10), [BBox(math.nextafter(10.0, 0.0), 0, 5, 10)]))
    # The overlap's right edge, x1 + (x2 - x1), lands past the box's edge.
    @example(
        case=(
            BBox(18.266865139080878, 0, 78.20832396268057, 5),
            [BBox(27.17190023531588, 1, 90, 2)],
        )
    )
    # Two overlaps clipped at the box's right and bottom edges. The second's
    # left edge plus its width, x1 + (x2 - x1), falls one ulp short of x + w;
    # the grid's edges, and so the fraction's last bit, follow that sum.
    @example(
        case=(
            BBox(0.0067697896808121905, 0.00037039063503570426,
                 0.03392927710154865, 0.008471741715505365),
            [BBox(0.01059345919491031, 0.0033077010379664283,
                  0.03143513421814417, 0.006496367507258549),
             BBox(0.009121583230363831, 0.0030373645049684645,
                  0.035270540725082275, 0.009497825018657875)],
        )
    )
    # Sixteen covered cells, whose areas np.sum adds pairwise: adding them
    # left to right would give a different last bit.
    @example(
        case=(
            BBox(0.0, 0.0, 1.0, 1.0),
            [BBox(0.4, 0.7000000000000001, 0.5, 0.4),
             BBox(-0.1, 0.8, 0.30000000000000004, 0.30000000000000004),
             BBox(0.1, 0.4, 0.6000000000000001, 0.5)],
        )
    )
    # Forty-nine cells, all covered by the first occluder.
    @example(
        case=(
            BBox(0, 0, 10, 10),
            [BBox(-1, -1, 12, 12), BBox(1, 1, 2, 2), BBox(4, 4, 2, 2), BBox(7, 7, 2, 2)],
        )
    )
    def test_visible_fraction_matches_grid(self, case):
        inst, occluders = case
        assert visible_fraction(inst, occluders) == _grid_visible_fraction(inst, occluders)

    def test_clipped_edges_keep_their_rounded_sum(self):
        # The two-overlap example above, on _visible's edges. Storing the
        # clipped right edge as x2 rather than x1 + (x2 - x1) moves the
        # fraction's last bit to 0.36230199302071386.
        box = (0.0067697896808121905, 0.00037039063503570426,
               0.03392927710154865, 0.008471741715505365)
        rects = [
            (0.01059345919491031, 0.0033077010379664283,
             0.04202859341305448, 0.009804068545224977),
            (0.009121583230363831, 0.0030373645049684645,
             0.04439212395544611, 0.012535189523626339),
        ]
        assert _visible(*box, rects).hex() == (0.362301993020714).hex()

    @settings(max_examples=200, deadline=None)
    @given(
        cases=st.lists(_occluded_box(), min_size=1, max_size=5),
        threshold=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_merge_matches_grid(self, cases, threshold):
        # Every generated box is a base instance; every occluder is pasted.
        base = [Instance(1, inst, 1) for inst, _ in cases]
        pasted = [
            PastePlacement(crop=crop(2, occ.w, occ.h), target_bbox=occ)
            for _, occluders in cases
            for occ in occluders
        ]
        assert merge_annotations(base, pasted, threshold) == _grid_merge(base, pasted, threshold)

    @settings(max_examples=300, deadline=None)
    @given(case=_paste_case(), seed=st.integers(0, 2**32 - 1))
    # No crops at all, and a fixed rescale factor.
    @example(case=([(ImageRecord(1, 10, 10, ((1, 0, 0, 5, 5),)), [])],
                   PasteConfig()), seed=0)
    @example(
        case=([(ImageRecord(1, 60, 100, ((1, 0, 0, 30, 30),)),
                [crop(2, 250.0, 90.0), crop(2, 10.0, 10.0, image_id=2)])],
              PasteConfig(rescale_min=0.5, rescale_max=0.5, occlusion_threshold=0.5)),
        seed=1,
    )
    # Rescale bounds so large that a factor times a side overflows to inf,
    # silently, as in Python floats: the crop takes the minimum rescale, or
    # with the minimum itself that large it is skipped.
    @example(case=([(ImageRecord(1, 60, 100, ()), [crop(2, 250.0, 90.0)])],
                   PasteConfig(rescale_min=0.5, rescale_max=1e308)), seed=2)
    @example(case=([(ImageRecord(1, 60, 100, ()), [crop(2, 250.0, 90.0)])],
                   PasteConfig(rescale_min=1e308, rescale_max=1e308)), seed=2)
    def test_pastes_match_per_crop_loop(self, case, seed):
        records, config = case
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        for record, crops in records:
            got = mix(record, crops, rng_got, config)
            want, _ = _per_crop_fbr_mix(record, crops, rng_want, config)
            assert got == _as_mix(want)
            assert rng_got.bit_generator.state == rng_want.bit_generator.state
        assert rng_got.random() == rng_want.random()

    def test_fits_rescales_and_skips_in_one_image(self, caplog):
        # Float sides, as every parsed or generated dataset holds them.
        rec = ImageRecord(id=1, width=100.0, height=60.0, truth_rows=((1, 40, 20, 20, 20),))
        config = PasteConfig(rescale_min=1.3, rescale_max=1.8)
        # As is; at the drawn factor; at rescale_min; skipped.
        crops = [crop(2, 20, 20), crop(3, 300, 100), crop(4, 200, 150), crop(5, 200, 200)]
        rng_got, rng_want = np.random.default_rng(5), np.random.default_rng(5)
        with caplog.at_level(logging.WARNING):
            got = mix(rec, crops, rng_got, config)
        want, scales = _per_crop_fbr_mix(rec, crops, rng_want, config)
        assert got == _as_mix(want)
        assert rng_got.random() == rng_want.random()
        assert got.class_ids[:3] == [2, 3, 4]
        assert [p.crop.bbox.w for p in want.placements] == [20, 300, 200]
        assert scales[0] == 1.0
        assert scales[1] != 1.3 * 60 / 300
        assert scales[2] == 1.3 * 60 / 200
        assert [r.getMessage() for r in caplog.records] == [
            "crop 200x200 of class 5 does not fit 100.0x60.0 even at minimum rescale; skipped"
        ]


    @settings(max_examples=150, deadline=None)
    @given(case=_mixed_pass(), seed=st.integers(0, 2**32 - 1))
    # One pass: every crop fits the 320x240 images, which draw 2 placement
    # doubles a crop; the 100x60 image, which draws 3 a crop, takes a 20x20
    # crop as it is, rescales a 300x100 one and skips a 200x200 one.
    @example(
        case=((((320.0, 240.0), 1), ((100.0, 60.0), 2), ((320.0, 240.0), 0)),
              ((1, 20.0, 20.0), (2, 300.0, 100.0), (3, 200.0, 200.0)), (),
              (1.0, 1.0, 1.0), [0, 1, 2, 1], True, PasteConfig(crops_per_image=4,
                                                               rescale_min=1.3, rescale_max=1.8)),
        seed=5,
    )
    def test_pass_mixes_fitting_and_outsized_images(self, case, seed):
        records, labeled, pseudo_rows, weights, indices, two_stage, paste_config = case
        k = 3
        dataset = Dataset(
            tuple(ImageRecord(j, w, h, ((1 + j % k, 0.0, 0.0, w / 2, h / 2),) * n_truth)
                  for j, ((w, h), n_truth) in enumerate(records)),
            tuple(Category(c, f"c{c}", c) for c in range(1, k + 1)),
        )
        columns = [np.array(rows, dtype=float).reshape(-1, 3).T for rows in (labeled, pseudo_rows)]
        bank = CropBank(columns[0][0].astype(np.intp), columns[0][1:],
                        columns[1][0].astype(np.intp), columns[1][1:])
        mu = SamplingDistribution.normalized(weights).mu
        config = ExperimentConfig(two_stage=two_stage, paste=paste_config,
                                  filter=FilterConfig(mode="two_stage_filtering"))
        teacher = DetectorParams(recall_skill=(0.8,) * k, confusion_rate=0.3, loc_skill=0.5,
                                 partial_rate=0.2, fp_rate=0.5, confidence_sharpness=8.0)
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        logger, seen = logging.getLogger("acrst.rebalance"), _Messages()
        logger.addHandler(seen)
        try:
            _, _, got = label_pass(teacher, dataset, indices, rng_got, config, dataset.class_cdfs,
                                   bank.class_table(mu))
        finally:
            logger.removeHandler(seen)
        want, warnings = _per_crop_pass(dataset, indices, [*labeled, *pseudo_rows], mu, config,
                                        teacher, rng_want)
        assert got.T.tolist() == want
        assert seen.messages == warnings
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


# Coordinates up to 1e9 and sides down to MIN_BOX_SIDE, with the edges and
# small values where rounding bites.
_far = st.one_of(st.sampled_from([0.0, 1.0, 1e9]), st.floats(0.0, 12.0), st.floats(0.0, 1e9))
_thin = st.one_of(
    st.sampled_from([MIN_BOX_SIDE, 1.0, 10.0]),
    st.floats(MIN_BOX_SIDE, 12.0),
    st.floats(MIN_BOX_SIDE, 1e9),
)

# A row the known overlap rounds past: its clipped right edge,
# x1 + (x2 - x1), is one ulp beyond the row's x + w.
_PAST_EDGE_ROW = (18.266865139080878, 0.0, 78.20832396268057, 5.0)
_PAST_EDGE_PASTE = (27.17190023531588, 1.0, 27.17190023531588 + 90, 3.0)


@st.composite
def _pasted_over(draw, box, kind):
    """The edges of a pasted box placed relative to the row ``box``."""
    x, y, w, h = box
    if kind == "share_edge":
        return (x + w, y, x + w + draw(_thin), y + h)
    if kind == "nest":
        return (x + w / 4, y + h / 4, x + w / 2, y + h / 2)
    if kind == "cover":
        return (x - 1.0, y - 1.0, x + w + 1.0, y + h + 1.0)
    if kind == "equal":
        return (x, y, x + w, y + h)
    if kind == "past_edge":
        left = x + w * draw(st.floats(0.0, 1.0))
        return (left, y + h / 4, left + w + draw(_thin), y + h / 2)
    if kind == "one_ulp":
        return (math.nextafter(x + w, -math.inf), y - 1.0, x + w + 3.0, y + h + 1.0)
    if kind == "partial":
        left, top = x + w * draw(st.floats(-0.5, 1.0)), y + h * draw(st.floats(-0.5, 1.0))
        return (left, top, left + draw(_thin), top + draw(_thin))
    left, top = draw(_far), draw(_far)
    return (left, top, left + draw(_thin), top + draw(_thin))


_PASTE_KINDS = ["share_edge", "nest", "cover", "equal", "past_edge", "one_ulp", "partial", "any"]


@st.composite
def _occlusion_pass(draw):
    """One to four images, each its rows (x, y, w, h) and its pasted boxes'
    edges, most of them placed relative to one of its rows."""
    images = []
    for _ in range(draw(st.integers(1, 4))):
        rows = [
            (draw(_far), draw(_far), draw(_thin), draw(_thin))
            for _ in range(draw(st.integers(0, 4)))
        ]
        edges = []
        for kind in draw(st.lists(st.sampled_from(_PASTE_KINDS), max_size=5)):
            if not rows:
                kind = "any"
            box = draw(st.sampled_from(rows)) if rows else None
            edges.append(draw(_pasted_over(box or (0.0, 0.0, 1.0, 1.0), kind)))
        images.append((rows, edges))
    return images


def _pass_columns(images):
    """The rows' (4, N) boxes and image column, and the (6, P) paste columns."""
    boxes = [box for rows, _ in images for box in rows]
    image = [j for j, (rows, _) in enumerate(images) for _ in rows]
    pastes = [(1, j, *e) for j, (_, edges) in enumerate(images) for e in edges]
    return (
        np.array(boxes, dtype=float).reshape(-1, 4).T,
        np.array(image, dtype=np.intp),
        np.array(pastes, dtype=float).reshape(-1, 6).T,
    )


SURVIVOR_BUDGET_S = 10.0


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(images=_occlusion_pass(), threshold=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
@example(images=[([_PAST_EDGE_ROW], [_PAST_EDGE_PASTE])], threshold=0.0)
# Half the row visible at threshold 0.5: kept, as the threshold is inclusive.
@example(images=[([(0.0, 0.0, 10.0, 10.0)], [(0.0, 0.0, 5.0, 10.0)])], threshold=0.5)
# Two overlaps whose summed areas leave exactly the threshold visible, where
# _visible, by rounding, gives one ulp less (0.8264110191362778): without the
# union bound's margin the row would be kept without reaching _visible.
@example(
    images=[(
        [(84.13747920447571, 103.70514142323516, 73.97281586904265, 53.562611979412544)],
        [(138.56347469208418, 97.49527063657365, 181.8869256516549, 130.50527746088335),
         (106.49744834443251, 79.83027718607254, 122.75981421615421, 113.78564655500281)],
    )],
    threshold=0.8264110191362779,
)
def _survivor_passes(images, threshold):
    want = []
    for rows, edges in images:
        for box in rows:
            vf = _visible(*box, edges)
            want.append(vf > _FULL_OCCLUSION_EPS and vf >= threshold)
    assert survivor_mask(*_pass_columns(images), threshold).tolist() == want


class TestSurvivorMask:
    """The per-pass occlusion decision is :func:`_visible`'s, row by row."""

    def test_matches_visible_row_by_row(self):
        start = time.perf_counter()
        _survivor_passes()
        elapsed = time.perf_counter() - start
        assert elapsed <= SURVIVOR_BUDGET_S, f"took {elapsed:.1f}s, budget {SURVIVOR_BUDGET_S:.0f}s"

    def test_visible_only_for_undecided_rows(self, monkeypatch):
        # Threshold 0.3. Image 0: the paste covers half of row A, so the bound
        # keeps it; row B is untouched; row C lies inside the paste. Image 1:
        # the third paste covers all of row D; the first two overlap each
        # other on row E, whose summed overlaps leave 0.2 visible but whose
        # union leaves 0.4. Rows C, D and E reach _visible.
        rows_0 = [(0.0, 0.0, 10.0, 10.0), (20.0, 0.0, 10.0, 10.0), (1.0, 1.0, 2.0, 2.0)]
        rows_1 = [(32.0, 2.0, 4.0, 4.0), (0.0, 0.0, 20.0, 10.0)]
        images = [
            (rows_0, [(0.0, 0.0, 5.0, 10.0)]),
            (rows_1, [(0.0, 0.0, 8.0, 10.0), (4.0, 0.0, 12.0, 10.0), (30.0, 0.0, 40.0, 10.0)]),
        ]
        calls = []

        def counting(*args):
            calls.append(args[:4])
            return _visible(*args)

        monkeypatch.setattr(rebalance, "_visible", counting)
        assert survivor_mask(*_pass_columns(images), 0.3).tolist() == [
            True, True, False, False, True
        ]
        assert calls == [rows_0[2], *rows_1]


class TestSamplingDistributionInvariants:
    def test_normalized_constructor(self):
        dist = SamplingDistribution.normalized([2.0, 6.0])
        np.testing.assert_allclose(dist.mu, [0.25, 0.75], atol=1e-12)
