import logging
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrst.api import BBox, Instance, PastePlacement, merge_annotations, visible_fraction
from acrst.dataset import ImageRecord
from acrst.rebalance import (
    LABELED_ABSENT_PR,
    ClassStats,
    Mix,
    PasteConfig,
    SamplingDistribution,
    affr_distribution,
    fbr_mix,
    occlusion_survivors,
    pseudo_recall,
)


def crop(class_id, w, h, image_id=1):
    return Instance(class_id=class_id, bbox=BBox(0, 0, w, h), source_image_id=image_id)


def truth_instances(record):
    """The truth rows of ``record`` as instances, as the reference paste loop reads them."""
    return [Instance(c, BBox(x, y, w, h), record.id) for c, x, y, w, h in record.truth_rows]


def mix(record, crops, rng, config):
    """fbr_mix onto a record, each crop given as an instance, then the record's
    ground truth that survives the pasted boxes, as the loop merges them: the
    pasted classes first, then the surviving base classes."""
    base = list(record.truth_rows)
    rows = [(c.class_id, c.bbox.w, c.bbox.h) for c in crops]
    pasted = fbr_mix((record.width, record.height), rows, rng, config)
    survivors = occlusion_survivors(base, pasted.placements, config.occlusion_threshold)
    return Mix(pasted.class_ids + survivors, pasted.placements)


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

    def test_returns_the_pasted_classes_alone(self):
        got = fbr_mix((100, 80), [(2, 30, 20), (3, 5, 5)], np.random.default_rng(1),
                      PasteConfig())
        assert got.class_ids == [2, 3] and len(got.placements) == 2
        assert fbr_mix((100, 80), [], np.random.default_rng(1), PasteConfig()) == Mix([], [])

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

    def test_paste_occlusion_bookkeeping(self):
        # Crops as large as the image force placement at the origin, so the
        # first paste is fully hidden by the second and the base instance dies.
        rec = ImageRecord(id=1, width=10, height=10, truth_rows=((1, 0, 0, 5, 5),))
        crops = [crop(2, 10, 10, image_id=7), crop(3, 10, 10, image_id=8)]
        mixed = mix(rec, crops, np.random.default_rng(0), PasteConfig())
        assert mixed.class_ids == [2, 3]
        assert len(mixed.placements) == 2

    def test_pasted_box_needs_positive_sides(self):
        # The rescale underflows to zero: the pasted box has no area.
        rec = ImageRecord(id=1, width=10, height=10)
        config = PasteConfig(rescale_min=1e-300, rescale_max=1e-300)
        with pytest.raises(ValueError, match="positive"):
            mix(rec, [crop(2, 1e300, 1e300)], np.random.default_rng(0), config)
        with pytest.raises(ValueError, match="positive"):
            _per_crop_fbr_mix(rec, [crop(2, 1e300, 1e300)], np.random.default_rng(0), config)


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
    """A reference result as :func:`fbr_mix` gives it: class ids and edges."""
    return Mix(
        [inst.class_id for inst in mixed.merged_annotations],
        [(b.x, b.y, b.x2, b.y2) for b in (p.target_bbox for p in mixed.placements)],
    )


def _per_crop_fbr_mix(record, crops, rng, config):
    """Reference paste loop: scalar rng.uniform draws, crop by crop.

    Returns the mixed record and the scale applied to each placed crop.
    """
    width, height = record.width, record.height
    placements, scales = [], []
    for c in crops:
        w, h = c.bbox.w, c.bbox.h
        scale = 1.0
        if w > width or h > height:
            factor = float(rng.uniform(config.rescale_min, config.rescale_max))
            scale = factor * min(width, height) / max(w, h)
            if w * scale > width or h * scale > height:
                scale = config.rescale_min * min(width, height) / max(w, h)
                if w * scale > width or h * scale > height:
                    continue
        pw, ph = w * scale, h * scale
        x = float(rng.uniform(0.0, width - pw))
        y = float(rng.uniform(0.0, height - ph))
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


class TestPasteEquivalence:
    """Bulk draws and closed-form occlusion reproduce the per-crop loop and the
    cell grid exactly."""

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

    def test_short_sums_left_to_right_equal_np_sum(self):
        # The grid adds fewer than eight cell areas left to right and more
        # with np.sum. That keeps to np.sum's bits only while np.sum adds an
        # array of one to seven doubles left to right from 0.0.
        rng = np.random.default_rng(0)
        for n in range(1, 8):
            for _ in range(2000):
                widths = rng.random(n) * 10.0 ** rng.integers(-3, 4, n)
                areas = (widths * rng.random(n) * 10.0 ** rng.integers(-3, 4, n)).tolist()
                total = 0.0
                for area in areas:
                    total += area
                assert total.hex() == float(np.sum(areas)).hex(), areas

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
    def test_fbr_mix_matches_per_crop_loop(self, case, seed):
        records, config = case
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        for record, crops in records:
            got = mix(record, crops, rng_got, config)
            want, _ = _per_crop_fbr_mix(record, crops, rng_want, config)
            assert got == _as_mix(want)
        assert rng_got.random() == rng_want.random()

    def test_fits_rescales_and_skips_in_one_image(self, caplog):
        rec = ImageRecord(id=1, width=100, height=60, truth_rows=((1, 40, 20, 20, 20),))
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
            "crop 200x200 of class 5 does not fit 100x60 even at minimum rescale; skipped"
        ]


class TestSamplingDistributionInvariants:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SamplingDistribution(mu=(0.5, 0.4))

    def test_normalized_constructor(self):
        dist = SamplingDistribution.normalized([2.0, 6.0])
        np.testing.assert_allclose(dist.mu, [0.25, 0.75], atol=1e-12)

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            SamplingDistribution.normalized([0.0, 0.0])
