import logging
import math

import numpy as np
import pytest

from acrst import (
    LABELED_ABSENT_PR,
    BBox,
    ClassStats,
    CropEntry,
    ImageRecord,
    Instance,
    MixedRecord,
    PasteConfig,
    PastePlacement,
    SamplingDistribution,
    affr_distribution,
    fbr_mix,
    merge_annotations,
    pseudo_recall,
    visible_fraction,
)


def crop(class_id, w, h, image_id=1):
    return CropEntry(
        source_image_id=image_id,
        bbox=BBox(0, 0, w, h),
        class_id=class_id,
        score=1.0,
        origin="labeled",
    )


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
        gt = (Instance(class_id=1, bbox=BBox(10, 10, 20, 20), source_image_id=1),)
        return ImageRecord(id=1, width=width, height=height, ground_truth=gt)

    def test_no_crops_passes_through(self):
        rec = self.record()
        mixed = fbr_mix(rec, [], np.random.default_rng(0), PasteConfig())
        assert mixed.placements == ()
        assert mixed.merged_annotations == rec.ground_truth
        assert mixed.pasted_flags == (False,)

    def test_fitting_crop_keeps_own_size(self):
        rec = self.record()
        mixed = fbr_mix(
            rec, [crop(2, 30, 20)], np.random.default_rng(1), PasteConfig()
        )
        (placement,) = mixed.placements
        assert placement.rescale == 1.0
        assert placement.target_bbox.w == 30
        assert placement.target_bbox.h == 20
        assert 0 <= placement.target_bbox.x <= rec.width - 30
        assert 0 <= placement.target_bbox.y <= rec.height - 20

    def test_oversized_crop_rescaled_into_bounds(self):
        rec = self.record(width=100, height=80)
        config = PasteConfig(rescale_min=0.5, rescale_max=1.0)
        big = crop(2, 200, 100)
        for seed in range(20):
            mixed = fbr_mix(rec, [big], np.random.default_rng(seed), config)
            (placement,) = mixed.placements
            longer = max(placement.target_bbox.w, placement.target_bbox.h)
            assert placement.rescale < 1.0
            # Longer side becomes a fraction in [min, max] of the shorter image side.
            assert 0.5 * 80 - 1e-9 <= longer <= 1.0 * 80 + 1e-9
            assert placement.target_bbox.x2 <= rec.width + 1e-9
            assert placement.target_bbox.y2 <= rec.height + 1e-9

    def test_unfittable_crop_skipped_with_warning(self, caplog):
        # Rescale factors above 1 can push the longer side past the narrow
        # image dimension; the crop must then be skipped, not clipped.
        rec = self.record(width=50, height=40)
        config = PasteConfig(rescale_min=2.0, rescale_max=3.0)
        with caplog.at_level(logging.WARNING):
            mixed = fbr_mix(
                rec, [crop(2, 100, 100)], np.random.default_rng(0), config
            )
        assert mixed.placements == ()
        assert any("skipped" in r.message for r in caplog.records)

    def test_paste_occlusion_bookkeeping(self):
        # Crops as large as the image force placement at the origin, so the
        # first paste is fully hidden by the second and the base instance dies.
        rec = ImageRecord(
            id=1,
            width=10,
            height=10,
            ground_truth=(Instance(class_id=1, bbox=BBox(0, 0, 5, 5), source_image_id=1),),
        )
        crops = [crop(2, 10, 10, image_id=7), crop(3, 10, 10, image_id=8)]
        mixed = fbr_mix(rec, crops, np.random.default_rng(0), PasteConfig())
        assert [m.class_id for m in mixed.merged_annotations] == [2, 3]
        assert mixed.pasted_flags == (True, True)

    def test_misaligned_bookkeeping_rejected(self):
        rec = self.record()
        with pytest.raises(ValueError):
            MixedRecord(
                base=rec,
                placements=(),
                merged_annotations=rec.ground_truth,
                pasted_flags=(),
            )


class TestSamplingDistributionInvariants:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SamplingDistribution(mu=(0.5, 0.4), beta=1.0)

    def test_normalized_constructor(self):
        dist = SamplingDistribution.normalized([2.0, 6.0], beta=1.0)
        np.testing.assert_allclose(dist.mu, [0.25, 0.75], atol=1e-12)

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            SamplingDistribution.normalized([0.0, 0.0], beta=1.0)
