import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrst.api import BBox, Instance
from acrst.dataset import (
    MIN_BOX_SIDE,
    Category,
    Dataset,
    ImageRecord,
    ParseError,
    ValidationError,
    parse_coco_annotations,
    split_standard,
)
from acrst.synthdata import synthetic_dataset


class TestBBox:
    def test_area_and_corners(self):
        b = BBox(2, 3, 4, 5)
        assert b.area == 20
        assert (b.x2, b.y2) == (6, 8)

    def test_rejects_non_positive_sides(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 5)
        with pytest.raises(ValueError):
            BBox(0, 0, 5, -1)

    def test_intersection(self):
        a = BBox(0, 0, 2, 2)
        b = BBox(1, 1, 2, 2)
        inter = a.intersection(b)
        assert inter == BBox(1, 1, 1, 1)
        assert a.intersection(BBox(5, 5, 1, 1)) is None


class TestParse:
    def test_categories_remapped_in_input_order(self, coco_text):
        ds = parse_coco_annotations(coco_text)
        assert [c.id for c in ds.categories] == [1, 2]
        assert [c.source_id for c in ds.categories] == [7, 9]
        assert [c.name for c in ds.categories] == ["cat", "dog"]

    def test_instance_counts(self, coco_text):
        ds = parse_coco_annotations(coco_text)
        assert ds.class_counts.tolist() == [2, 1]

    def test_instance_counts_are_counted_once_and_read_only(self, coco_text):
        ds = parse_coco_annotations(coco_text)
        counts = ds.class_counts
        assert ds.class_counts is counts
        with pytest.raises(ValueError):
            counts[0] = 5
        assert ds.class_counts.tolist() == [2, 1]

    def test_malformed_json_reports_location(self):
        with pytest.raises(ParseError, match=r"line \d+ column \d+"):
            parse_coco_annotations("{not json")

    def test_missing_section(self):
        with pytest.raises(ParseError, match="categories"):
            parse_coco_annotations(json.dumps({"images": [], "annotations": []}))

    def test_list_document_rejected(self, coco_text):
        with pytest.raises(ParseError, match="must be a JSON object"):
            parse_coco_annotations(json.dumps([json.loads(coco_text)]))

    def test_unknown_image_reference_names_annotation(self, coco_text):
        doc = json.loads(coco_text)
        doc["annotations"].append(
            {"id": 99, "image_id": 12345, "category_id": 7, "bbox": [0, 0, 1, 1]}
        )
        with pytest.raises(ValidationError, match="99"):
            parse_coco_annotations(json.dumps(doc))

    def test_unknown_category_reference(self, coco_text):
        doc = json.loads(coco_text)
        doc["annotations"][0]["category_id"] = 42
        with pytest.raises(ValidationError, match="annotation 1"):
            parse_coco_annotations(json.dumps(doc))

    def test_zero_width_box_names_annotation(self, coco_text):
        doc = json.loads(coco_text)
        doc["annotations"][1]["bbox"] = [30, 20, 0, 30]
        with pytest.raises(ValidationError, match="annotation 2"):
            parse_coco_annotations(json.dumps(doc))

    def test_out_of_bounds_box_rejected(self, coco_text):
        doc = json.loads(coco_text)
        doc["annotations"][0]["bbox"] = [90, 5, 20, 10]
        with pytest.raises(ValidationError, match="annotation 1"):
            parse_coco_annotations(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, named",
        [
            pytest.param(lambda d: d.update(categories=[5]), r"categories\[0\]", id="category-5"),
            pytest.param(lambda d: d["images"].append("x"), r"images\[2\]", id="image-str"),
            pytest.param(lambda d: d["annotations"].insert(1, None), r"annotations\[1\]",
                         id="annotation-null"),
            pytest.param(lambda d: d.update(images=5), "'images'", id="images-5"),
            pytest.param(lambda d: d.update(annotations={"id": 1}), "'annotations'",
                         id="annotations-object"),
            pytest.param(lambda d: d["annotations"][0].update(bbox=["a", 1, 1, 1]), "annotation 1",
                         id="bbox-str"),
            pytest.param(lambda d: d["annotations"][0].update(bbox=[5, "5", 20, 10]),
                         "annotation 1", id="bbox-numeric-str"),
            pytest.param(lambda d: d["annotations"][0].update(bbox=[5, 5, True, 10]),
                         "annotation 1", id="bbox-bool"),
            pytest.param(lambda d: d["annotations"][1].update(bbox=[float("nan"), 20, 40, 30]),
                         "annotation 2", id="bbox-nan-x"),
            pytest.param(lambda d: d["annotations"][1].update(bbox=[30, 20, float("nan"), 30]),
                         "annotation 2", id="bbox-nan-w"),
            pytest.param(lambda d: d["annotations"][1].update(bbox=[30, 20, 40, float("inf")]),
                         "annotation 2", id="bbox-inf-h"),
            pytest.param(lambda d: d["images"][0].update(width="w"), "image 10", id="width-str"),
            pytest.param(lambda d: d["images"][0].update(width=True), "image 10", id="width-bool"),
            pytest.param(lambda d: d["images"][1].update(width=float("inf")), "image 11",
                         id="width-inf"),
            pytest.param(lambda d: d["images"][1].update(height=float("nan")), "image 11",
                         id="height-nan"),
            # Past 1e9 a box area could overflow to inf and every IoU read NaN.
            pytest.param(lambda d: d["images"][1].update(width=1e160), "image 11",
                         id="width-1e160"),
            pytest.param(lambda d: d["images"][0].update(height=10**9 + 1), "image 10",
                         id="height-past-1e9"),
            # Below 1 px, the synthetic floor, a run could score 0.0 or fail mid-way.
            pytest.param(lambda d: d["images"][0].update(width=0.999), "image 10 width",
                         id="width-below-1"),
            pytest.param(lambda d: d["images"][1].update(height=1e-200), "image 11 width",
                         id="height-1e-200"),
            # Below the detector's minimal side a box could never be matched.
            pytest.param(lambda d: d["annotations"][0].update(bbox=[5, 5, 1e-300, 10]),
                         "annotation 1", id="box-width-1e-300"),
            pytest.param(lambda d: d["annotations"][1].update(bbox=[30, 20, 40, 9e-4]),
                         "annotation 2", id="box-height-below-min-side"),
            # With no category a run once failed mid-way, building its detector.
            pytest.param(lambda d: d.update(annotations=[], categories=[]),
                         "annotation document has no categories", id="no-categories"),
            pytest.param(lambda d: d["categories"][0].update(id=[7]), r"categories\[0\]",
                         id="category-id-list"),
            pytest.param(lambda d: d["categories"][1].update(id="a"), r"categories\[1\]",
                         id="category-id-str"),
            pytest.param(lambda d: d["categories"][0].update(id=7.5), r"categories\[0\]",
                         id="category-id-float"),
            pytest.param(lambda d: d["categories"][0].update(id=True), r"categories\[0\]",
                         id="category-id-bool"),
            pytest.param(lambda d: d["categories"][0].update(name=None), r"categories\[0\]",
                         id="category-name-null"),
            pytest.param(lambda d: d["categories"][1].update(name=5), r"categories\[1\]",
                         id="category-name-int"),
            pytest.param(lambda d: d["categories"][0].update(name=["a"]), r"categories\[0\]",
                         id="category-name-list"),
            pytest.param(lambda d: d["categories"][1].update(name=True), r"categories\[1\]",
                         id="category-name-bool"),
            pytest.param(lambda d: d["images"][1].update(id=[11]), r"images\[1\]",
                         id="image-id-list"),
            pytest.param(lambda d: d["images"][0].update(id=10.0), r"images\[0\]",
                         id="image-id-float"),
            pytest.param(lambda d: d["annotations"][2].update(id=[3]), r"annotations\[2\]",
                         id="annotation-id-list"),
            pytest.param(lambda d: d["annotations"][0].update(image_id=[10]),
                         r"annotations\[0\]", id="annotation-image-id-list"),
            pytest.param(lambda d: d["annotations"][0].update(category_id=7.0),
                         r"annotations\[0\]", id="annotation-category-id-float"),
            pytest.param(lambda d: d["annotations"][1].update(bbox=[30, 20, 10**400, 30]),
                         "annotation 2", id="bbox-huge-int"),
            pytest.param(lambda d: d["images"][0].pop("width"),
                         r"images\[0\] missing required field 'width'", id="image-without-width"),
            pytest.param(lambda d: d["annotations"][2].pop("bbox"),
                         r"annotations\[2\] missing required field 'bbox'",
                         id="annotation-without-bbox"),
            pytest.param(lambda d: d["categories"][1].update(id=7), "duplicate category id 7",
                         id="category-id-repeated"),
            pytest.param(lambda d: d["images"][1].update(id=10), "duplicate image id 10",
                         id="image-id-repeated"),
            pytest.param(lambda d: d["annotations"][1].update(id=1), "duplicate annotation id 1",
                         id="annotation-id-repeated"),
            pytest.param(lambda d: d["annotations"][0].update(bbox=[5, 5, 20]),
                         "annotation 1 bbox must be", id="bbox-three-values"),
        ],
    )
    def test_ill_typed_record_named(self, coco_text, edit, named):
        # json.dumps writes float("nan") and float("inf") as the NaN and
        # Infinity tokens that json.loads accepts.
        doc = json.loads(coco_text)
        edit(doc)
        with pytest.raises((ParseError, ValidationError), match=named):
            parse_coco_annotations(json.dumps(doc))

    def test_string_ids_accepted(self, coco_text):
        doc = json.loads(coco_text)
        doc["images"][0]["id"] = "a"
        for ann in doc["annotations"][:2]:
            ann["image_id"] = "a"
        doc["annotations"][0]["id"] = "first"
        ds = parse_coco_annotations(json.dumps(doc))
        assert [img.id for img in ds.images] == ["a", 11]
        assert [row[0] for row in ds.images[0].truth_rows] == [1, 2]

    def test_image_side_of_1e9_accepted(self, coco_text):
        doc = json.loads(coco_text)
        doc["images"][1].update(width=1e9, height=1e9)
        assert parse_coco_annotations(json.dumps(doc)).images[1].width == 1e9

    def test_smallest_sides_accepted(self, coco_text):
        doc = json.loads(coco_text)
        doc["images"][0].update(width=1, height=1)
        doc["annotations"] = [{"id": 1, "image_id": 10, "category_id": 7,
                               "bbox": [0, 0, MIN_BOX_SIDE, MIN_BOX_SIDE]}]
        record = parse_coco_annotations(json.dumps(doc)).images[0]
        assert (record.width, record.height) == (1.0, 1.0)
        assert record.truth_rows == ((1, 0.0, 0.0, MIN_BOX_SIDE, MIN_BOX_SIDE),)

    def test_unknown_keys_ignored(self, coco_text):
        doc = json.loads(coco_text)
        doc["info"] = {"year": 2024}
        doc["images"][0]["license"] = 3
        doc["annotations"][0]["iscrowd"] = 0
        ds = parse_coco_annotations(json.dumps(doc))
        assert len(ds.images) == 2


class TestSplit:
    def test_partition_sizes(self):
        ds = synthetic_dataset(100, 5, seed=0)
        labeled, unlabeled = split_standard(ds, 0.1, seed=7)
        assert len(labeled.images) == 10
        assert len(unlabeled.images) == 90

    def test_partition_is_disjoint_and_complete(self):
        ds = synthetic_dataset(50, 3, seed=1)
        labeled, unlabeled = split_standard(ds, 0.3, seed=2)
        all_ids = {img.id for img in ds.images}
        lab_ids = {img.id for img in labeled.images}
        unl_ids = {img.id for img in unlabeled.images}
        assert lab_ids | unl_ids == all_ids
        assert lab_ids & unl_ids == set()

    def test_same_seed_same_split(self):
        ds = synthetic_dataset(40, 3, seed=1)
        a = split_standard(ds, 0.25, seed=11)
        b = split_standard(ds, 0.25, seed=11)
        assert a == b

    def test_unlabeled_keeps_hidden_truth(self):
        ds = synthetic_dataset(30, 3, seed=4)
        _, unlabeled = split_standard(ds, 0.2, seed=0)
        assert all(img.truth_rows for img in unlabeled.images)

    def test_counts_add_up(self):
        ds = synthetic_dataset(60, 4, seed=9)
        labeled, unlabeled = split_standard(ds, 0.4, seed=3)
        total = ds.class_counts
        np.testing.assert_array_equal(
            total, labeled.class_counts + unlabeled.class_counts
        )

    def test_fraction_bounds(self):
        ds = synthetic_dataset(10, 2, seed=0)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                split_standard(ds, bad, seed=0)


class TestRecordInvariants:
    def test_ground_truth_must_fit_image(self):
        with pytest.raises(ValueError, match="outside image bounds"):
            ImageRecord(id=1, width=100, height=100, truth_rows=((1, 50, 50, 100, 100),))
        with pytest.raises(ValueError, match="outside image bounds"):
            ImageRecord(id=1, width=100, height=100, truth_rows=((1, -1, 0, 10, 10),))

    @pytest.mark.parametrize("w, h", [(0, 5), (5, -1)])
    def test_box_sides_must_be_positive(self, w, h):
        with pytest.raises(ValueError, match="positive"):
            ImageRecord(id=1, width=100, height=100, truth_rows=((1, 10, 10, w, h),))

    @pytest.mark.parametrize("width", [1e-200, 1e-100, 0.5])
    def test_scaled_corpus_fails_when_built(self, width):
        # 60 images of 640 x 480 scaled to ``width``, one box each, built in
        # Python rather than parsed: at 1e-200 px a run of it once raised
        # ZeroDivisionError mid-way. The record holds the parser's floors.
        s = width / 640
        with pytest.raises(ValueError, match=r"image 1: width and height must be in \[1, 1e9\]"):
            Dataset(
                tuple(
                    ImageRecord(i, 640 * s, 480 * s, ((i % 3 + 1, 50 * s, 40 * s, 100 * s, 80 * s),))
                    for i in range(1, 61)
                ),
                tuple(Category(c, f"c{c}", c) for c in (1, 2, 3)),
            )

    @pytest.mark.parametrize(
        "width, height, box",
        [
            (math.nextafter(1e9, math.inf), 10, (1, 0, 0, 5, 5)),
            (10, float("nan"), (1, 0, 0, 5, 5)),
            (10, 10, (1, 0, 0, MIN_BOX_SIDE / 2, 5)),
            (10, 10, (1, 0, 0, 5, float("nan"))),
            (10, 10, (1, float("nan"), 0, 5, 5)),
        ],
    )
    def test_sides_outside_the_floors_fail(self, width, height, box):
        with pytest.raises(ValueError, match="image 1"):
            ImageRecord(1, width, height, (box,))

    def test_smallest_image_and_box_build(self):
        record = ImageRecord(1, 1.0, 1.0, ((1, 0.0, 0.0, MIN_BOX_SIDE, MIN_BOX_SIDE),))
        assert record.truth_rows == ((1, 0.0, 0.0, 1e-3, 1e-3),)
        assert ImageRecord(2, 1e9, 1e9).width == 1e9

    def test_loading_builds_no_instance_or_box(self, coco_text, monkeypatch):
        made = []
        for cls in (Instance, BBox):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                made.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        parse_coco_annotations(coco_text)
        synthetic_dataset(20, 4, seed=0)
        assert made == []
        # The counter does see objects built by hand.
        Instance(1, BBox(0, 0, 1, 1), 1)
        assert made == ["BBox", "Instance"]

    def test_rows_are_the_stored_form(self, coco_text):
        ds = parse_coco_annotations(coco_text)
        assert [img.truth_rows for img in ds.images] == [
            ((1, 5.0, 5.0, 20.0, 10.0), (2, 30.0, 20.0, 40.0, 30.0)), ((1, 0.0, 0.0, 64.0, 64.0),)
        ]
        assert not hasattr(ds.images[0], "ground_truth")


class TestSynthetic:
    def test_deterministic(self):
        a = synthetic_dataset(30, 6, seed=13)
        b = synthetic_dataset(30, 6, seed=13)
        assert a == b

    def test_skewed_frequencies(self):
        ds = synthetic_dataset(400, 6, seed=3, skew=0.5)
        counts = ds.class_counts
        assert counts[0] > counts[2] > counts[5]
        assert counts.sum() >= 400

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"n_images": 0}, "at least one image and one class"),
            ({"n_classes": 0}, "at least one image and one class"),
            ({"skew": 0.0}, "skew"),
            ({"skew": 1.5}, "skew"),
            ({"min_box": 0.0}, "min_box <= max_box"),
            ({"min_box": 50.0, "max_box": 40.0}, "min_box <= max_box"),
            ({"max_box": 500.0}, "shorter side"),
        ],
    )
    def test_argument_checks(self, kwargs, named):
        args = {"n_images": 5, "n_classes": 2, "seed": 1, **kwargs}
        with pytest.raises(ValueError, match=named):
            synthetic_dataset(**args)

    def test_boxes_inside_images(self):
        ds = synthetic_dataset(50, 4, seed=8)
        for img in ds.images:
            for _, x, y, w, h in img.truth_rows:
                assert 0 <= x and 0 <= y
                assert x + w <= img.width and y + h <= img.height


def _scalar_synthetic_dataset(
    n_images, n_classes, rng, *, width=640.0, height=480.0, mean_extra_instances=1.8,
    skew=0.65, min_box=32.0, max_box=160.0,
):
    """Reference generator: one scalar draw per class and per coordinate."""
    weights = skew ** np.arange(n_classes)
    weights = weights / weights.sum()
    images = []
    for i in range(n_images):
        image_id = i + 1
        n_inst = 1 + int(rng.poisson(mean_extra_instances))
        rows = []
        for _ in range(n_inst):
            class_id = int(rng.choice(n_classes, p=weights)) + 1
            w = float(rng.uniform(min_box, max_box))
            h = float(rng.uniform(min_box, max_box))
            x = float(rng.uniform(0.0, width - w))
            y = float(rng.uniform(0.0, height - h))
            rows.append((class_id, x, y, w, h))
        images.append(ImageRecord(id=image_id, width=width, height=height, truth_rows=tuple(rows)))
    categories = tuple(
        Category(id=k, name=f"class_{k:02d}", source_id=k) for k in range(1, n_classes + 1)
    )
    return Dataset(images=tuple(images), categories=categories)


class TestSyntheticEquivalence:
    """One Poisson draw and one call of five doubles per instance, per image,
    build the scalar-draw generator's dataset and leave its generator in the
    same state."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_images=st.integers(1, 60),
        n_classes=st.integers(1, 12),
        skew=st.sampled_from([1.0, 0.65, 0.5, 0.1]) | st.floats(0.01, 1.0),
        mean_extra=st.sampled_from([0.0, 1.8, 6.0]),
        min_box=st.sampled_from([1, 32, 32.0, 160.0]) | st.floats(0.5, 200.0),
        box_extra=st.sampled_from([0, 0.0, 128.0]) | st.floats(0.0, 280.0),
    )
    @example(seed=0, n_images=1, n_classes=1, skew=1.0, mean_extra=0.0, min_box=32.0,
             box_extra=0.0)
    @example(seed=1, n_images=60, n_classes=12, skew=1.0, mean_extra=1.8, min_box=480.0,
             box_extra=0.0)
    def test_matches_scalar_draws(
        self, seed, n_images, n_classes, skew, mean_extra, min_box, box_extra
    ):
        max_box = min(min_box + box_extra, 480.0)
        kwargs = dict(skew=skew, mean_extra_instances=mean_extra, min_box=min(min_box, max_box),
                      max_box=max_box)
        made, default_rng = [], np.random.default_rng

        def noting_rng(*args):
            made.append(default_rng(*args))
            return made[-1]

        with mock.patch("numpy.random.default_rng", noting_rng):
            got = synthetic_dataset(n_images, n_classes, seed, **kwargs)
        rng = np.random.default_rng(seed)
        assert got == _scalar_synthetic_dataset(n_images, n_classes, rng, **kwargs)
        assert len(made) == 1 and made[0].bit_generator.state == rng.bit_generator.state
