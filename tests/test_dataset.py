import gc
import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrst.api import BBox, Instance
from acrst.cropbank import build_labeled_bank
from acrst.dataset import (
    MAX_IMAGE_SIDE,
    MIN_BOX_SIDE,
    MIN_IMAGE_SIDE,
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


class TestTruthColumns:
    def test_one_walk_gives_counts_offsets_and_crops(self, coco_text):
        doc = json.loads(coco_text)
        doc["images"] = [{"id": 1, "width": 30, "height": 30}, doc["images"][0],
                         {"id": 2, "width": 30, "height": 30}, doc["images"][1],
                         {"id": 3, "width": 30, "height": 30}]
        integer_sides = Dataset(images=(
            ImageRecord(id=1, width=100, height=80, truth_rows=((3, 5, 5, 20, 10), (1, 0, 0, 7, 9))),
            ImageRecord(id=2, width=50, height=50),
            ImageRecord(id=3, width=64, height=64, truth_rows=((3, 1, 2, 3, 4),)),
        ), categories=tuple(Category(k, f"c{k}", k) for k in (1, 2, 3)))
        for ds in (parse_coco_annotations(json.dumps(doc)),
                   synthetic_dataset(40, 5, seed=6, mean_extra_instances=1.5), integer_sides):
            rows = [row for img in ds.images for row in img.truth_rows]
            columns, counts, offsets = ds.truth_columns
            assert counts == [len(img.truth_rows) for img in ds.images]
            assert offsets == [sum(counts[:i]) for i in range(len(counts))]
            for img, first, n in zip(ds.images, offsets, counts):
                assert columns[:, first:first + n].T.tolist() == [[*r[1:], r[0]] for r in img.truth_rows]
            assert ds.class_counts.tolist() == [
                sum(row[0] == k for row in rows) for k in range(1, ds.num_classes + 1)]
            bank = build_labeled_bank(ds)
            crops = tuple(zip(bank.labeled_class_ids.tolist(), *bank.labeled_sizes.tolist()))
            assert crops == tuple((c, w, h) for c, _, _, w, h in rows)
            assert bank.labeled_class_ids.dtype == np.intp


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


# The parser's reference: acrst.dataset's parser and its helpers as they were
# before each field was read once and checked inline.

# The types a JSON number parses to; ``type(True)`` is bool, so booleans fail.
_NUMBER = frozenset((int, float))
# Category ids are JSON integers and names strings; other ids integers or strings.
_INT = frozenset((int,))
_STR = frozenset((str,))
_ID = frozenset((int, str))
_KINDS = {_INT: "an integer", _STR: "a string", _ID: "an integer or a string"}


def _require(record: dict, key: str, section: str, index: int, types: frozenset | None = None):
    """``record[key]`` of ``section[index]``, checked to be present and, given
    ``types``, of one of them."""
    try:
        value = record[key]
    except KeyError:
        raise ValidationError(f"{section}[{index}] missing required field '{key}'") from None
    if types is not None and type(value) not in types:
        kinds = _KINDS[types]
        raise ValidationError(f"{section}[{index}] field '{key}' must be {kinds}, got {value!r}")
    return value


def _reference_parse_coco(text: str) -> Dataset:
    """The parser as it was before its fields were read once and checked
    inline: every check raises where it is made, record by record."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"malformed annotation document: {e.msg} (line {e.lineno} column {e.colno})"
        ) from e
    if not isinstance(doc, dict):
        raise ParseError("annotation document must be a JSON object")
    for section in ("images", "annotations", "categories"):
        if section not in doc:
            raise ParseError(f"annotation document missing '{section}' section")
        if not isinstance(doc[section], list):
            raise ParseError(f"annotation section '{section}' must be a JSON list")
        for i, record in enumerate(doc[section]):
            if not isinstance(record, dict):
                raise ValidationError(f"{section}[{i}] must be a JSON object, got {record!r}")

    categories: list[Category] = []
    class_of_source: dict[int, int] = {}
    for slot, cat in enumerate(doc["categories"], start=1):
        source_id = _require(cat, "id", "categories", slot - 1, _INT)
        name = _require(cat, "name", "categories", slot - 1, _STR)
        if source_id in class_of_source:
            raise ValidationError(f"duplicate category id {source_id}")
        class_of_source[source_id] = slot
        categories.append(Category(id=slot, name=name, source_id=source_id))
    if not categories:
        raise ValidationError("annotation document has no categories")

    image_meta: dict = {}
    image_order: list = []
    for i, img in enumerate(doc["images"]):
        image_id = _require(img, "id", "images", i, _ID)
        width = _require(img, "width", "images", i)
        height = _require(img, "height", "images", i)
        if image_id in image_meta:
            raise ValidationError(f"duplicate image id {image_id}")
        if type(width) not in _NUMBER or type(height) not in _NUMBER:
            raise ValidationError(f"image {image_id} width and height must be numbers")
        # Positive comparisons, so that NaN fails them too.
        if not (MIN_IMAGE_SIDE <= width <= MAX_IMAGE_SIDE
                and MIN_IMAGE_SIDE <= height <= MAX_IMAGE_SIDE):
            raise ValidationError(f"image {image_id} width and height must be in [1, 1e9]")
        image_meta[image_id] = (float(width), float(height))
        image_order.append(image_id)

    rows: dict[object, list[tuple]] = {i: [] for i in image_order}
    seen_ann: set = set()
    for i, ann in enumerate(doc["annotations"]):
        ann_id = _require(ann, "id", "annotations", i, _ID)
        image_id = _require(ann, "image_id", "annotations", i, _ID)
        cat_id = _require(ann, "category_id", "annotations", i, _INT)
        bbox = _require(ann, "bbox", "annotations", i)
        if ann_id in seen_ann:
            raise ValidationError(f"duplicate annotation id {ann_id}")
        seen_ann.add(ann_id)
        if image_id not in image_meta:
            raise ValidationError(
                f"annotation {ann_id} references unknown image {image_id}"
            )
        if cat_id not in class_of_source:
            raise ValidationError(
                f"annotation {ann_id} references unknown category {cat_id}"
            )
        if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
            raise ValidationError(f"annotation {ann_id} bbox must be [x, y, w, h]")
        x, y, w, h = bbox
        if not {type(x), type(y), type(w), type(h)} <= _NUMBER:
            raise ValidationError(f"annotation {ann_id} bbox values must be numbers, got {bbox}")
        try:
            x, y, w, h = float(x), float(y), float(w), float(h)
        except OverflowError:
            raise ValidationError(f"annotation {ann_id} bbox {bbox} exceeds a double") from None
        # Positive comparisons, so that NaN fails them; the image is finite,
        # so an infinite side or corner fails the bounds.
        if not (w >= MIN_BOX_SIDE and h >= MIN_BOX_SIDE):
            raise ValidationError(
                f"annotation {ann_id} box sides must be at least {MIN_BOX_SIDE}, got {bbox}"
            )
        width, height = image_meta[image_id]
        if not (x >= 0 and y >= 0 and x + w <= width and y + h <= height):
            raise ValidationError(f"annotation {ann_id} box {bbox} is not inside image {image_id}")
        rows[image_id].append((class_of_source[cat_id], x, y, w, h))

    images = tuple(ImageRecord(i, *image_meta[i], tuple(rows[i])) for i in image_order)
    return Dataset(images=images, categories=tuple(categories))


_INF, _NAN = float("inf"), float("nan")


def _set(**fields):
    return lambda record: {**record, **fields} if isinstance(record, dict) else record


def _drop(key):
    def edit(record):
        return {k: v for k, v in record.items() if k != key} if isinstance(record, dict) else record

    return edit


def _retype(key):
    """A record whose integer ``key`` is the equal bool or float, which a dict
    lookup finds as the integer."""
    def edit(record):
        value = record.get(key) if isinstance(record, dict) else None
        if type(value) is not int:
            return record
        return {**record, key: bool(value) if value in (0, 1) else float(value)}

    return edit


# Per section, the record faults of TestParse::test_ill_typed_record_named,
# each missing field, ids that equal an integer id without being integers,
# references to an unknown image or category, a record that is a list, a
# negative corner, and bboxes of four values that are not a list.
_RECORD_FAULTS = {
    "categories": [
        lambda r: 5, lambda r: [r], _set(id=[7]), _set(id="a"), _set(id=7.5), _set(id=True),
        _set(name=None), _set(name=5), _set(name=["a"]), _set(name=True), _drop("id"),
        _drop("name"), _retype("id"),
    ],
    "images": [
        lambda r: "x", lambda r: [r], _set(width="w"), _set(width=True), _set(width=_INF),
        _set(height=_NAN), _set(width=1e160), _set(height=10**9 + 1), _set(width=0.999),
        _set(height=1e-200), _set(width=10**400), _set(id=[11]), _set(id=10.0), _set(id=None),
        _drop("id"), _drop("width"), _drop("height"), _retype("id"),
    ],
    "annotations": [
        lambda r: None, lambda r: [r], _set(bbox=["a", 1, 1, 1]), _set(bbox=[5, "5", 20, 10]),
        _set(bbox=[5, 5, True, 10]), _set(bbox=[_NAN, 20, 40, 30]), _set(bbox=[30, 20, _NAN, 30]),
        _set(bbox=[30, 20, 40, _INF]), _set(bbox=[30, 20, 10**400, 30]),
        _set(bbox=[-10**400, 0, 5, 5]), _set(bbox=[5, 5, 1e-300, 10]),
        _set(bbox=[30, 20, 40, 9e-4]), _set(bbox=[0, -1, 1, 1]), _set(bbox=[-0.5, 0, 1, 1]),
        _set(bbox=[1e9, 0, 5, 5]), _set(bbox=[5, 5, 20]), _set(bbox=[0, 0, 1, 1, 1]),
        _set(bbox="abcd"), _set(bbox={"x": 0, "y": 0, "w": 1, "h": 1}), _set(bbox=5),
        _set(bbox=None), _set(id=[3]), _set(image_id=[10]), _set(image_id=12345),
        _set(category_id=7.0), _set(category_id=42), _drop("id"), _drop("image_id"),
        _drop("category_id"), _drop("bbox"), _retype("id"), _retype("image_id"),
        _retype("category_id"),
    ],
}
# Faults of a whole section.
_SECTION_FAULTS = [
    lambda d: d.update(images=5), lambda d: d.update(annotations={"id": 1}),
    lambda d: d.update(categories=[]), lambda d: d.pop("images", None),
    lambda d: d.pop("categories", None),
]
# Every fault as (section, edit). A None edit repeats another record's id,
# listed four times a section to be drawn about as often as an id's faults;
# a None section edits the document.
_FAULTS = [
    *((s, f) for s in _RECORD_FAULTS for f in [*_RECORD_FAULTS[s], *[None] * 4]),
    *((None, f) for f in _SECTION_FAULTS),
]


def _coco_document(rng: random.Random) -> dict:
    """A valid annotation document, then none, one or several faults in
    random records and sections, each applied over the ones before."""
    def ids(count):  # from small ranges, so that a fault's id often names a record
        return list(dict.fromkeys(rng.choice([rng.randint(-1, 4), rng.choice("ab")])
                                  for _ in range(count)))

    def side():
        return rng.choice([1, 48, 64, 10**9, 1e9, rng.uniform(1.0, 1e3)])

    cat_ids = rng.sample(range(-1, 5), rng.randint(1, 3))
    categories = [{"id": c, "name": rng.choice(["", "a", "cat"])} for c in cat_ids]
    images = [{"id": i, "width": side(), "height": side()} for i in ids(rng.randint(1, 4))]
    annotations = []
    for ann_id in ids(rng.randint(1, 8)):
        img = rng.choice(images)
        box = []
        for length in (img["width"], img["height"]):
            size = rng.choice([MIN_BOX_SIDE, 1, length, max(1, int(length) // 2),
                               rng.uniform(MIN_BOX_SIDE, length)])
            box.insert(len(box) // 2, rng.choice([0, -0.0, rng.uniform(0, length - size)]))
            box.append(size)
        annotations.append({"id": ann_id, "image_id": img["id"],
                            "category_id": rng.choice(cat_ids), "bbox": box})
    doc = {"images": images, "annotations": annotations, "categories": categories}
    for section, fault in rng.choices(_FAULTS, k=rng.choice([0, 1, 1, 2, 3])):
        records = doc.get(section)
        if section is None:
            fault(doc)
        elif isinstance(records, list) and records:
            # Half the faults land in a section's first record, so that
            # records with several faults are common.
            i, j = rng.choice([0, rng.randrange(len(records))]), rng.randrange(len(records))
            if fault is not None:
                records[i] = fault(records[i])
            elif i != j and isinstance(records[i], dict) and isinstance(records[j], dict):
                records[i] = {**records[i], "id": records[j].get("id")}
    return doc


class TestParseEquivalence:
    """The parser returns the reference's dataset, or raises its error, with
    its message: of several faults, the same one is named."""

    @settings(max_examples=1000, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, seed):
        text = json.dumps(_coco_document(random.Random(seed)))
        try:
            want = _reference_parse_coco(text)
        except (ParseError, ValidationError) as e:
            with pytest.raises((ParseError, ValidationError)) as got:
                parse_coco_annotations(text)
            assert (type(got.value), str(got.value)) == (type(e), str(e))
        else:
            got = parse_coco_annotations(text)
            assert got == want and repr(got) == repr(want)

    @pytest.mark.parametrize(
        "edit, named",
        [
            # Record types come first, for every section, before any field.
            pytest.param(lambda d: (d["images"].append("x"), d["categories"][0].update(name=None)),
                         r"^images\[2\] must be a JSON object", id="record-type-before-category"),
            pytest.param(lambda d: (d.pop("categories"), d["annotations"].insert(0, None)),
                         r"^annotations\[0\] must be a JSON object", id="record-type-before-section"),
            # Then categories, images and annotations, in that order.
            pytest.param(lambda d: (d["images"][0].pop("width"), d["categories"][1].update(id="a")),
                         r"^categories\[1\] field 'id'", id="category-before-image"),
            pytest.param(lambda d: (d["annotations"][0].pop("id"), d["images"][1].update(width=0)),
                         r"^image 11 width and height must be in", id="image-before-annotation"),
            # Within a section, record by record.
            pytest.param(lambda d: (d["annotations"][2].pop("bbox"),
                                    d["annotations"][1].update(bbox="abcd")),
                         r"^annotation 2 bbox must be", id="earlier-record"),
            # Within a record, its fields in order: ids, then references, then the box.
            pytest.param(lambda d: (d["images"][0].pop("height"), d["images"][0].pop("width")),
                         r"^images\[0\] missing required field 'width'$", id="width-before-height"),
            pytest.param(lambda d: (d["annotations"][0].pop("image_id"),
                                    d["annotations"][0].update(category_id=7.0)),
                         r"^annotations\[0\] missing required field 'image_id'$",
                         id="image-id-before-category-id"),
            pytest.param(lambda d: d["images"][1].update(id=10, width="w"),
                         r"^duplicate image id 10$", id="repeated-id-before-width"),
            pytest.param(lambda d: d["annotations"][0].update(image_id=5, category_id=4,
                                                              bbox=[0, 0, 0, 0]),
                         r"^annotation 1 references unknown image 5$", id="image-before-category"),
            pytest.param(lambda d: d["annotations"][0].update(category_id=True, bbox=None),
                         r"^annotations\[0\] field 'category_id'", id="type-before-bbox"),
            pytest.param(lambda d: d["annotations"][1].update(bbox=[10**400, 20, 1e-9, 30]),
                         r"^annotation 2 bbox \[\d+, 20, 1e-09, 30\] exceeds a double$",
                         id="overflow-before-side"),
        ],
    )
    def test_first_fault_named(self, coco_text, edit, named):
        doc = json.loads(coco_text)
        edit(doc)
        text = json.dumps(doc)
        with pytest.raises((ParseError, ValidationError), match=named) as got:
            parse_coco_annotations(text)
        with pytest.raises(type(got.value), match=named):
            _reference_parse_coco(text)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[" * 100_000 + "]" * 100_000, "recursion depth"),
            ('{"images": [], "annotations": [], "categories": [{"id": 1' + "0" * 5000
             + ', "name": "a"}]}', "4300 digits"),
        ],
        ids=["nested-past-the-recursion-limit", "integer-of-5001-digits"],
    )
    def test_decoder_refusal_is_a_parse_error(self, text, named):
        with pytest.raises(ParseError, match=f"^malformed annotation document: .*{named}"):
            parse_coco_annotations(text)


class TestCollectorPaused:
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda d: None, None),
            (lambda d: d.pop("images"), ParseError),
            (lambda d: d["images"][0].update(width="w"), ValidationError),
        ],
        ids=["parsed", "parse-error", "validation-error"],
    )
    def test_callers_state_restored(self, coco_text, enabled, edit, error):
        doc = json.loads(coco_text)
        edit(doc)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if error is None:
                parse_coco_annotations(json.dumps(doc))
            else:
                with pytest.raises(error):
                    parse_coco_annotations(json.dumps(doc))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_paused_while_the_document_is_built(self, coco_text, monkeypatch):
        seen, loads = [], json.loads
        monkeypatch.setattr(json, "loads", lambda text: seen.append(gc.isenabled()) or loads(text))
        assert gc.isenabled()
        parse_coco_annotations(coco_text)
        assert seen == [False] and gc.isenabled()
