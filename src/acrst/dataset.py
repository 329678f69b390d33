"""Annotation data model, COCO-style JSON ingestion, and labeled/unlabeled splits.

The on-disk format is a JSON object with ``images``, ``annotations`` and
``categories`` sections. Category ids are remapped to contiguous 1..K in input
order; the original ids are kept on :class:`Category` so reports can echo them.
Unknown keys anywhere in the document are ignored. An image holds its ground
truth as ``(class_id, x, y, w, h)`` rows.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

# The detector's minimal box side in px, and so the smallest annotated side.
MIN_BOX_SIDE = 1e-3
# Image sides in px: the synthetic images' floor, and a cap that keeps areas finite.
MIN_IMAGE_SIDE, MAX_IMAGE_SIDE = 1.0, 1e9


class ParseError(ValueError):
    """A JSON document is malformed, or an annotation document misses a required section."""


class ValidationError(ValueError):
    """Annotation document violates a schema constraint."""


@dataclass(frozen=True)
class Category:
    """Class with contiguous ``id`` (1..K) and the original file id."""

    id: int
    name: str
    source_id: int


@dataclass(frozen=True)
class ImageRecord:
    """An image of sides in [1, 1e9] and its ground truth, one ``(class_id, x,
    y, w, h)`` row per instance, each box inside it with sides >= MIN_BOX_SIDE.
    """

    id: int | str
    width: float
    height: float
    truth_rows: tuple[tuple[int, float, float, float, float], ...] = ()

    def __post_init__(self) -> None:
        # Positive comparisons, so that NaN fails them too.
        width, height = self.width, self.height
        if not (MIN_IMAGE_SIDE <= width <= MAX_IMAGE_SIDE
                and MIN_IMAGE_SIDE <= height <= MAX_IMAGE_SIDE):
            raise ValueError(f"image {self.id}: width and height must be in [1, 1e9]")
        for row in self.truth_rows:
            _, x, y, w, h = row
            if not (w >= MIN_BOX_SIDE and h >= MIN_BOX_SIDE):
                raise ValueError(f"image {self.id}: box sides must be positive, >= 1e-3: {row}")
            if not (x >= 0 and y >= 0 and x + w <= width and y + h <= height):
                raise ValueError(f"image {self.id}: ground-truth box {row} outside image bounds")


class ClassCdfs(dict):
    """Class-draw CDFs by weight: key 0 over every class, key c without class c.

    A draw is ``bisect_right(cdf, u) + 1`` for one double ``u``, which picks
    what ``Generator.choice(p=...)`` picks from it. Weights that leave nothing
    to draw fall back to uniform over the classes allowed. A row is built the
    first time it is looked up, and kept. The weights arrive non-negative:
    its makers pass class counts and the powers of a skew in (0, 1].
    """

    def __init__(self, class_weights: Sequence[float]) -> None:
        self.weights = np.asarray(class_weights, dtype=float)

    def __missing__(self, exclude: int) -> list[float]:
        w = self.weights.copy()
        if exclude:
            w[exclude - 1] = 0.0
        if w.sum() <= 0.0:
            w = np.ones_like(w)
            if exclude and w.size > 1:
                w[exclude - 1] = 0.0
        cdf = np.cumsum(w / w.sum())
        cdf /= cdf[-1]
        row = self[exclude] = cdf.tolist()
        return row


@dataclass(frozen=True)
class Dataset:
    """Images plus the category table.

    The unlabeled side of a split keeps its ground truth, hidden from training,
    so metrics can be computed against it.
    """

    images: tuple[ImageRecord, ...]
    categories: tuple[Category, ...]

    @property
    def num_classes(self) -> int:
        return len(self.categories)

    @cached_property
    def class_counts(self) -> np.ndarray:
        """Instance counts per class (index k-1 = class k), hidden truth included.

        Counted once, since a dataset never changes, into a read-only array.
        """
        class_ids = self.truth_columns[0][4].astype(np.intp)
        counts = np.bincount(class_ids - 1, minlength=self.num_classes)
        counts.flags.writeable = False
        return counts

    @cached_property
    def class_cdfs(self) -> ClassCdfs:
        """The :class:`ClassCdfs` of :attr:`class_counts`, kept with them."""
        return ClassCdfs(self.class_counts)

    @cached_property
    def truth_columns(self) -> tuple[np.ndarray, list[int], list[int]]:
        """The (x, y, w, h, class) columns of every ground-truth instance, images
        in order, each image's count of them and where its rows start; the one
        walk over the ground truth, built once, on first use, read-only."""
        rows = [row for img in self.images for row in img.truth_rows]
        flat = np.fromiter(chain.from_iterable(rows), float, 5 * len(rows))
        columns = flat.reshape(-1, 5).T[[1, 2, 3, 4, 0]]
        columns.flags.writeable = False
        counts = [len(img.truth_rows) for img in self.images]
        return columns, counts, list(accumulate(counts, initial=0))[:-1]

    @cached_property
    def image_sizes(self) -> np.ndarray:
        """Each image's (width, height) columns, in order; built once, on first use."""
        return np.array([(img.width, img.height) for img in self.images], dtype=float).reshape(-1, 2).T

    @cached_property
    def class_presence(self) -> np.ndarray:
        """Whether each image (row, in order) holds each class (column k-1 =
        class k) in its ground truth; built once, on first use, read-only."""
        columns, counts = self.truth_columns[:2]
        present = np.zeros((len(self.images), self.num_classes), dtype=bool)
        present[np.repeat(np.arange(len(counts)), counts), columns[4].astype(np.intp) - 1] = True
        present.flags.writeable = False
        return present


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


def parse_coco_annotations(text: str) -> Dataset:
    """Parse an annotation document into a :class:`Dataset`.

    Raises :class:`ParseError` for malformed JSON or a missing or non-list
    section and :class:`ValidationError` for schema violations, such as no
    category, a record that is not an object, an image side outside [1, 1e9],
    a box value that is not a finite number or a box side below
    :data:`MIN_BOX_SIDE`; messages name the record and, of several faults,
    the first checked. The cyclic garbage collector pauses while the
    document's objects, which hold no cycles, are built. Use
    :func:`split_standard` to divide the images into labeled and unlabeled.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _parse_coco(text)
    finally:
        if collecting:
            gc.enable()


def load_json(text: str, invalid: str):
    """The JSON document ``text``; malformed JSON is a :class:`ParseError`
    whose message starts with ``invalid`` and gives the line and column, if any."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{invalid}: {e.msg} (line {e.lineno} column {e.colno})") from e
    except (RecursionError, ValueError) as e:  # nesting too deep, an integer too long
        raise ParseError(f"{invalid}: {e}") from e


def _parse_coco(text: str) -> Dataset:
    doc = load_json(text, "malformed annotation document")
    if not isinstance(doc, dict):
        raise ParseError("annotation document must be a JSON object")
    for section in ("images", "annotations", "categories"):
        if section not in doc:
            raise ParseError(f"annotation document missing '{section}' section")
        if not isinstance(doc[section], list):
            raise ParseError(f"annotation section '{section}' must be a JSON list")
        if not set(map(type, doc[section])) <= {dict}:
            i, record = next((i, r) for i, r in enumerate(doc[section]) if type(r) is not dict)
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

    image_meta: dict = {}  # image id -> (width, height, truth rows), in input order
    for i, img in enumerate(doc["images"]):
        try:  # each field read once and its type checked inline; _require names a fault
            image_id, width, height = img["id"], img["width"], img["height"]
        except KeyError:
            image_id = None
        if type(image_id) not in _ID:
            for k, t in (("id", _ID), ("width", None), ("height", None)):
                _require(img, k, "images", i, t)
        if image_id in image_meta:
            raise ValidationError(f"duplicate image id {image_id}")
        if type(width) not in _NUMBER or type(height) not in _NUMBER:
            raise ValidationError(f"image {image_id} width and height must be numbers")
        # Positive comparisons, so that NaN fails them too.
        if not (MIN_IMAGE_SIDE <= width <= MAX_IMAGE_SIDE
                and MIN_IMAGE_SIDE <= height <= MAX_IMAGE_SIDE):
            raise ValidationError(f"image {image_id} width and height must be in [1, 1e9]")
        image_meta[image_id] = (float(width), float(height), [])

    seen_ann: set = set()
    for i, ann in enumerate(doc["annotations"]):
        try:
            ann_id, image_id, cat_id, bbox = (
                ann["id"], ann["image_id"], ann["category_id"], ann["bbox"])
        except KeyError:
            ann_id = None
        if type(ann_id) not in _ID or type(image_id) not in _ID or type(cat_id) is not int:
            for k, t in (("id", _ID), ("image_id", _ID), ("category_id", _INT), ("bbox", None)):
                _require(ann, k, "annotations", i, t)
        if ann_id in seen_ann:
            raise ValidationError(f"duplicate annotation id {ann_id}")
        seen_ann.add(ann_id)
        if image_id not in image_meta:
            raise ValidationError(f"annotation {ann_id} references unknown image {image_id}")
        if cat_id not in class_of_source:
            raise ValidationError(f"annotation {ann_id} references unknown category {cat_id}")
        if type(bbox) is not list or len(bbox) != 4:
            raise ValidationError(f"annotation {ann_id} bbox must be [x, y, w, h]")
        x, y, w, h = bbox
        if not (type(x) in _NUMBER and type(y) in _NUMBER
                and type(w) in _NUMBER and type(h) in _NUMBER):
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
        width, height, rows = image_meta[image_id]
        if not (x >= 0 and y >= 0 and x + w <= width and y + h <= height):
            raise ValidationError(f"annotation {ann_id} box {bbox} is not inside image {image_id}")
        rows.append((class_of_source[cat_id], x, y, w, h))

    images = tuple(ImageRecord(i, w, h, tuple(rows)) for i, (w, h, rows) in image_meta.items())
    return Dataset(images=images, categories=tuple(categories))


def split_standard(
    dataset: Dataset, fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Partition into a labeled and an unlabeled dataset.

    round(fraction * N) images are chosen uniformly at random (seeded) for the
    labeled side. The unlabeled side keeps its ground truth, which only
    metrics read. Image order within each side follows the input order.
    """
    n = len(dataset.images)
    n_labeled = int(round(fraction * n))
    rng = np.random.default_rng(seed)
    chosen = set(rng.choice(n, size=n_labeled, replace=False).tolist())
    labeled = tuple(img for i, img in enumerate(dataset.images) if i in chosen)
    unlabeled = tuple(img for i, img in enumerate(dataset.images) if i not in chosen)
    return Dataset(labeled, dataset.categories), Dataset(unlabeled, dataset.categories)
