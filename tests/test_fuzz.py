"""Run fuzzer: documents at the edges of the config table and of the COCO
parser go through ``acrst.cli.main``.

Each document must either exit 0 with a report whose every number is finite,
or exit 2 with an error that names a config key or an annotation record. An
exit 1 is a defect. Config documents set one to four table keys, each at an
end of its range, just inside an end, or at its default; COCO documents hold
images and boxes at the parser's side limits. A run has at most 40 images and
3 epochs, and each test runs in a wall-clock budget of 10 s.
"""

import json
import math
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from acrst.cli import main
from acrst.config import SCHEMA, SECTIONS, config_from_dict
from acrst.dataset import MAX_IMAGE_SIDE, MIN_BOX_SIDE, MIN_IMAGE_SIDE

BUDGET_S = 10.0

BASE = {
    "seed": 5,
    "split_fraction": 0.25,
    "epochs": 3,
    "pretrain_epochs": 1,
    "labeled_batch": 4,
    "unlabeled_batch": 4,
    "batches_per_epoch": 1,
    "proposal_budget": 32,
    "dataset": {"type": "synthetic", "images": 30, "classes": 3},
    "detector": {"initial_recall_skill": 0.6, "lr": 0.2, "ema_alpha": 0.7},
}

# Keys whose far end would take a run past 40 images or 3 epochs, or make it
# cost seconds: their values are capped here.
_CAPS = {"epochs": 3, "pretrain_epochs": 3, "dataset.images": 40, "batches_per_epoch": 4}

_DEFAULTS = config_from_dict({}).to_dict()


def _default(key: str):
    section, _, name = key.rpartition(".")
    return _DEFAULTS[section][name] if section else _DEFAULTS[key]


def _edge_values(key: str) -> list:
    """Values of ``key`` at each end of its table range, just inside each end
    and at its default; an unbounded end is the largest int or double."""
    kinds, bounds = SCHEMA[key]
    if bounds == "-":
        return [True, False] if kinds == "bool" else [None, "missing.json"]
    if bounds[0] not in "([":
        return bounds.split(" | ")
    values = [_default(key)]
    lo, hi = (float(b) for b in bounds[1:-1].split(","))
    if kinds.startswith("int"):
        lo = -(2**70) if lo == -math.inf else int(lo)
        hi = 2**70 if hi == math.inf else int(hi)
        values += [lo, lo + 1, hi - 1, hi]
    else:
        far = sys.float_info.max
        lo, hi = max(lo, -far), min(hi, far)
        values += [math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)]
        values += [v for v, closed in ((lo, bounds[0] == "["), (hi, bounds[-1] == "]")) if closed]
    if "null" in kinds:
        values.append(None)
    if key in _CAPS:
        values = [min(v, _CAPS[key]) for v in values]
    if "list of number" in kinds:
        values += [[v] * 3 for v in values] + [[lo, hi, 0.5], [lo, hi]]
    return values


_KEY_VALUE = st.sampled_from(sorted(SCHEMA)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(_edge_values(key)))
)


def _merged(pairs) -> dict:
    doc = json.loads(json.dumps(BASE))
    for key, value in pairs:
        section, _, name = key.rpartition(".")
        if section:
            doc.setdefault(section, {})[name] = value
        else:
            doc[key] = value
    return doc


_SIDES = [MIN_IMAGE_SIDE, math.nextafter(MIN_IMAGE_SIDE, 2.0), 64, 333.3, MAX_IMAGE_SIDE]
_BAD_SIDES = [0, math.nextafter(MIN_IMAGE_SIDE, 0.0), math.nextafter(MAX_IMAGE_SIDE, math.inf)]


@st.composite
def _box(draw, width: float, height: float) -> list:
    """A box inside a ``width`` x ``height`` image: each side the smallest the
    parser accepts, half the image's or the whole of it, placed at the origin
    or against the far edge."""
    sides = []
    for extent in (width, height):
        side = draw(st.sampled_from([MIN_BOX_SIDE, extent / 2, extent]))
        sides.append((draw(st.sampled_from([0.0, extent - side])), side))
    (x, w), (y, h) = sides
    return [x, y, w, h]


@st.composite
def _coco_document(draw) -> dict:
    """Up to 40 images with edge sides, zero to two boxes each; one image
    side or box may be just outside the parser's limits."""
    n_classes = draw(st.integers(1, 3))
    images, annotations = [], []
    for image_id in range(1, draw(st.integers(1, 40)) + 1):
        width, height = draw(st.sampled_from(_SIDES)), draw(st.sampled_from(_SIDES))
        images.append({"id": image_id, "width": width, "height": height})
        for _ in range(draw(st.integers(0, 2))):
            annotations.append({
                "id": len(annotations) + 1,
                "image_id": image_id,
                "category_id": draw(st.integers(1, n_classes)),
                "bbox": draw(_box(width, height)),
            })
    fault = draw(st.sampled_from([None, "side", "box"]))
    if fault == "side":
        images[draw(st.integers(0, len(images) - 1))]["width"] = draw(st.sampled_from(_BAD_SIDES))
    elif fault == "box" and annotations:
        annotations[draw(st.integers(0, len(annotations) - 1))]["bbox"][2] = MIN_BOX_SIDE / 2
    categories = [{"id": c, "name": f"c{c}"} for c in range(1, n_classes + 1)]
    return {"images": images, "annotations": annotations, "categories": categories}


# What an exit-2 message may name: a table key, a section, or a COCO record.
_NAMES = (*SCHEMA, *(key.rpartition(".")[2] for key in SCHEMA), *SECTIONS,
          "image", "annotation", "categor")


def _finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _run_or_exit_two(doc: dict, coco: dict | None = None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if coco is not None:
            (tmp / "ann.json").write_text(json.dumps(coco), encoding="utf-8")
            doc["dataset"] = {"type": "coco_json", "path": str(tmp / "ann.json")}
        (tmp / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = main(["run", "--config", str(tmp / "config.json"), "--out", str(tmp / "o")])
        assert code in (0, 2), f"exit {code} for {doc} {coco}"
        if code == 0:
            report = json.loads((tmp / "o" / "report.json").read_text(encoding="utf-8"))
            assert _finite_numbers(report), doc
        else:
            assert any(name in err.getvalue() for name in _NAMES), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(pairs=st.lists(_KEY_VALUE, min_size=1, max_size=4))
def _config_documents(pairs):
    _run_or_exit_two(_merged(pairs))


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(coco=_coco_document())
def _coco_documents(coco):
    _run_or_exit_two(_merged([]), coco)


def test_config_documents_run_or_exit_two():
    start = time.perf_counter()
    _config_documents()
    elapsed = time.perf_counter() - start
    assert elapsed <= BUDGET_S, f"took {elapsed:.1f}s, budget {BUDGET_S:.0f}s"


def test_coco_documents_run_or_exit_two():
    start = time.perf_counter()
    _coco_documents()
    elapsed = time.perf_counter() - start
    assert elapsed <= BUDGET_S, f"took {elapsed:.1f}s, budget {BUDGET_S:.0f}s"
