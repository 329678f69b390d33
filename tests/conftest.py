import json

import pytest

from acrst.synthdata import synthetic_dataset

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Collector for one-line acceptance verdicts, echoed after the run."""

    def record(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def coco_text() -> str:
    """Two images, three annotations, two categories (counts {1: 2, 2: 1})."""
    doc = {
        "images": [
            {"id": 10, "width": 100, "height": 80},
            {"id": 11, "width": 64, "height": 64},
        ],
        "annotations": [
            {"id": 1, "image_id": 10, "category_id": 7, "bbox": [5, 5, 20, 10]},
            {"id": 2, "image_id": 10, "category_id": 9, "bbox": [30, 20, 40, 30]},
            {"id": 3, "image_id": 11, "category_id": 7, "bbox": [0, 0, 64, 64]},
        ],
        "categories": [
            {"id": 7, "name": "cat"},
            {"id": 9, "name": "dog"},
        ],
    }
    return json.dumps(doc)


@pytest.fixture
def small_dataset():
    return synthetic_dataset(24, 4, seed=5, mean_extra_instances=1.5)
