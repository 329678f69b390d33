"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
CLI, SIMLOOP = bench.import_acrst()

TINY = {
    "seed": 3,
    "epochs": 4,
    "pretrain_epochs": 1,
    "labeled_batch": 2,
    "unlabeled_batch": 4,
    "dataset": {"type": "synthetic", "images": 20, "classes": 3},
    "paste": {"crops_per_image": 1},
}


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """A scratch checkout root holding the shipped example config."""
    (tmp_path / "configs").mkdir()
    shutil.copy(ROOT / "configs" / "example.json", tmp_path / "configs" / "example.json")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _tiny_runner(name: str = "tiny") -> bench.Runner:
    workload = workloads.Workload(name, "tiny", lambda seed, run_dir: dict(TINY, seed=seed))
    return bench.Runner(CLI, SIMLOOP, workload)


def _outputs(runner: bench.Runner) -> tuple[str, str]:
    return (
        (runner.out_dir / "report.json").read_text(encoding="utf-8"),
        (runner.out_dir / "epochs.csv").read_text(encoding="utf-8"),
    )


def test_output_check_rejects_tampered_reports(in_tmp):
    runner = _tiny_runner()
    result = runner.run(3)
    assert result.problems == []
    report_text, csv_text = _outputs(runner)
    assert bench.check_outputs(report_text, csv_text, 3) == []

    def tampered(edit) -> list[str]:
        report = json.loads(report_text)
        edit(report)
        return bench.check_outputs(json.dumps(report), csv_text, 3)

    assert tampered(lambda r: r["epochs"][1].update(ap50=1.25))
    assert tampered(lambda r: r["epochs"][0].update(ap5095=-0.1))
    assert tampered(lambda r: r["epochs"][2]["sup_loss"].update(total=float("nan")))
    assert tampered(lambda r: r["epochs"][0]["pr"].__setitem__(0, float("inf")))
    assert tampered(lambda r: r["epochs"].pop())
    assert bench.check_outputs(report_text[:-20], csv_text, 3)
    assert bench.check_outputs(report_text, csv_text.rsplit("\n", 2)[0] + "\n", 3)
    assert bench.check_outputs(report_text, csv_text, 4)


def test_self_time_subtracts_the_union_of_child_intervals():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("b", 5.0, 9.0, 0, 0),
        S("b_child", 6.0, 7.0, 2, 0),
        S("c", 3.0, 5.0, 0, 0),  # overlaps a; the union of root's children is [1, 9]
        S("a", 11.0, 12.5, -1, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 3.0, 1.0, 2.0, 1.5])
    totals = tracing.aggregate(spans)
    assert totals["a"] == pytest.approx((4.5, 4.5))
    assert totals["root"] == pytest.approx((2.0, 10.0))


def test_workload_inputs_are_deterministic_under_the_seed(in_tmp):
    for workload in workloads.WORKLOADS.values():
        inputs = []
        for seed in (7, 7, 8):
            shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
            config_path, _ = workload.prepare(seed)
            inputs.append(
                {p.name: p.read_bytes() for p in sorted(config_path.parent.iterdir())}
            )
        assert inputs[0] == inputs[1], workload.name
        assert inputs[0] != inputs[2], workload.name
    doc = workloads.crowded_coco(5)
    per_image = np.bincount([a["image_id"] for a in doc["annotations"]])[1:]
    assert len(per_image) == len(doc["images"]) and per_image.min() >= 1


def test_tracing_restores_attributes_and_leaves_reports_and_counts_unchanged(in_tmp):
    originals = {
        (module, name): getattr(module, name)
        for module in (sys.modules["acrst.metrics"], sys.modules["acrst.simloop"])
        for name in ("match_greedy", "average_precision")
    }
    runner = _tiny_runner()
    plain = runner.run(3)
    tracers = [tracing.Tracer(run_id=i) for i in range(2)]
    traced = [runner.run(3, t) for t in tracers]
    for (module, name), original in originals.items():
        assert getattr(module, name) is original
    assert plain.problems == [] and all(r.problems == [] for r in traced)
    assert {r.sha256 for r in traced} == {plain.sha256}
    assert tracers[0].counts == tracers[1].counts
    names = {span.name for span in tracers[0].spans}
    assert {"cli.main", "simloop.run_epoch", "metrics.match_greedy", "rebalance.fbr_mix"} <= names
    assert "metrics.iou" not in names
    # average_precision reaches match_greedy through metrics' own globals.
    spans = tracers[0].spans
    parents = {spans[s.parent].name for s in spans if s.name == "metrics.match_greedy"}
    assert parents == {"simloop.run_epoch", "metrics.average_precision"}
    totals = [tracing.aggregate(t.spans) for t in tracers]
    metrics = bench.layer_metrics(tracers[0].counts, totals, traced, [plain, plain])
    assert set(metrics) == set(bench.PER_LAYER)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }


def test_reference_reports_match_the_recorded_sha256(in_tmp):
    baseline = json.loads((Path(__file__).with_name("baseline.json")).read_text("utf-8"))
    if baseline["environment"]["numpy"] != np.__version__:
        pytest.skip("report bytes are recorded for another numpy version")
    for name, expected in baseline["report_sha256"].items():
        runner = bench.Runner(CLI, SIMLOOP, workloads.WORKLOADS[name])
        result = runner.run(workloads.experiment_seed(expected["seed"], 0))
        assert result.problems == []
        assert result.sha256 == expected["sha256"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "example", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
