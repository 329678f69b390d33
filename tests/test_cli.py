import csv
import json
from pathlib import Path

import pytest

from acrst.cli import main
from acrst.simloop import EPOCH_CSV_COLUMNS

METRICS = [c for c in EPOCH_CSV_COLUMNS if c != "epoch"]
EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example.json"


def base_config(**overrides):
    config = {
        "seed": 5,
        "split_fraction": 0.25,
        "epochs": 4,
        "pretrain_epochs": 2,
        "labeled_batch": 4,
        "unlabeled_batch": 4,
        "batches_per_epoch": 1,
        "proposal_budget": 32,
        "dataset": {"type": "synthetic", "images": 24, "classes": 3},
        "detector": {"initial_recall_skill": 0.6, "lr": 0.2, "ema_alpha": 0.7},
    }
    config.update(overrides)
    return config


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides)), encoding="utf-8")
    return path


class TestRun:
    def test_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "report.json").is_file()
        assert (out / "epochs.csv").is_file()
        stdout = capsys.readouterr().out
        assert "run complete" in stdout
        assert "ap5095" in stdout

    def test_report_is_deterministic(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config), "--out", str(out_a)])
        main(["run", "--config", str(config), "--out", str(out_b)])
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "epochs.csv").read_bytes() == (out_b / "epochs.csv").read_bytes()

    def test_seed_override(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out), "--seed", "11"])
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 11
        assert report["config"]["seed"] == 11

    def test_toggle_overrides(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        main(
            [
                "run", "--config", str(config), "--out", str(out),
                "--disable", "fbr", "--disable", "affr", "--enable", "two_stage",
            ]
        )
        toggles = json.loads((out / "report.json").read_text())["config"]["toggles"]
        assert toggles == {
            "fbr": False,
            "affr": False,
            "two_stage": True,
            "selective_supervision": True,
        }

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 5,,}', encoding="utf-8")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_unknown_key_named_exits_two(self, tmp_path, capsys):
        config = write_config(tmp_path, leerning_rate=0.5)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "leerning_rate" in capsys.readouterr().err

    def test_invalid_value_exits_two(self, tmp_path):
        config = write_config(tmp_path, split_fraction=1.5)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "override, named",
        [
            ({"paste": [1]}, "'paste'"),
            ({"oracle": 5}, "'oracle'"),
            ({"toggles": [1]}, "'toggles'"),
            ({"dataset": "x"}, "'dataset'"),
            ({"epochs": "30"}, "epochs"),
            ({"detector": {"lr": "0.1"}}, "detector"),
            ({"filter": {"tau_cls": None}}, "filter"),
            ({"dataset": {"images": "x"}}, "dataset.images"),
            ({"dataset": {"skew": 0}}, "dataset.skew"),
            ({"dataset": {"seed": -1}}, "dataset.seed"),
            ({"dataset": {"max_box": 1000}}, "dataset.max_box"),
            ({"paste": {"crops_per_image": 2.5}}, "paste.crops_per_image"),
            ({"detector": {"confusion_rate": "x"}}, "detector.confusion_rate"),
            ({"detector": {"initial_recall_skill": "x"}}, "detector.initial_recall_skill"),
            ({"paste": {"crops_per_image": True}}, "paste.crops_per_image"),
            ({"detector": {"loc_skill": True}}, "detector.loc_skill"),
            # Count keys are capped: past the cap a run used to fail mid-way.
            ({"paste": {"crops_per_image": 10**12}}, "paste.crops_per_image"),
            ({"proposal_budget": 10**12}, "proposal_budget"),
            ({"detector": {"fp_rate": 1e300}}, "detector.fp_rate"),
            # Past these caps a run failed mid-way: math.exp overflowed in the
            # score logistic, and the Poisson draw of the synthetic corpus
            # raised or did not finish.
            ({"detector": {"confidence_sharpness": 1e300}}, "detector.confidence_sharpness"),
            ({"dataset": {"mean_extra_instances": 1e19}}, "dataset.mean_extra_instances"),
            # Below the floor a rescaled crop's size rounded to 0 mid-run.
            ({"paste": {"rescale_min": 5e-324, "rescale_max": 5e-324}}, "paste.rescale_min"),
            # Past the cap the synthetic corpus failed to allocate before the first epoch.
            ({"dataset": {"classes": 10**12}}, "dataset.classes"),
            # Past this cap the weighted loss overflowed and a run failed mid-way.
            ({"lambda_unsup": 1e308}, "lambda_unsup"),
            # Past these caps a box area overflowed and every metric read 0.
            ({"dataset": {"width": 1e160, "height": 7.5e159, "min_box": 5e158,
                          "max_box": 2.5e159}}, "dataset.width"),
            ({"dataset": {"height": 1e10}}, "dataset.height"),
        ],
    )
    def test_ill_typed_value_named_exits_two(self, tmp_path, capsys, override, named):
        config = write_config(tmp_path, **override)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_largest_lambda_unsup_runs_to_the_end(self, tmp_path, seed):
        # Each unsupervised loss term is bounded, so the weighted total stays
        # finite at the cap, where 1e308 once overflowed mid-run.
        config = json.loads(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
        del config["sweep"]
        config.update(epochs=8, lambda_unsup=1000, proposal_budget=1)
        config["dataset"]["images"] = 60
        config["detector"]["initial_recall_skill"] = 0.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out), "--seed", str(seed)]) == 0
        assert len(json.loads((out / "report.json").read_text())["epochs"]) == 3

    def test_largest_image_sides_run_as_their_scaled_copy(self, tmp_path):
        # At 1e9 px, the width cap, every area is finite and each epoch scores
        # what the same corpus at 640 x 480 scores.
        scale = 1e9 / 640
        sides = {"width": 1e9, "height": 480 * scale, "min_box": 32 * scale, "max_box": 160 * scale}
        epochs = []
        for dataset in ({**base_config()["dataset"], **sides}, base_config()["dataset"]):
            out = tmp_path / str(len(epochs))
            config = write_config(tmp_path, dataset=dataset)
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            epochs.append(json.loads((out / "report.json").read_text())["epochs"])
        metrics = ("ap50", "ap5095", "pseudo_acc", "pseudo_rec")
        large, small = ([[e[m] for m in metrics] for e in run] for run in epochs)
        assert large == small and any(e["ap50"] > 0 for e in epochs[0])

    def test_mismatched_oracle_tau_ml_exits_two(self, tmp_path, capsys):
        config = write_config(
            tmp_path, filter={"tau_ml": 0.2}, oracle={"fn_rate": 0.1, "tau_ml": 0.5}
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "oracle.tau_ml" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_runtime_failure_exits_one(self, tmp_path, monkeypatch):
        def fail(config, dataset):
            raise RuntimeError("simulated failure inside the loop")

        monkeypatch.setattr("acrst.cli.run_experiment", fail)
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1

    def test_labeled_split_without_instances_exits_two(self, tmp_path, capsys):
        # No annotations at all: the labeled split holds no crop for fbr to
        # paste, which is rejected at set-up, not in the first epoch.
        coco = {
            "images": [
                {"id": 1, "width": 100, "height": 100, "file_name": "a.jpg"},
                {"id": 2, "width": 100, "height": 100, "file_name": "b.jpg"},
            ],
            "annotations": [],
            "categories": [{"id": 1, "name": "thing"}],
        }
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(coco), encoding="utf-8")
        config = write_config(
            tmp_path,
            split_fraction=0.5,
            dataset={"type": "coco_json", "path": str(ann)},
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "labeled split drew no instances" in capsys.readouterr().err

    def test_coco_file_without_categories_exits_two(self, tmp_path, capsys):
        # Once this failed mid-run, when the detector was built for no class.
        coco = {"images": [{"id": i, "width": 64, "height": 64} for i in range(1, 21)],
                "annotations": [], "categories": []}
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(coco), encoding="utf-8")
        config = write_config(tmp_path, toggles={"fbr": False, "affr": False},
                              dataset={"type": "coco_json", "path": str(ann)})
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "annotation document has no categories" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_coco_dataset_source(self, tmp_path, coco_text):
        ann = tmp_path / "ann.json"
        ann.write_text(coco_text, encoding="utf-8")
        config = write_config(
            tmp_path,
            split_fraction=0.5,
            labeled_batch=1,
            unlabeled_batch=1,
            dataset={"type": "coco_json", "path": str(ann)},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [c["name"] for c in report["categories"]] == ["cat", "dog"]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_fractional_image_sizes_run_to_the_end(self, tmp_path, seed):
        # A box the teacher clips to a fractional image edge can end one ulp
        # past it; pasting onto that image must not reject the box mid-run.
        coco = {
            "images": [{"id": i, "width": 333.3, "height": 250.7} for i in range(1, 61)],
            "annotations": [
                {"id": i, "image_id": i, "category_id": 1, "bbox": [20, 15, 313.2, 235.6]}
                for i in range(1, 61)
            ],
            "categories": [{"id": 1, "name": "thing"}],
        }
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(coco), encoding="utf-8")
        config = write_config(
            tmp_path,
            epochs=8,
            unlabeled_batch=8,
            batches_per_epoch=2,
            dataset={"type": "coco_json", "path": str(ann)},
            detector={"initial_recall_skill": 0.6, "lr": 0.2, "ema_alpha": 0.7, "loc_skill": 0},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out), "--seed", str(seed)]) == 0

    @pytest.mark.parametrize("rescale, code", [(5e-324, 2), (0.01, 0)])
    def test_rescale_floor_is_checked_at_parse_time(self, tmp_path, capsys, rescale, code):
        # Crops from the large images are rescaled onto the small ones; a
        # factor that rounds a pasted side to 0 once failed the run mid-way.
        images, annotations = [], []
        for i in range(1, 41):
            large = i % 2 == 1
            images.append({"id": i, "width": 320 if large else 100, "height": 240 if large else 60})
            bbox = [10, 10, 200, 180] if large else [5, 5, 20, 15]
            annotations.append({"id": i, "image_id": i, "category_id": 1, "bbox": bbox})
        coco = {"images": images, "annotations": annotations, "categories": [{"id": 1, "name": "a"}]}
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(coco), encoding="utf-8")
        config = write_config(
            tmp_path,
            split_fraction=0.5,
            unlabeled_batch=8,
            toggles={"fbr": True},
            dataset={"type": "coco_json", "path": str(ann)},
            paste={"crops_per_image": 3, "rescale_min": rescale, "rescale_max": rescale},
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == code
        assert ("paste.rescale_min" in capsys.readouterr().err) == (code == 2)
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("width, code", [(1e-200, 2), (20, 0)])
    def test_min_box_floor_is_checked_at_parse_time(self, tmp_path, capsys, width, code):
        # The example corpus scaled to ``width``: at 1e-200 px a run once
        # failed mid-way on a division by zero; at 20 px min_box is 1 px.
        config = json.loads(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
        del config["sweep"]
        scale = width / 640
        sides = {"width": 640, "height": 480, "min_box": 32, "max_box": 160}
        config["dataset"].update({key: side * scale for key, side in sides.items()})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == code
        assert ("dataset.min_box" in capsys.readouterr().err) == (code == 2)
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize(
        "width, box, code, named",
        [
            (1e-200, None, 2, "image 1"),
            (1e-100, None, 2, "image 1"),
            (640, 1e-300, 2, "annotation 1"),
            (2, None, 0, None),
            (640, 1e-3, 0, None),
        ],
    )
    def test_coco_side_floors_are_checked_at_parse_time(
        self, tmp_path, capsys, width, box, code, named
    ):
        # 60 images of 640 x 480 scaled to ``width``, one box each: at 1e-200
        # px a run once failed mid-way on a division by zero, and at 1e-100
        # px, or with a 1e-300 px box, it scored ap50 0.0. From 1 px image
        # sides and 1e-3 px box sides on, every run scores as at 640 px.
        s = width / 640
        bbox = [50 * s, 40 * s, 100 * s, 80 * s] if box is None else [50, 40, box, box]
        coco = {
            "images": [{"id": i, "width": 640 * s, "height": 480 * s} for i in range(1, 61)],
            "annotations": [
                {"id": i, "image_id": i, "category_id": i % 3 + 1, "bbox": bbox}
                for i in range(1, 61)
            ],
            "categories": [{"id": c, "name": f"c{c}"} for c in (1, 2, 3)],
        }
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(coco), encoding="utf-8")
        config = json.loads(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
        del config["sweep"]
        config.update(epochs=8, dataset={"type": "coco_json", "path": str(ann)})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == code
        if named:
            assert named in capsys.readouterr().err and not out.exists()
        else:
            report = json.loads((out / "report.json").read_text())
            assert round(report["summary"]["final"]["ap50"], 4) == 0.7651

    def test_huge_beta_samples_one_class_after_epoch_zero(self, tmp_path, caplog):
        # Every mirror-rank weight underflows at beta 1e6; sampling once fell
        # back to uniform there, the opposite of a sharper rank.
        config = json.loads(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
        del config["sweep"]
        config["epochs"] = 10
        config["paste"]["beta"] = 1e6
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        epochs = json.loads((tmp_path / "o" / "report.json").read_text())["epochs"]
        assert len(epochs) == 5
        for row in epochs[1:]:
            assert sorted(row["mu"])[-2:] == [0.0, 1.0]
        assert "degenerate" not in caplog.text

    def test_missing_annotation_file_exits_two(self, tmp_path, capsys):
        config = write_config(
            tmp_path, dataset={"type": "coco_json", "path": str(tmp_path / "gone.json")}
        )
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "annotation file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_non_object_document_named_exits_two(self, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_text("[1]", encoding="utf-8")
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"config {config} must hold a JSON object" in capsys.readouterr().err

    def test_non_utf8_config_named_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(json.dumps(base_config()).encode("utf-16"))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"config {config} is not UTF-8" in capsys.readouterr().err

    def test_non_utf8_annotation_file_named_exits_two(self, tmp_path, capsys, coco_text):
        ann = tmp_path / "ann.json"
        ann.write_bytes(coco_text.replace("cat", "caf\u00e9").encode("latin-1"))
        config = write_config(tmp_path, dataset={"type": "coco_json", "path": str(ann)})
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"annotation file {ann} is not UTF-8" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["run", "--help"]) == 0
        assert "--config" in capsys.readouterr().out

    def test_no_arguments_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class TestSweep:
    def sweep_config(self, tmp_path, runs=None, seeds=(1, 2, 3), **overrides):
        sweep = {}
        if runs is not None:
            sweep["runs"] = runs
        if seeds is not None:
            sweep["seeds"] = list(seeds)
        return write_config(tmp_path, sweep=sweep, **overrides)

    def test_product_of_runs_and_seeds(self, tmp_path, capsys):
        runs = [
            {"name": "baseline", "toggles": {"fbr": False, "affr": False}},
            {"name": "full"},
        ]
        config = self.sweep_config(tmp_path, runs=runs)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        subdirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert subdirs == [
            "baseline__seed1", "baseline__seed2", "baseline__seed3",
            "full__seed1", "full__seed2", "full__seed3",
        ]
        for sub in subdirs:
            assert (out / sub / "report.json").is_file()
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert lines[0] == (
            "run,seed,fbr,affr,two_stage,selective_supervision,status,"
            + ",".join(METRICS)
            + ",error"
        )
        assert len(lines) == 7
        assert all(",ok," in line and line.endswith(",") for line in lines[1:])
        assert "6/6 runs succeeded" in capsys.readouterr().out

    def test_default_seed_when_none_given(self, tmp_path):
        config = self.sweep_config(tmp_path, runs=[{"name": "only"}], seeds=None)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "only__seed5" / "report.json").is_file()

    def test_failed_run_recorded_and_sweep_continues(self, tmp_path, capsys):
        runs = [
            {"name": "broken", "toggles": {"warp_drive": True}},
            {"name": "fine"},
        ]
        config = self.sweep_config(tmp_path, runs=runs, seeds=(1,))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
        by_name = {row.split(",")[0]: row for row in rows}
        assert "failed" in by_name["broken"]
        assert ",ok," in by_name["fine"]
        assert (out / "fine__seed1" / "report.json").is_file()
        assert not (out / "broken__seed1").exists()
        assert "1/2 runs succeeded" in capsys.readouterr().out
        with (out / "summary.csv").open(encoding="utf-8", newline="") as fh:
            errors = {row["run"]: row["error"] for row in csv.DictReader(fh)}
        assert "warp_drive" in errors["broken"]
        assert errors["fine"] == ""
        assert main(["report", "--in", str(out)]) == 0
        assert "aggregated 1 runs" in capsys.readouterr().out

    def test_missing_sweep_section_exits_two(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_empty_runs_exits_two(self, tmp_path):
        config = self.sweep_config(tmp_path, runs=[])
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    def test_run_without_name_exits_two(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, runs=[{"toggles": {}}])
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "name" in capsys.readouterr().err

    def test_bad_seeds_exits_two(self, tmp_path):
        config = self.sweep_config(tmp_path, runs=[{"name": "x"}], seeds=("a",))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("seeds", [(), (1, 2, 1)])
    def test_empty_or_repeated_seeds_exit_two(self, tmp_path, capsys, seeds):
        # A repeated seed ran the same run twice into one directory.
        config = self.sweep_config(tmp_path, runs=[{"name": "x"}], seeds=seeds)
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "sweep.seeds" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "runs, named",
        [
            (5, "sweep.runs"),
            ([{"name": "a", "toggles": [1]}], "sweep.runs[0].toggles"),
            ([{"name": "a"}, {"name": "b", "toggles": "fbr"}], "sweep.runs[1].toggles"),
            ([{"name": "a", "paste": 3}], "sweep.runs[0].paste"),
        ],
    )
    def test_ill_typed_plan_named_exits_two(self, tmp_path, capsys, runs, named):
        config = self.sweep_config(tmp_path, runs=runs, seeds=(1,))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_sweep_key_named_exits_two(self, tmp_path, capsys):
        sweep = {"runs": [{"name": "a"}], "seeds": [1], "repeats": 2}
        config = write_config(tmp_path, sweep=sweep)
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "unknown sweep key 'repeats'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "runs, named",
        [
            # A repeated name overwrote the earlier run's directory.
            ([{"name": "dup"}, {"name": "dup"}], "sweep.runs[1].name"),
            # A separator wrote the run outside the sweep's own level.
            ([{"name": "a/b"}], "sweep.runs[0].name"),
            ([{"name": "ok"}, {"name": "a\\b"}], "sweep.runs[1].name"),
            ([{"name": "."}], "sweep.runs[0].name"),
            ([{"name": ".."}], "sweep.runs[0].name"),
            ([{"name": ""}], "sweep.runs[0].name"),
            ([{"name": 5}], "sweep.runs[0].name"),
        ],
    )
    def test_run_name_that_is_not_a_unique_path_component_exits_two(
        self, tmp_path, capsys, runs, named
    ):
        config = self.sweep_config(tmp_path, runs=runs, seeds=(1,))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_is_a_partial_config_document(self, tmp_path):
        runs = [{"name": "half", "split_fraction": 0.5, "paste": {"beta": 2.0}}]
        config = self.sweep_config(tmp_path, runs=runs, seeds=(1,), paste={"crops_per_image": 3})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        echo = json.loads((out / "half__seed1" / "report.json").read_text())["config"]
        assert echo["split_fraction"] == 0.5
        assert echo["paste"]["beta"] == 2.0 and echo["paste"]["crops_per_image"] == 3

    @pytest.mark.parametrize(
        "override, named",
        [
            # The cross-key rules run on the merged document.
            ({"epochs": 1}, "epochs must be >= pretrain_epochs"),
            ({"filter": {"tau_ml": 0.3}, "oracle": {"tau_ml": 0.5}}, "oracle.tau_ml"),
            ({"split_fraction": 1.5}, "split_fraction"),
            ({"paste": {"rescale_min": 0}}, "paste.rescale_min"),
            ({"sweep": {"runs": []}}, "'sweep'"),
        ],
    )
    def test_bad_run_key_fails_its_row_naming_it(self, tmp_path, capsys, override, named):
        runs = [{"name": "bad", **override}, {"name": "fine"}]
        config = self.sweep_config(tmp_path, runs=runs, seeds=(1,))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert "1/2 runs succeeded" in capsys.readouterr().out
        with (out / "summary.csv").open(encoding="utf-8", newline="") as fh:
            rows = {row["run"]: row for row in csv.DictReader(fh)}
        assert rows["bad"]["status"] == "failed" and named in rows["bad"]["error"]
        assert rows["bad"]["fbr"] == rows["bad"]["ap50"] == ""
        assert rows["fine"]["status"] == "ok"
        assert not (out / "bad__seed1").exists()

    def test_run_keys_beat_flags_and_seeds_beat_seed_flag(self, tmp_path):
        runs = [{"name": "own", "toggles": {"fbr": True}}, {"name": "flagged"}]
        config = self.sweep_config(tmp_path, runs=runs, seeds=(1,))
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(config), "--out", str(out)]
        assert main([*argv, "--disable", "fbr", "--seed", "9"]) == 0
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["flagged__seed1", "own__seed1"]
        with (out / "summary.csv").open(encoding="utf-8", newline="") as fh:
            rows = {row["run"]: row for row in csv.DictReader(fh)}
        assert rows["own"]["fbr"] == "True" and rows["flagged"]["fbr"] == "False"
        report = json.loads((out / "own__seed1" / "report.json").read_text())
        assert report["seed"] == 1 and report["config"]["toggles"]["fbr"] is True

    def test_seed_flag_is_the_default_seed(self, tmp_path):
        config = self.sweep_config(tmp_path, runs=[{"name": "only"}], seeds=None)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config), "--out", str(out), "--seed", "9"]) == 0
        assert (out / "only__seed9" / "report.json").is_file()

    def test_run_filter_tau_ml_reaches_the_oracle_as_in_one_document(self, tmp_path):
        runs = [{"name": "tau", "filter": {"tau_ml": 0.3}}]
        config = self.sweep_config(tmp_path, runs=runs, seeds=(1,))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        swept = (out / "tau__seed1" / "report.json").read_bytes()
        assert json.loads(swept)["config"]["oracle"]["tau_ml"] == 0.3
        single = write_config(tmp_path, "single.json", seed=1, filter={"tau_ml": 0.3})
        assert main(["run", "--config", str(single), "--out", str(tmp_path / "one")]) == 0
        assert (tmp_path / "one" / "report.json").read_bytes() == swept

    def test_boolean_seed_exits_two(self, tmp_path):
        config = self.sweep_config(tmp_path, runs=[{"name": "x"}], seeds=(True,))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_non_boolean_toggle_fails_its_run(self, tmp_path, capsys):
        runs = [{"name": "strung", "toggles": {"fbr": "no"}}, {"name": "fine"}]
        config = self.sweep_config(tmp_path, runs=runs, seeds=(1,))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert "1/2 runs succeeded" in capsys.readouterr().out
        with (out / "summary.csv").open(encoding="utf-8", newline="") as fh:
            rows = {row["run"]: row for row in csv.DictReader(fh)}
        assert rows["strung"]["status"] == "failed"
        assert "toggles.fbr" in rows["strung"]["error"]
        assert rows["fine"]["status"] == "ok"
        assert not (out / "strung__seed1").exists()


class TestReport:
    def run_once(self, tmp_path) -> Path:
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        return out

    def test_single_run_slices(self, tmp_path, capsys):
        out = self.run_once(tmp_path)
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "ap5095=" in stdout
        for metric in METRICS:
            slice_path = out / "slices" / f"{metric}_vs_epoch.csv"
            assert slice_path.is_file()
            lines = slice_path.read_text().strip().split("\n")
            assert lines[0] == f"epoch,{metric}"
            assert len(lines) == 1 + 2  # two mutual epochs

    def test_sweep_aggregation(self, tmp_path, capsys):
        config = write_config(tmp_path, sweep={"runs": [{"name": "a"}, {"name": "b"}], "seeds": [1]})
        out = tmp_path / "sweep"
        main(["sweep", "--config", str(config), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "aggregated 2 runs" in stdout
        assert (out / "slices" / "a__seed1__ap50_vs_epoch.csv").is_file()
        assert (out / "slices" / "b__seed1__kld_vs_epoch.csv").is_file()

    def test_missing_directory_exits_two(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "void")]) == 2

    def test_directory_without_reports_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--in", str(empty)]) == 2
        assert "neither" in capsys.readouterr().err

    def test_corrupt_report_exits_two(self, tmp_path, capsys):
        out = self.run_once(tmp_path)
        (out / "report.json").write_text('{"epochs": [,]}', encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 2
        err = capsys.readouterr().err
        assert "corrupt report" in err and "line" in err

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda report: [1, 2], "JSON object"),
            (lambda report: {**report, "epochs": {}}, "'epochs'"),
            (lambda report: {**report, "epochs": [*report["epochs"][:1], 3]}, "epochs[1]"),
            (lambda report: {**report, "summary": [1]}, "'summary'"),
            (lambda report: {**report, "summary": {"final": 1}}, "'final'"),
        ],
        ids=["list", "epochs_object", "epoch_row_number", "summary_list", "final_number"],
    )
    def test_report_of_another_shape_exits_two(self, tmp_path, capsys, edit, named):
        out = self.run_once(tmp_path)
        report = json.loads((out / "report.json").read_text())
        (out / "report.json").write_text(json.dumps(edit(report)), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out / "report.json") in err and named in err

    def test_epoch_row_without_a_column_is_named(self, tmp_path, capsys):
        out = self.run_once(tmp_path)
        report = json.loads((out / "report.json").read_text())
        del report["epochs"][1]["fg_ratio"]
        (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--in", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out / "report.json") in err and "epochs[1]" in err and "'fg_ratio'" in err
