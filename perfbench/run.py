#!/usr/bin/env python3
"""acrst benchmark: complete `acrst run` invocations driven in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each benchmark run is a closed loop with one
client: it calls ``acrst.cli.main(["run", ...])`` once to warm up, then again
and again, each time with the next experiment seed, until ``--seconds`` have
passed. A fixed-work machine probe runs between runs, and each run's times
are scaled to the reference machine speed by it. Every run's ``report.json``
is checked, and the warm-up run's report must equal the first timed run's
byte for byte (same seed). With ``--trace 1`` each timed run is repeated with
the tracer installed, the traced report must equal the untraced one, and the
per-layer metrics come from the traced runs.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer as tracing
from workloads import WORK_DIR, WORKLOADS, Workload, experiment_seed

ROOT = Path(__file__).resolve().parent.parent

# machine_probe's rounds, and the probe time that counts as reference speed:
# roughly its time on the machine in baseline.json when nothing else slowed it.
PROBE_ROUNDS = 20
PROBE_REFERENCE_S = 0.05
# The p90 of epoch times is printed with at least ten samples beyond it.
MIN_EPOCH_SAMPLES = 100
# Hard stop for the timed loop, so a run ends well within three minutes even
# when the program has become much slower.
MAX_LOOP_SECONDS = 140.0

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "epoch_s": "s",
    "images_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_COUNT, _SECONDS, _RATIO = "count", "s", "ratio"
PER_LAYER = {
    "metrics.match_greedy.calls": _COUNT,
    "metrics.match_greedy.self_s": _SECONDS,
    "metrics.match_greedy.pairs_tested": _COUNT,
    "metrics.match_greedy.calls_per_eval_image": _RATIO,
    "metrics.average_precision.calls": _COUNT,
    "metrics.average_precision.self_s": _SECONDS,
    "metrics.ap_50_95.s": _SECONDS,
    "model.loss_breakdown.calls": _COUNT,
    "model.loss_breakdown.self_s": _SECONDS,
    "model.loss_breakdown.targets": _COUNT,
    "model.loss_breakdown.bg_share": _RATIO,
    "model.synth_detect.calls": _COUNT,
    "model.synth_detect.self_s": _SECONDS,
    "model.synth_detect.preds": _COUNT,
    "model.student_update.self_s": _SECONDS,
    "model.ema_update.self_s": _SECONDS,
    "simloop.run_epoch.self_s": _SECONDS,
    "simloop.pretrain.s": _SECONDS,
    "simloop.RunReport.to_json.s": _SECONDS,
    "filtering.oracle_image_labels.calls": _COUNT,
    "filtering.oracle_image_labels.self_s": _SECONDS,
    "filtering.filter.self_s": _SECONDS,
    "filtering.kept_ratio": _RATIO,
    "cropbank.sample_crops.calls": _COUNT,
    "cropbank.sample_crops.self_s": _SECONDS,
    "cropbank.sample_crops.entries_scanned": _COUNT,
    "cropbank.sample_crops.useful_ratio": _RATIO,
    "cropbank.refresh_pseudo_bank.self_s": _SECONDS,
    "cropbank.pseudo_bank_size": _COUNT,
    "cropbank.build_labeled_bank.s": _SECONDS,
    "rebalance.fbr_mix.calls": _COUNT,
    "rebalance.fbr_mix.self_s": _SECONDS,
    "rebalance.fbr_mix.fit_ratio": _RATIO,
    "config.config_from_dict.s": _SECONDS,
    "synthdata.synthetic_dataset.s": _SECONDS,
    "dataset.parse_coco_annotations.s": _SECONDS,
    "dataset.split_standard.s": _SECONDS,
    "metrics.self_s": _SECONDS,
    "model.self_s": _SECONDS,
    "simloop.self_s": _SECONDS,
    "filtering.self_s": _SECONDS,
    "cropbank.self_s": _SECONDS,
    "rebalance.self_s": _SECONDS,
    "trace.overhead_s": _SECONDS,
}

# Modules whose summed self time is a per-layer metric.
LOOP_MODULES = ("metrics", "model", "simloop", "filtering", "cropbank", "rebalance")


def import_acrst():
    """Import acrst from this checkout's ``src``; exit 2 when it is missing."""
    package_dir = ROOT / "src" / "acrst"
    if not (package_dir / "__init__.py").is_file():
        print(f"error: {package_dir} not found; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import acrst.cli
    import acrst.simloop

    if Path(acrst.__file__).resolve().parent != package_dir.resolve():
        print(f"error: imported acrst from {acrst.__file__}, not from {package_dir}",
              file=sys.stderr)
        sys.exit(2)
    return acrst.cli, acrst.simloop


class _LogCounter(logging.Handler):
    """Counts log records by level and message instead of printing them."""

    def __init__(self) -> None:
        super().__init__(level=logging.DEBUG)
        self.counts: Counter = Counter()
        self.errors: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        self.counts[f"{record.levelname} {record.name}: {_message_kind(message)}"] += 1
        if record.levelno >= logging.ERROR:
            self.errors.append(message)


def _message_kind(message: str) -> str:
    # Messages such as "crop 412x96 from image 17 does not fit ..." differ only
    # in their numbers; count them as one kind.
    return "".join("#" if c.isdigit() else c for c in message)


def _numbers(value, path: str):
    """(path, number) for every number nested in a JSON value."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{path}[{i}]")


def check_outputs(report_text: str, csv_text: str, expected_epochs: int) -> list[str]:
    """Problems found in one run's report.json and epochs.csv; empty when valid."""
    try:
        report = json.loads(report_text)
    except ValueError as e:
        return [f"report.json is not valid JSON: {e}"]
    epochs = report.get("epochs") if isinstance(report, dict) else None
    if not isinstance(epochs, list):
        return ["report.json has no epoch list"]
    problems = []
    if len(epochs) != expected_epochs:
        problems.append(f"report has {len(epochs)} epochs, expected {expected_epochs}")
    if report.get("summary", {}).get("epochs_run") != expected_epochs:
        problems.append(f"summary.epochs_run is not {expected_epochs}")
    for i, row in enumerate(epochs):
        for path, number in _numbers(row, f"epochs[{i}]"):
            if not math.isfinite(number):
                problems.append(f"{path} is not finite")
        for key in ("ap50", "ap5095"):
            value = row.get(key) if isinstance(row, dict) else None
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                problems.append(f"epochs[{i}].{key} = {value!r} is not in [0, 1]")
    csv_rows = csv_text.count("\n") - 1
    if csv_rows != expected_epochs:
        problems.append(f"epochs.csv has {csv_rows} rows, expected {expected_epochs}")
    return problems


@dataclass
class RunResult:
    seed: int
    problems: list[str] = field(default_factory=list)
    run_s: float = math.nan
    setup_s: float = math.nan
    epoch_s: list[float] = field(default_factory=list)
    images: int = 0  # images the teacher labeled during mutual learning
    eval_images: int = 0
    sha256: str = ""
    scale: float = 1.0  # reference machine speed over the speed during this run
    log_counts: Counter = field(default_factory=Counter)


class Runner:
    """Runs `acrst run` in this process, quietly, timing its epochs."""

    def __init__(self, cli, simloop, workload: Workload) -> None:
        self.cli = cli
        self.simloop = simloop
        self.workload = workload
        self.out_dir = WORK_DIR / workload.name / "out"

    def run(self, seed: int, tracer: tracing.Tracer | None = None) -> RunResult:
        result = RunResult(seed)
        config_path, config = self.workload.prepare(seed)
        for name in ("report.json", "epochs.csv"):
            (self.out_dir / name).unlink(missing_ok=True)
        argv = ["run", "--config", str(config_path), "--out", str(self.out_dir)]

        logs = _LogCounter()
        root = logging.getLogger()
        saved_level = root.level
        root.addHandler(logs)  # cli.main's basicConfig then adds no stream handler
        root.setLevel(logging.WARNING)
        marks: list[tuple[float, float]] = []
        stderr = io.StringIO()
        try:
            if tracer is not None:
                tracer.install()
            run_epoch = self.simloop.run_epoch

            def timed_epoch(*args, **kwargs):
                start = time.perf_counter()
                out = run_epoch(*args, **kwargs)
                marks.append((start, time.perf_counter()))
                return out

            self.simloop.run_epoch = timed_epoch
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(stderr):
                    start = time.perf_counter()
                    code = self.cli.main(argv)
                    end = time.perf_counter()
            finally:
                self.simloop.run_epoch = run_epoch
        except Exception as e:  # noqa: BLE001  (a failed run is counted, not fatal)
            result.problems.append(f"raised {e!r}")
            return result
        finally:
            if tracer is not None:
                tracer.uninstall()
            root.removeHandler(logs)
            root.setLevel(saved_level)
        result.log_counts = logs.counts
        if code != 0:
            detail = stderr.getvalue().strip() or "; ".join(logs.errors)
            result.problems.append(f"exit code {code}: {detail}")
            return result

        report_bytes = (self.out_dir / "report.json").read_bytes()
        csv_text = (self.out_dir / "epochs.csv").read_text(encoding="utf-8")
        expected = config["epochs"] - config["pretrain_epochs"]
        result.problems += check_outputs(report_bytes.decode("utf-8"), csv_text, expected)
        if result.problems:
            return result
        report = json.loads(report_bytes)
        echo = report["config"]
        n_unlabeled = report["summary"]["n_unlabeled_images"]
        per_epoch = echo["batches_per_epoch"] * min(echo["unlabeled_batch"], n_unlabeled)
        result.eval_images = len(marks) * n_unlabeled
        result.images = len(marks) * per_epoch + result.eval_images
        result.sha256 = hashlib.sha256(report_bytes).hexdigest()
        result.run_s = end - start
        result.setup_s = marks[0][0] - start if marks else math.nan
        result.epoch_s = [e - s for s, e in marks]
        return result


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _timed_loop(seconds: float, step) -> None:
    """Call ``step(index)`` until ``seconds`` have passed and it returns True."""
    start = time.perf_counter()
    index = 0
    while True:
        enough = step(index)
        index += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and enough) or elapsed >= MAX_LOOP_SECONDS:
            return


def machine_probe() -> float:
    """Seconds taken by a fixed mix of Python object work and small numpy calls.

    The mix resembles the program's: tuples, dicts and lists built, sorted and
    read, float arithmetic, and numpy calls on short arrays. It keeps under a
    megabyte alive at a time.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    total = 0.0
    for _ in range(PROBE_ROUNDS):
        rows = [(float(i % 97), {"id": i, "box": [i, i + 1.0, 2.0, 3.0]}) for i in range(2000)]
        rows.sort(key=lambda row: (-row[0], row[1]["id"]))
        for score, record in rows:
            box = record["box"]
            total += score * 0.5 + box[2] * box[3]
        total += float(np.maximum.accumulate(np.cumsum(rng.random(256)))[-1])
    if not math.isfinite(total):
        raise RuntimeError("machine probe produced a non-finite sum")
    return time.perf_counter() - start


class SpeedScale:
    """Scales each run's times to the reference machine speed.

    Other load on the machine slows this process down by up to 1.8x for tens
    of seconds at a time, which no statistic over one run's samples removes.
    A probe runs before the first run and after each run; a run's scale is
    the reference probe time over the mean of the probes on either side of it.
    """

    def __init__(self) -> None:
        self.last = machine_probe()
        self.probes = [self.last]

    def stamp(self, result: RunResult) -> RunResult:
        now = machine_probe()
        self.probes.append(now)
        result.scale = PROBE_REFERENCE_S / ((self.last + now) / 2.0)
        self.last = now
        return result


def end_to_end_metrics(results: list[RunResult]) -> dict[str, float]:
    """End-to-end metrics of the timed runs, each run's times scaled by its probe."""
    ok = [r for r in results if not r.problems]
    epochs = [e * r.scale for r in ok for e in r.epoch_s]
    return {
        "run_s": _median(r.run_s * r.scale for r in ok),
        "setup_s": _median(r.setup_s * r.scale for r in ok),
        "epoch_s": _median(epochs),
        "images_per_s": sum(r.images for r in ok) / sum(epochs) if epochs else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(
    counts: dict[str, int],
    totals: list[dict[str, tuple[float, float]]],
    traced: list[RunResult],
    plain: list[RunResult],
) -> dict[str, float]:
    """Per-layer metrics: ``counts`` from the first traced run, times as
    medians over the traced runs of each run's scaled span ``totals``."""
    per_run = [
        {name: (own * r.scale, total * r.scale) for name, (own, total) in run.items()}
        for run, r in zip(totals, traced)
    ]

    def self_s(*names: str) -> float:
        return _median(sum(run.get(n, (0.0, 0.0))[0] for n in names) for run in per_run)

    def total_s(name: str) -> float:
        return _median(run.get(name, (0.0, 0.0))[1] for run in per_run)

    def module_self_s(module: str) -> float:
        return _median(
            sum(own for name, (own, _) in run.items() if name.startswith(module + "."))
            for run in per_run
        )

    def ratio(numerator: int, denominator: int) -> float:
        return numerator / denominator if denominator else 0.0

    filters = ("filtering.two_stage_filter", "filtering.two_stage_mining")
    out = {
        "metrics.match_greedy.calls": counts["metrics.match_greedy.calls"],
        "metrics.match_greedy.self_s": self_s("metrics.match_greedy"),
        "metrics.match_greedy.pairs_tested": counts["metrics.match_greedy.pairs_tested"],
        "metrics.match_greedy.calls_per_eval_image": ratio(
            counts["metrics.match_greedy.calls"], traced[0].eval_images),
        "metrics.average_precision.calls": counts["metrics.average_precision.calls"],
        "metrics.average_precision.self_s": self_s("metrics.average_precision"),
        "metrics.ap_50_95.s": total_s("metrics.ap_50_95"),
        "model.loss_breakdown.calls": counts["model.loss_breakdown.calls"],
        "model.loss_breakdown.self_s": self_s("model.loss_breakdown"),
        "model.loss_breakdown.targets": counts["model.loss_breakdown.targets"],
        "model.loss_breakdown.bg_share": ratio(
            counts["model.loss_breakdown.bg_targets"], counts["model.loss_breakdown.targets"]),
        "model.synth_detect.calls": counts["model.synth_detect.calls"],
        "model.synth_detect.self_s": self_s("model.synth_detect"),
        "model.synth_detect.preds": counts["model.synth_detect.preds"],
        "model.student_update.self_s": self_s("model.student_update"),
        "model.ema_update.self_s": self_s("model.ema_update"),
        "simloop.run_epoch.self_s": self_s("simloop.run_epoch"),
        "simloop.pretrain.s": total_s("simloop.pretrain"),
        "simloop.RunReport.to_json.s": total_s("simloop.RunReport.to_json"),
        "filtering.oracle_image_labels.calls": counts["filtering.oracle_image_labels.calls"],
        "filtering.oracle_image_labels.self_s": self_s("filtering.oracle_image_labels"),
        "filtering.filter.self_s": self_s(*filters),
        "filtering.kept_ratio": ratio(
            sum(counts[f"{f}.kept"] for f in filters),
            sum(counts[f"{f}.preds_in"] for f in filters)),
        "cropbank.sample_crops.calls": counts["cropbank.sample_crops.calls"],
        "cropbank.sample_crops.self_s": self_s("cropbank.sample_crops"),
        "cropbank.sample_crops.entries_scanned": counts["cropbank.sample_crops.entries_scanned"],
        "cropbank.sample_crops.useful_ratio": ratio(
            counts["cropbank.sample_crops.returned"],
            counts["cropbank.sample_crops.entries_scanned"]),
        "cropbank.refresh_pseudo_bank.self_s": self_s("cropbank.refresh_pseudo_bank"),
        "cropbank.pseudo_bank_size": ratio(
            counts["cropbank.refresh_pseudo_bank.pseudo_entries"],
            counts["cropbank.refresh_pseudo_bank.calls"]),
        "cropbank.build_labeled_bank.s": total_s("cropbank.build_labeled_bank"),
        "rebalance.fbr_mix.calls": counts["rebalance.fbr_mix.calls"],
        "rebalance.fbr_mix.self_s": self_s("rebalance.fbr_mix"),
        "rebalance.fbr_mix.fit_ratio": ratio(
            counts["rebalance.fbr_mix.placed"], counts["rebalance.fbr_mix.offered"]),
        "config.config_from_dict.s": total_s("config.config_from_dict"),
        "synthdata.synthetic_dataset.s": total_s("synthdata.synthetic_dataset"),
        "dataset.parse_coco_annotations.s": total_s("dataset.parse_coco_annotations"),
        "dataset.split_standard.s": total_s("dataset.split_standard"),
        "trace.overhead_s": _median(r.run_s * r.scale for r in traced)
        - _median(r.run_s * r.scale for r in plain),
    }
    for module in LOOP_MODULES:
        out[f"{module}.self_s"] = module_self_s(module)
    return out


def self_time_shares(totals: list[dict[str, tuple[float, float]]]) -> dict[str, float]:
    """Share of all traced self time per module, pooled over the traced runs."""
    by_module: Counter = Counter()
    for run in totals:
        for name, (own, _) in run.items():
            by_module[name.split(".")[0]] += own
    total = sum(by_module.values())
    return {module: own / total for module, own in by_module.most_common()}


def bench_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    cli, simloop = import_acrst()
    workload = WORKLOADS[name]
    shutil.rmtree(WORK_DIR / name, ignore_errors=True)
    runner = Runner(cli, simloop, workload)
    first_sha: dict[int, str] = {}

    def checked_run(input_seed: int, tracer: tracing.Tracer | None = None) -> RunResult:
        result = runner.run(input_seed, tracer)
        if not result.problems:
            expected = first_sha.setdefault(input_seed, result.sha256)
            if result.sha256 != expected:
                result.problems.append(
                    ("traced " if tracer else "") + "report.json differs from an earlier "
                    "run of the same seed")
        return result

    warm = checked_run(experiment_seed(seed, 0))
    speed = SpeedScale()
    plain: list[RunResult] = []
    traced: list[RunResult] = []
    tracers: list[tracing.Tracer] = []

    def step(index: int) -> bool:
        input_seed = experiment_seed(seed, index)
        plain.append(speed.stamp(checked_run(input_seed)))
        if trace:
            tracers.append(tracing.Tracer(run_id=index))
            traced.append(speed.stamp(checked_run(input_seed, tracers[-1])))
            return True
        ok = [r for r in plain if not r.problems]
        return len(ok) < len(plain) or sum(len(r.epoch_s) for r in ok) >= MIN_EPOCH_SAMPLES

    _timed_loop(seconds, step)

    runs = [warm, *plain, *traced]
    failed = [r for r in runs if r.problems]
    correct = not failed
    print(f"workload {name}, seed {seed}: {len(plain)} timed runs"
          + (f" and {len(traced)} traced runs" if trace else "")
          + f" after 1 warm-up run; experiment seeds {warm.seed}..{plain[-1].seed}")
    for r in failed:
        print(f"  FAILED run (experiment seed {r.seed}): {'; '.join(r.problems)}")
    print(f"  fail_ratio: {len(failed)}/{len(runs)} = {len(failed) / len(runs):.4f}")
    if not warm.problems:
        print(f"  report sha256 (experiment seed {warm.seed}): {warm.sha256}")
    log_counts = sum((r.log_counts for r in runs), Counter())
    for message, n in sorted(log_counts.items()):
        print(f"  log records, {n}x: {message}")

    if trace:
        good = [(t, p, tr) for t, p, tr in zip(traced, plain, tracers)
                if not t.problems and not p.problems]
        totals = [tracing.aggregate(tr.spans) for _, _, tr in good]
        metrics = layer_metrics(good[0][2].counts, totals, [g[0] for g in good],
                                [g[1] for g in good]) if good else {}
        units = PER_LAYER
        tracing.write_spans(tracers, WORK_DIR / name / "spans.csv")
        shares = self_time_shares(totals)
        print("  self-time share by module: "
              + ", ".join(f"{m} {share:.1%}" for m, share in shares.items()))
        print(f"  spans written to {WORK_DIR / name / 'spans.csv'}")
    else:
        metrics = end_to_end_metrics(plain)
        units = END_TO_END
        ok = [r for r in plain if not r.problems]
        epochs = sorted(e * r.scale for r in ok for e in r.epoch_s)
        print(f"  samples: {len(ok)} runs, {len(epochs)} epochs; "
              f"median run_s as measured: {_median(r.run_s for r in ok):.6f} s; "
              f"machine probe: median {_median(speed.probes):.6f} s, "
              f"range {min(speed.probes):.6f}..{max(speed.probes):.6f} s")
        if len(epochs) >= 2:
            p90 = _p90(epochs)
            beyond = sum(1 for e in epochs if e > p90)
            if beyond >= 10:
                print(f"  epoch_s p90: {p90:.6f} s ({beyond} samples beyond it)")

    values = {key: metrics.get(key, math.nan) for key in units}
    for key, unit in units.items():
        print(f"  {key:<44} {values[key]:>14.6f} {unit}")
    if any(not math.isfinite(v) for v in values.values()):
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {
            key: {"value": values[key] if math.isfinite(values[key]) else None, "unit": unit}
            for key, unit in units.items()
        },
    }))
    return 0


def bench_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        rows[name] = json.loads(lines[-1])
        if not rows[name]["correct"]:
            status = 1
    units = PER_LAYER if trace else END_TO_END
    names = list(rows)

    def cell(value) -> str:
        return f"{value:>14.6f}" if value is not None else f"{'-':>14}"

    print(f"{'metric':<44} {'unit':<6} " + " ".join(f"{n:>14}" for n in names))
    for key, unit in units.items():
        cells = " ".join(cell(rows[n]["metrics"][key]["value"]) for n in names)
        print(f"{key:<44} {unit:<6} {cells}")
    print(f"{'fail_ratio':<44} {'1':<6} " + " ".join(
        f"{rows[n]['failed'] / rows[n]['attempted']:>14.6f}" for n in names))
    print(f"{'correct':<44} {'':<6} " + " ".join(f"{str(rows[n]['correct']):>14}" for n in names))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # Paths in configs, and so in the report's config echo, are relative to
    # the checkout root.
    os.chdir(ROOT)
    if args.workload == "all":
        return bench_all(args.seed, args.seconds, bool(args.trace))
    return bench_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
