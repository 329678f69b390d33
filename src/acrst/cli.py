"""Command line entry points: run one experiment, sweep several, render reports.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

from .config import SECTIONS, TOGGLES, ConfigError, ExperimentConfig, config_from_dict
from .dataset import Dataset, ParseError, ValidationError, parse_coco_annotations
from .seeding import derive_seed
from .simloop import EPOCH_CSV_COLUMNS, RunReport, run_experiment
from .synthdata import synthetic_dataset

log = logging.getLogger(__name__)

_SUMMARY_METRICS = [c for c in EPOCH_CSV_COLUMNS if c != "epoch"]


class _UsageError(Exception):
    """Raised for problems that map to exit code 2."""


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise _UsageError(f"{what} {path} is not UTF-8 text: {e.reason} at byte {e.start}") from e


def _read_json(path: Path, what: str, invalid: str):
    """The JSON document at ``path``; malformed JSON is a usage error whose
    message starts with ``invalid`` and gives the line and column."""
    try:
        return json.loads(_read_text(path, what))
    except json.JSONDecodeError as e:
        raise _UsageError(f"{invalid}: {e.msg} (line {e.lineno} column {e.colno})") from e


def _load_config(path_text: str) -> dict:
    path = Path(path_text)
    if not path.is_file():
        raise _UsageError(f"config file not found: {path}")
    doc = _read_json(path, "config", f"config {path} is not valid JSON")
    if not isinstance(doc, dict):
        raise _UsageError(f"config {path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _build_dataset(config: ExperimentConfig) -> Dataset:
    dc = config.dataset
    if dc.type == "coco_json":
        path = Path(dc.path)
        if not path.is_file():
            raise _UsageError(f"annotation file not found: {path}")
        return parse_coco_annotations(_read_text(path, "annotation file"))
    seed = dc.seed if dc.seed is not None else derive_seed(config.seed, "dataset")
    return synthetic_dataset(
        dc.images,
        dc.classes,
        seed,
        width=dc.width,
        height=dc.height,
        mean_extra_instances=dc.mean_extra_instances,
        skew=dc.skew,
        min_box=dc.min_box,
        max_box=dc.max_box,
    )


def _cli_document(args) -> dict:
    """``--seed``, ``--enable`` and ``--disable`` as a partial config document."""
    toggles = {**dict.fromkeys(args.enable or [], True), **dict.fromkeys(args.disable or [], False)}
    return {"toggles": toggles} if args.seed is None else {"toggles": toggles, "seed": args.seed}


def _make_out_dir(path_text: str) -> Path:
    """The ``--out`` directory, made before any run so that a bad path exits 2 at once."""
    out_dir = Path(path_text)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise _UsageError(f"cannot make output directory {out_dir}: {e.strerror}") from e
    return out_dir


def _write_run_artifacts(report: RunReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out_dir / "epochs.csv").write_text(report.epochs_csv(), encoding="utf-8")


def cmd_run(args) -> int:
    config = config_from_dict(_load_config(args.config), _cli_document(args))
    dataset = _build_dataset(config)
    out_dir = _make_out_dir(args.out)
    report = run_experiment(config, dataset)
    _write_run_artifacts(report, out_dir)
    final = report.summary.get("final", {})
    print(f"run complete: {report.summary['epochs_run']} mutual epochs -> {args.out}")
    for metric in _SUMMARY_METRICS:
        if metric in final:
            value = final[metric]
            print(f"  {metric}: {value:.6f}" if isinstance(value, float) else f"  {metric}: {value}")
    return 0


def _sweep_plan(raw_config: dict) -> tuple[list[dict], list[int] | None]:
    sweep = raw_config.get("sweep")
    if not isinstance(sweep, dict):
        raise _UsageError("sweep command needs a 'sweep' section in the config")
    unknown = set(sweep) - {"runs", "seeds"}
    if unknown:
        raise _UsageError(f"unknown sweep key '{sorted(unknown)[0]}'")
    runs = sweep.get("runs")
    if not isinstance(runs, list) or not runs:
        raise _UsageError("sweep.runs must be a non-empty list")
    names = set()
    for i, spec in enumerate(runs):
        if not isinstance(spec, dict) or "name" not in spec:
            raise _UsageError(f"sweep.runs[{i}] needs a 'name'")
        name = spec["name"]  # names a directory: one path component, unique in the plan
        if not isinstance(name, str) or name in names | {"", ".", ".."} or {"/", "\\"} & set(name):
            raise _UsageError(f"sweep.runs[{i}].name must be a unique directory name, got {name!r}")
        names.add(name)
        # Other keys and values are checked per run by config_from_dict, as failed rows.
        for section in SECTIONS:
            if not isinstance(spec.get(section), (dict, type(None))):
                raise _UsageError(f"sweep.runs[{i}].{section} must be a JSON object or null")
    seeds = sweep.get("seeds")
    if seeds is not None and (
        not isinstance(seeds, list)
        or not seeds
        or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)
        or len(set(seeds)) != len(seeds)  # a seed names a directory, as a run's name does
    ):
        raise _UsageError("sweep.seeds must be a non-empty list of distinct integers")
    return runs, seeds


def cmd_sweep(args) -> int:
    raw = _load_config(args.config)
    runs, seeds = _sweep_plan(raw)
    cli_doc = _cli_document(args)
    base = config_from_dict(raw, cli_doc)
    if seeds is None:
        seeds = [base.seed]

    out_dir = _make_out_dir(args.out)
    rows = []
    for spec in runs:
        name = spec["name"]
        run_doc = {key: value for key, value in spec.items() if key != "name"}
        for seed in seeds:
            row = {"run": name, "seed": seed}
            try:
                config = config_from_dict(raw, cli_doc, run_doc, {"seed": seed})
                for toggle in TOGGLES:
                    row[toggle] = getattr(config, toggle)
                dataset = _build_dataset(config)
                report = run_experiment(config, dataset)
                _write_run_artifacts(report, out_dir / f"{name}__seed{seed}")
                row["status"] = "ok"
                for metric in _SUMMARY_METRICS:
                    row[metric] = report.summary.get("final", {}).get(metric, "")
            except Exception as e:  # noqa: BLE001  (a failed run must not kill the sweep)
                log.warning("sweep run %s seed %s failed: %s", name, seed, e)
                row["status"] = "failed"
                row["error"] = str(e)
            rows.append(row)

    columns = ["run", "seed", *TOGGLES, "status", *_SUMMARY_METRICS, "error"]
    with (out_dir / "summary.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"sweep complete: {n_ok}/{len(rows)} runs succeeded -> {out_dir}")
    return 0


def _load_report(path: Path) -> dict:
    """The report at ``path``, checked to have the shape ``report`` reads: an
    object whose ``epochs`` is a list of objects holding every epoch column
    and whose ``summary`` is an object."""
    report = _read_json(path, "report", f"corrupt report {path}")
    if not isinstance(report, dict) or not isinstance(report.get("epochs"), list):
        raise _UsageError(f"report {path} must be a JSON object whose 'epochs' is a list")
    for i, row in enumerate(report["epochs"]):
        missing = [c for c in EPOCH_CSV_COLUMNS if not isinstance(row, dict) or c not in row]
        if missing:
            raise _UsageError(f"report {path}: epochs[{i}] has no '{missing[0]}'")
    summary = report.get("summary")
    if not isinstance(summary, dict) or not isinstance(summary.get("final", {}), dict):
        raise _UsageError(f"report {path}: 'summary' and its 'final' must be objects")
    return report


def _write_slices(report: dict, slice_dir: Path, prefix: str) -> None:
    slice_dir.mkdir(parents=True, exist_ok=True)
    for metric in _SUMMARY_METRICS:
        rows = [(row["epoch"], row[metric]) for row in report["epochs"]]
        name = f"{prefix}{metric}_vs_epoch.csv"
        with (slice_dir / name).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["epoch", metric])
            writer.writerows(rows)


def _print_report_summary(label: str, report: dict) -> None:
    summary = report["summary"]
    final = summary.get("final", {})
    parts = [f"epochs={summary.get('epochs_run', '?')}"]
    parts += [
        f"{metric}={final[metric]:.4f}" if isinstance(final.get(metric), float) else f"{metric}={final.get(metric, '')}"
        for metric in _SUMMARY_METRICS
        if metric in final
    ]
    print(f"{label}: " + " ".join(parts))


def cmd_report(args) -> int:
    in_dir = Path(getattr(args, "in"))
    if not in_dir.is_dir():
        raise _UsageError(f"input directory not found: {in_dir}")
    # (label, run directory, slice prefix) for each report to render.
    if (in_dir / "report.json").is_file():
        runs, lead = [(in_dir.name, in_dir, "")], ""
    elif (in_dir / "summary.csv").is_file():
        subs = sorted(p for p in in_dir.iterdir() if (p / "report.json").is_file())
        runs = [(sub.name, sub, f"{sub.name}__") for sub in subs]
        lead = f"aggregated {len(runs)} runs; "
    else:
        raise _UsageError(f"{in_dir} holds neither report.json nor summary.csv")
    for label, run_dir, prefix in runs:
        report = _load_report(run_dir / "report.json")
        _print_report_summary(label, report)
        _write_slices(report, in_dir / "slices", prefix)
    print(f"{lead}slices written to {in_dir / 'slices'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acrst",
        description="Class-rebalancing self-training simulator for detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text, config_help in (
        ("run", cmd_run, "run one experiment", "path to a JSON config"),
        ("sweep", cmd_sweep, "run a config's sweep plan",
         "path to a JSON config with a sweep section"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help=config_help)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--enable", action="append", choices=TOGGLES, metavar="TOGGLE",
            help=f"turn a toggle on ({', '.join(TOGGLES)})",
        )
        p.add_argument(
            "--disable", action="append", choices=TOGGLES, metavar="TOGGLE",
            help="turn a toggle off",
        )
        p.set_defaults(func=func)

    report = sub.add_parser("report", help="summarize a run or sweep directory")
    report.add_argument("--in", required=True, help="directory written by run or sweep")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (_UsageError, ConfigError, ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001  (contract: runtime failures exit 1)
        log.error("run failed: %s", e)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
