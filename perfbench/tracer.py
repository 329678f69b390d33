"""In-memory span tracer that wraps acrst's public functions from outside.

Installing a tracer replaces each wrapped function on the module that defines
it and on every acrst module that imported the name, so calls made through any
module's globals (for example ``metrics.average_precision`` calling
``match_greedy``) are seen. Each call records a span (name, start, end, parent
span, run id); selected functions also add exact work counts computed from
their arguments and results. ``uninstall`` puts every patched attribute back
and checks that it did.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

MODULES = (
    "cli", "config", "dataset", "synthdata", "seeding", "model",
    "filtering", "cropbank", "rebalance", "metrics", "simloop",
)

# Helpers called once per box pair, coordinate or paste: a wrapper would cost
# about as much as the call itself, so their time stays in the caller's self
# time. merge_annotations and visible_fraction are paste geometry, called only
# from fbr_mix, so fbr_mix's self time is the whole cost of pasting.
UNWRAPPED = frozenset({
    "metrics.iou",
    "model.smooth_l1",
    "rebalance.visible_fraction",
    "rebalance.merge_annotations",
})

# Methods wrapped besides module-level functions: (module, class, method).
WRAPPED_METHODS = (("simloop", "RunReport", "to_json"),)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root
    run_id: int


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_match(args, kwargs, result):
    preds, gts = _arg(args, kwargs, 0, "preds"), _arg(args, kwargs, 1, "gts")
    return {"pairs_tested": len(preds) * len(gts)}


def _count_loss(args, kwargs, result):
    targets = _arg(args, kwargs, 0, "targets")
    return {
        "targets": len(targets),
        "bg_targets": sum(1 for t in targets if not t.foreground),
    }


def _count_detect(args, kwargs, result):
    return {"preds": len(result)}


def _count_filter(args, kwargs, result):
    return {"preds_in": len(_arg(args, kwargs, 0, "preds")), "kept": len(result)}


def _count_sample(args, kwargs, result):
    bank = _arg(args, kwargs, 0, "bank")
    return {"entries_scanned": bank.n_labeled + bank.n_pseudo, "returned": len(result)}


def _count_refresh(args, kwargs, result):
    return {"pseudo_entries": result.n_pseudo}


def _count_mix(args, kwargs, result):
    return {"offered": len(_arg(args, kwargs, 1, "crops")), "placed": len(result.placements)}


# Work counts taken at the wrapped boundary, after the span has ended.
COUNTERS: dict[str, Callable] = {
    "metrics.match_greedy": _count_match,
    "model.loss_breakdown": _count_loss,
    "model.synth_detect": _count_detect,
    "filtering.two_stage_filter": _count_filter,
    "filtering.two_stage_mining": _count_filter,
    "cropbank.sample_crops": _count_sample,
    "cropbank.refresh_pseudo_bank": _count_refresh,
    "rebalance.fbr_mix": _count_mix,
}


class Tracer:
    """Spans and counts of the calls made while installed, for one run.

    Spans are kept in flat arrays rather than as objects, so that a run with
    a hundred thousand calls does not slow the garbage collector down.
    """

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.counts: dict[str, int] = defaultdict(int)
        self._names: list[str] = []
        self._name_ids = array("l")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[Span]:
        names = self._names
        return [
            Span(names[n], start, end, parent, self.run_id)
            for n, start, end, parent in zip(
                self._name_ids, self._starts, self._ends, self._parents
            )
        ]

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        name_id = len(self._names)
        self._names.append(name)
        name_ids, starts, ends, parents = self._name_ids, self._starts, self._ends, self._parents
        stack, counts = self._stack, self.counts
        clock = time.perf_counter
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            counts[calls_key] += 1
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += amount
            return result

        return traced

    def _patch(self, owner: object, attribute: str, value: object) -> None:
        self._patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module("acrst")
        modules = {name: importlib.import_module(f"acrst.{name}") for name in MODULES}
        holders = [package, *modules.values()]
        for short, module in modules.items():
            for attribute, fn in list(vars(module).items()):
                name = f"{short}.{attribute}"
                if (
                    attribute.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in UNWRAPPED
                ):
                    continue
                traced = self._wrap(name, fn, COUNTERS.get(name))
                for holder in holders:
                    for held_name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, held_name, traced)
        for short, class_name, method in WRAPPED_METHODS:
            cls = getattr(modules[short], class_name)
            name = f"{short}.{class_name}.{method}"
            self._patch(cls, method, self._wrap(name, vars(cls)[method], None))

    def uninstall(self) -> None:
        """Restore every patched attribute; raise if one did not come back."""
        patched, self._patched = self._patched, []
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
        for owner, attribute, original in patched:
            if vars(owner)[attribute] is not original:
                raise RuntimeError(f"{attribute} was not restored on {owner!r}")


def write_spans(tracers: list[Tracer], path: Path) -> None:
    """One CSV row per span; ``parent`` indexes rows of the same run."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "name", "start", "end", "parent", "run_id"])
        for tracer in tracers:
            for index, span in enumerate(tracer.spans):
                writer.writerow([index, *span])


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Child intervals are clipped to the parent and merged, so overlapping or
    nested children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            end = min(end, span.end)
            low = max(start, cursor)
            if end > low:
                covered += end - low
            cursor = max(cursor, end)
        out.append(span.end - span.start - covered)
    return out


def aggregate(spans: list[Span]) -> dict[str, tuple[float, float]]:
    """Per span name: (total self seconds, total inclusive seconds)."""
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.name]
        entry[0] += own
        entry[1] += span.end - span.start
    return {name: (own, total) for name, (own, total) in totals.items()}
