"""In-memory spans around the library's public functions, and the per-layer
metrics derived from them.

Modules use from-imports, so each function is patched where its caller looks
it up (``awwsvm.trainer.detect_noise``, not ``awwsvm.weighting.detect_noise``).
A span records name, start, end, parent span and thread; each thread keeps its
own stack, so a span's children always ran on its thread and its self time is
its duration minus theirs.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from awwsvm import cli, data, optimizers, trainer


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    value: int  # a count taken from the call's result (rows, flagged indices, QN steps)


def _one(result) -> int:
    return 1


def _size(result) -> int:
    return len(result)


# (owner, attribute, span name, value taken from the result)
PATCHES = [
    (cli, "load_libsvm", "data.load_libsvm", _size),
    (cli, "split", "data.split", None),
    (data.Dataset, "to_matrix", "data.to_matrix", None),
    (data.MinibatchSampler, "next_batch", "data.next_batch", None),
    (optimizers, "subgradient", "objective.subgradient", None),
    (trainer, "loss", "objective.loss", None),
    (cli, "train", "trainer.train", None),
    (trainer, "train", "trainer.train", None),
    (trainer, "sgd_step", "optimizers.step", None),
    (trainer, "obfgs_step", "optimizers.step", _one),
    (trainer, "onaq_step", "optimizers.step", _one),
    (optimizers, "bfgs_inverse_update", "optimizers.bfgs_inverse_update", None),
    (trainer, "detect_noise", "weighting.detect_noise", _size),
    (trainer, "update_weights", "weighting.update_weights", None),
    # evaluation: the confusion counts and the report built from them
    (trainer, "confusion_from_predictions", "metrics.report", None),
    (trainer, "report", "metrics.report", None),
    (cli, "confusion", "metrics.report", None),
    (cli, "report", "metrics.report", None),
    (cli, "run_experiment", "trainer.run_experiment", None),
    (trainer, "run_cell", "trainer.run_cell", None),
    (cli, "rank_rows", "stats", None),
    (cli, "friedman", "stats", None),
    (cli, "nemenyi_q", "stats", None),
    (cli, "nemenyi_cd", "stats", None),
    (cli, "pairwise_significance", "stats", None),
    (cli, "main", "cli", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, value=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            # list.append is atomic under the interpreter lock
            self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(),
                                   value(result) if value else 0))
            return result
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route every function in PATCHES through a span while inside."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in PATCHES]
        try:
            for owner, attr, name, value in PATCHES:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), value))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON object per span, gzip-compressed; times in seconds from the
    first span's start."""
    t0 = min((sp.start for sp in spans), default=0.0)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for sp in spans:
            fh.write(json.dumps({"id": sp.id, "name": sp.name, "start": sp.start - t0,
                                 "end": sp.end - t0, "parent": sp.parent, "thread": sp.thread,
                                 "value": sp.value}) + "\n")


@dataclass
class _Layer:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    value: int = 0


def layer_totals(spans: list[Span]) -> defaultdict[str, _Layer]:
    child_s: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child_s[sp.parent] += sp.end - sp.start
    layers: defaultdict[str, _Layer] = defaultdict(_Layer)
    for sp in spans:
        layer = layers[sp.name]
        layer.calls += 1
        layer.s += sp.end - sp.start
        layer.self_s += sp.end - sp.start - child_s[sp.id]
        layer.value += sp.value
    return layers


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[Span], loops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced loop: name -> (value, unit). A layer that
    no call reached reads 0. Seconds are summed over threads, so a layer run
    by two sweep workers can exceed wall time."""
    L = layer_totals(spans)
    load, batch, sub = L["data.load_libsvm"], L["data.next_batch"], L["objective.subgradient"]
    step, bfgs, noise = L["optimizers.step"], L["optimizers.bfgs_inverse_update"], L["weighting.detect_noise"]
    return {
        "data.load_libsvm.s": (load.s / loops, "s"),
        "data.load_libsvm.rows_per_s": (_ratio(load.value, load.s), "1/s"),
        "data.split.s": (L["data.split"].s / loops, "s"),
        "data.to_matrix.calls": (L["data.to_matrix"].calls / loops, "count"),
        "data.to_matrix.s": (L["data.to_matrix"].s / loops, "s"),
        "data.next_batch.calls": (batch.calls / loops, "count"),
        "data.next_batch.s": (batch.s / loops, "s"),
        "data.next_batch.us_per_call": (1e6 * _ratio(batch.s, batch.calls), "us"),
        "objective.subgradient.calls": (sub.calls / loops, "count"),
        "objective.subgradient.s": (sub.s / loops, "s"),
        "objective.subgradient.us_per_call": (1e6 * _ratio(sub.s, sub.calls), "us"),
        "objective.loss.s": (L["objective.loss"].s / loops, "s"),
        "trainer.train.self_s": (L["trainer.train"].self_s / loops, "s"),
        "optimizers.step.calls": (step.calls / loops, "count"),
        "optimizers.step.s": (step.s / loops, "s"),
        "optimizers.bfgs_inverse_update.calls": (bfgs.calls / loops, "count"),
        "optimizers.bfgs_inverse_update.s": (bfgs.s / loops, "s"),
        # H updates over quasi-Newton steps; step.value counts the QN steps
        "optimizers.h_update_ratio": (_ratio(bfgs.calls, step.value), "frac"),
        "weighting.detect_noise.s": (noise.s / loops, "s"),
        "weighting.flagged": (noise.value / loops, "count"),
        "weighting.update_weights.s": (L["weighting.update_weights"].s / loops, "s"),
        "metrics.report.s": (L["metrics.report"].s / loops, "s"),
        "trainer.run_experiment.s": (L["trainer.run_experiment"].s / loops, "s"),
        "trainer.run_experiment.cells": (L["trainer.run_cell"].calls / loops, "count"),
        "stats.s": (L["stats"].s / loops, "s"),
        "cli.self_s": (L["cli"].self_s / loops, "s"),
    }
