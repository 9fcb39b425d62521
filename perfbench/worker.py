"""Runs one workload's closed loop in a fresh process and writes its
measurements as JSON.

run.py starts this file once per benchmark run, so ``ru_maxrss`` is the peak
of the workload alone and not of input generation. Each loop makes the
workload's CLI calls in order; its wall time is one ``run_s`` sample and its
process CPU time (all threads, BLAS included) one ``cpu_s`` sample. With
tracing on, untraced and traced loops alternate so the overhead is measured
under the same conditions.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

from awwsvm import (cli, confusion_from_predictions, load_libsvm, load_model, predict, report,
                    split)
from tracing import Tracer, per_layer_metrics, write_spans
from workloads import GAUSS_METHODS, GAUSS_SEEDS, GAUSS_SETS, WORKLOADS, Call

# the output check compares digests across loops; with tracing on, loops
# alternate untraced/traced, so two loops give one of each
MIN_LOOPS = 2
SETUP_SLOT_S = 0.25


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def time_setup(workload, inputs: Path) -> list[float]:
    """Wall times of load_libsvm + split over the workload's inputs, repeated
    for at least SETUP_SLOT_S. One slot runs before every loop, so set-up is
    sampled across the whole run as the loops are."""
    samples: list[float] = []
    while sum(samples) < SETUP_SLOT_S:
        t0 = time.perf_counter()
        for name, frac in workload.setup:
            split(load_libsvm(str(inputs / name)), frac, 0)
        samples.append(time.perf_counter() - t0)
    return samples


def run_call(call: Call) -> tuple[int, str]:
    """Exit code of one CLI call, and its captured output."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = cli.main(call.argv)
        except SystemExit as exc:  # argparse rejects an argument
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed call, not a failed run
            traceback.print_exc()
            rc = 1
    return rc, sink.getvalue()


def digests(call: Call) -> dict[str, str | None]:
    out = {}
    for name in call.digests:
        path = call.out / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return out


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class OutputCheck:
    """Verifies each call's outputs; collects the rows behind final_*."""

    def __init__(self) -> None:
        self.reference: dict[str, dict] = {}
        self.final_rows: list[dict] = []
        self.problems: list[str] = []
        self._eval_sets: dict[str, tuple] = {}  # data path -> (X, y) of its test split

    def check(self, call: Call, rc: int, output: str) -> bool:
        """True when the call succeeded and its outputs are consistent."""
        if rc != 0:
            tail = " | ".join(output.strip().splitlines()[-5:])
            return self._fail(f"{call.name}: exit code {rc}: {tail}")
        if (call.out / "failures.txt").exists():
            return self._fail(f"{call.name}: failures.txt written")
        got = digests(call)
        if None in got.values():
            return self._fail(f"{call.name}: missing output among {sorted(got)}")
        if call.name not in self.reference:
            self.reference[call.name] = got
            try:
                return self._first_outputs(call)
            except (OSError, ValueError, KeyError) as exc:
                return self._fail(f"{call.name}: unreadable output: {exc!r}")
        if got != self.reference[call.name]:
            return self._fail(f"{call.name}: output digest differs from the first loop")
        return True

    def _fail(self, msg: str) -> bool:
        self.problems.append(msg)
        return False

    def _first_outputs(self, call: Call) -> bool:
        kind = call.argv[0]
        if kind == "train":
            return self._check_train(call)
        if kind == "experiment":
            return self._check_experiment(call)
        text = (call.out / "stats_report.txt").read_text(encoding="utf-8")
        head = f"metric: accuracy\ndatasets: {len(GAUSS_SETS)}  methods: {len(GAUSS_METHODS)}\n"
        if not text.startswith(head):
            return self._fail(f"{call.name}: unexpected stats report header")
        return True

    def _check_train(self, call: Call) -> bool:
        """The saved model must reproduce the last round's reported accuracy
        and G-mean on the same held-out split."""
        rows = _read_rows(call.out / "history.csv")
        argv = call.argv
        outer = int(argv[argv.index("--outer-iters") + 1]) if "--outer-iters" in argv else 10
        if len(rows) != outer:
            return self._fail(f"{call.name}: {len(rows)} history rows, expected {outer}")
        data_path = argv[argv.index("--data") + 1]
        if data_path not in self._eval_sets:
            # keep arrays, not the Dataset: its ~10^5 Python objects would
            # lengthen every later garbage collection and slow later loops
            ev = split(load_libsvm(data_path), 0.2, 0)[1]
            self._eval_sets[data_path] = (ev.to_matrix(), ev.labels())
        X, y = self._eval_sets[data_path]
        model = load_model(str(call.out / "model.txt"))
        rep = report(confusion_from_predictions(y, predict(model, X)))
        last = rows[-1]
        # one sample may flip where w.x and x.w_aug + b round differently at 0
        tol = 1.0 / len(y) + 1e-6
        if abs(rep.accuracy - float(last["accuracy"])) > tol:
            return self._fail(f"{call.name}: model accuracy {rep.accuracy:.6f} != "
                              f"reported {last['accuracy']}")
        if not 0.0 <= float(last["gmean"]) <= 1.0:
            return self._fail(f"{call.name}: G-mean {last['gmean']} outside [0, 1]")
        self.final_rows.append(last)
        return True

    def _check_experiment(self, call: Call) -> bool:
        rows = _read_rows(call.out / "results.csv")
        finals = [r for r in rows if r["outer_iter"] == "final"]
        cells = len(GAUSS_SETS) * len(GAUSS_METHODS) * len(GAUSS_SEEDS)
        if len(finals) != cells or len(rows) != cells * 11:  # 10 rounds + final
            return self._fail(f"{call.name}: {len(finals)} final rows of {len(rows)}, "
                              f"expected {cells} of {cells * 11}")
        if any(not 0.0 <= float(r[m]) <= 1.0 for r in finals for m in ("accuracy", "gmean")):
            return self._fail(f"{call.name}: a metric lies outside [0, 1]")
        self.final_rows.extend(finals)
        return True


def run_loop(calls: list[Call], outputs: Path, check: OutputCheck) -> tuple[float, float, int]:
    """One closed loop; returns (wall s, CPU s, failed calls)."""
    shutil.rmtree(outputs, ignore_errors=True)
    outputs.mkdir(parents=True)
    t0, c0 = time.perf_counter(), _cpu_s()
    results = [run_call(call) for call in calls]
    wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    failed = sum(not check.check(call, rc, out) for call, (rc, out) in zip(calls, results))
    return wall, cpu, failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", required=True, type=Path, help="where a traced run writes its spans")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    inputs, outputs = args.work / "inputs", args.work / "outputs"
    calls = workload.calls(inputs, outputs)
    check = OutputCheck()
    tracer = Tracer()
    setups: list[float] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    failed = attempted = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(walls[True]) < len(walls[False])
        if not args.trace:
            setups += time_setup(workload, inputs)
        with tracer.patched() if traced else contextlib.nullcontext():
            wall, cpu, bad = run_loop(calls, outputs, check)
        walls[traced].append(wall)
        if not traced:
            cpus.append(cpu)
        attempted += len(calls)
        failed += bad
        # start another loop only if it is expected to end by the deadline
        loops = walls[False] + walls[True]
        if len(loops) >= MIN_LOOPS and \
                time.perf_counter() + statistics.median(loops) > deadline:
            break

    finals = check.final_rows
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": check.problems,
        "digests": check.reference,
        "run_s": walls[False],
        "cpu_s": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "final_accuracy": statistics.fmean(float(r["accuracy"]) for r in finals) if finals else None,
        "final_gmean": statistics.fmean(float(r["gmean"]) for r in finals) if finals else None,
    }
    if setups:
        result["setup_s"] = statistics.median(setups)
    if args.trace:
        layers = per_layer_metrics(tracer.spans, len(walls[True]))
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        layers["trace.overhead_frac"] = (overhead, "frac")
        result["per_layer"] = layers
        write_spans(tracer.spans, args.spans)
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
