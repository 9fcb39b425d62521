"""Benchmark for the awwsvm command line and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. The run generates the workload's inputs from ``--seed`` under
``.perfbench-work/``, starts ``worker.py`` in a fresh process to time the
workload's closed loop of CLI calls for ``--seconds`` and check its outputs,
and prints the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a traced run (``--trace 1``). The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The lines before it
give run metadata and each metric by name, with its unit.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TIME_LIMIT_S = 170.0

# name -> unit; BENCHMARK.json lists the same names with their bounds
END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "final_accuracy": "frac", "final_gmean": "frac"}


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import numpy  # noqa: F401 - loads the BLAS library into the process
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "awwsvm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def metadata(workload, seed: int) -> dict:
    import numpy
    import scipy
    from workloads import nproc
    return {
        "workload": workload.name, "seed": seed, "why": workload.why,
        "git_sha": git_sha(), "source_digest": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": nproc(),
        "blas_threads": blas_threads(),
    }


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(samples, n=100)[p - 1]


def summarize(res: dict, trace: bool) -> tuple[dict, list[str]]:
    """The metrics object for the last line, and one line per metric."""
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        values = {"run_s": statistics.median(res["run_s"]),
                  "cpu_s": statistics.median(res["cpu_s"]),
                  "setup_s": res["setup_s"], "peak_rss_mb": res["peak_rss_mb"],
                  "final_accuracy": res["final_accuracy"], "final_gmean": res["final_gmean"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    # final_* are null when no call produced a result row
    lines = [f"{k} {'null' if m['value'] is None else format(m['value'], '.6g')} {m['unit']}"
             for k, m in metrics.items()]
    runs = res["run_s"]
    tail = tail_percentile(runs)
    lines.append(f"run_s samples n={len(runs)} median={statistics.median(runs):.4f} s "
                 + (f"p{tail[0]}={tail[1]:.4f} s" if tail else "(n < 20: no tail percentile)")
                 + " all=" + ",".join(f"{x:.3f}" for x in runs))
    lines.append(f"failed_frac {res['failed'] / res['attempted']:.6g} frac "
                 f"({res['failed']} of {res['attempted']} CLI calls)")
    # identical across runs of one seed while the program's results are unchanged
    lines.extend(f"digest {call}/{name} {sha[:16]}" for call, files in res["digests"].items()
                 for name, sha in files.items())
    lines.extend(f"problem: {p}" for p in res["problems"])
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "awwsvm" / "__init__.py").is_file():
        print(f"error: no awwsvm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        workload.write_inputs(work / "inputs", args.seed)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        spans = WORK / f"spans-{workload.name}-{args.seed}.jsonl.gz"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
               "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans", str(spans)]
        budget = TIME_LIMIT_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"error: worker exceeded {budget:.0f} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: worker exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        res = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, lines = summarize(res, bool(args.trace))
    correct = res["failed"] == 0 and not res["problems"]
    print("meta " + json.dumps(metadata(workload, args.seed), sort_keys=True))
    if args.trace:
        print(f"spans written to {spans.relative_to(ROOT)}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
