"""The benchmark's tracer (perfbench/tracing.py) patches library functions
through ``owner.__dict__[name]``. These tests keep every hooked name bound in
its module and called through that name, so the per-layer counts stay true."""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from awwsvm import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _span_counts(tracing, argv) -> Counter:
    tracer = tracing.Tracer()
    with tracer.patched():
        assert cli.main(argv) == 0
    return Counter(sp.name for sp in tracer.spans)


@pytest.fixture()
def two_files(tmp_path):
    paths = []
    for i in range(2):
        path = tmp_path / f"ds{i}.libsvm"
        assert cli.main(["synth", "--n-pos", "20", "--n-neg", "20", "--seed", str(i),
                         "--out", str(path)]) == 0
        paths.append(path)
    return paths


def test_every_patch_target_is_bound_in_its_owner(tracing):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.PATCHES
               if attr not in owner.__dict__]
    assert missing == []


def test_train_spans(tracing, two_files, tmp_path):
    counts = _span_counts(tracing, [
        "train", "--data", str(two_files[0]), "--optimizer", "obfgs", "--adaptive",
        "--outer-iters", "2", "--inner-iters", "3", "--out", str(tmp_path / "run")])
    assert counts["optimizers.step"] == 2 * 3
    assert counts["trainer.train"] == 1
    assert counts["cli"] == 1


def test_experiment_spans(tracing, two_files, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "datasets": [{"path": str(p)} for p in two_files],
        "methods": [{"optimizer": "onaq", "adaptive": True}],
        "seeds": [0, 1],
        "train": {"outer_iters": 2, "inner_iters": 3, "batch_size": 8},
    }))
    counts = _span_counts(tracing, ["experiment", "--manifest", str(manifest), "--jobs", "2",
                                    "--out", str(tmp_path / "exp")])
    cells = 2 * 2
    assert counts["trainer.run_experiment"] == 1
    assert counts["trainer.run_cell"] == cells
    assert counts["optimizers.step"] == cells * 2 * 3
    assert counts["data.load_libsvm"] == len(two_files)
