"""Each benchmark workload's CLI calls, run once on small inputs through the
benchmark's own loop and output check (perfbench/worker.py). A library change
that breaks a call the benchmark makes fails here, not only in a paired
benchmark run. perfbench/ is imported read-only; its modules are removed
from sys.modules and the path is restored afterwards."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    before, bytecode = set(sys.modules), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        import worker
        import workloads
        yield worker, workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = bytecode
        for name in set(sys.modules) - before:
            if str(PERFBENCH) in str(getattr(sys.modules[name], "__file__", None)):
                del sys.modules[name]


def _small_inputs(workloads, name: str, inputs: Path) -> None:
    """The workload's input files, at a size a unit test can afford."""
    if name == "sparse_a9a":
        workloads.write_a9a_like(inputs / "a9a.libsvm", seed=0, rows=2000)
    elif name == "qn_dense2k":
        workloads.write_sparse_2k(inputs / "dense2k.libsvm", seed=0, rows=400, dim=200)
    else:
        workloads.write_gauss_sets(inputs, seed=0)


@pytest.mark.parametrize("name", ["sparse_a9a", "qn_dense2k", "gauss_sweep"])
def test_workload_calls_succeed(perfbench, tmp_path, name):
    worker, workloads = perfbench
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    _small_inputs(workloads, name, inputs)
    calls = workloads.WORKLOADS[name].calls(inputs, tmp_path / "outputs")
    check = worker.OutputCheck()
    _, _, failed = worker.run_loop(calls, tmp_path / "outputs", check)
    assert (failed, check.problems) == (0, [])
