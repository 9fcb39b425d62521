"""The command line's input contract, as a property: a small valid manifest or
``--config`` file with one key set to a value from a fixed pool of JSON values
either runs (exit 0), or exits 2 with one ``error:`` line naming the entry and
writes nothing, or stops on a run that diverged: ``experiment`` exits 1 with
``failures.txt``, ``train`` exits 2 naming the round. It never raises.

The pool holds no large count, so no example asks for a long run."""

import contextlib
import io
import json
import os
from pathlib import Path

from hypothesis import given, settings, strategies as st
import pytest

from awwsvm.cli import CONFIG_SCHEMA, DATASET_SCHEMA, MANIFEST_SCHEMA, METHOD_SCHEMA, main

POOL = ["", None, True, False, 0, -1, 1.5, "x", [], {}, [1], "1e400", 1e300]

# (section, key): the section's first entry, or the top level for section None
ENTRY_KEYS = ([("datasets", key) for key in DATASET_SCHEMA]
              + [(section, key) for section in ("methods", "train") for key in METHOD_SCHEMA]
              + [(None, key) for key in MANIFEST_SCHEMA])


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.libsvm"
    assert main(["synth", "--n-pos", "30", "--n-neg", "30", "--seed", "1",
                 "--out", str(path)]) == 0
    return path


def _run(argv: list[str], cwd: Path) -> tuple[int, str]:
    """Exit status and stderr of ``awwsvm argv`` run in ``cwd``."""
    err, here = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return main(argv), err.getvalue()
    finally:
        os.chdir(here)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # as a run from the shell prints them
@settings(max_examples=len(ENTRY_KEYS) * len(POOL), deadline=None, derandomize=True,
          database=None)
@given(st.sampled_from(ENTRY_KEYS), st.sampled_from(POOL))
def test_manifest_key_set_to_any_pool_value(toy, tmp_path_factory, where, value):
    section, key = where
    manifest = {"datasets": [{"name": "toy", "path": str(toy), "split": 0.25}],
                "methods": [{"optimizer": "sgd", "adaptive": True}],
                "seeds": [0],
                "train": {"outer_iters": 1, "inner_iters": 2, "alpha0": 0.1, "batch_size": 8}}
    entry = {None: manifest, "train": manifest["train"]}.get(section) or manifest[section][0]
    entry[key] = value
    cwd = tmp_path_factory.mktemp("run")
    (cwd / "m.json").write_text(json.dumps(manifest))
    rc, err = _run(["experiment", "--manifest", "m.json", "--out", "exp"], cwd)
    # the entry: datasets[0], methods[0], train or the manifest; or a file that is not there
    names = {None: ("m.json ", f"{key}[0] ", f"{key} "), "train": ("train ",)}.get(
        section, (f"{section}[0] ",))
    if key in ("path", "test_path"):
        names += (f"dataset file not found: {value}\n",)
    if rc == 2:
        assert err.count("\n") == 1 and err.startswith(tuple(f"error: {n}" for n in names)), err
        assert not (cwd / "exp").exists()
    else:
        assert rc in (0, 1), rc
        assert (cwd / "exp" / "failures.txt").exists() == (rc == 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=len(CONFIG_SCHEMA) * len(POOL), deadline=None, derandomize=True,
          database=None)
@given(st.sampled_from(sorted(CONFIG_SCHEMA)), st.sampled_from(POOL))
def test_config_key_set_to_any_pool_value(toy, tmp_path_factory, key, value):
    config = {"data": str(toy), "split": "0.25", "optimizer": "sgd", "adaptive": "true",
              "outer_iters": "1", "inner_iters": "2", "alpha0": "0.1", "batch_size": "8",
              "out": "run"}
    config[key] = value if isinstance(value, str) else json.dumps(value)
    cwd = tmp_path_factory.mktemp("run")
    (cwd / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    rc, err = _run(["train", "--config", "run.cfg"], cwd)
    assert rc in (0, 2), rc
    if rc == 2:
        assert err.count("\n") == 1 and err.startswith("error: "), err
        # the entry: the config line, the key (a message may spell "_" as " ") or the file
        line = 1 + list(config).index(key)
        assert err.startswith((f"error: run.cfg:{line}: ", "error: training aborted: ",
                               f"error: dataset file not found: {config[key]}\n")) or (
            key.replace("_", " ") in err.lower().replace("_", " ")), err
        # a run that diverged keeps its resolved.cfg, to replay it, and writes no model
        aborted = err.startswith("error: training aborted: ")
        assert sorted(p.relative_to(cwd).as_posix() for p in cwd.rglob("*")) == (
            ["run", "run.cfg", "run/resolved.cfg"] if aborted else ["run.cfg"])
