import errno
import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import awwsvm
from awwsvm.cli import METHOD_SCHEMA, build_parser, build_train_config, main, resolve_config
from awwsvm.data import load_libsvm
from awwsvm.trainer import TrainConfig

# a bad value of each enum key, and the message it gives from a config file or a manifest
BAD_ENUM_VALUES = [
    ("optimizer", "unknown optimizer 'zz' (choose from ['sgd', 'obfgs', 'onaq'])"),
    ("weight_mode", "unknown weight mode 'zz' (choose from ['regularizer', 'hinge'])"),
    ("noise_mode", "unknown noise mode 'zz' (choose from ['signed', 'rawdot'])"),
]


# what a path the command cannot open as a file, or create as a directory, reports
IS_A_DIRECTORY, FILE_EXISTS = os.strerror(errno.EISDIR), os.strerror(errno.EEXIST)


@pytest.fixture()
def synth_file(tmp_path):
    path = tmp_path / "toy.libsvm"
    rc = main(["synth", "--n-pos", "40", "--n-neg", "40", "--separation", "4.0",
               "--seed", "3", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture()
def flip_file(tmp_path):
    """A flip-noise set on which ``--alpha0 1e300`` or more overflows the distances."""
    path = tmp_path / "flip.libsvm"
    assert main(["synth", "--n-pos", "60", "--n-neg", "140", "--flip", "0.05",
                 "--seed", "3", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def wide_file(tmp_path):
    """Two rows whose largest feature index is 20,000."""
    path = tmp_path / "wide.libsvm"
    path.write_text("+1 1:1.0 20000:0.5\n-1 2:1.0\n")
    return path


class TestSynthCommand:
    def test_writes_requested_sample_count(self, tmp_path):
        out = tmp_path / "s.libsvm"
        rc = main(["synth", "--n-pos", "425", "--n-neg", "75", "--flip", "0.05",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 500

    def test_flip_out_of_range_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--n-pos", "10", "--n-neg", "10", "--flip", "0.6",
                   "--out", str(tmp_path / "x.libsvm")])
        assert rc == 2
        assert "flip" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.libsvm"
        rc = main(["synth", "--n-pos", "10", "--n-neg", "10", "--seed", "-1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_directory_out_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--n-pos", "10", "--n-neg", "10", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: {IS_A_DIRECTORY}\n"

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.libsvm", tmp_path / "b.libsvm"
        for path in (a, b):
            main(["synth", "--n-pos", "20", "--n-neg", "30", "--seed", "9",
                  "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()


# sha256 of (model.txt, history.csv, weights.csv) of an adaptive ``train -v`` run
# on a flip-noise set where one sample is eliminated in round 1, mid-epoch
PINNED_DIGESTS = {
    "sgd": ("d15decae5ee4ef3373ffffe25d84fcb2ee750a0cb4d74f1b34cc7a1804f67462",
            "776be4e514a98697c2d6ac16d9d294ad1418fd14e90f37ef9ff8973c246e7eac",
            "77903d48407c07105e970714aee3d9df4efe6ceef3cb1ee0f885ab5388e1dda4"),
    "obfgs": ("e4e54734ac14d875feef751ca73d26370aa25047da02e99c41b237bbe2b37abf",
              "1a6a5ae46a99c301ed3022bdbac76789089d602ee6047b57b82948f41b37eb98",
              "86d89ef278acdb3df3f25b9be006741394728481c6f707969ee3b78ebbfb8eff"),
    "onaq": ("6d3861738911d2c99e970b46b1c998d2c83788e93e7db981194c1b2844c74447",
             "af1bf7adbbbda387ed3dc304f4921fac240d18de28e93d0b51737969cccf0ee9",
             "09c1e3e1dcc4556c5665e380199289f6e421b06d042e20bb78959fa3c08b741b"),
}


@pytest.mark.parametrize("opt", sorted(PINNED_DIGESTS))
def test_adaptive_run_output_bytes_pinned(tmp_path, opt):
    data = tmp_path / "flip.libsvm"
    assert main(["synth", "--n-pos", "30", "--n-neg", "20", "--separation", "5.0",
                 "--flip", "0.05", "--seed", "4", "--out", str(data)]) == 0
    out = tmp_path / opt
    assert main(["train", "--data", str(data), "--optimizer", opt, "--adaptive",
                 "--alpha0", "0.1", "--outer-iters", "4", "--inner-iters", "4",
                 "--batch-size", "6", "--seed", "2", "-v", "--out", str(out)]) == 0
    assert (out / "weights.csv").read_text().splitlines()[1].endswith(",1")  # one eliminated
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("model.txt", "history.csv", "weights.csv"))
    assert got == PINNED_DIGESTS[opt]


class TestTrainCommand:
    def test_produces_artifacts(self, synth_file, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(synth_file), "--optimizer", "sgd",
                   "--adaptive", "--alpha0", "0.1", "--outer-iters", "3",
                   "--inner-iters", "4", "--seed", "5", "--out", str(out)])
        assert rc == 0
        for name in ("model.txt", "history.csv", "resolved.cfg"):
            assert (out / name).exists()
        header = (out / "history.csv").read_text().splitlines()[0]
        assert header.startswith("dataset,method,seed,outer_iter,accuracy")

    def test_verbose_emits_weight_trace(self, synth_file, tmp_path, capsys):
        out = tmp_path / "vrun"
        rc = main(["train", "--data", str(synth_file), "--adaptive", "-v",
                   "--outer-iters", "2", "--inner-iters", "3", "--alpha0", "0.1",
                   "--out", str(out)])
        assert rc == 0
        trace = (out / "weights.csv").read_text().splitlines()
        assert trace[0] == "outer_iter,alpha_min,alpha_mean,alpha_max,n_noise"
        assert len(trace) == 3
        assert "tp/(tp+fp)" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--data", "--config"])
    def test_directory_input_is_usage_error(self, synth_file, tmp_path, capsys, flag):
        adir = tmp_path / "adir"
        adir.mkdir()
        out = tmp_path / "run"
        rc = main(["train", "--data", str(synth_file), flag, str(adir), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {adir}: {IS_A_DIRECTORY}\n"
        assert not out.exists()

    def test_file_as_out_is_usage_error(self, synth_file, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        rc = main(["train", "--data", str(synth_file), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {out}: {FILE_EXISTS}\n"
        assert out.read_text() == "kept\n"

    def test_missing_file_exit_2_names_path(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "absent.libsvm")])
        assert rc == 2
        assert "absent.libsvm" in capsys.readouterr().err

    def test_non_utf8_file_exit_2_names_line(self, synth_file, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_bytes(synth_file.read_bytes() + b"+1 1:0.5 # \xff\n")
        rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: line 81: byte 0xff is not UTF-8\n"
        assert not (tmp_path / "run").exists()

    # scipy.special costs a process ~5.6 MiB; only the stats command's
    # chi-square tail uses it
    def test_train_loads_no_scipy_special(self, synth_file, tmp_path):
        code = ("import sys\n"
                "import awwsvm, awwsvm.cli\n"
                "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy.special'))\n"
                "print(loaded())\n"
                "rc = awwsvm.cli.main(['train', '--data', sys.argv[1], '--optimizer', 'onaq',\n"
                "                      '--adaptive', '--out', sys.argv[2]])\n"
                "print(rc, loaded())\n")
        env = {**os.environ, "PYTHONPATH": str(Path(awwsvm.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code, str(synth_file), str(tmp_path / "run")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("[]", "0 []")
        assert (tmp_path / "run" / "model.txt").exists()

    def test_same_seed_byte_identical_history(self, synth_file, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(["train", "--data", str(synth_file), "--seed", "7",
                       "--outer-iters", "2", "--inner-iters", "3",
                       "--alpha0", "0.1", "--out", str(out)])
            assert rc == 0
            outs.append((out / "history.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_resolved_config_reproduces_run(self, synth_file, tmp_path):
        first = tmp_path / "first"
        rc = main(["train", "--data", str(synth_file), "--optimizer", "obfgs",
                   "--adaptive", "--tau", "5", "--outer-iters", "2",
                   "--inner-iters", "3", "--seed", "11", "--out", str(first)])
        assert rc == 0
        second = tmp_path / "second"
        rc = main(["train", "--config", str(first / "resolved.cfg"),
                   "--out", str(second)])
        assert rc == 0
        assert (first / "history.csv").read_bytes() == (second / "history.csv").read_bytes()
        assert (first / "model.txt").read_bytes() == (second / "model.txt").read_bytes()

    def test_default_resolved_config_pinned(self, synth_file, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(synth_file), "--out", str(out)]) == 0
        assert (out / "resolved.cfg").read_text() == (
            "adaptive = false\nalpha0 = 1.0\nbatch_size = 64\nc = 1.0\n"
            f"data = {synth_file}\n"
            "eps_h = 1.0\ninner_iters = 10\nlambda = 0.2\nmu = 0.1\nnoise_mode = signed\n"
            f"optimizer = sgd\nout = {out}\n"
            "outer_iters = 10\nseed = 0\nsigma = 1.0\nsplit = 0.2\ntau = 10.0\n"
            "weight_mode = regularizer\n")

    def test_flags_parse_by_field_type(self, capsys):
        args = build_parser().parse_args(["train", "--no-adaptive", "--optimizer", "onaq",
                                          "--c", "2", "--lambda", "0.5", "--seed", "3"])
        assert (args.adaptive, args.optimizer, args.c, getattr(args, "lambda"), args.seed) == (
            False, "onaq", 2.0, 0.5, 3)
        assert build_parser().parse_args(["train", "--adaptive"]).adaptive is True
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["train", "--weight-mode", "zz"])
        assert exc.value.code == 2
        assert "invalid choice: 'zz'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, message", BAD_ENUM_VALUES)
    def test_bad_enum_in_config_file_is_usage_error(self, synth_file, tmp_path, capsys,
                                                    key, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = zz\n")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(synth_file), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("outer_iters = 2\nsigma = 0\n", "2: sigma must be positive"),
        ("c = nan\n", "1: C must be positive, got nan"),
        ("seed = -1\n", "1: seed must be >= 0, got -1"),
        ("tau = 0\n", "1: alpha0 must be nonnegative and tau positive, got alpha0=1.0, tau=0.0"),
        ("split = 1.5\n", "1: test_fraction must be in (0,1), got 1.5"),
        # the value in force counts: a later line overrides an earlier one
        ("sigma = 1\nsigma = inf\n", "2: sigma must be finite, got inf"),
        # two bad values: the first line wins
        ("batch_size = 0\nc = 0\n", "1: batch_size must be >= 1, got 0"),
    ], ids=["sigma", "c", "seed", "tau", "split", "later_line", "first_of_two"])
    def test_bad_value_in_config_file_names_its_line(self, synth_file, tmp_path, capsys,
                                                     text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(synth_file), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}:{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, flags", [
        ("sigma = 0\n", ["--sigma", "2"]),
        ("weight_mode = zz\nbatch_size = 0\n", ["--weight-mode", "hinge", "--batch-size", "8"]),
        ("sigma = 1\nsigma = 0\n", ["--sigma", "2"]),
        ("split = 0\n", ["--split", "0.3"]),
    ], ids=["sigma", "enum_and_batch_size", "later_line", "split"])
    def test_bad_config_file_value_a_flag_overrides_is_accepted(self, synth_file, tmp_path,
                                                                text, flags):
        cfg = tmp_path / "base.cfg"
        cfg.write_text(text + "outer_iters = 1\ninner_iters = 2\nalpha0 = 0.1\n")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(synth_file), *flags,
                   "--out", str(out)])
        assert rc == 0
        assert (out / "model.txt").exists()

    def test_flags_override_config_file(self, synth_file, tmp_path, capsys):
        cfg = tmp_path / "base.cfg"
        cfg.write_text("sigma = 2.0\nouter_iters = 2\ninner_iters = 2\nalpha0 = 0.1\n")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(synth_file),
                   "--sigma", "0.5", "--out", str(out)])
        assert rc == 0
        resolved = (out / "resolved.cfg").read_text()
        assert "sigma = 0.5" in resolved
        assert "outer_iters = 2" in resolved

    def test_bad_split_fraction_is_usage_error(self, synth_file, tmp_path, capsys):
        rc = main(["train", "--data", str(synth_file), "--split", "1.5",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: cannot split {synth_file}: "
                       "test_fraction must be in (0,1), got 1.5\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_usage_error_naming_round(self, synth_file, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(synth_file), "--alpha0", "1e200", "--out", str(out)])
        assert rc == 2
        assert "non-finite value in outer round 1" in capsys.readouterr().err
        assert not (out / "model.txt").exists()

    # round 1 overflows ||w||^2, so np.linalg.norm reads inf: at 1e308 the
    # decision values overflow too, at 1e300 they stay finite (so each distance
    # would read 0 and noise elimination would flag every sample)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("alpha0", ["1e308", "1e300"])
    def test_distance_overflow_is_usage_error_naming_round(self, flip_file, tmp_path, capsys,
                                                           alpha0):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(flip_file), "--optimizer", "obfgs", "--adaptive",
                   "--alpha0", alpha0, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: training aborted: squared weight norm overflowed in outer round 1\n")
        assert not (out / "model.txt").exists()

    # a bare run checks no distances; ||w||^2 in the objective overflows, so
    # the run used to exit 0 with train_loss inf in every history row
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_objective_overflow_is_usage_error_naming_round(self, flip_file, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(flip_file), "--optimizer", "obfgs", "--no-adaptive",
                   "--alpha0", "1e300", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: training aborted: objective value inf is not finite in outer round 1\n")
        assert not (out / "model.txt").exists()

    # numpy warns of the overflow on its way; in a fresh interpreter, under
    # Python's default filters, the error line is all that is printed. Run
    # in-process, pytest would capture the warnings and hide what a user sees.
    def test_aborted_run_prints_only_the_error(self, flip_file, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(awwsvm.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "awwsvm.cli", "train", "--data", str(flip_file),
             "--optimizer", "obfgs", "--alpha0", "1e300", "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: training aborted: objective value inf is not finite in outer round 1\n")

    @pytest.mark.parametrize("optimizer, code", [("obfgs", 2), ("onaq", 2), ("sgd", 0)])
    def test_oversized_inverse_hessian_is_usage_error(self, wide_file, tmp_path, capsys,
                                                      optimizer, code):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(wide_file), "--test-data", str(wide_file),
                   "--optimizer", optimizer, "--outer-iters", "1", "--inner-iters", "2",
                   "--out", str(out)])
        assert rc == code
        if code == 2:
            assert capsys.readouterr().err == (
                "error: training aborted: augmented dimension 20001: a dense 20001 x 20001 "
                "inverse Hessian needs 2.98 GiB, above the 2 GiB bound; the sgd optimizer "
                "keeps no d x d state\n")
            assert not (out / "model.txt").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
        (["--optimizer", "onaq", "--mu", "1.5"], "mu must lie in [0,1), got 1.5"),
        (["--optimizer", "obfgs", "--eps-h", "0"], "eps_h must be positive, got 0.0"),
        (["--optimizer", "obfgs", "--lambda", "-1"],
         "lambda (damping) must be nonnegative, got -1.0"),
        (["--optimizer", "obfgs", "--alpha0", "-1"],
         "alpha0 must be nonnegative and tau positive, got alpha0=-1.0, tau=10.0"),
        (["--optimizer", "obfgs", "--tau", "0"],
         "alpha0 must be nonnegative and tau positive, got alpha0=1.0, tau=0.0"),
        # nan fails every range check; --lambda nan used to train with H frozen
        (["--optimizer", "obfgs", "--lambda", "nan"],
         "lambda (damping) must be nonnegative, got nan"),
        (["--sigma", "nan"], "sigma must be positive"),
        (["--c", "nan"], "C must be positive, got nan"),
        # inf passes the range checks; --lambda inf would freeze H and --sigma inf
        # zero the Gaussian term, the rest diverge without naming the key
        (["--optimizer", "obfgs", "--lambda", "inf"], "lambda (damping) must be finite, got inf"),
        (["--adaptive", "--sigma", "inf"], "sigma must be finite, got inf"),
        (["--c", "inf"], "C must be finite, got inf"),
        (["--alpha0", "inf"], "alpha0 must be finite, got inf"),
        (["--optimizer", "obfgs", "--eps-h", "inf"], "eps_h must be finite, got inf"),
        (["--optimizer", "obfgs", "--tau", "inf"], "tau must be finite, got inf"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        # tau is checked whichever optimizer runs, though only obfgs reads it
        (["--tau", "0"], "alpha0 must be nonnegative and tau positive, got alpha0=1.0, tau=0.0"),
        (["--optimizer", "onaq", "--tau", "inf"], "tau must be finite, got inf"),
        # two bad values: the first check in TrainConfig's order wins (C, the
        # rest in field order, then alpha0 and tau)
        (["--c", "0", "--batch-size", "0"], "C must be positive, got 0.0"),
        (["--tau", "0", "--sigma", "0"], "sigma must be positive"),
    ])
    def test_invalid_hyperparameter_is_usage_error(self, synth_file, tmp_path, capsys,
                                                   flags, message):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(synth_file), *flags, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_seed_with_test_data_is_usage_error(self, synth_file, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(synth_file), "--test-data", str(synth_file),
                   "--seed", "-1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_dataset_name_unfit_for_csv_is_usage_error(self, synth_file, tmp_path, capsys):
        data = tmp_path / "x,y.libsvm"
        data.write_bytes(synth_file.read_bytes())
        out = tmp_path / "run"
        rc = main(["train", "--data", str(data), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --data {data}: dataset name 'x,y' must be a string without a comma, "
            "a double quote or a line break\n")
        assert not out.exists()

    def test_unknown_config_key_rejected(self, synth_file, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        rc = main(["train", "--config", str(cfg), "--data", str(synth_file)])
        assert rc == 2
        assert "not_a_key" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("# header\n\noptimizer onaq\n", "3: expected key = value, got 'optimizer onaq'"),
        ("seed = x\n", "1: invalid literal for int() with base 10: 'x'"),
        ("seed = 1\ntest_data =\n", "2: must be a non-empty string"),
        ("data = \n", "1: must be a non-empty string"),
        ("out =\n", "1: must be a non-empty string"),
    ], ids=["no-equals", "bad-value", "empty-test-data", "empty-data", "empty-out"])
    def test_bad_config_line_is_usage_error_naming_it(self, synth_file, tmp_path, capsys,
                                                      text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(synth_file), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}:{message}\n"
        assert not out.exists()

    # an empty --test-data once split the set instead, and an empty --out was the default
    @pytest.mark.parametrize("argv, flag", [
        (["train", "--data", ""], "--data"),
        (["train", "--data", "toy.libsvm", "--test-data", ""], "--test-data"),
        (["train", "--data", "toy.libsvm", "--out", ""], "--out"),
        (["experiment", "--manifest", "m.json", "--out", ""], "--out"),
        (["stats", "--results", "results.csv", "--out", ""], "--out"),
        (["synth", "--n-pos", "5", "--n-neg", "5", "--out", ""], "--out"),
    ])
    def test_empty_path_flag_is_usage_error(self, synth_file, tmp_path, capsys, monkeypatch,
                                            argv, flag):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("AWWSVM_OUT", raising=False)
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"awwsvm {argv[0]}: error: argument {flag}: invalid nonempty value: ''")
        assert sorted(tmp_path.iterdir()) == before

    def test_no_dataset_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: no dataset given: use --data or a config file\n"
        assert not out.exists()

    def test_report_names_degenerate_ratios(self, synth_file, tmp_path, capsys):
        # an eval set of positives only has no specificity: tn + fp = 0
        pos = tmp_path / "pos.libsvm"
        pos.write_text("+1 1:3.0 2:0.5\n+1 1:2.5\n")
        rc = main(["train", "--data", str(synth_file), "--test-data", str(pos),
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[4] == "  specificity  0.0000"
        assert lines[8] == "  degenerate 0/0 ratios reported as 0: ['specificity']"

    def test_non_utf8_config_file_exit_2_names_line(self, synth_file, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"optimizer = onaq\r\n# \xff\r\nseed = 1\r\n")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(synth_file), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 2: byte 0xff is not UTF-8\n"
        assert not out.exists()


def test_cli_defaults_are_train_config_defaults():
    assert build_train_config(resolve_config({}, {})) == TrainConfig()
    assert set(METHOD_SCHEMA) == {"optimizer", "adaptive", "weight_mode", "noise_mode", "sigma",
                                  "c", "alpha0", "tau", "mu", "lambda", "eps_h", "outer_iters",
                                  "inner_iters", "batch_size", "preset"}


def _write_manifest(tmp_path, datasets, methods, seeds):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "datasets": datasets,
        "methods": methods,
        "seeds": seeds,
        "train": {"outer_iters": 2, "inner_iters": 3, "alpha0": 0.1, "batch_size": 8},
    }))
    return manifest


class TestExperimentCommand:
    @pytest.fixture()
    def two_files(self, tmp_path):
        paths = []
        for i, (np_, nn) in enumerate(((30, 30), (40, 20))):
            p = tmp_path / f"ds{i}.libsvm"
            main(["synth", "--n-pos", str(np_), "--n-neg", str(nn),
                  "--separation", "3.0", "--seed", str(i), "--out", str(p)])
            paths.append(p)
        return paths

    def test_sweep_rows_and_summary(self, two_files, tmp_path, capsys):
        manifest = _write_manifest(
            tmp_path,
            [{"path": str(p), "split": 0.25} for p in two_files],
            [{"optimizer": "sgd", "adaptive": False},
             {"optimizer": "sgd", "adaptive": True}],
            seeds=[0, 1])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 0
        lines = (out / "results.csv").read_text().splitlines()
        finals = [l for l in lines if ",final," in l]
        assert len(finals) == 2 * 2 * 2
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 2 * 2  # header + (dataset, method) pairs
        assert "mean final accuracy" in capsys.readouterr().out

    def test_empty_manifest_header_only(self, tmp_path):
        manifest = tmp_path / "empty.json"
        manifest.write_text(json.dumps({"datasets": [], "methods": [], "seeds": []}))
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 0
        text = (out / "results.csv").read_text()
        assert text.splitlines() == ["dataset,method,seed,outer_iter,accuracy,precision,"
                                     "recall,specificity,f1,gmean,train_loss,n_noise"]

    # a section that is not a list once ran nothing, as [] does, or raised TypeError
    @pytest.mark.parametrize("key", ["datasets", "methods", "seeds"])
    @pytest.mark.parametrize("value", ["", {}, None, 5, True])
    def test_section_that_is_not_a_list_is_usage_error(self, two_files, tmp_path, capsys,
                                                       key, value):
        manifest = {"datasets": [{"path": str(two_files[0])}], "methods": [{}], "seeds": [0],
                    key: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "exp"
        assert main(["experiment", "--manifest", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path} {json.dumps(manifest, sort_keys=True)}: "
            f"bad value for {key!r}: must be a JSON list\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["", [], None, 5])
    def test_train_that_is_not_an_object_is_usage_error(self, two_files, tmp_path, capsys,
                                                        value):
        manifest = _write_manifest(tmp_path, [{"path": str(two_files[0])}], [{}], seeds=[0])
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "train": value}))
        out = tmp_path / "exp"
        assert main(["experiment", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: train {json.dumps(value)}: expected a JSON object\n")
        assert not out.exists()

    # nesting past the decoder's limit, or just under it, where encoding an
    # entry for its message goes deeper still, is one error line naming the file
    @pytest.mark.parametrize("shape", ["{}", '{{"train": {{"c": {}}}}}', '{{"seeds": [{}]}}',
                                       '{{"datasets": [{{"path": {}}}]}}'])
    def test_deep_nesting_is_usage_error(self, tmp_path, capsys, shape):
        manifest, out = tmp_path / "deep.json", tmp_path / "exp"
        limit = sys.getrecursionlimit()
        for depth in [*range(limit - 100, limit + 10), 100_000]:
            manifest.write_text(shape.format("[" * depth + "]" * depth))
            assert main(["experiment", "--manifest", str(manifest), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()
        assert err == (f"error: {manifest}: invalid JSON: maximum recursion depth exceeded "
                       "while decoding a JSON array from a unicode string\n")

    def test_rerun_identical_bytes(self, two_files, tmp_path):
        manifest = _write_manifest(
            tmp_path,
            [{"path": str(p), "split": 0.25} for p in two_files],
            [{"optimizer": "onaq", "adaptive": True}],
            seeds=[3])
        blobs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
            assert rc == 0
            blobs.append((out / "results.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_invalid_json_is_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{")
        out = tmp_path / "exp"
        assert main(["experiment", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: invalid JSON: Expecting property name enclosed in double "
            "quotes: line 1 column 2 (char 1)\n")
        assert not out.exists()

    def test_entry_that_is_not_an_object_is_usage_error(self, two_files, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, [{"path": str(two_files[0])}], ["sgd"], seeds=[0])
        out = tmp_path / "exp"
        assert main(["experiment", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == 'error: methods[0] "sgd": expected a JSON object\n'
        assert not out.exists()

    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        rc = main(["experiment", "--manifest", str(tmp_path / "none.json")])
        assert rc == 2

    def test_directory_manifest_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(tmp_path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: {IS_A_DIRECTORY}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, two_files, tmp_path, capsys, jobs):
        manifest = _write_manifest(tmp_path, [{"path": str(two_files[0])}],
                                   [{"optimizer": "sgd"}], seeds=[0])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--jobs", jobs, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    # cells run in order on one thread whatever --jobs is; the flag must not
    # change a byte of what a run writes or prints
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_jobs_do_not_change_output(self, two_files, tmp_path, capsys, monkeypatch):
        manifest = _write_manifest(tmp_path, [{"path": str(p)} for p in two_files],
                                   [{"optimizer": "sgd"},
                                    {"optimizer": "sgd", "adaptive": True, "alpha0": 1e200},
                                    {"optimizer": "onaq", "adaptive": True}],
                                   seeds=[0, 1])
        runs = []
        for jobs in ("1", "3"):
            cwd = tmp_path / f"jobs{jobs}"  # relative --out: same paths in stdout and stderr
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            rc = main(["experiment", "--manifest", str(manifest), "--jobs", jobs, "--out", "exp"])
            assert rc == 1
            files = {name: Path("exp", name).read_bytes() for name in (
                "results.csv", "summary.csv", "failures.txt", "resolved-manifest.json")}
            runs.append((files, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0]["failures.txt"].count(b"\n") == 4  # the 1e200 cell, 2 sets x 2 seeds

    @pytest.mark.parametrize("section, entry, key", [
        ("methods", {"optimzer": "onaq", "adaptve": True}, "optimzer"),
        ("methods", {"seed": 3}, "seed"),
        ("methods", {"jobs": 2}, "jobs"),
        ("train", {"inner_itres": 3}, "inner_itres"),
        ("datasets", {"preset": True}, "preset"),
        ("manifest", {"seed": [1, 2]}, "seed"),
    ])
    def test_ignored_manifest_key_is_usage_error(self, two_files, tmp_path, capsys,
                                                 section, entry, key):
        manifest = {"datasets": [{"path": str(two_files[0])}],
                    "methods": [{"optimizer": "sgd"}], "train": {"outer_iters": 1}}
        if section == "manifest":
            manifest.update(entry)
        elif section == "train":
            manifest["train"].update(entry)
        else:
            manifest[section][0].update(entry)
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown key" in err and repr(key) in err
        where = {"manifest": str(path), "train": "train"}.get(section, f"{section}[0]")
        assert err.startswith(f"error: {where} {{")
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("section, entry, key, message", [
        ("methods", {"adaptive": "maybe"}, "adaptive", "not a boolean: 'maybe'"),
        ("train", {"outer_iters": "ten"}, "outer_iters", "invalid literal for int()"),
        ("datasets", {"split": "abc"}, "split", "could not convert string to float"),
        ("datasets", {"split": None}, "split", "could not convert string to float: 'null'"),
        # a non-string value is parsed from its JSON text, as a flag would be,
        # so it is neither truncated nor cast by truthiness
        ("train", {"outer_iters": 2.7}, "outer_iters",
         "invalid literal for int() with base 10: '2.7'"),
        ("train", {"outer_iters": True}, "outer_iters",
         "invalid literal for int() with base 10: 'true'"),
        ("methods", {"adaptive": 5}, "adaptive", "not a boolean: '5'"),
    ])
    def test_bad_manifest_value_is_usage_error(self, two_files, tmp_path, capsys,
                                               section, entry, key, message):
        manifest = {"datasets": [{"path": str(two_files[0])}],
                    "methods": [{"optimizer": "sgd"}], "train": {"outer_iters": 1}}
        if section == "train":
            manifest["train"].update(entry)
        else:
            manifest[section][0].update(entry)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest))
        rc = main(["experiment", "--manifest", str(path), "--out", str(tmp_path / "exp")])
        assert rc == 2
        err = capsys.readouterr().err
        where = "train" if section == "train" else f"{section}[0]"
        assert err.startswith(f"error: {where} {{")
        assert f"bad value for {key!r}: " in err and message in err

    @pytest.mark.parametrize("patch, where, message", [
        ({"methods": [{"outer_iters": 0}]}, 'methods[0] {"outer_iters": 0}',
         "outer_iters and inner_iters must be >= 1"),
        ({"train": {"sigma": 0}}, 'train {"sigma": 0}', "sigma must be positive"),
        ({"methods": [{"optimizer": "onaq", "mu": 1.5}]},
         'methods[0] {"mu": 1.5, "optimizer": "onaq"}', "mu must lie in [0,1), got 1.5"),
        ({"methods": [{"batch_size": 0}]}, 'methods[0] {"batch_size": 0}',
         "batch_size must be >= 1, got 0"),
        # 1e999 and Infinity parse as inf, which passes the range check
        ({"methods": [{"c": 1e999}]}, 'methods[0] {"c": Infinity}', "C must be finite, got inf"),
        # results are keyed by method name, so a second entry of one name would merge into it
        ({"methods": [{"optimizer": "sgd", "adaptive": True},
                      {"optimizer": "sgd", "adaptive": True, "noise_mode": "rawdot", "c": 5.0}]},
         'methods[1] {"adaptive": true, "c": 5.0, "noise_mode": "rawdot", "optimizer": "sgd"}',
         "method name 'aw+sgd' is already taken by "
         'methods[0] {"adaptive": true, "optimizer": "sgd"}'),
        *[({"methods": [{key: "zz"}]}, f'methods[0] {{"{key}": "zz"}}', message)
          for key, message in BAD_ENUM_VALUES],
    ])
    def test_invalid_manifest_value_names_entry(self, two_files, tmp_path, capsys,
                                                patch, where, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"datasets": [{"path": str(two_files[0])}],
                                    "methods": [{}], **patch}))
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {where}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, stem", [
        ("a,b", "ds0"), ('a"b', "ds0"), ("a\nb", "ds0"), ("a\rb", "ds0"), (None, "x,y"),
    ])
    def test_dataset_name_unfit_for_csv_is_usage_error(self, two_files, tmp_path, capsys,
                                                       name, stem):
        path = tmp_path / f"{stem}.libsvm"
        if not path.exists():
            path.write_bytes(two_files[0].read_bytes())
        entry = {"path": str(path), **({} if name is None else {"name": name})}
        manifest = _write_manifest(tmp_path, [entry], [{}], seeds=[0])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 2
        shown = stem if name is None else name
        assert capsys.readouterr().err == (
            f"error: datasets[0] {json.dumps(entry, sort_keys=True)}: dataset name {shown!r} "
            "must be a string without a comma, a double quote or a line break\n")
        assert not out.exists()

    # a name that is not a non-empty string once fell back to the file's stem
    @pytest.mark.parametrize("name", ["", None, False, 0, [], {}, 7])
    def test_dataset_name_not_a_non_empty_string_is_usage_error(self, two_files, tmp_path,
                                                               capsys, name):
        entry = {"name": name, "path": str(two_files[0])}
        manifest = _write_manifest(tmp_path, [entry], [{}], seeds=[0])
        out = tmp_path / "exp"
        assert main(["experiment", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: datasets[0] {json.dumps(entry, sort_keys=True)}: "
            "bad value for 'name': must be a non-empty string\n")
        assert not out.exists()

    @pytest.mark.parametrize("entry", [{"name": "a"}, {"path": 5}])
    def test_dataset_path_not_a_string_is_usage_error(self, tmp_path, capsys, entry):
        manifest = _write_manifest(tmp_path, [entry], [{}], seeds=[0])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: datasets[0] {json.dumps(entry, sort_keys=True)}: "
            "bad value for 'path': must be a non-empty string\n")
        assert not out.exists()

    # a string is not a list of seeds: "12" once ran seeds 1 and 2
    @pytest.mark.parametrize("seeds", [["x"], 3, [1.9], "12", "", {}, None])
    def test_bad_seeds_are_usage_error(self, two_files, tmp_path, capsys, seeds):
        path = tmp_path / "bad.json"
        manifest = {"datasets": [{"path": str(two_files[0])}], "methods": [{}], "seeds": seeds}
        path.write_text(json.dumps(manifest))
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path} {json.dumps(manifest, sort_keys=True)}: bad value for 'seeds': ")
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, two_files, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, [{"path": str(two_files[0])}], [{}], seeds=[0, -1])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {manifest} {json.dumps(json.loads(manifest.read_text()), sort_keys=True)}: "
            "bad value for 'seeds': seed must be >= 0, got -1\n")
        assert not out.exists()

    def test_bad_split_is_usage_error(self, two_files, tmp_path, capsys):
        entry = {"path": str(two_files[0]), "split": 2}
        manifest = _write_manifest(tmp_path, [entry], [{"optimizer": "sgd"}], seeds=[0])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: datasets[0] {json.dumps(entry, sort_keys=True)}: cannot split: "
                       "test_fraction must be in (0,1), got 2.0\n")
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("case", ["path", "test_path", "split", "empty_path",
                                      "test_path_int", "empty_test_path", "null_test_path",
                                      "path_dir", "test_path_dir"])
    def test_dataset_failure_writes_nothing(self, two_files, tmp_path, capsys, case):
        absent = str(tmp_path / "absent.libsvm")
        good = str(two_files[0])
        adir = tmp_path / "adir"
        adir.mkdir()
        entry = {"path": {"path": absent},
                 "test_path": {"path": good, "test_path": absent},
                 "path_dir": {"path": str(adir)},
                 "test_path_dir": {"path": good, "test_path": str(adir)},
                 "split": {"path": good, "split": 2},
                 "empty_path": {"path": ""},
                 "test_path_int": {"path": good, "test_path": 5},
                 "empty_test_path": {"path": good, "test_path": ""},
                 "null_test_path": {"path": good, "test_path": None}}[case]
        manifest = _write_manifest(tmp_path, [entry], [{}], seeds=[0])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        where = f"datasets[0] {json.dumps(entry, sort_keys=True)}"
        if case in ("path", "test_path"):
            assert err == f"error: {where}: dataset file not found: {absent}\n"
        elif case in ("path_dir", "test_path_dir"):
            assert err == f"error: {where}: {adir}: {IS_A_DIRECTORY}\n"
        elif case == "split":
            assert "cannot split" in err
        else:
            key = "path" if case == "empty_path" else "test_path"
            assert err == f"error: {where}: bad value for {key!r}: must be a non-empty string\n"
        assert not out.exists()

    def test_non_utf8_dataset_is_usage_error_naming_line(self, two_files, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_bytes(b"+1 1:1\r\n-1 2:1\r\n+1 1:\xc3\r\n")
        manifest = _write_manifest(tmp_path, [{"path": str(two_files[0])}, {"path": str(bad)}],
                                   [{}], seeds=[0])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: datasets[1] {json.dumps({'path': str(bad)})}: "
                                           f"{bad}: line 3: byte 0xc3 is not UTF-8\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["stem", "name"])
    def test_repeated_dataset_name_is_usage_error(self, two_files, tmp_path, capsys, case):
        # results are keyed by dataset name, so two sets of one name would merge
        if case == "stem":
            entries = []
            for sub, src in (("a", two_files[0]), ("b", two_files[1])):
                (tmp_path / sub).mkdir()
                (tmp_path / sub / "x.libsvm").write_bytes(src.read_bytes())
                entries.append({"path": str(tmp_path / sub / "x.libsvm")})
            name = "x"
        else:
            entries = [{"name": "ds0", "path": str(two_files[1])}, {"path": str(two_files[0])}]
            name = "ds0"
        manifest = _write_manifest(tmp_path, entries, [{}], seeds=[0])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: datasets[1] {json.dumps(entries[1], sort_keys=True)}: dataset name "
            f"{name!r} is already taken by datasets[0] {json.dumps(entries[0], sort_keys=True)}\n")
        assert not out.exists()

    def test_one_file_under_two_names_is_allowed(self, two_files, tmp_path):
        manifest = _write_manifest(tmp_path, [{"name": "p", "path": str(two_files[0])},
                                              {"name": "q", "path": str(two_files[0])}],
                                   [{}], seeds=[0])
        out = tmp_path / "exp"
        assert main(["experiment", "--manifest", str(manifest), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["p", "q"]

    def test_non_utf8_manifest_is_usage_error_naming_line(self, two_files, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, [{"path": str(two_files[0])}], [{}], seeds=[0])
        text = manifest.read_bytes().replace(b'"seeds"', b'\n"\xe9": 1, "seeds"')
        manifest.write_bytes(text)
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {manifest}: line 2: byte 0xe9 is not UTF-8\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_cell_recorded_in_failures(self, two_files, tmp_path):
        manifest = _write_manifest(tmp_path, [{"path": str(two_files[0])}],
                                   [{"optimizer": "sgd"},
                                    {"optimizer": "sgd", "adaptive": True, "alpha0": 1e200}],
                                   seeds=[0])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 1
        assert (out / "failures.txt").read_text() == (
            "ds0,aw+sgd,0,weights diverged to a non-finite value in outer round 1\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_cell_recorded_in_failures(self, flip_file, tmp_path):
        manifest = _write_manifest(tmp_path, [{"path": str(flip_file)}],
                                   [{"optimizer": "obfgs"},
                                    {"optimizer": "obfgs", "adaptive": True, "alpha0": 1e300}],
                                   seeds=[0])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 1
        assert (out / "failures.txt").read_text() == (
            "flip,aw+obfgs,0,squared weight norm overflowed in outer round 1\n")

    def test_console_table_marks_a_cell_without_rows(self, two_files, wide_file, tmp_path,
                                                     capsys):
        # obfgs fails on the wide set, so its cell there has no mean
        manifest = _write_manifest(
            tmp_path, [{"path": str(two_files[0])},
                       {"path": str(wide_file), "test_path": str(wide_file)}],
            [{"optimizer": "sgd"}, {"optimizer": "obfgs"}], seeds=[0])
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(tmp_path / "exp")])
        assert rc == 1
        table = capsys.readouterr().out.splitlines()
        assert table[3] == f"{'wide':<6}{1.0:>11.4f}*  {'-':>12}"

    def test_oversized_inverse_hessian_recorded_in_failures(self, wide_file, tmp_path):
        manifest = _write_manifest(tmp_path, [{"path": str(wide_file), "test_path": str(wide_file)}],
                                   [{"optimizer": "sgd"}, {"optimizer": "obfgs"}], seeds=[0])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 1
        failures = (out / "failures.txt").read_text().splitlines()
        assert len(failures) == 1
        assert failures[0].startswith("wide,obfgs,0,augmented dimension 20001: ")

    def test_preset_sets_dataset_budget(self, two_files, tmp_path):
        manifest = _write_manifest(
            tmp_path, [{"name": "w1a", "path": str(two_files[0])}],
            [{"optimizer": "sgd", "adaptive": True, "preset": True}], seeds=[0])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        # the w1a preset runs 10 outer rounds where the shared train entry says 2
        assert [r.split(",")[3] for r in rows] == [str(i) for i in range(1, 11)] + ["final"]


    # on: the bytes of "preset": true; off: those of a method without a preset
    @pytest.mark.parametrize("preset, on", [("false", False), ("no", False), (0, False),
                                            ("true", True), ("yes", True), (1, True)])
    def test_preset_is_parsed_as_a_boolean(self, two_files, tmp_path, preset, on):
        blobs = []
        for i, extra in enumerate(({"preset": True} if on else {}, {"preset": preset})):
            manifest = _write_manifest(tmp_path, [{"name": "w1a", "path": str(two_files[0])}],
                                       [{"optimizer": "sgd", **extra}], seeds=[0])
            out = tmp_path / f"e{i}"
            assert main(["experiment", "--manifest", str(manifest), "--out", str(out)]) == 0
            blobs.append((out / "results.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("preset", ["maybe", None])
    def test_bad_preset_is_usage_error(self, two_files, tmp_path, capsys, preset):
        method = {"optimizer": "sgd", "preset": preset}
        manifest = _write_manifest(tmp_path, [{"name": "w1a", "path": str(two_files[0])}],
                                   [method], seeds=[0])
        out = tmp_path / "exp"
        rc = main(["experiment", "--manifest", str(manifest), "--out", str(out)])
        assert rc == 2
        text = preset if isinstance(preset, str) else json.dumps(preset)
        assert capsys.readouterr().err == (
            f"error: methods[0] {json.dumps(method, sort_keys=True)}: bad value for 'preset': "
            f"not a boolean: {text!r}\n")
        assert not out.exists()


@pytest.fixture()
def one_class_test_files(tmp_path):
    """{labels: (training file, test file)}: one training set and a test set of
    negatives only, written with the source labels -1/+1 ("pm") and 1/2 ("12",
    where 2 is the positive class). Files of one set share their stem."""
    main(["synth", "--n-pos", "60", "--n-neg", "140", "--separation", "3.0", "--seed", "3",
          "--out", str(tmp_path / "t.libsvm")])
    main(["synth", "--n-pos", "10", "--n-neg", "50", "--separation", "3.0", "--seed", "4",
          "--out", str(tmp_path / "e.libsvm")])
    train = (tmp_path / "t.libsvm").read_text().splitlines(keepends=True)
    test = [line for line in (tmp_path / "e.libsvm").read_text().splitlines(keepends=True)
            if line.startswith("-1 ")]
    files = {}
    for key, rename in (("pm", {}), ("12", {"-1": "1", "+1": "2"})):
        (tmp_path / key).mkdir()
        paths = []
        for name, lines in (("toy", train), ("neg", test)):
            path = tmp_path / key / f"{name}.libsvm"
            path.write_text("".join(rename.get(line[:2], line[:2]) + line[2:] for line in lines))
            paths.append(path)
        files[key] = tuple(paths)
    return files


class TestEvalLabels:
    """A test file's labels are read through the training file's label map, so
    a file holding one class is scored as that class."""

    def test_train_test_data_scored_by_the_training_map(self, one_class_test_files, tmp_path,
                                                        capsys):
        reports = []
        for key, (train, test) in one_class_test_files.items():
            rc = main(["train", "--data", str(train), "--test-data", str(test), "-v",
                       "--out", str(tmp_path / f"run-{key}")])
            assert rc == 0
            reports.append(capsys.readouterr().out.splitlines()[:-1])  # all but "wrote ..."
        assert reports[0] == reports[1]
        counts = [line for line in reports[1] if line.startswith("  counts: ")]
        assert counts[0].startswith("  counts: tp=0 fn=0 fp=")

    def test_experiment_test_path_scored_by_the_training_map(self, one_class_test_files,
                                                            tmp_path):
        blobs = []
        for key, (train, test) in one_class_test_files.items():
            manifest = _write_manifest(tmp_path, [{"path": str(train), "test_path": str(test)}],
                                       [{"optimizer": "sgd"}], seeds=[0])
            out = tmp_path / f"exp-{key}"
            assert main(["experiment", "--manifest", str(manifest), "--out", str(out)]) == 0
            blobs.append((out / "results.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_label_missing_from_training_file_is_usage_error(self, one_class_test_files,
                                                             tmp_path, capsys, command):
        # -1 is not a label of a file labeled 1/2
        train, test = one_class_test_files["12"][0], one_class_test_files["pm"][1]
        out = tmp_path / "out"
        where = ""
        if command == "train":
            argv = ["train", "--data", str(train), "--test-data", str(test)]
        else:
            entry = {"path": str(train), "test_path": str(test)}
            manifest = _write_manifest(tmp_path, [entry], [{}], seeds=[0])
            argv = ["experiment", "--manifest", str(manifest)]
            where = f"datasets[0] {json.dumps(entry, sort_keys=True)}: "
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {where}{test}: label -1 does not occur in "
                                           f"the training file {train} (labels [1, 2])\n")
        assert not out.exists()


class TestStatsCommand:
    @pytest.fixture()
    def results_csv(self, tmp_path):
        header = "dataset,method,seed,outer_iter,accuracy,precision,recall,specificity,f1,gmean,train_loss,n_noise"
        rows = [header]
        accs = {
            ("d1", "sgd"): 0.80, ("d1", "aw+sgd"): 0.86, ("d1", "onaq"): 0.84,
            ("d2", "sgd"): 0.70, ("d2", "aw+sgd"): 0.78, ("d2", "onaq"): 0.74,
            ("d3", "sgd"): 0.90, ("d3", "aw+sgd"): 0.95, ("d3", "onaq"): 0.92,
        }
        for (ds, method), acc in accs.items():
            rows.append(f"{ds},{method},0,final,{acc:.6f},0,0,0,0,0,0,0")
        path = tmp_path / "results.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_report_written(self, results_csv, tmp_path, capsys):
        out = tmp_path / "stats"
        rc = main(["stats", "--results", str(results_csv), "--out", str(out)])
        assert rc == 0
        report = (out / "stats_report.txt").read_text()
        assert "friedman chi2" in report
        assert (out / "mean_ranks.csv").exists()
        assert (out / "significance.csv").exists()
        ranks_csv = (out / "mean_ranks.csv").read_text().splitlines()
        assert ranks_csv[0] == "method,mean_rank,cd"

    def test_directory_results_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "stats"
        rc = main(["stats", "--results", str(tmp_path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: {IS_A_DIRECTORY}\n"
        assert not out.exists()

    def test_output_bytes_pinned(self, results_csv, tmp_path, capsys):
        out = tmp_path / "stats"
        rc = main(["stats", "--results", str(results_csv), "--out", str(out)])
        assert rc == 0
        report = ("metric: accuracy\n"
                  "datasets: 3  methods: 3\n"
                  "friedman chi2 = 6.0000   p = 0.0497871\n"
                  "critical difference (q=2.343, alpha=0.05) = 1.9131\n"
                  "mean ranks (1 = best):\n"
                  "  aw+sgd           1.0000\n"
                  "  onaq             2.0000\n"
                  "  sgd              3.0000\n"
                  "significant pairs (|rank diff| > CD):\n"
                  "  sgd vs aw+sgd  (diff 2.0000)\n")
        assert (out / "stats_report.txt").read_text() == report
        assert capsys.readouterr().out.startswith(report)
        assert (out / "mean_ranks.csv").read_text() == ("method,mean_rank,cd\n"
                                                        "sgd,3.000000,1.913051\n"
                                                        "aw+sgd,1.000000,1.913051\n"
                                                        "onaq,2.000000,1.913051\n")
        assert (out / "significance.csv").read_text() == ("method,sgd,aw+sgd,onaq\n"
                                                          "sgd,false,true,false\n"
                                                          "aw+sgd,true,false,false\n"
                                                          "onaq,false,false,false\n")

    # SciPy's statistics package costs every process ~45 MB; the ranks and the
    # chi-square tail come from numpy and scipy.special instead
    def test_stats_command_loads_no_scipy_stats(self, results_csv, tmp_path):
        code = ("import sys\n"
                "import awwsvm, awwsvm.cli\n"
                "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy.stats'))\n"
                "print(loaded())\n"
                "rc = awwsvm.cli.main(['stats', '--results', sys.argv[1], '--out', sys.argv[2]])\n"
                "print(rc, loaded())\n")
        env = {**os.environ, "PYTHONPATH": str(Path(awwsvm.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code, str(results_csv), str(tmp_path / "stats")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("[]", "0 []")
        assert (tmp_path / "stats" / "stats_report.txt").exists()

    def test_single_method_is_error(self, results_csv, tmp_path, capsys):
        text = [l for l in results_csv.read_text().splitlines()
                if l.startswith("dataset") or ",sgd," in l]
        lone = tmp_path / "lone.csv"
        lone.write_text("\n".join(text) + "\n")
        rc = main(["stats", "--results", str(lone)])
        assert rc == 2
        assert "2 methods" in capsys.readouterr().err

    def test_all_tied_inputs_null_result(self, tmp_path, capsys):
        header = "dataset,method,seed,outer_iter,accuracy,precision,recall,specificity,f1,gmean,train_loss,n_noise"
        rows = [header]
        for ds in ("d1", "d2", "d3"):
            for m in ("a", "b", "c"):
                rows.append(f"{ds},{m},0,final,0.5,0,0,0,0,0,0,0")
        path = tmp_path / "tied.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "stats"
        rc = main(["stats", "--results", str(path), "--out", str(out)])
        assert rc == 0
        report = (out / "stats_report.txt").read_text()
        assert "chi2 = 0.0000" in report
        assert "none" in report

    def test_no_final_rows_is_usage_error(self, results_csv, tmp_path, capsys):
        results_csv.write_text(results_csv.read_text().replace(",final,", ",3,"))
        out = tmp_path / "stats"
        assert main(["stats", "--results", str(results_csv), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: results contain no 'final' rows\n"
        assert not out.exists()

    def test_missing_cell_is_usage_error(self, results_csv, tmp_path, capsys):
        lines = results_csv.read_text().splitlines()
        results_csv.write_text("\n".join(l for l in lines if not l.startswith("d2,onaq,")) + "\n")
        out = tmp_path / "stats"
        assert main(["stats", "--results", str(results_csv), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: missing cell: dataset 'd2', method 'onaq'\n"
        assert not out.exists()

    # two results files that share method names were once averaged together
    def test_repeated_final_row_is_usage_error(self, results_csv, tmp_path, capsys):
        lines = results_csv.read_text().splitlines()
        results_csv.write_text("\n".join(lines + lines[1:]) + "\n")
        out = tmp_path / "stats"
        assert main(["stats", "--results", str(results_csv), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {results_csv}:11: repeated final row for "
                                           "dataset 'd1', method 'sgd', seed 0 (first at line 2)\n")
        assert not out.exists()

    def test_another_seed_of_a_pair_is_averaged(self, results_csv, tmp_path, capsys):
        # seed 1 lifts onaq to 0.99 on every dataset, which puts its mean first
        lines = results_csv.read_text().splitlines()
        again = [l.replace(",0,final,", ",1,final,") for l in lines[1:] if ",onaq," not in l]
        again += [f"d{i},onaq,1,final,0.990000,0,0,0,0,0,0,0" for i in (1, 2, 3)]
        results_csv.write_text("\n".join(lines + again) + "\n")
        out = tmp_path / "stats"
        assert main(["stats", "--results", str(results_csv), "--out", str(out)]) == 0
        assert (out / "mean_ranks.csv").read_text() == ("method,mean_rank,cd\n"
                                                        "sgd,3.000000,1.913051\n"
                                                        "aw+sgd,2.000000,1.913051\n"
                                                        "onaq,1.000000,1.913051\n")

    def test_unknown_metric_rejected(self, results_csv, capsys):
        rc = main(["stats", "--results", str(results_csv), "--metric", "speed"])
        assert rc == 2

    @staticmethod
    def _eleven_methods(lines):
        return lines[:1] + [f"d{i},m{j},0,final,{(i + j) % 5 / 10},0,0,0,0,0,0,0"
                            for i in range(2) for j in range(11)]

    @pytest.mark.parametrize("edit, flags, message", [
        (None, ["--alpha", "0.1"], "built-in critical values cover alpha = 0.05 only; "
         "give a positive critical value with --q"),
        (None, ["--q", "0"], "need K >= 2, N >= 1 and 0 < q_alpha < inf, "
         "got K=3, N=3, q_alpha=0.0"),
        (None, ["--q", "-1"], "got K=3, N=3, q_alpha=-1.0"),
        (_eleven_methods, [], "no critical value for K=11; supported K: 2..10"),
        (lambda ls: ls[:2] + [ls[2].replace("0.860000", "nan")] + ls[3:], [],
         "results.csv:3: accuracy is not a finite number: 'nan'"),
        (lambda ls: ls[:4] + [ls[4].replace("0.700000", "high")] + ls[5:], [],
         "results.csv:5: accuracy is not a finite number: 'high'"),
        (lambda ls: [l.replace("accuracy", "acc") for l in ls[:1]] + ls[1:], [],
         "results.csv: no 'accuracy' column"),
        (lambda ls: [l.replace(",method,", ",meth,") for l in ls[:1]] + ls[1:], [],
         "results.csv: no 'method' column"),
        (lambda ls: [l.replace(",seed,", ",sd,") for l in ls[:1]] + ls[1:], [],
         "results.csv: no 'seed' column"),
    ], ids=["alpha-without-q", "q-zero", "q-negative", "eleven-methods", "nan-cell",
            "text-cell", "no-metric-column", "no-method-column", "no-seed-column"])
    def test_bad_input_is_usage_error(self, results_csv, tmp_path, capsys, edit, flags, message):
        if edit is not None:
            lines = results_csv.read_text().splitlines()
            results_csv.write_text("\n".join(edit(lines)) + "\n")
        out = tmp_path / "stats"
        rc = main(["stats", "--results", str(results_csv), *flags, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    # --q nan and --q inf once gave a CD of nan or inf with exit 0
    @pytest.mark.parametrize("flags, message", [
        (["--q", "nan"], "need K >= 2, N >= 1 and 0 < q_alpha < inf, got K=3, N=3, "
         "q_alpha=nan; give a positive critical value with --q"),
        (["--q", "inf"], "need K >= 2, N >= 1 and 0 < q_alpha < inf, got K=3, N=3, "
         "q_alpha=inf; give a positive critical value with --q"),
        *[(["--alpha", alpha, "--q", "2.0"], f"--alpha must lie in (0, 1), got {float(alpha)}")
          for alpha in ("0", "1", "-0.5", "nan", "inf")],
    ], ids=["q-nan", "q-inf", "alpha-0", "alpha-1", "alpha-negative", "alpha-nan", "alpha-inf"])
    def test_bad_q_or_alpha_is_usage_error(self, results_csv, tmp_path, capsys, flags, message):
        out = tmp_path / "stats"
        assert main(["stats", "--results", str(results_csv), *flags, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_field_over_the_csv_limit_is_usage_error(self, results_csv, tmp_path, capsys):
        lines = results_csv.read_text().splitlines()
        lines[2] = "d" * 200_000 + lines[2][2:]
        results_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "stats"
        assert main(["stats", "--results", str(results_csv), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {results_csv}:3: field larger than field limit (131072)\n")
        assert not out.exists()

    # the file is read in pieces; 1,000 rows ahead put the byte past the first one
    @pytest.mark.parametrize("pad", [0, 1000])
    def test_non_utf8_results_file_is_usage_error_naming_line(self, results_csv, tmp_path,
                                                               capsys, pad):
        lines = results_csv.read_bytes().splitlines(keepends=True)
        results_csv.write_bytes(b"".join(lines[:3]) + lines[1] * pad +
                                lines[3].replace(b"d1", b"d\xff") + b"".join(lines[4:]))
        out = tmp_path / "stats"
        rc = main(["stats", "--results", str(results_csv), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {results_csv}: line {4 + pad}: byte 0xff is not UTF-8\n")
        assert not out.exists()


class TestOutputDirFallback:
    def test_env_var_used_when_flag_absent(self, synth_file, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("AWWSVM_OUT", str(target))
        rc = main(["train", "--data", str(synth_file), "--outer-iters", "1",
                   "--inner-iters", "2", "--alpha0", "0.1"])
        assert rc == 0
        assert (target / "model.txt").exists()
