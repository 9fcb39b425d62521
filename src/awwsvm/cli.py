"""Command-line entry point: train single models, sweep experiments,
run rank statistics over results, and generate synthetic data.

Configuration precedence is defaults < ``--config`` key=value file < explicit
flags. Every run writes a ``resolved.cfg`` capturing the effective settings;
re-running from that file reproduces the outputs byte for byte. The output
directory comes from ``--out`` or the ``AWWSVM_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
from dataclasses import fields, replace
from enum import Enum
import json
import os
import sys
from pathlib import Path

import numpy as np

from .data import (Dataset, ParseError, check_fraction, load_libsvm, save_libsvm, split,
                   synth_two_gaussians)
from .metrics import confusion, report
from .model import save_model
from .stats import friedman, nemenyi_cd, nemenyi_q, pairwise_significance, rank_rows
from .trainer import (METRIC_COLUMNS, RESULTS_COLUMNS, SUMMARY_COLUMNS, TrainConfig,
                      TrainingError, history_rows, run_experiment, summary, to_csv, train)
from .presets import PRESETS, preset_config


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def nonempty(value) -> str:
    """A path or a name the user gives: any string but the empty one."""
    if not isinstance(value, str) or not value:
        raise ValueError("must be a non-empty string")
    return value


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise ValueError("must be a JSON list")
    return value


def _from_json(parse):
    """``parse`` of a manifest value, a non-string one from its JSON text, as a flag's."""
    return lambda value: parse(value if isinstance(value, str) else json.dumps(value))


def _seeds(value) -> list[int]:
    """The manifest's seeds, none listed twice: a repeat would run each cell twice."""
    seeds = [TrainConfig(seed=_from_json(int)(seed)).seed for seed in _json_list(value)]
    first = {}
    for i, seed in enumerate(seeds):
        j = first.setdefault(seed, i)
        if j != i:
            raise ValueError(f"seed {seed} is listed twice (seeds[{j}] and seeds[{i}])")
    return seeds


def _schema_entry(default) -> tuple:
    """(parser, default) of a method key, from its TrainConfig field's default
    (the annotations are strings here); an enum key takes the member's value."""
    if isinstance(default, bool):
        return _parse_bool, default
    if isinstance(default, Enum):
        return str, default.value
    return type(default), default


# the method keys: TrainConfig's fields, under their own names but for these two
RENAMED = {"C": "c", "damping": "lambda"}
FIELDS = {RENAMED.get(f.name, f.name): f for f in fields(TrainConfig)}

# key -> (parser, default); flat schema shared by config files and flags
CONFIG_SCHEMA: dict[str, tuple] = {
    "data": (nonempty, None),
    "test_data": (nonempty, None),
    "split": (float, 0.2),
    **{key: _schema_entry(f.default) for key, f in FIELDS.items()},
    "out": (nonempty, None),
}

# each kind of manifest entry: key -> parser of its JSON value; any other key is
# an error, as the sweep would ignore it. "train" is an entry of METHOD_SCHEMA.
METHOD_SCHEMA = {key: _from_json(CONFIG_SCHEMA[key][0]) for key in FIELDS if key != "seed"
                 } | {"preset": _from_json(_parse_bool)}
DATASET_SCHEMA = {"name": nonempty, "path": nonempty, "test_path": nonempty,
                  "split": _from_json(float)}
MANIFEST_SCHEMA = {"datasets": _json_list, "methods": _json_list, "train": lambda value: value,
                   "seeds": _seeds}
WEIGHTS_COLUMNS = ["outer_iter", "alpha_min", "alpha_mean", "alpha_max", "n_noise"]


def _reason(exc: Exception) -> str:
    """``<filename>: <strerror>`` of an OSError, ``str(exc)`` of any other error."""
    if isinstance(exc, OSError):
        where = "" if exc.filename is None else f"{exc.filename}: "
        return f"{where}{exc.strerror or exc}"
    return str(exc)


@contextlib.contextmanager
def _usage_error(where: str, *errors: type[Exception]):
    """Re-raise any of ``errors`` as the usage error ``<where>: <reason>``."""
    try:
        yield
    except errors as exc:
        raise CliError(f"{where}: {_reason(exc)}") from None


def _read_utf8(path, what: str) -> str:
    """The text of the ``what`` file at ``path``, line breaks untranslated; a missing
    file or a byte that is not UTF-8 is a usage error naming the file (and line)."""
    try:
        raw = Path(path).read_bytes()
        return raw.decode("utf-8")
    except FileNotFoundError:
        raise CliError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start].decode("utf-8") + ".").splitlines())
        raise CliError(f"{path}: line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8") from None


def read_config_file(path: str, overridden: set) -> dict:
    """Flat ``key = value`` file; '#' comments and blank lines are ignored. A
    value ``TrainConfig`` or ``split`` refuses is an error at its line, unless
    its key is in ``overridden`` (the flags given)."""
    values, lines = {}, {}
    text = _read_utf8(path, "config file")
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, raw = body.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        with _usage_error(f"{path}:{lineno}", ValueError):
            values[key] = CONFIG_SCHEMA[key][0](raw.strip())
        lines[key] = lineno
    for key, lineno in lines.items():  # each TrainConfig check reads one field: check each alone
        with _usage_error(f"{path}:{lineno}", CliError, ValueError):
            if key in FIELDS and key not in overridden:
                build_train_config(resolve_config({key: values[key]}, {}))
            elif key == "split" and key not in overridden:
                check_fraction(values[key])
    return values


def resolve_config(file_values: dict, flag_values: dict) -> dict:
    resolved = {k: default for k, (_, default) in CONFIG_SCHEMA.items()}
    resolved.update(file_values)
    resolved.update({k: v for k, v in flag_values.items() if v is not None})
    return resolved


def format_config(cfg: dict) -> str:
    lines = []
    for key in sorted(cfg):
        v = cfg[key]
        if v is None:
            continue
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


def build_train_config(cfg: dict) -> TrainConfig:
    values = {}
    for key, f in FIELDS.items():
        value = cfg[key]
        if isinstance(f.default, Enum):
            enum = type(f.default)
            try:
                value = enum(value)
            except ValueError:
                raise CliError(f"unknown {key.replace('_', ' ')} {value!r} "
                               f"(choose from {[e.value for e in enum]})") from None
        values[f.name] = value
    try:
        return TrainConfig(**values)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _out_dir(cfg_out, default: str) -> Path:
    out = cfg_out or os.environ.get("AWWSVM_OUT") or default
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_dataset(path: str):
    if not Path(path).exists():
        raise CliError(f"dataset file not found: {path}")
    with _usage_error(path, ParseError):
        return load_libsvm(path)


def _load_eval(path: str, train_ds: Dataset, train_path: str) -> Dataset:
    """The dataset at ``path`` with its source labels mapped by the training
    file's label map, so a one-class file is scored as the class it holds; a
    label the training file lacks is a usage error."""
    ds = _load_dataset(path)
    y = np.empty_like(ds.y)
    for src, dst in ds.label_map.items():
        if src not in train_ds.label_map:
            raise CliError(f"{path}: label {src} does not occur in the training file "
                           f"{train_path} (labels {sorted(train_ds.label_map)})")
        y[ds.y == dst] = train_ds.label_map[src]
    return Dataset(X=ds.X, y=y, label_map=dict(train_ds.label_map))


def _dataset_name(name: str, where: str) -> str:
    """``name`` if it can stand unquoted in a CSV cell, else a usage error."""
    if any(c in name for c in ',"\r\n'):
        raise CliError(f"{where}: dataset name {name!r} must be a string without a comma, "
                       "a double quote or a line break")
    return name


def _print_report(rep, cm, verbose: bool) -> None:
    print("final evaluation:")
    for name in ("accuracy", "precision", "recall", "specificity", "sensitivity", "f1", "gmean"):
        print(f"  {name:<12} {getattr(rep, name):.4f}")
    if rep.degenerate:
        print(f"  degenerate 0/0 ratios reported as 0: {sorted(rep.degenerate)}")
    if verbose:
        print(f"  counts: tp={cm.tp} fn={cm.fn} fp={cm.fp} tn={cm.tn}")
        den = cm.tp + cm.fp
        variant = cm.tp / den if den else 0.0
        print(f"  sensitivity (tp/(tp+fp) variant): {variant:.4f}")


def cmd_train(args) -> int:
    flag_values = {k: getattr(args, k) for k in CONFIG_SCHEMA}
    flags = {k for k, v in flag_values.items() if v is not None}
    file_values = read_config_file(args.config, flags) if args.config else {}
    cfg = resolve_config(file_values, flag_values)
    if cfg["data"] is None:
        raise CliError("no dataset given: use --data or a config file")
    name = _dataset_name(Path(cfg["data"]).stem, f"--data {cfg['data']}")
    train_cfg = build_train_config(cfg)

    ds = _load_dataset(cfg["data"])
    if cfg["test_data"] is not None:
        train_ds, eval_ds = ds, _load_eval(cfg["test_data"], ds, cfg["data"])
    else:
        with _usage_error(f"cannot split {cfg['data']}", ValueError):
            train_ds, eval_ds = split(ds, cfg["split"], cfg["seed"])
    del ds  # split copied its rows; with --test-data the full set is train_ds

    out = _out_dir(cfg["out"], "awwsvm-run")
    (out / "resolved.cfg").write_text(format_config(cfg), encoding="utf-8")

    with _usage_error("training aborted", TrainingError):
        model, rounds = train(train_ds, eval_ds, train_cfg)

    save_model(model, str(out / "model.txt"))
    rows = history_rows(name, train_cfg, rounds)
    (out / "history.csv").write_text(to_csv(rows, RESULTS_COLUMNS), encoding="utf-8")
    if args.verbose:
        (out / "weights.csv").write_text(to_csv(rounds, WEIGHTS_COLUMNS), encoding="utf-8")

    cm = confusion(model, eval_ds)
    _print_report(report(cm), cm, args.verbose)
    print(f"wrote {out / 'model.txt'}, {out / 'history.csv'}, {out / 'resolved.cfg'}")
    return 0


def _entry(raw, schema: dict, where: str, required: tuple = ()) -> tuple[str, dict]:
    """``where`` and the entry's JSON, and manifest entry ``raw`` parsed by ``schema``:
    not a JSON object, a key the schema lacks, or a value that does not parse (a
    missing ``required`` key is null) is a usage error naming the entry."""
    where = f"{where} {json.dumps(raw, sort_keys=True)}"
    if not isinstance(raw, dict):
        raise CliError(f"{where}: expected a JSON object")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise CliError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
                       f"allowed: {', '.join(sorted(schema))}")
    values = {}
    for key, value in {**dict.fromkeys(required), **raw}.items():
        with _usage_error(f"{where}: bad value for {key!r}", ValueError):
            values[key] = schema[key](value)
    return where, values


def cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {args.jobs}")
    # each entry is checked against its schema before any file is read; nesting
    # deeper than the decoder or a message's encoder takes is a RecursionError
    with _usage_error(f"{args.manifest}: invalid JSON", json.JSONDecodeError, RecursionError):
        manifest = json.loads(_read_utf8(args.manifest, "manifest"))
        top = _entry(manifest, MANIFEST_SCHEMA, args.manifest)[1]
        where, shared = _entry(top.get("train", {}), METHOD_SCHEMA, "train")
        with _usage_error(where, CliError):
            build_train_config(resolve_config(shared, {}))
        methods, named = [], {}  # (config, preset) per method
        for i, raw in enumerate(top.get("methods", [])):
            where, entry = _entry(raw, METHOD_SCHEMA, f"methods[{i}]")
            merged = {**shared, **entry}
            with _usage_error(where, CliError):
                cfg = build_train_config(resolve_config(merged, {}))
            # results are keyed by method name, so two entries with one name would merge
            taken = named.setdefault(cfg.method_name, where)
            if taken != where:
                raise CliError(f"{where}: method name {cfg.method_name!r} is already taken by {taken}")
            methods.append((cfg, merged.get("preset")))
        dataset_entries, ds_named = [], {}
        for i, raw in enumerate(top.get("datasets", [])):
            where, entry = _entry(raw, DATASET_SCHEMA, f"datasets[{i}]", ("path",))
            name = _dataset_name(entry.get("name", Path(entry["path"]).stem), where)
            taken = ds_named.setdefault(name, where)  # results are keyed by dataset name too
            if taken != where:
                raise CliError(f"{where}: dataset name {name!r} is already taken by {taken}")
            dataset_entries.append((where, name, entry))

    # each file is loaded once; the cells run seed -> dataset -> method
    datasets = []
    for where, name, entry in dataset_entries:
        with _usage_error(where, CliError, OSError):  # OSError: a directory, say
            ds = _load_dataset(entry["path"])
            test = _load_eval(entry["test_path"], ds, entry["path"]) if "test_path" in entry else None
        configs = [preset_config(name, cfg)
                   if preset and name.lower() in PRESETS else cfg for cfg, preset in methods]
        datasets.append((where, name, ds, test, entry.get("split", CONFIG_SCHEMA["split"][1]),
                         configs))
    cells = []
    for seed in top.get("seeds", [0]):
        for where, name, ds, test, frac, configs in datasets:
            with _usage_error(f"{where}: cannot split", ValueError):
                tr, ev = (ds, test) if test is not None else split(ds, frac, seed)
            cells.extend((name, tr, ev, replace(cfg, seed=seed)) for cfg in configs)

    # written only once every dataset has loaded and split
    out = _out_dir(args.out, "awwsvm-experiment")
    (out / "resolved-manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    rows, failures = run_experiment(cells)

    (out / "results.csv").write_text(to_csv(rows, RESULTS_COLUMNS), encoding="utf-8")
    means = summary(rows)
    (out / "summary.csv").write_text(to_csv(means, SUMMARY_COLUMNS), encoding="utf-8")
    _print_summary(means)

    if failures:
        lines = ["{dataset},{method},{seed},{error}".format_map(f) for f in failures]
        (out / "failures.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"{len(failures)} cell(s) failed; see {out / 'failures.txt'}", file=sys.stderr)
        return 1
    print(f"wrote {out / 'results.csv'}")
    return 0


def _table(entries: list[dict], col: str) -> tuple[list[str], list[str], np.ndarray]:
    """First-seen datasets and methods, and their float64 matrix of ``col`` (NaN: no entry)."""
    datasets = list(dict.fromkeys(e["dataset"] for e in entries))
    methods = list(dict.fromkeys(e["method"] for e in entries))
    values = np.full((len(datasets), len(methods)), np.nan)
    for e in entries:
        values[datasets.index(e["dataset"]), methods.index(e["method"])] = e[col]
    return datasets, methods, values


def _print_summary(entries: list[dict]) -> None:
    """Mean final accuracy per (dataset, method); best per dataset marked *."""
    if not entries:
        return
    datasets, methods, acc = _table(entries, "accuracy")
    width = max(len(d) for d in datasets) + 2
    print("mean final accuracy over seeds:")
    print(" " * width + "  ".join(f"{m:>12}" for m in methods))
    for d, row in zip(datasets, acc):
        best = np.nanmax(row)
        cells = []
        for v in row:
            mark = "*" if v == best else " "
            cells.append(f"{'-':>12}" if np.isnan(v) else f"{v:>11.4f}{mark}")
        print(f"{d:<{width}}" + "  ".join(cells))


def cmd_stats(args) -> int:
    if not 0 < args.alpha < 1:
        raise CliError(f"--alpha must lie in (0, 1), got {args.alpha}")
    path = Path(args.results)
    try:  # streamed: the results of a large sweep are not held as one string
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            finals = [(reader.line_num, r) for r in reader if r.get("outer_iter") == "final"]
    except (FileNotFoundError, UnicodeDecodeError):
        _read_utf8(path, "results file")  # raises the usage error naming the file
        raise
    except csv.Error as exc:  # a field over the csv module's size limit, say
        raise CliError(f"{path}:{reader.reader.line_num}: {exc}") from None
    if not finals:
        raise CliError("results contain no 'final' rows")
    metric = args.metric
    if metric not in METRIC_COLUMNS:
        raise CliError(f"unknown metric {metric!r}; choose from {METRIC_COLUMNS}")
    missing = [c for c in ("dataset", "method", "seed", metric) if c not in reader.fieldnames]
    if missing:
        raise CliError(f"{path}: no {', '.join(map(repr, missing))} column")

    rows, seen = [], {}  # (dataset, method, seed) -> the line of its final row
    for n, r in finals:
        first = seen.setdefault((r["dataset"], r["method"], r["seed"]), n)
        if first != n:
            raise CliError(f"{path}:{n}: repeated final row for dataset {r['dataset']!r}, "
                           f"method {r['method']!r}, seed {r['seed']} (first at line {first})")
        try:
            v = float(r[metric])
        except (TypeError, ValueError):
            v = float("nan")
        if not np.isfinite(v):
            raise CliError(f"{path}:{n}: {metric} is not a finite number: {r[metric]!r}")
        rows.append({**r, metric: v})
    datasets, methods, values = _table(summary(rows, [metric]), metric)
    if len(methods) < 2 or len(datasets) < 2:
        raise CliError(f"need at least 2 methods and 2 datasets, "
                       f"got {len(methods)} and {len(datasets)}")
    for i, j in np.argwhere(np.isnan(values))[:1]:  # the first missing pair, row-major
        raise CliError(f"missing cell: dataset {datasets[i]!r}, method {methods[j]!r}")

    ranks = rank_rows(values)
    chi2, p = friedman(ranks)
    r = ranks.mean(axis=0)
    try:
        q = args.q if args.q is not None else nemenyi_q(len(methods), args.alpha)
        cd = nemenyi_cd(len(methods), len(datasets), q)
    except ValueError as exc:
        raise CliError(f"{exc}; give a positive critical value with --q") from None
    sig = pairwise_significance(r, cd)

    out = _out_dir(args.out, "awwsvm-stats")
    lines = [f"metric: {metric}",
             f"datasets: {len(datasets)}  methods: {len(methods)}",
             f"friedman chi2 = {chi2:.4f}   p = {p:.6g}",
             f"critical difference (q={q:.3f}, alpha={args.alpha}) = {cd:.4f}",
             "mean ranks (1 = best):",
             *(f"  {methods[j]:<16} {r[j]:.4f}" for j in np.argsort(r)),
             "significant pairs (|rank diff| > CD):"]
    lines += [f"  {methods[i]} vs {methods[j]}  (diff {abs(r[i] - r[j]):.4f})"
              for i in range(len(methods)) for j in range(i + 1, len(methods)) if sig[i, j]
              ] or ["  none"]
    text = "\n".join(lines) + "\n"
    (out / "stats_report.txt").write_text(text, encoding="utf-8")
    print(text, end="")

    table = [{"method": m, "mean_rank": rank, "cd": cd} for m, rank in zip(methods, r)]
    (out / "mean_ranks.csv").write_text(to_csv(table, ["method", "mean_rank", "cd"]),
                                        encoding="utf-8")

    sig_buf = ["method," + ",".join(methods)]
    for i, m in enumerate(methods):
        sig_buf.append(m + "," + ",".join(str(bool(sig[i, j])).lower() for j in range(len(methods))))
    (out / "significance.csv").write_text("\n".join(sig_buf) + "\n", encoding="utf-8")
    print(f"wrote {out / 'stats_report.txt'}, {out / 'mean_ranks.csv'}, {out / 'significance.csv'}")
    return 0


def cmd_synth(args) -> int:
    try:
        ds = synth_two_gaussians(args.n_pos, args.n_neg, args.separation, args.flip, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_libsvm(ds, str(out))
    print(f"wrote {len(ds)} samples to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="awwsvm",
                                     description="Adaptive-weight soft-margin SVM toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model and evaluate it")
    p_train.add_argument("--config", help="key=value config file")
    for key, (parse, _) in CONFIG_SCHEMA.items():
        flag = "--" + key.replace("_", "-")
        default = FIELDS[key].default if key in FIELDS else None
        if isinstance(default, bool):
            p_train.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
        elif isinstance(default, Enum):
            p_train.add_argument(flag, dest=key, choices=[e.value for e in type(default)])
        else:
            p_train.add_argument(flag, dest=key, type=parse)
    p_train.add_argument("-v", "--verbose", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_exp = sub.add_parser("experiment", help="sweep datasets x methods x seeds")
    p_exp.add_argument("--manifest", required=True, help="JSON manifest")
    p_exp.add_argument("--jobs", type=int, default=1, help="must be >= 1; not used yet: cells "
                       "run in order on one thread until worker processes take them")
    p_exp.add_argument("--out", type=nonempty)
    p_exp.set_defaults(func=cmd_experiment)

    p_stats = sub.add_parser("stats", help="rank statistics over a results CSV")
    p_stats.add_argument("--results", required=True)
    p_stats.add_argument("--metric", default="accuracy")
    p_stats.add_argument("--alpha", type=float, default=0.05)
    p_stats.add_argument("--q", type=float, default=None,
                         help="override the critical value q_alpha")
    p_stats.add_argument("--out", type=nonempty)
    p_stats.set_defaults(func=cmd_stats)

    p_synth = sub.add_parser("synth", help="generate a two-Gaussian dataset")
    p_synth.add_argument("--n-pos", dest="n_pos", type=int, required=True)
    p_synth.add_argument("--n-neg", dest="n_neg", type=int, required=True)
    p_synth.add_argument("--separation", type=float, default=3.0)
    p_synth.add_argument("--flip", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", type=nonempty, required=True)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path the command cannot open or create
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
