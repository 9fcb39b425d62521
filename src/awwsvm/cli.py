"""Command-line entry point: train single models, sweep experiments,
run rank statistics over results, and generate synthetic data.

Configuration precedence is defaults < ``--config`` key=value file < explicit
flags. Every run writes a ``resolved.cfg`` capturing the effective settings;
re-running from that file reproduces the outputs byte for byte. The output
directory comes from ``--out`` or the ``AWWSVM_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .data import (ParseError, load_libsvm, save_libsvm, split, synth_two_gaussians)
from .metrics import confusion, report
from .model import save_model
from .objective import ObjectiveConfig, WeightMode
from .stats import friedman, nemenyi_cd, nemenyi_q, pairwise_significance, rank_rows
from .trainer import (METRIC_COLUMNS, Optimizer, RESULTS_COLUMNS, SUMMARY_COLUMNS, TrainConfig,
                      TrainingError, history_rows, run_experiment, summary, to_csv, train)
from .presets import PRESETS, preset_config
from .weighting import NoiseMode


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


# key -> (parser, default); flat schema shared by config files and flags
def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


CONFIG_SCHEMA: dict[str, tuple] = {
    "data": (str, None),
    "test_data": (str, None),
    "split": (float, 0.2),
    "optimizer": (str, "sgd"),
    "adaptive": (_parse_bool, False),
    "weight_mode": (str, "regularizer"),
    "noise_mode": (str, "signed"),
    "sigma": (float, 1.0),
    "c": (float, 1.0),
    "alpha0": (float, 1.0),
    "tau": (float, 10.0),
    "mu": (float, 0.1),
    "lambda": (float, 0.2),
    "eps_h": (float, 1.0),
    "outer_iters": (int, 10),
    "inner_iters": (int, 10),
    "batch_size": (int, 64),
    "seed": (int, 0),
    "out": (str, None),
}

# config keys whose value names a member of an enum
ENUM_KEYS = {"optimizer": Optimizer, "weight_mode": WeightMode, "noise_mode": NoiseMode}

# keys a manifest entry may carry; any other key is an error, as the sweep would ignore it
METHOD_KEYS = (set(CONFIG_SCHEMA) - {"data", "test_data", "split", "seed", "out"}) | {"preset"}
DATASET_KEYS = {"name", "path", "test_path", "split"}
MANIFEST_KEYS = {"datasets", "methods", "seeds", "train"}
WEIGHTS_COLUMNS = ["outer_iter", "alpha_min", "alpha_mean", "alpha_max", "n_noise"]


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` file; '#' comments and blank lines are ignored."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}") from None
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
        parse = CONFIG_SCHEMA[key][0]
        try:
            values[key] = parse(raw.strip())
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None
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
    enums = {}
    for key, enum in ENUM_KEYS.items():
        try:
            enums[key] = enum(cfg[key])
        except ValueError:
            raise CliError(f"unknown {key.replace('_', ' ')} {cfg[key]!r} "
                           f"(choose from {[e.value for e in enum]})") from None
    try:
        return TrainConfig(
            optimizer=enums["optimizer"],
            adaptive=cfg["adaptive"],
            outer_iters=cfg["outer_iters"],
            inner_iters=cfg["inner_iters"],
            batch_size=cfg["batch_size"],
            objective=ObjectiveConfig(C=cfg["c"], weight_mode=enums["weight_mode"]),
            sigma=cfg["sigma"],
            alpha0=cfg["alpha0"],
            tau=cfg["tau"],
            mu=cfg["mu"],
            damping=cfg["lambda"],
            eps_h=cfg["eps_h"],
            noise_mode=enums["noise_mode"],
            seed=cfg["seed"],
        )
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
    try:
        return load_libsvm(path)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from None


def _dataset_name(name, where: str) -> str:
    """``name`` if it can stand unquoted in a CSV cell, else a usage error."""
    if not isinstance(name, str) or any(c in name for c in ',"\r\n'):
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
    file_values = read_config_file(args.config) if args.config else {}
    flag_values = {k: getattr(args, k) for k in CONFIG_SCHEMA}
    cfg = resolve_config(file_values, flag_values)
    if not cfg["data"]:
        raise CliError("no dataset given: use --data or a config file")
    name = _dataset_name(Path(cfg["data"]).stem, f"--data {cfg['data']}")
    train_cfg = build_train_config(cfg)

    ds = _load_dataset(cfg["data"])
    if cfg["test_data"]:
        train_ds, eval_ds = ds, _load_dataset(cfg["test_data"])
    else:
        try:
            train_ds, eval_ds = split(ds, cfg["split"], cfg["seed"])
        except ValueError as exc:
            raise CliError(f"cannot split {cfg['data']}: {exc}") from None

    out = _out_dir(cfg["out"], "awwsvm-run")
    (out / "resolved.cfg").write_text(format_config(cfg), encoding="utf-8")

    try:
        model, rounds = train(train_ds, eval_ds, train_cfg)
    except TrainingError as exc:
        raise CliError(f"training aborted: {exc}") from None

    save_model(model, str(out / "model.txt"))
    rows = history_rows(name, train_cfg, rounds)
    (out / "history.csv").write_text(to_csv(rows, RESULTS_COLUMNS), encoding="utf-8")
    if args.verbose:
        (out / "weights.csv").write_text(to_csv(rounds, WEIGHTS_COLUMNS), encoding="utf-8")

    cm = confusion(model, eval_ds)
    _print_report(report(cm), cm, args.verbose)
    print(f"wrote {out / 'model.txt'}, {out / 'history.csv'}, {out / 'resolved.cfg'}")
    return 0


def _coerce(key: str, value):
    """Cast a JSON manifest value with the parser ``key`` has for flags and
    config files; a non-string value is parsed from its JSON text."""
    return CONFIG_SCHEMA[key][0](value if isinstance(value, str) else json.dumps(value))


def _check_keys(entry, allowed: set[str], where: str) -> None:
    """Reject a manifest key the sweep would otherwise ignore."""
    if not isinstance(entry, dict):
        raise CliError(f"{where}: expected a JSON object, got {entry!r}")
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise CliError(f"{where} {json.dumps(entry, sort_keys=True)}: unknown key(s) "
                       f"{', '.join(map(repr, unknown))}; allowed: {', '.join(sorted(allowed))}")


def _coerce_entry(entry: dict, where: str) -> dict:
    """``entry`` with each config value cast to its schema type; a value that
    does not cast is a usage error naming the key and its entry."""
    coerced = {}
    for key, value in entry.items():
        try:
            coerced[key] = _coerce(key, value) if key in CONFIG_SCHEMA else value
        except ValueError as exc:
            raise CliError(f"{where} {json.dumps(entry, sort_keys=True)}: "
                           f"bad value for {key!r}: {exc}") from None
    return coerced


def _entry_config(values: dict, where: str) -> TrainConfig:
    """The TrainConfig of manifest ``values`` over the defaults; a value that
    fails validation is a usage error naming its entry."""
    try:
        return build_train_config(resolve_config(values, {}))
    except CliError as exc:
        raise CliError(f"{where}: {exc}") from None


def cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {args.jobs}")
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"manifest not found: {args.manifest}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.manifest}: invalid JSON: {exc}") from None
    _check_keys(manifest, MANIFEST_KEYS, args.manifest)
    raw_seeds = manifest.get("seeds", [0])
    try:  # TrainConfig rejects a negative seed
        seeds = [TrainConfig(seed=_coerce("seed", seed)).seed for seed in raw_seeds]
    except (TypeError, ValueError) as exc:
        raise CliError(f"seeds {json.dumps(raw_seeds)}: {exc}") from None
    raw_shared = manifest.get("train", {})
    _check_keys(raw_shared, METHOD_KEYS, "train")
    shared = _coerce_entry(raw_shared, "train")
    _entry_config(shared, f"train {json.dumps(raw_shared, sort_keys=True)}")
    methods, named = [], {}
    for i, entry in enumerate(manifest.get("methods", [])):
        _check_keys(entry, METHOD_KEYS, f"methods[{i}]")
        where = f"methods[{i}] {json.dumps(entry, sort_keys=True)}"
        merged = {**shared, **_coerce_entry(entry, f"methods[{i}]")}
        cfg = _entry_config(merged, where)
        # results are keyed by method name, so two entries with one name would merge
        taken = named.setdefault(cfg.method_name, where)
        if taken != where:
            raise CliError(f"{where}: method name {cfg.method_name!r} is already taken by {taken}")
        methods.append((cfg, merged.get("preset")))
    dataset_entries = []
    for i, entry in enumerate(manifest.get("datasets", [])):
        _check_keys(entry, DATASET_KEYS, f"datasets[{i}]")
        where = f"datasets[{i}] {json.dumps(entry, sort_keys=True)}"
        if not isinstance(entry.get("path"), str):
            raise CliError(f"{where}: 'path' must be a string")
        name = _dataset_name(entry.get("name") or Path(entry["path"]).stem, where)
        dataset_entries.append((where, name, _coerce_entry(entry, f"datasets[{i}]")))

    # each file is loaded once; the cells run seed -> dataset -> method
    datasets = []
    for where, name, entry in dataset_entries:
        ds = _load_dataset(entry["path"])
        test = _load_dataset(entry["test_path"]) if entry.get("test_path") else None
        configs = [preset_config(name, cfg.optimizer, cfg.adaptive, base=cfg)
                   if preset and name.lower() in PRESETS else cfg for cfg, preset in methods]
        datasets.append((where, name, ds, test, entry.get("split", 0.2), configs))
    cells = []
    for seed in seeds:
        for where, name, ds, test, frac, configs in datasets:
            try:
                tr, ev = (ds, test) if test is not None else split(ds, frac, seed)
            except ValueError as exc:
                raise CliError(f"{where}: cannot split: {exc}") from None
            cells.extend((name, tr, ev, cfg, seed) for cfg in configs)

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


def _table(entries: list[dict], col: str) -> tuple[list[str], list[str], dict]:
    """The datasets and methods of ``summary`` entries in first-seen order, and
    ``col`` per (dataset, method)."""
    datasets = list(dict.fromkeys(e["dataset"] for e in entries))
    methods = list(dict.fromkeys(e["method"] for e in entries))
    return datasets, methods, {(e["dataset"], e["method"]): e[col] for e in entries}


def _print_summary(entries: list[dict]) -> None:
    """Mean final accuracy per (dataset, method); best per dataset marked *."""
    if not entries:
        return
    datasets, methods, acc = _table(entries, "accuracy")
    width = max(len(d) for d in datasets) + 2
    print("mean final accuracy over seeds:")
    print(" " * width + "  ".join(f"{m:>12}" for m in methods))
    for d in datasets:
        means = {m: acc[(d, m)] for m in methods if (d, m) in acc}
        best = max(means.values())
        cells = []
        for m in methods:
            if m in means:
                mark = "*" if means[m] == best else " "
                cells.append(f"{means[m]:>11.4f}{mark}")
            else:
                cells.append(f"{'-':>12}")
        print(f"{d:<{width}}" + "  ".join(cells))


def cmd_stats(args) -> int:
    path = Path(args.results)
    if not path.exists():
        raise CliError(f"results file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        finals = [(reader.line_num, r) for r in reader if r.get("outer_iter") == "final"]
    if not finals:
        raise CliError("results contain no 'final' rows")
    metric = args.metric
    if metric not in METRIC_COLUMNS:
        raise CliError(f"unknown metric {metric!r}; choose from {METRIC_COLUMNS}")
    missing = [c for c in ("dataset", "method", metric) if c not in reader.fieldnames]
    if missing:
        raise CliError(f"{path}: no {', '.join(map(repr, missing))} column")

    rows = []
    for n, r in finals:
        try:
            v = float(r[metric])
        except (TypeError, ValueError):
            v = float("nan")
        if not np.isfinite(v):
            raise CliError(f"{path}:{n}: {metric} is not a finite number: {r[metric]!r}")
        rows.append({**r, metric: v})
    datasets, methods, cells = _table(summary(rows, [metric]), metric)
    if len(methods) < 2 or len(datasets) < 2:
        raise CliError(f"need at least 2 methods and 2 datasets, "
                       f"got {len(methods)} and {len(datasets)}")
    values = np.empty((len(datasets), len(methods)))
    for i, d in enumerate(datasets):
        for j, m in enumerate(methods):
            if (d, m) not in cells:
                raise CliError(f"missing cell: dataset {d!r}, method {m!r}")
            values[i, j] = cells[(d, m)]

    rt = rank_rows(values, higher_is_better=True)
    chi2, p = friedman(rt)
    try:
        q = args.q if args.q is not None else nemenyi_q(len(methods), args.alpha)
        cd = nemenyi_cd(len(methods), len(datasets), q)
    except ValueError as exc:
        raise CliError(f"{exc}; give a positive critical value with --q") from None
    sig = pairwise_significance(rt, cd)

    out = _out_dir(args.out, "awwsvm-stats")
    lines = [f"metric: {metric}",
             f"datasets: {len(datasets)}  methods: {len(methods)}",
             f"friedman chi2 = {chi2:.4f}   p = {p:.6g}",
             f"critical difference (q={q:.3f}, alpha={args.alpha}) = {cd:.4f}",
             "mean ranks (1 = best):"]
    order = np.argsort(rt.mean_ranks)
    for j in order:
        lines.append(f"  {methods[j]:<16} {rt.mean_ranks[j]:.4f}")
    lines.append("significant pairs (|rank diff| > CD):")
    any_sig = False
    for i in range(len(methods)):
        for j in range(i + 1, len(methods)):
            if sig[i, j]:
                any_sig = True
                diff = abs(rt.mean_ranks[i] - rt.mean_ranks[j])
                lines.append(f"  {methods[i]} vs {methods[j]}  (diff {diff:.4f})")
    if not any_sig:
        lines.append("  none")
    text = "\n".join(lines) + "\n"
    (out / "stats_report.txt").write_text(text, encoding="utf-8")
    print(text, end="")

    ranks = [{"method": m, "mean_rank": r, "cd": cd} for m, r in zip(methods, rt.mean_ranks)]
    (out / "mean_ranks.csv").write_text(to_csv(ranks, ["method", "mean_rank", "cd"]),
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
        if key == "adaptive":
            p_train.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
        elif key in ENUM_KEYS:
            p_train.add_argument(flag, dest=key, choices=[e.value for e in ENUM_KEYS[key]])
        else:
            p_train.add_argument(flag, dest=key, type=parse)
    p_train.add_argument("-v", "--verbose", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_exp = sub.add_parser("experiment", help="sweep datasets x methods x seeds")
    p_exp.add_argument("--manifest", required=True, help="JSON manifest")
    p_exp.add_argument("--jobs", type=int, default=1, help="must be >= 1; not used yet: cells "
                       "run in order on one thread until worker processes take them")
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=cmd_experiment)

    p_stats = sub.add_parser("stats", help="rank statistics over a results CSV")
    p_stats.add_argument("--results", required=True)
    p_stats.add_argument("--metric", default="accuracy")
    p_stats.add_argument("--alpha", type=float, default=0.05)
    p_stats.add_argument("--q", type=float, default=None,
                         help="override the critical value q_alpha")
    p_stats.add_argument("--out")
    p_stats.set_defaults(func=cmd_stats)

    p_synth = sub.add_parser("synth", help="generate a two-Gaussian dataset")
    p_synth.add_argument("--n-pos", dest="n_pos", type=int, required=True)
    p_synth.add_argument("--n-neg", dest="n_neg", type=int, required=True)
    p_synth.add_argument("--separation", type=float, default=3.0)
    p_synth.add_argument("--flip", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
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


if __name__ == "__main__":
    sys.exit(main())
