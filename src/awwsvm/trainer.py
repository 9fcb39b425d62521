"""Training orchestration: one reweighting loop around an inner solve, plus
the multi-run experiment sweep and its CSV schema.

A run starts from w = 0 with uniform weights 2/l and loops ``outer_iters``
times: (a) the inner phase ``inner(w, alpha, active) -> w``, called once per
round, solves with the current weights over the active samples and must not
mutate ``alpha`` or ``active``, (b) one score per training sample gives the
round's objective and, when adaptive, the signed distances, (c) when adaptive,
wrong-side noise elimination (permanent for the run), and (d) when adaptive, a
weight refresh from the distances. The default phase, ``stochastic_phase``,
takes ``inner_iters`` optimizer steps and owns the minibatch sampler, the step
counter and the quasi-Newton state (velocity, inverse Hessian), all kept across
rounds. With ``adaptive=False`` the weights never move and the run is
bit-for-bit the bare optimizer under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import io
import math
import warnings

import numpy as np

from .data import Dataset, MinibatchSampler, RowBatch
from .metrics import confusion_from_predictions, report
from .model import LinearModel, decision_values, predict
from .objective import WeightMode, loss
from .optimizers import QuasiNewtonState, obfgs_step, onaq_step, sgd_step
from .weighting import NoiseMode, detect_noise, init_weights, update_weights


class Optimizer(Enum):
    SGD = "sgd"
    OBFGS = "obfgs"
    ONAQ = "onaq"


class TrainingError(RuntimeError):
    """Training cannot proceed (e.g. noise elimination emptied a class, the
    weights, their squared norm, the distances or the objective overflowed, or
    the dense inverse Hessian is too large)."""


@dataclass(frozen=True)
class TrainConfig:
    """Every hyperparameter of a run, one flat field each. The fields are the
    command line's config keys (``C`` and ``damping`` spelled ``c`` and
    ``lambda``), parsed as their defaults' types, and their defaults are its
    defaults: ``TrainConfig()`` is a bare (``adaptive=False``) SGD run."""

    optimizer: Optimizer = Optimizer.SGD
    adaptive: bool = False
    outer_iters: int = 10
    inner_iters: int = 10
    batch_size: int = 64
    C: float = 1.0
    weight_mode: WeightMode = WeightMode.REGULARIZER
    sigma: float = 1.0
    alpha0: float = 1.0
    tau: float = 10.0
    mu: float = 0.1
    damping: float = 0.2
    eps_h: float = 1.0
    noise_mode: NoiseMode = NoiseMode.SIGNED_SIDE
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if self.outer_iters < 1 or self.inner_iters < 1:
            raise ValueError("outer_iters and inner_iters must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must lie in [0,1), got {self.mu}")
        if not self.eps_h > 0:
            raise ValueError(f"eps_h must be positive, got {self.eps_h}")
        if not self.damping >= 0:
            raise ValueError(f"lambda (damping) must be nonnegative, got {self.damping}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (self.alpha0 >= 0 and self.tau > 0):
            raise ValueError(f"alpha0 must be nonnegative and tau positive, "
                             f"got alpha0={self.alpha0}, tau={self.tau}")
        # the checks above refuse nan and -inf, so what is left here is inf
        for key, v in (("C", self.C), ("sigma", self.sigma), ("eps_h", self.eps_h),
                       ("lambda (damping)", self.damping), ("alpha0", self.alpha0),
                       ("tau", self.tau)):
            if not math.isfinite(v):
                raise ValueError(f"{key} must be finite, got {v}")

    @property
    def method_name(self) -> str:
        base = self.optimizer.value
        return f"aw+{base}" if self.adaptive else base

    def rate(self, k: int) -> float:
        """Size of step k >= 1: alpha0 (sgd), tau/(tau+k)*alpha0 (obfgs), alpha0/sqrt(k) (onaq)."""
        if k < 1:
            raise ValueError(f"step counter must be >= 1, got {k}")
        if self.optimizer is Optimizer.SGD:
            return self.alpha0
        if self.optimizer is Optimizer.OBFGS:
            return self.tau / (self.tau + k) * self.alpha0
        return self.alpha0 / math.sqrt(k)


RESULTS_COLUMNS = ["dataset", "method", "seed", "outer_iter", "accuracy", "precision",
                   "recall", "specificity", "f1", "gmean", "train_loss", "n_noise"]
METRIC_COLUMNS = ["accuracy", "precision", "recall", "specificity", "f1", "gmean"]
SUMMARY_COLUMNS = ["dataset", "method", "n_seeds", *METRIC_COLUMNS]


def stochastic_phase(X, y: np.ndarray, cfg: TrainConfig):
    """The default inner phase: ``cfg.inner_iters`` steps of ``cfg.optimizer``
    per round over minibatches of the active rows of the augmented ``X``."""
    n, d_aug = X.shape
    sampler = MinibatchSampler(n, cfg.batch_size, cfg.seed)
    qn = None
    if cfg.optimizer is not Optimizer.SGD:
        try:
            qn = QuasiNewtonState.initial(d_aug, eps_h=cfg.eps_h)
        except MemoryError as exc:
            raise TrainingError(f"augmented dimension {d_aug}: {exc}; "
                                "the sgd optimizer keeps no d x d state") from exc
    k = 0  # steps taken, over all outer rounds

    def inner(w: np.ndarray, alpha: np.ndarray, active: np.ndarray) -> np.ndarray:
        nonlocal k
        if not active.all():  # drop is idempotent, and no batch was drawn since the flags
            sampler.drop(np.flatnonzero(~active))
        for _ in range(cfg.inner_iters):
            k += 1
            bidx = sampler.next_batch()
            Xb, yb, ab = RowBatch.gather(X, bidx), y[bidx], alpha[bidx]
            if cfg.optimizer is Optimizer.SGD:
                w = sgd_step(w, Xb, yb, ab, cfg, cfg.rate(k))
            elif cfg.optimizer is Optimizer.OBFGS:
                w = obfgs_step(w, qn, Xb, yb, ab, cfg, cfg.rate(k))
            else:
                w = onaq_step(w, qn, Xb, yb, ab, cfg, cfg.rate(k))
        return w
    return inner


def train(train_ds: Dataset, eval_ds: Dataset, cfg: TrainConfig, inner=None) -> tuple[LinearModel, list[dict]]:
    """Run the full training loop; deterministic under ``cfg.seed``. Returns the
    final model and one row per outer round: ``outer_iter``, ``METRIC_COLUMNS`` on
    ``eval_ds``, ``train_loss``, ``n_noise`` and the active ``alpha_{min,mean,max}``.
    ``inner`` is each round's solve (module docstring), ``stochastic_phase`` by default.

    Warnings raised inside pass the active filters (``error`` still raises) and
    are held back: dropped if the run raises, as its error names the cause, and
    shown once it completes. Warning state is process-wide: never run ``train``
    on two threads."""
    with warnings.catch_warnings(record=True) as caught:
        if train_ds.n_pos == 0 or train_ds.n_neg == 0:
            raise TrainingError("training set must contain both classes")
        y = train_ds.labels()
        if inner is None:
            inner = stochastic_phase(train_ds.to_matrix(augment=True), y, cfg)
        X_eval = eval_ds.to_matrix(dim=train_ds.dim)
        y_eval = eval_ds.labels()

        w = np.zeros(train_ds.dim + 1)
        alpha = init_weights(len(y))
        active = np.ones(len(y), dtype=bool)  # False once flagged as noise, for the rest of the run

        rounds = []
        for outer in range(1, cfg.outer_iters + 1):
            w = inner(w, alpha, active)
            if not np.isfinite(w).all():
                raise TrainingError(f"weights diverged to a non-finite value in outer round {outer}")

            model = LinearModel.from_augmented(w, label_map=train_ds.label_map)
            scores = decision_values(model, train_ds.X)  # X @ w, bit for bit
            if cfg.adaptive:
                geo_norm = math.sqrt(model.w.dot(model.w))  # inf once ||w||^2 overflows
                if not math.isfinite(geo_norm):
                    raise TrainingError(f"squared weight norm overflowed in outer round {outer}")
                if geo_norm > 0.0:
                    dist = scores / geo_norm
                    if not np.isfinite(dist).all():
                        raise TrainingError(f"hyperplane distances overflowed in outer round {outer}")
                    flagged = detect_noise(dist, y, active, cfg.noise_mode, X=train_ds.X)
                    if flagged.size:
                        active[flagged] = False
                        for cls in (1, -1):
                            if not np.any(active & (y == cls)):
                                raise TrainingError(
                                    f"noise elimination removed every class {cls:+d} sample")
                    alpha = update_weights(dist, active, cfg.sigma)
                # a zero geometric norm leaves distances undefined; keep the
                # current weights and mask for this round

            a_act = alpha[active]
            train_loss = loss(w, scores[active], y[active], a_act, cfg)
            if not np.isfinite(train_loss):
                raise TrainingError(
                    f"objective value {train_loss} is not finite in outer round {outer}")
            rep = report(confusion_from_predictions(y_eval, predict(model, X_eval)))
            rounds.append({
                "outer_iter": outer,
                **{col: getattr(rep, col) for col in METRIC_COLUMNS},
                "train_loss": train_loss,
                "n_noise": int(np.count_nonzero(~active)),
                "alpha_min": float(a_act.min()),
                "alpha_mean": float(a_act.mean()),
                "alpha_max": float(a_act.max()),
            })

    for msg in caught:
        warnings.showwarning(msg.message, msg.category, msg.filename, msg.lineno, msg.file, msg.line)
    return model, rounds


def to_csv(rows: list[dict], columns: list[str]) -> str:
    """Header plus one line per row; floats are written with 6 decimals."""
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_format_cell(row[c]) for c in columns) + "\n")
    return buf.getvalue()


def _format_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def summary(rows: list[dict], columns: list[str] = METRIC_COLUMNS) -> list[dict]:
    """Mean of ``columns`` over the final rows of each (dataset, method), in
    first-seen order; the only average over seeds."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        if row["outer_iter"] == "final":
            groups.setdefault((row["dataset"], row["method"]), []).append(row)
    return [{"dataset": dataset, "method": method, "n_seeds": len(group),
             **{col: float(np.mean([r[col] for r in group])) for col in columns}}
            for (dataset, method), group in groups.items()]


def history_rows(name: str, cfg: TrainConfig, rounds: list[dict]) -> list[dict]:
    """The round rows of a run of ``cfg`` stamped with dataset, method and seed."""
    return [{"dataset": name, "method": cfg.method_name, "seed": cfg.seed, **r} for r in rounds]


def run_cell(name: str, train_ds: Dataset, eval_ds: Dataset, cfg: TrainConfig) -> list[dict]:
    """All result rows (per-iteration plus final) for one sweep cell."""
    _, rounds = train(train_ds, eval_ds, cfg)
    rows = history_rows(name, cfg, rounds)
    return rows + [{**rows[-1], "outer_iter": "final"}]


def run_experiment(cells: list[tuple[str, Dataset, Dataset, TrainConfig]]
                   ) -> tuple[list[dict], list[dict]]:
    """Run each ``(name, train_ds, eval_ds, cfg)`` cell, seeded by ``cfg.seed``,
    in order on the calling thread; returns the result rows in cell order, and
    one ``dataset, method, seed, error`` dict per failed cell. A cell's failure
    does not abort the sweep."""
    rows, failures = [], []
    for name, tr, ev, cfg in cells:
        try:
            rows.extend(run_cell(name, tr, ev, cfg))
        except Exception as exc:  # noqa: BLE001 - sweep must survive any cell
            failures.append({"dataset": name, "method": cfg.method_name, "seed": cfg.seed,
                             "error": str(exc)})
    return rows, failures
