"""Training orchestration: alternate optimizer phases with distance
computation, noise elimination, and weight refresh; plus the multi-run
experiment sweep and its CSV schema.

A run starts from w = 0 with uniform weights 2/l and loops ``outer_iters``
times: (a) ``inner_iters`` optimizer steps over minibatches of the active
samples with the current weights, (b) signed distances of all active samples,
(c) when adaptive, wrong-side noise elimination (permanent for the run), and
(d) when adaptive, a weight refresh from the distances. Optimizer state
(counter, velocity, inverse-Hessian approximation) persists across outer
iterations. With ``adaptive=False`` the weights never move and the run is
bit-for-bit the bare optimizer under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
import io
import warnings

import numpy as np

from .data import Dataset, MinibatchSampler, RowBatch
from .metrics import confusion_from_predictions, report
from .model import LinearModel, decision_values, predict
from .objective import ObjectiveConfig, loss
from .optimizers import (QuasiNewtonState, ScheduleKind, StepSchedule,
                         obfgs_step, onaq_step, sgd_step)
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
    optimizer: Optimizer = Optimizer.SGD
    adaptive: bool = True
    outer_iters: int = 10
    inner_iters: int = 10
    batch_size: int = 64
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    sigma: float = 1.0
    alpha0: float = 1.0
    tau: float = 10.0
    mu: float = 0.1
    damping: float = 0.2
    eps_h: float = 1.0
    noise_mode: NoiseMode = NoiseMode.SIGNED_SIDE
    seed: int = 0

    def __post_init__(self) -> None:
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
        for key, v in (("sigma", self.sigma), ("eps_h", self.eps_h),
                       ("lambda (damping)", self.damping)):
            if np.isinf(v):
                raise ValueError(f"{key} must be finite, got {v}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self.schedule()  # alpha0 and tau

    @property
    def method_name(self) -> str:
        base = self.optimizer.value
        return f"aw+{base}" if self.adaptive else base

    def schedule(self) -> StepSchedule:
        if self.optimizer is Optimizer.SGD:
            return StepSchedule(ScheduleKind.CONSTANT, alpha0=self.alpha0)
        if self.optimizer is Optimizer.OBFGS:
            return StepSchedule(ScheduleKind.TAU_DECAY, alpha0=self.alpha0, tau=self.tau)
        return StepSchedule(ScheduleKind.SQRT_DECAY, alpha0=self.alpha0)


class _ActiveRows:
    """Rows ``keep`` of a CSR matrix as ``loss`` reads them, without copying
    them: ``@ w`` takes one product over all rows and keeps its ``keep``
    entries. Each row sum is scipy's ``csr_matvec`` either way, so the result
    equals ``X[keep] @ w`` bit for bit."""

    __slots__ = ("X", "keep", "shape")

    def __init__(self, X, keep: np.ndarray):
        self.X, self.keep = X, keep
        self.shape = (int(np.count_nonzero(keep)), X.shape[1])

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        return (self.X @ w)[self.keep]


RESULTS_COLUMNS = ["dataset", "method", "seed", "outer_iter", "accuracy", "precision",
                   "recall", "specificity", "f1", "gmean", "train_loss", "n_noise"]
METRIC_COLUMNS = ["accuracy", "precision", "recall", "specificity", "f1", "gmean"]
SUMMARY_COLUMNS = ["dataset", "method", "n_seeds", *METRIC_COLUMNS]


def train(train_ds: Dataset, eval_ds: Dataset, cfg: TrainConfig) -> tuple[LinearModel, list[dict]]:
    """Run the full training loop; deterministic under ``cfg.seed``. Returns the
    final model and one row per outer round: ``outer_iter``, ``METRIC_COLUMNS`` on
    ``eval_ds``, ``train_loss``, ``n_noise`` and the active ``alpha_{min,mean,max}``.

    Warnings raised inside pass the active filters (``error`` still raises) and
    are held back: dropped if the run raises, as its error names the cause, and
    shown once it completes. Warning state is process-wide: never run ``train``
    on two threads."""
    with warnings.catch_warnings(record=True) as caught:
        if train_ds.n_pos == 0 or train_ds.n_neg == 0:
            raise TrainingError("training set must contain both classes")
        X = train_ds.to_matrix(augment=True)
        y = train_ds.labels()
        X_eval = eval_ds.to_matrix(dim=train_ds.dim)
        y_eval = eval_ds.labels()
        n, d_aug = X.shape

        w = np.zeros(d_aug)
        alpha = init_weights(n)
        active = np.ones(n, dtype=bool)  # False once flagged as noise, for the rest of the run
        sampler = MinibatchSampler(n, cfg.batch_size, cfg.seed)
        schedule = cfg.schedule()
        qn = None
        if cfg.optimizer is not Optimizer.SGD:
            try:
                qn = QuasiNewtonState.initial(d_aug, eps_h=cfg.eps_h, damping=cfg.damping, mu=cfg.mu)
            except MemoryError as exc:
                raise TrainingError(f"augmented dimension {d_aug}: {exc}; "
                                    "the sgd optimizer keeps no d x d state") from exc
        sgd_k = 1

        rounds = []
        for outer in range(1, cfg.outer_iters + 1):
            for _ in range(cfg.inner_iters):
                bidx = sampler.next_batch()
                Xb, yb, ab = RowBatch.gather(X, bidx), y[bidx], alpha[bidx]
                if cfg.optimizer is Optimizer.SGD:
                    w = sgd_step(w, Xb, yb, ab, cfg.objective, schedule, sgd_k)
                    sgd_k += 1
                elif cfg.optimizer is Optimizer.OBFGS:
                    w = obfgs_step(w, qn, Xb, yb, ab, cfg.objective, schedule)
                else:
                    w = onaq_step(w, qn, Xb, yb, ab, cfg.objective, schedule)
            if not np.isfinite(w).all():
                raise TrainingError(f"weights diverged to a non-finite value in outer round {outer}")

            model = LinearModel.from_augmented(w, label_map=train_ds.label_map)
            if cfg.adaptive:
                geo_norm = float(np.linalg.norm(model.w))  # inf once ||w||^2 overflows
                if not np.isfinite(geo_norm):
                    raise TrainingError(f"squared weight norm overflowed in outer round {outer}")
                if geo_norm > 0.0:
                    dist = decision_values(model, train_ds.X) / geo_norm
                    if not np.isfinite(dist).all():
                        raise TrainingError(f"hyperplane distances overflowed in outer round {outer}")
                    flagged = detect_noise(dist, y, active, cfg.noise_mode, X=train_ds.X)
                    if flagged.size:
                        active[flagged] = False
                        for cls in (1, -1):
                            if not np.any(active & (y == cls)):
                                raise TrainingError(
                                    f"noise elimination removed every class {cls:+d} sample")
                        sampler.drop(flagged)
                    alpha = update_weights(dist, active, cfg.sigma)
                # a zero geometric norm leaves distances undefined; keep the
                # current weights and mask for this round

            a_act = alpha[active]
            train_loss = loss(w, _ActiveRows(X, active), y[active], a_act, cfg.objective)
            if not np.isfinite(train_loss):
                raise TrainingError(
                    f"objective value {train_loss} is not finite in outer round {outer}")
            rep = report(confusion_from_predictions(y_eval, predict(model, X_eval)))
            rounds.append({
                "outer_iter": outer,
                **{col: getattr(rep, col) for col in METRIC_COLUMNS},
                "train_loss": train_loss,
                "n_noise": int(np.sum(~active)),
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


def run_cell(name: str, train_ds: Dataset, eval_ds: Dataset, cfg: TrainConfig, seed: int) -> list[dict]:
    """All result rows (per-iteration plus final) for one sweep cell."""
    cell_cfg = replace(cfg, seed=seed)
    _, rounds = train(train_ds, eval_ds, cell_cfg)
    rows = history_rows(name, cell_cfg, rounds)
    return rows + [{**rows[-1], "outer_iter": "final"}]


def run_experiment(cells: list[tuple[str, Dataset, Dataset, TrainConfig, int]]
                   ) -> tuple[list[dict], list[dict]]:
    """Run each ``(name, train_ds, eval_ds, cfg, seed)`` cell in order on the
    calling thread; returns the result rows in cell order, and one ``dataset,
    method, seed, error`` dict per failed cell. A cell's failure does not abort
    the sweep."""
    rows, failures = [], []
    for name, tr, ev, cfg, seed in cells:
        try:
            rows.extend(run_cell(name, tr, ev, cfg, seed))
        except Exception as exc:  # noqa: BLE001 - sweep must survive any cell
            failures.append({"dataset": name, "method": cfg.method_name, "seed": seed,
                             "error": str(exc)})
    return rows, failures
