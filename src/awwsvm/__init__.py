"""Linear soft-margin SVM training with distance-adaptive sample weighting.

Per-sample weights are generated from each sample's distance to the current
hyperplane and refreshed between optimizer phases; wrong-side samples can be
eliminated as noise. Three stochastic solvers are provided (SGD, online BFGS,
online Nesterov-accelerated quasi-Newton) plus imbalance-aware metrics and a
Friedman/Nemenyi cross-method comparison.
"""

from .data import (Dataset, MinibatchSampler, ParseError, Sample, load_libsvm, parse_libsvm,
                   save_libsvm, split, synth_two_gaussians, to_libsvm)
from .metrics import ConfusionMatrix, EvalReport, confusion, confusion_from_predictions, report
from .model import LinearModel, decision_values, load_model, predict, save_model
from .objective import ObjectiveConfig, WeightMode
from .optimizers import CURVATURE_FLOOR, ScheduleKind, StepSchedule, bfgs_inverse_update
from .stats import (NEMENYI_Q_05, RankTable, chi2_sf, friedman, nemenyi_cd, nemenyi_q,
                    pairwise_significance, rank_rows)
from .trainer import (Optimizer, RESULTS_COLUMNS, TrainConfig, TrainingError, run_experiment,
                      summary, train)
from .weighting import NoiseMode, aw_raw, detect_noise, init_weights, update_weights

__version__ = "0.1.0"
