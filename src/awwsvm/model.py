"""Linear decision hyperplane: predictions, margins, geometric distances.

Training uses bias augmentation: a constant feature 1 is appended to every
sample, so the bias is the last component of the augmented weight vector and
is regularized with it. Geometric distances divide by the norm of the
non-augmented part only.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .data import Sample


class DegenerateModelError(ValueError):
    """A zero weight vector defines no hyperplane; distances are undefined."""


@dataclass
class LinearModel:
    """Hyperplane {x : w.x + b = 0} with prediction sign(w.x + b)."""

    w: np.ndarray
    b: float
    label_map: dict[int, int] | None = None

    @property
    def dim(self) -> int:
        return len(self.w)

    @classmethod
    def from_augmented(cls, w_aug: np.ndarray, label_map: dict[int, int] | None = None) -> "LinearModel":
        w_aug = np.asarray(w_aug, dtype=np.float64)
        return cls(w=w_aug[:-1].copy(), b=float(w_aug[-1]), label_map=label_map)

    def augmented(self) -> np.ndarray:
        return np.concatenate([self.w, [self.b]])


def sparse_dot(features: tuple[tuple[int, float], ...], w: np.ndarray) -> float:
    """Dot product of a sparse sample with a dense vector.

    Indices beyond len(w) are ignored (features unseen at training time).
    """
    d = len(w)
    return float(sum(val * w[idx - 1] for idx, val in features if idx <= d))


def raw_score(m: LinearModel, x: Sample) -> float:
    return sparse_dot(x.features, m.w) + m.b


def decide(m: LinearModel, x: Sample) -> int:
    """Predicted label; a score of exactly 0 maps to +1."""
    return 1 if raw_score(m, x) >= 0.0 else -1


def signed_distance(m: LinearModel, x: Sample) -> float:
    """(w.x + b) / ||w||; positive on the +1 side. Magnitude is the geometric
    distance to the hyperplane."""
    nrm = float(np.linalg.norm(m.w))
    if nrm == 0.0:
        raise DegenerateModelError("zero weight vector: distance undefined")
    return raw_score(m, x) / nrm

def margin(m: LinearModel, x: Sample, y: int) -> float:
    """y.(w.x + b); below 1 the sample violates the soft margin."""
    return y * raw_score(m, x)


def decision_values(m: LinearModel, X) -> np.ndarray:
    """Scores w.x + b for a (n, dim) matrix, sparse or dense."""
    return np.asarray(X @ m.w).ravel() + m.b


def predict(m: LinearModel, X) -> np.ndarray:
    vals = decision_values(m, X)
    return np.where(vals >= 0.0, 1, -1)


_HEADER = "awwsvm-model 1"


def save_model(m: LinearModel, path: str) -> None:
    """Text serialization: header (dim, bias convention, label map), bias,
    then one weight per line. Floats use repr so the round trip is exact."""
    lines = [_HEADER, f"dim {m.dim}", "bias augmented-last"]
    if m.label_map:
        pairs = " ".join(f"{k}:{v}" for k, v in sorted(m.label_map.items()))
        lines.append(f"labels {pairs}")
    else:
        lines.append("labels none")
    lines.append(f"b {m.b!r}")
    lines.extend(repr(float(v)) for v in m.w)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> LinearModel:
    """Read a ``save_model`` file. A missing or malformed header line, a bias
    or weight that is not a finite number, or a non-blank line after the
    weights is a ValueError naming the path and the 1-based line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _HEADER:
        raise ValueError(f"{path}: not an awwsvm model file")
    dim_text = _field(path, lines, 2, "dim")
    if not dim_text.isdecimal():
        raise ValueError(f"{path}:2: dim must be a nonnegative integer, got {dim_text!r}")
    dim = int(dim_text)
    bias = _field(path, lines, 3, "bias")
    if bias != "augmented-last":
        raise ValueError(f"{path}:3: unknown bias convention {bias!r}")
    label_map = None
    labels = _field(path, lines, 4, "labels")
    if labels != "none":
        try:
            label_map = {int(k): int(v) for k, v in (pair.split(":") for pair in labels.split())}
        except ValueError:
            raise ValueError(f"{path}:4: bad label pairs {labels!r}") from None
    b = _finite(path, 5, _field(path, lines, 5, "b"))
    weights = lines[5:5 + dim]
    if len(weights) != dim:
        raise ValueError(f"{path}: expected {dim} weights, found {len(weights)}")
    w = np.array([_finite(path, n, v) for n, v in enumerate(weights, start=6)], dtype=np.float64)
    for n, text in enumerate(lines[5 + dim:], start=6 + dim):
        if text.strip():
            raise ValueError(f"{path}:{n}: unexpected line after the {dim} weights: {text!r}")
    return LinearModel(w=w, b=b, label_map=label_map)


def _field(path: str, lines: list[str], lineno: int, key: str) -> str:
    """The value of 1-based header line ``lineno``, which must read ``<key> <value>``."""
    text = lines[lineno - 1] if lineno <= len(lines) else None
    name, _, value = (text or "").partition(" ")
    if name != key or not value:
        found = "end of file" if text is None else repr(text)
        raise ValueError(f"{path}:{lineno}: expected '{key} <value>', found {found}")
    return value


def _finite(path: str, lineno: int, text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise ValueError(f"{path}:{lineno}: not a finite number: {text!r}")
    return v
