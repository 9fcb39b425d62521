"""Sparse labeled datasets: LIBSVM text parsing, stratified splits, synthetic
two-cluster generation, and deterministic minibatch sampling.

The on-disk format is the LIBSVM/SVMlight one: each nonempty line is
``<label> <idx>:<val> [<idx>:<val> ...]`` with strictly ascending 1-based
indices. ``#`` starts a comment running to end of line; blank lines are
ignored. Source labels may be {-1,+1}, {0,1} or {1,2}; the numerically larger
of the two observed labels is mapped to +1 and the mapping is recorded on the
dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np
from scipy import sparse


class ParseError(ValueError):
    """Malformed LIBSVM text; the message names the offending line."""


@dataclass(frozen=True)
class Sample:
    """A sparse sample: (index, value) pairs, ascending 1-based indices."""

    features: tuple[tuple[int, float], ...]
    label: int

    def __post_init__(self) -> None:
        if self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label}")
        prev = 0
        for idx, _ in self.features:
            if idx <= prev:
                raise ValueError(f"feature indices must be strictly ascending and >= 1, got {idx} after {prev}")
            prev = idx


@dataclass
class Dataset:
    """An ordered collection of samples with class counts and feature dimension.

    ``dim`` is at least the largest feature index; splits inherit the parent
    dimension so train/test matrices stay aligned. ``label_map`` records how
    source labels were mapped onto {-1,+1}.
    """

    samples: list[Sample]
    dim: int
    n_pos: int
    n_neg: int
    label_map: dict[int, int] = field(default_factory=lambda: {-1: -1, 1: 1})

    def __len__(self) -> int:
        return len(self.samples)

    @classmethod
    def from_samples(cls, samples: list[Sample], dim: int | None = None,
                     label_map: dict[int, int] | None = None) -> "Dataset":
        max_idx = max((f[0] for s in samples for f in s.features), default=0)
        if dim is None:
            dim = max_idx
        elif dim < max_idx:
            raise ValueError(f"dim {dim} smaller than max feature index {max_idx}")
        n_pos = sum(1 for s in samples if s.label == 1)
        return cls(samples=samples, dim=dim, n_pos=n_pos, n_neg=len(samples) - n_pos,
                   label_map=dict(label_map) if label_map else {-1: -1, 1: 1})

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.float64)

    def to_matrix(self, dim: int | None = None, augment: bool = False) -> sparse.csr_matrix:
        """CSR feature matrix; ``augment`` appends a constant-1 bias column.

        Features with index beyond ``dim`` are dropped (a test set may carry
        indices the training dimension never saw).
        """
        dim = self.dim if dim is None else dim
        ncols = dim + 1 if augment else dim
        data, indices, indptr = [], [], [0]
        for s in self.samples:
            for idx, val in s.features:
                if idx <= dim:
                    indices.append(idx - 1)
                    data.append(val)
            if augment:
                indices.append(dim)
                data.append(1.0)
            indptr.append(len(indices))
        return sparse.csr_matrix(
            (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int32),
             np.asarray(indptr, dtype=np.int64)),
            shape=(len(self.samples), ncols))


def parse_libsvm(text: str) -> Dataset:
    """Parse LIBSVM text into a Dataset; sample order is preserved.

    Raises ParseError (with the 1-based line number) on malformed tokens,
    non-finite feature values, non-ascending indices, or more than two
    distinct labels. An input with no samples is an error.
    """
    raw_rows: list[tuple[float, tuple[tuple[int, float], ...]]] = []
    observed: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad label token {tokens[0]!r}") from None
        if label not in (-1, 0, 1, 2):
            raise ParseError(f"line {lineno}: unsupported label {tokens[0]!r}")
        label = int(label)
        if label not in observed:
            observed.append(label)
            if len(observed) > 2:
                raise ParseError(f"line {lineno}: more than two distinct labels ({sorted(observed)})")
        feats: list[tuple[int, float]] = []
        prev = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"line {lineno}: bad feature token {tok!r}") from None
            if idx < 1:
                raise ParseError(f"line {lineno}: feature index {idx} must be >= 1")
            if not math.isfinite(val):
                raise ParseError(f"line {lineno}: non-finite feature value {tok!r}")
            if idx <= prev:
                raise ParseError(f"line {lineno}: non-ascending feature index {idx} after {prev}")
            feats.append((idx, val))
            prev = idx
        raw_rows.append((label, tuple(feats)))
    if not raw_rows:
        raise ParseError("empty dataset: no samples found")

    label_map = _label_mapping(observed)
    samples = [Sample(features=f, label=label_map[lab]) for lab, f in raw_rows]
    return Dataset.from_samples(samples, label_map=label_map)


def _label_mapping(observed: list[float]) -> dict[int, int]:
    obs = sorted(int(v) for v in observed)
    if len(obs) == 1:
        return {obs[0]: 1 if obs[0] > 0 else -1}
    return {obs[0]: -1, obs[1]: 1}


def to_libsvm(ds: Dataset) -> str:
    """Serialize with mapped {-1,+1} labels; reparsing yields an equal Dataset."""
    lines = []
    for s in ds.samples:
        parts = ["+1" if s.label == 1 else "-1"]
        parts.extend(f"{idx}:{val!r}" for idx, val in s.features)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_libsvm(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh.read())


def save_libsvm(ds: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_libsvm(ds))


def imbalance_ratio(ds: Dataset) -> float:
    """Majority count over minority count; undefined if a class is empty."""
    if ds.n_pos == 0 or ds.n_neg == 0:
        raise ValueError("imbalance ratio undefined: one class is empty")
    return max(ds.n_pos, ds.n_neg) / min(ds.n_pos, ds.n_neg)


def split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified train/test split, deterministic under ``seed``.

    Each class is split independently at ``test_fraction`` (rounded, but each
    side keeps at least one sample per class). Returns (train, test); both
    inherit the parent dim and label map, and preserve original sample order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0,1), got {test_fraction}")
    if ds.n_pos < 2 or ds.n_neg < 2:
        raise ValueError("split requires at least 2 samples per class")
    rng = np.random.default_rng(seed)
    test_idx: list[int] = []
    for cls in (1, -1):
        cls_idx = np.array([i for i, s in enumerate(ds.samples) if s.label == cls])
        n_test = int(round(test_fraction * len(cls_idx)))
        n_test = min(max(n_test, 1), len(cls_idx) - 1)
        perm = rng.permutation(cls_idx)
        test_idx.extend(perm[:n_test].tolist())
    test_set = set(test_idx)
    train_samples = [s for i, s in enumerate(ds.samples) if i not in test_set]
    test_samples = [s for i, s in enumerate(ds.samples) if i in test_set]
    mk = lambda ss: Dataset.from_samples(ss, dim=ds.dim, label_map=ds.label_map)
    return mk(train_samples), mk(test_samples)


def synth_two_gaussians(n_pos: int, n_neg: int, separation: float,
                        flip_fraction: float, seed: int) -> Dataset:
    """Two unit-variance Gaussian clouds in 2-D at +-separation/2 on axis 1.

    ``flip_fraction`` of all labels (chosen uniformly without replacement) are
    inverted to act as wrong-side outliers. Deterministic under ``seed``.
    """
    if n_pos <= 0 or n_neg <= 0:
        raise ValueError("class counts must be positive")
    if not 0.0 <= flip_fraction < 0.5:
        raise ValueError(f"flip_fraction must be in [0, 0.5), got {flip_fraction}")
    rng = np.random.default_rng(seed)
    n = n_pos + n_neg
    centers = np.where(np.arange(n) < n_pos, separation / 2.0, -separation / 2.0)
    points = rng.normal(size=(n, 2))
    points[:, 0] += centers
    labels = np.where(np.arange(n) < n_pos, 1, -1)
    n_flip = int(round(flip_fraction * n))
    if n_flip:
        flip = rng.choice(n, size=n_flip, replace=False)
        labels[flip] = -labels[flip]
    samples = [Sample(features=((1, float(points[i, 0])), (2, float(points[i, 1]))),
                      label=int(labels[i])) for i in range(n)]
    return Dataset.from_samples(samples, dim=2)


def minmax_scale(ds: Dataset) -> Dataset:
    """Rescale every feature to [0,1] over the dataset (implicit zeros count).

    Off by default in training; rescaling changes the learned model. Entries
    whose scaled value is nonzero are materialized, so sparse data may grow.
    """
    lo = np.zeros(ds.dim)
    hi = np.zeros(ds.dim)
    seen = np.zeros(ds.dim, dtype=np.int64)
    for s in ds.samples:
        for idx, val in s.features:
            j = idx - 1
            if seen[j] == 0:
                lo[j] = hi[j] = val
            else:
                lo[j] = min(lo[j], val)
                hi[j] = max(hi[j], val)
            seen[j] += 1
    implicit = seen < len(ds.samples)
    lo[implicit] = np.minimum(lo[implicit], 0.0)
    hi[implicit] = np.maximum(hi[implicit], 0.0)
    lo[seen == 0] = 0.0
    hi[seen == 0] = 0.0
    span = hi - lo
    scaled_samples = []
    for s in ds.samples:
        dense = np.zeros(ds.dim)
        for idx, val in s.features:
            dense[idx - 1] = val
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(span > 0, (dense - lo) / np.where(span > 0, span, 1.0), 0.0)
        feats = tuple((j + 1, float(vals[j])) for j in range(ds.dim) if vals[j] != 0.0)
        scaled_samples.append(Sample(features=feats, label=s.label))
    return Dataset.from_samples(scaled_samples, dim=ds.dim, label_map=ds.label_map)


class MinibatchSampler:
    """Deterministic shuffled-partition minibatch stream over an index set.

    Each epoch is a fresh permutation of the active indices, served in slices
    of ``batch_size`` (the final short batch is used, not dropped). Two
    samplers with equal seed and batch size yield identical batch sequences.
    If the active set shrinks mid-epoch, dropped indices are filtered out of
    the remainder of the current permutation.
    """

    def __init__(self, batch_size: int, seed: int):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._queue: list[int] = []

    def next_batch(self, active) -> np.ndarray:
        active_arr = np.asarray(sorted(active) if isinstance(active, set) else active, dtype=np.int64)
        if active_arr.size == 0:
            raise ValueError("active set is empty")
        allowed = set(active_arr.tolist())
        self._queue = [i for i in self._queue if i in allowed]
        if not self._queue:
            self._queue = self._rng.permutation(active_arr).tolist()
        batch, self._queue = self._queue[: self.batch_size], self._queue[self.batch_size:]
        return np.asarray(batch, dtype=np.int64)
