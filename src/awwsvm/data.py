"""Sparse labeled datasets: LIBSVM text parsing, stratified splits, synthetic
two-cluster generation, deterministic minibatch sampling and batch row gathers.

The on-disk format is the LIBSVM/SVMlight one: each nonempty line is
``<label> <idx>:<val> [<idx>:<val> ...]`` with strictly ascending 1-based
indices. ``#`` starts a comment running to end of line; blank lines are
ignored. Source labels may be {-1,+1}, {0,1} or {1,2}; the numerically larger
of the two observed labels is mapped to +1 and the mapping is recorded on the
dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import io
import math
from typing import Iterator
import warnings

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


@dataclass(eq=False)
class Dataset:
    """Labeled samples as one CSR matrix and a label vector.

    ``X`` is n x dim with ascending column indices in each row; column j holds
    feature index j+1, and explicit zero values are kept. ``y`` holds the
    labels in {-1,+1}. ``dim`` is at least the largest feature index; splits
    inherit the parent dimension so train/test matrices stay aligned.
    ``label_map`` records how source labels were mapped onto {-1,+1}.
    """

    X: sparse.csr_matrix
    y: np.ndarray
    label_map: dict[int, int] = field(default_factory=lambda: {-1: -1, 1: 1})

    def __post_init__(self) -> None:
        self.X = sparse.csr_matrix(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.y.shape != (self.X.shape[0],):
            raise ValueError(f"{self.X.shape[0]} rows but labels of shape {self.y.shape}")
        if not np.isin(self.y, (-1, 1)).all():
            raise ValueError("labels must be -1 or +1")
        if not self.X.has_canonical_format:
            raise ValueError("column indices must be strictly ascending within each row")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def n_pos(self) -> int:
        return int(np.count_nonzero(self.y == 1))

    @property
    def n_neg(self) -> int:
        return len(self) - self.n_pos

    @property
    def samples(self) -> list[Sample]:
        """The rows as ``Sample`` tuples, built anew on each access."""
        ptr = self.X.indptr.tolist()
        idx = (self.X.indices.astype(np.int64) + 1).tolist()
        val = self.X.data.tolist()
        return [Sample(features=tuple(zip(idx[a:b], val[a:b])), label=lab)
                for a, b, lab in zip(ptr, ptr[1:], self.y.tolist())]

    @classmethod
    def from_samples(cls, samples: list[Sample], dim: int | None = None,
                     label_map: dict[int, int] | None = None) -> "Dataset":
        indptr = np.zeros(len(samples) + 1, dtype=np.int64)
        np.cumsum([len(s.features) for s in samples], out=indptr[1:])
        nnz = int(indptr[-1])
        cols = np.fromiter((i for s in samples for i, _ in s.features), np.int64, nnz) - 1
        vals = np.fromiter((v for s in samples for _, v in s.features), np.float64, nnz)
        max_idx = int(cols.max()) + 1 if nnz else 0
        if dim is None:
            dim = max_idx
        elif dim < max_idx:
            raise ValueError(f"dim {dim} smaller than max feature index {max_idx}")
        y = np.fromiter((s.label for s in samples), np.int64, len(samples))
        return cls(X=sparse.csr_matrix((vals, cols, indptr), shape=(len(samples), dim)), y=y,
                   label_map=dict(label_map) if label_map else {-1: -1, 1: 1})

    def labels(self) -> np.ndarray:
        return self.y.astype(np.float64)

    def to_matrix(self, dim: int | None = None, augment: bool = False) -> sparse.csr_matrix:
        """CSR feature matrix; ``augment`` appends a constant-1 bias column.

        Features with index beyond ``dim`` are dropped (a test set may carry
        indices the training dimension never saw).
        """
        dim = self.dim if dim is None else dim
        indptr, indices, data = self.X.indptr, self.X.indices, self.X.data
        if dim < self.dim:
            keep = indices < dim
            indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
            indices, data = indices[keep], data[keep]
        if augment:
            indices = np.insert(indices, indptr[1:], dim)
            data = np.insert(data, indptr[1:], 1.0)
            indptr = indptr + np.arange(len(indptr))
        return sparse.csr_matrix((data, indices, indptr), copy=True,
                                 shape=(len(self), dim + 1 if augment else dim))


# lines parsed per block, and rows formatted per written chunk
_BLOCK_LINES = 4096
_INT64_MAX = np.iinfo(np.int64).max
# one idx:val feature token, as a line of numpy's C text reader
_FEATURE = np.dtype([("i", np.int64), ("v", np.float64)])


def _c_reader_ints_are_strict() -> bool:
    """Whether numpy's C text reader refuses an int64 field such as ``1.0``,
    as ``int()`` does; numpy releases that parse it through float64 instead
    (with a DeprecationWarning) leave every block to ``_parse_lines``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            np.loadtxt(io.StringIO("1.0"), dtype=np.int64, ndmin=1)
        except ValueError:
            return True
    return False


_C_READER = _c_reader_ints_are_strict()


def parse_libsvm(text: str) -> Dataset:
    """Parse LIBSVM text into a Dataset; sample order is preserved.

    Raises ParseError (with the 1-based line number) on malformed tokens,
    feature indices beyond int64, non-finite feature values, non-ascending
    indices, or more than two distinct labels. An input with no samples is
    an error.

    Lines are parsed a block at a time. Labels go through ``float()``; the
    feature tokens go through numpy's C text reader (``np.loadtxt``), one
    token per line. Its int64 field takes ASCII digits with an optional sign
    and refuses anything else; its float64 field is converted by
    ``PyOS_string_to_double``, as in ``float()``. So every token it accepts
    gets the value ``int()``/``float()`` give. A block whose tokens hold
    non-ASCII text, that the reader refuses or that fails a check is parsed
    again by ``_parse_lines`` with ``int()`` and ``float()``: it accepts what
    those accept (``1_0``, non-ASCII digits) and otherwise names the first
    offending line.
    """
    lines = text.splitlines()
    observed: set[int] = set()
    blocks = []
    for start in range(0, len(lines), _BLOCK_LINES):
        chunk = lines[start:start + _BLOCK_LINES]
        block = _parse_block(chunk, observed) or _parse_lines(chunk, start + 1, observed)
        observed.update(block[0].tolist())
        blocks.append(block)
    if not observed:
        raise ParseError("empty dataset: no samples found")
    labels, counts, cols, vals = (np.concatenate(parts) for parts in zip(*blocks))

    label_map = _label_mapping(observed)
    y = np.empty_like(labels)
    for src, dst in label_map.items():
        y[labels == src] = dst
    indptr = np.concatenate(([0], np.cumsum(counts)))
    dim = int(cols.max()) + 1 if cols.size else 0
    X = sparse.csr_matrix((vals, cols, indptr), shape=(len(labels), dim))
    return Dataset(X=X, y=y, label_map=label_map)


def _parse_block(lines: list[str], observed: set[int]):
    """(labels, features per row, 0-based columns, values) of the nonempty
    lines, or None when the C reader refuses a token or any check fails;
    ``observed`` holds the labels of earlier blocks."""
    if not _C_READER:
        return None
    label_toks: list[str] = []
    counts: list[int] = []
    rests: list[str] = []
    for line in lines:
        if "#" in line:
            line = line[:line.index("#")]
        parts = line.split(None, 1)
        if parts:
            label_toks.append(parts[0])
            rest = parts[1] if len(parts) == 2 else ""
            counts.append(rest.count(":"))
            rests.append(rest)
    # within a line, ASCII whitespace is ' ', '\t' or '\x1f': breaking the
    # lines there puts one token on each nonempty line, and the reader skips
    # empty ones. Text beyond ASCII is left to _parse_lines.
    text = "\n".join(rests)
    if not text.isascii():
        return None
    text = text.replace(" ", "\n").replace("\t", "\n").replace("\x1f", "\n")
    try:
        labels = np.fromiter(map(float, label_toks), np.float64, len(label_toks))
        feats = (np.loadtxt(io.StringIO(text), dtype=_FEATURE, delimiter=":",
                            comments=None, quotechar=None, ndmin=1)
                 if text.strip() else np.empty(0, dtype=_FEATURE))  # no data warns
    except ValueError:
        return None
    idx, vals = feats["i"], feats["v"]
    counts_arr = np.array(counts, dtype=np.int64)
    # the first token of each row has no predecessor to ascend from
    follows = np.ones(len(idx), dtype=bool)
    follows[(np.cumsum(counts_arr) - counts_arr)[counts_arr > 0]] = False
    if not (len(idx) == counts_arr.sum() and np.isin(labels, (-1, 0, 1, 2)).all()
            and (idx >= 1).all() and np.isfinite(vals).all()
            and (np.diff(idx) > 0)[follows[1:]].all()):
        return None
    labels = labels.astype(np.int64)
    if len(observed.union(np.unique(labels).tolist())) > 2:
        return None
    return labels, counts_arr, idx - 1, vals


def _parse_lines(lines: list[str], first_lineno: int, observed: set[int]):
    """The block's arrays as ``_parse_block`` returns them, parsed line by line
    with ``int()`` and ``float()``; raises the ParseError naming the first
    malformed line. ``observed`` holds the labels of earlier blocks."""
    seen = set(observed)
    labels: list[int] = []
    counts: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for lineno, line in enumerate(lines, start=first_lineno):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad label token {tokens[0]!r}") from None
        if label not in (-1, 0, 1, 2):
            raise ParseError(f"line {lineno}: unsupported label {tokens[0]!r}")
        seen.add(int(label))
        if len(seen) > 2:
            raise ParseError(f"line {lineno}: more than two distinct labels ({sorted(seen)})")
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
            if idx > _INT64_MAX:
                raise ParseError(f"line {lineno}: feature index {idx} exceeds {_INT64_MAX}")
            if not math.isfinite(val):
                raise ParseError(f"line {lineno}: non-finite feature value {tok!r}")
            if idx <= prev:
                raise ParseError(f"line {lineno}: non-ascending feature index {idx} after {prev}")
            prev = idx
            cols.append(idx - 1)
            vals.append(val)
        labels.append(int(label))
        counts.append(len(tokens) - 1)
    return (np.array(labels, dtype=np.int64), np.array(counts, dtype=np.int64),
            np.array(cols, dtype=np.int64), np.array(vals, dtype=np.float64))


def _label_mapping(observed: set[int]) -> dict[int, int]:
    obs = sorted(observed)
    if len(obs) == 1:
        return {obs[0]: 1 if obs[0] > 0 else -1}
    return {obs[0]: -1, obs[1]: 1}


def _libsvm_chunks(ds: Dataset) -> Iterator[str]:
    """LIBSVM text for ``ds`` in chunks of whole lines, labels as +1/-1."""
    if not len(ds):
        yield "\n"  # the text of an empty dataset is one newline
    X = ds.X
    for start in range(0, len(ds), _BLOCK_LINES):
        stop = min(start + _BLOCK_LINES, len(ds))
        a, b = X.indptr[start], X.indptr[stop]
        ptr = (X.indptr[start:stop + 1] - a).tolist()
        idx = (X.indices[a:b].astype(np.int64) + 1).tolist()
        val = X.data[a:b].tolist()
        lines = []
        for i, lab in enumerate(ds.y[start:stop].tolist()):
            lo, hi = ptr[i], ptr[i + 1]
            lines.append(" ".join(["+1" if lab == 1 else "-1",
                                   *(f"{j}:{v!r}" for j, v in zip(idx[lo:hi], val[lo:hi]))]))
        yield "\n".join(lines) + "\n"


def to_libsvm(ds: Dataset) -> str:
    """Serialize with mapped {-1,+1} labels; reparsing yields an equal Dataset."""
    return "".join(_libsvm_chunks(ds))


def load_libsvm(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh.read())


def save_libsvm(ds: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_libsvm_chunks(ds))


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
    in_test = np.zeros(len(ds), dtype=bool)
    for cls in (1, -1):
        cls_idx = np.flatnonzero(ds.y == cls)
        n_test = int(round(test_fraction * len(cls_idx)))
        n_test = min(max(n_test, 1), len(cls_idx) - 1)
        in_test[rng.permutation(cls_idx)[:n_test]] = True
    take = lambda rows: Dataset(X=ds.X[rows], y=ds.y[rows], label_map=dict(ds.label_map))
    return take(np.flatnonzero(~in_test)), take(np.flatnonzero(in_test))


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
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
    # both coordinates are stored, even an exact 0.0
    X = sparse.csr_matrix((points.ravel(), np.tile([0, 1], n), np.arange(0, 2 * n + 1, 2)),
                          shape=(n, 2))
    return Dataset(X=X, y=labels)


class RowBatch:
    """Rows ``idx`` of a CSR matrix as flat ``(row, col, val)`` entries, for
    the minibatch products without a scipy object. ``batch @ w`` and
    ``batch.T @ v`` add in the order of scipy's ``csr_matvec`` and of the
    ``csc_matvec`` behind ``X[idx].T @ v``, so both equal the scipy products
    bit for bit. ``T`` swaps the entry roles and copies nothing."""

    __slots__ = ("rows", "cols", "vals", "shape")

    def __init__(self, rows, cols, vals, shape: tuple[int, int]):
        self.rows, self.cols, self.vals, self.shape = rows, cols, vals, shape

    @classmethod
    def gather(cls, X: sparse.csr_matrix, idx: np.ndarray) -> "RowBatch":
        starts = X.indptr[idx]
        counts = X.indptr[idx + 1] - starts
        rows = np.repeat(np.arange(len(idx)), counts)
        # batch entry e of row r is X entry starts[r] + e - (r's first batch entry)
        pos = np.arange(len(rows)) + (starts + counts - np.cumsum(counts))[rows]
        return cls(rows, X.indices[pos], X.data[pos], (len(idx), X.shape[1]))

    @property
    def T(self) -> "RowBatch":
        return RowBatch(self.cols, self.rows, self.vals, self.shape[::-1])

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        out = np.bincount(self.rows, weights=self.vals * v[self.cols], minlength=self.shape[0])
        return out.astype(np.float64, copy=False)  # bincount of no entries gives int64


class MinibatchSampler:
    """Deterministic shuffled-partition minibatch stream over ``range(n)``.

    Each epoch is a fresh permutation of the active indices, served in slices
    of ``batch_size`` (the final short batch is used, not dropped). Two
    samplers with equal n, seed and batch size yield identical batch
    sequences. ``drop`` removes indices for good, including from the
    remainder of the current epoch.
    """

    def __init__(self, n: int, batch_size: int, seed: int):
        if n < 1:
            raise ValueError(f"need at least one index, got n={n}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.n = n
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)
        self._active = np.arange(n, dtype=np.int64)
        self._queue = np.empty(0, dtype=np.int64)

    def drop(self, idx) -> None:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError(f"indices must lie in [0, {self.n})")
        keep = np.ones(self.n, dtype=bool)
        keep[idx] = False
        active = self._active[keep[self._active]]
        if not active.size:
            raise ValueError("drop would leave no active index")
        self._active = active
        self._queue = self._queue[keep[self._queue]]

    def next_batch(self) -> np.ndarray:
        if not self._queue.size:
            self._queue = self._rng.permutation(self._active)
        batch, self._queue = self._queue[: self.batch_size], self._queue[self.batch_size:]
        return batch
