"""The minibatch row kernel against scipy: ``RowBatch.gather(X, idx)`` must
give the products of ``X[idx]`` bit for bit, as must the trainer's
``_ActiveRows(X, keep)`` those of ``X[keep]``, and a training run must build
no scipy matrix per optimizer step."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse import _compressed

from awwsvm.data import RowBatch, synth_two_gaussians
from awwsvm.objective import ObjectiveConfig, WeightMode, loss, subgradient
from awwsvm.trainer import Optimizer, TrainConfig, _ActiveRows, train


def assert_bitwise(got, want):
    want = np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def spread_values(rng, size):
    """Signed values over 16 decades, so a change in the order of the
    additions changes the rounded sums."""
    return rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size=size)


def make_csr(rng, fill, d, index_dtype):
    """CSR rows with the given fill fractions; a tenth of the stored values
    are explicit zeros, and a fill of 0 gives an empty row."""
    mask = rng.random((len(fill), d)) < np.asarray(fill)[:, None]
    cols = np.nonzero(mask)[1]
    vals = spread_values(rng, len(cols))
    vals[rng.random(len(cols)) < 0.1] = 0.0
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
    X = sparse.csr_matrix((vals, cols, indptr), shape=mask.shape)
    # the constructor narrows int64 indices that fit in int32
    X.indices, X.indptr = X.indices.astype(index_dtype), X.indptr.astype(index_dtype)
    return X


@st.composite
def csr_batches(draw):
    """(X, idx, rng): a random CSR matrix with empty, sparse and full rows
    (41+ entries once d > 40), int32 or int64 indices, and a batch of row
    indices that may repeat and come in any order."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 160))
    fill = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]), min_size=n, max_size=n))
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = make_csr(rng, fill, d, index_dtype)
    assert X.indices.dtype == index_dtype
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n + 5)))
    return X, idx, rng


class TestRowBatchProducts:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(csr_batches())
    def test_products_equal_scipy_bitwise(self, case):
        X, idx, rng = case
        batch, want = RowBatch.gather(X, idx), X[idx]
        assert batch.shape == want.shape and batch.T.shape == want.T.shape
        w, v = spread_values(rng, X.shape[1]), spread_values(rng, len(idx))
        assert_bitwise(batch @ w, want @ w)
        assert_bitwise(batch.T @ v, want.T @ v)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(csr_batches(), st.sampled_from(list(WeightMode)), st.floats(0.01, 100.0))
    def test_objective_on_batch_equals_scipy_bitwise(self, case, mode, C):
        X, idx, rng = case
        batch, want = RowBatch.gather(X, idx), X[idx]
        y = rng.choice([-1.0, 1.0], size=len(idx))
        alpha = rng.random(len(idx))
        # small weights leave some margins below 1 and some above
        w = spread_values(rng, X.shape[1]) * 1e-6
        cfg = ObjectiveConfig(C=C, weight_mode=mode)
        assert_bitwise(subgradient(w, batch, y, alpha, cfg), subgradient(w, want, y, alpha, cfg))
        assert loss(w, batch, y, alpha, cfg) == loss(w, want, y, alpha, cfg)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(csr_batches(), st.floats(0.0, 1.0))
    def test_active_rows_product_equals_scipy_bitwise(self, case, keep_frac):
        X, _, rng = case
        keep = rng.random(X.shape[0]) < keep_frac
        rows, want = _ActiveRows(X, keep), X[keep]
        assert rows.shape == want.shape
        w = spread_values(rng, X.shape[1])
        assert_bitwise(rows @ w, want @ w)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_long_rows_of_a_2k_wide_set(self, index_dtype):
        # 40 features plus the bias column per row, as in a 2,000-wide text set
        rng = np.random.default_rng(5)
        X = sparse.hstack([make_csr(rng, np.full(300, 0.02), 2000, index_dtype),
                           np.ones((300, 1))], format="csr")
        X.indices, X.indptr = X.indices.astype(index_dtype), X.indptr.astype(index_dtype)
        assert X.getnnz(axis=1).max() > 41
        for _ in range(20):
            idx = rng.choice(300, size=64, replace=False)
            batch, want = RowBatch.gather(X, idx), X[idx]
            w, v = spread_values(rng, 2001), spread_values(rng, 64)
            assert_bitwise(batch @ w, want @ w)
            assert_bitwise(batch.T @ v, want.T @ v)

    def test_row_entries_keep_their_order(self):
        X = sparse.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]))
        batch = RowBatch.gather(X, np.array([2, 0, 1, 2]))
        assert batch.rows.tolist() == [0, 0, 1, 1, 3, 3]
        assert batch.cols.tolist() == [0, 1, 0, 2, 0, 1]
        assert batch.vals.tolist() == [3.0, 4.0, 1.0, 2.0, 3.0, 4.0]
        assert batch.shape == (4, 3) and batch.T.shape == (3, 4)


@pytest.mark.parametrize("optimizer", list(Optimizer))
def test_training_builds_no_scipy_matrix_per_step(monkeypatch, optimizer):
    built = []
    init = _compressed._cs_matrix.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_compressed._cs_matrix, "__init__", counting_init)
    ds = synth_two_gaussians(60, 20, separation=3.0, flip_fraction=0.05, seed=2)
    counts = []
    for inner_iters in (2, 20):
        built.clear()
        train(ds, ds, TrainConfig(optimizer=optimizer, outer_iters=3, inner_iters=inner_iters,
                                  batch_size=8, alpha0=0.1, seed=4))
        counts.append(len(built))
    # the matrices of a run are built once or once per outer round
    assert counts[0] == counts[1] > 0
