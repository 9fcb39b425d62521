import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from awwsvm.data import Dataset
from awwsvm.model import LinearModel, decision_values, load_model, predict, save_model


def _dataset(rows, dim=None):
    """A Dataset from dense rows (zeros are not stored); labels are all +1."""
    X = sparse.csr_matrix(np.asarray(rows, dtype=np.float64))
    if dim is not None:
        X = sparse.csr_matrix((X.data, X.indices, X.indptr), shape=(X.shape[0], dim))
    return Dataset(X, np.ones(X.shape[0], dtype=np.int64))


class TestPredict:
    def test_positive_side(self):
        m = LinearModel(w=np.array([3.0, 4.0]), b=0.0)
        assert predict(m, np.array([[1.0, 1.0]])).tolist() == [1]

    def test_negative_side(self):
        m = LinearModel(w=np.array([1.0, 0.0]), b=-2.0)
        assert predict(m, np.array([[1.0, 0.0]])).tolist() == [-1]

    def test_score_of_exactly_zero_maps_to_positive(self):
        m = LinearModel(w=np.array([1.0, 0.0]), b=-1.0)
        X = sparse.csr_matrix([[1.0, 0.0], [0.0, 5.0], [1.0, 3.0], [0.5, 0.0]])
        np.testing.assert_array_equal(decision_values(m, X), [0.0, -1.0, 0.0, -0.5])
        assert predict(m, X).tolist() == [1, -1, 1, -1]

    def test_agrees_with_decision_value_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = LinearModel(w=rng.normal(size=4), b=float(rng.normal()))
            X = rng.normal(size=(6, 4))
            np.testing.assert_array_equal(predict(m, X) == 1, decision_values(m, X) >= 0)


class TestDecisionValues:
    def test_includes_bias(self):
        m = LinearModel(w=np.array([1.0]), b=0.5)
        assert decision_values(m, sparse.csr_matrix([[2.0]])).tolist() == [2.5]

    def test_distance_hand_value(self):
        m = LinearModel(w=np.array([3.0, 4.0]), b=0.0)
        dist = decision_values(m, np.array([[1.0, 1.0]])) / np.linalg.norm(m.w)
        assert dist[0] == pytest.approx(1.4)

    def test_features_beyond_model_dim_are_dropped(self):
        m = LinearModel(w=np.array([1.0, 2.0]), b=0.0)
        ds = _dataset([[1.0, 1.0, 0, 0, 0, 0, 100.0]])
        assert decision_values(m, ds.to_matrix(dim=m.dim)).tolist() == [3.0]

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w, b = rng.normal(size=3), float(rng.normal())
            c = float(rng.uniform(0.1, 10.0))
            X = sparse.csr_matrix(rng.normal(size=(5, 3)))
            m1, m2 = LinearModel(w=w, b=b), LinearModel(w=c * w, b=c * b)
            d1 = decision_values(m1, X) / np.linalg.norm(m1.w)
            d2 = decision_values(m2, X) / np.linalg.norm(m2.w)
            np.testing.assert_allclose(d2, d1, rtol=1e-12)
            np.testing.assert_array_equal(predict(m2, X), predict(m1, X))


@st.composite
def datasets_and_weights(draw):
    """(Dataset, k, w): a CSR dataset with empty and full rows and values over
    16 decades, an evaluation dimension k below, at or above its own, and an
    augmented weight vector of length k + 1."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(0, 12))
    k = draw(st.integers(0, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, d)) < rng.choice([0.0, 0.3, 1.0], size=(n, 1))
    vals = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, d))
    X = sparse.csr_matrix(np.where(mask, vals, 0.0), shape=(n, d))
    w = rng.normal(size=k + 1) * 10.0 ** rng.integers(-8, 9, size=k + 1)
    return Dataset(X, np.ones(n, dtype=np.int64)), k, w


class TestMatrixPathProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(datasets_and_weights())
    def test_scores_equal_augmented_product_bitwise(self, case):
        ds, k, w = case
        got = decision_values(LinearModel.from_augmented(w), ds.to_matrix(dim=k))
        want = ds.to_matrix(dim=k, augment=True) @ w
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSerialization:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        m = LinearModel(w=rng.normal(size=13), b=float(rng.normal()),
                        label_map={0: -1, 1: 1})
        path = tmp_path / "model.txt"
        save_model(m, str(path))
        loaded = load_model(str(path))
        assert loaded.b == m.b
        assert loaded.label_map == m.label_map
        np.testing.assert_array_equal(loaded.w, m.w)

    def test_round_trip_without_label_map(self, tmp_path):
        m = LinearModel(w=np.array([0.1, -0.2]), b=0.0, label_map=None)
        path = tmp_path / "m.txt"
        save_model(m, str(path))
        assert load_model(str(path)).label_map is None

    @pytest.mark.parametrize("edit, line, bad", [
        (lambda ls: ls[:4] + ["b inf"] + ls[5:] + ["nan", "trailing"], 5, "'inf'"),
        (lambda ls: ls[:4] + ["b nan"] + ls[5:], 5, "'nan'"),
        (lambda ls: ls[:6] + ["nan"] + ls[7:], 7, "'nan'"),
        (lambda ls: ls[:5] + ["-inf"] + ls[6:], 6, "'-inf'"),
        (lambda ls: ls[:6] + ["0.x"], 7, "'0.x'"),
        (lambda ls: ls + ["", "trailing"], 9, "after the 2 weights: 'trailing'"),
        (lambda ls: ls[:1], 2, "found end of file"),
        (lambda ls: ls[:1] + ["dim x"] + ls[2:], 2, "'x'"),
        (lambda ls: ls[:1] + ["dim -1"] + ls[2:], 2, "'-1'"),
        (lambda ls: ls[:3] + ["labels -1:x"] + ls[4:], 4, "'-1:x'"),
        (lambda ls: ls[:4] + ["b"] + ls[5:], 5, "found 'b'"),
        (lambda ls: ls[:2] + ["bias first"] + ls[3:], 3, "unknown bias convention 'first'"),
    ])
    def test_rejects_bad_value_naming_line(self, tmp_path, edit, line, bad):
        path = tmp_path / "m.txt"
        save_model(LinearModel(w=np.array([0.1, -0.2]), b=0.5), str(path))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: .*{re.escape(bad)}$"):
            load_model(str(path))

    def test_rejects_missing_weights(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(LinearModel(w=np.array([0.1, -0.2]), b=0.5), str(path))
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected 2 weights, found 1$"):
            load_model(str(path))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_model(str(path))
