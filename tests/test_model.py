import re

import numpy as np
import pytest

from awwsvm.data import Sample
from awwsvm.model import (DegenerateModelError, LinearModel, decide, load_model,
                          margin, raw_score, save_model, signed_distance, sparse_dot)


def _sample(values, label=1):
    return Sample(features=tuple((i + 1, float(v)) for i, v in enumerate(values) if v != 0.0),
                  label=label)


class TestDecide:
    def test_positive_side(self):
        m = LinearModel(w=np.array([3.0, 4.0]), b=0.0)
        assert decide(m, _sample([1.0, 1.0])) == 1

    def test_negative_side(self):
        m = LinearModel(w=np.array([1.0, 0.0]), b=-2.0)
        assert decide(m, _sample([1.0, 0.0])) == -1

    def test_boundary_maps_to_positive(self):
        m = LinearModel(w=np.array([1.0, 0.0]), b=-1.0)
        assert decide(m, _sample([1.0, 0.0])) == 1

    def test_agrees_with_distance_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = LinearModel(w=rng.normal(size=4), b=float(rng.normal()))
            x = _sample(rng.normal(size=4))
            assert (decide(m, x) == 1) == (signed_distance(m, x) >= 0)


class TestSignedDistance:
    def test_hand_value(self):
        m = LinearModel(w=np.array([3.0, 4.0]), b=0.0)
        assert signed_distance(m, _sample([1.0, 1.0])) == pytest.approx(1.4)

    def test_on_hyperplane(self):
        m = LinearModel(w=np.array([1.0, 1.0]), b=-2.0)
        assert signed_distance(m, _sample([1.0, 1.0])) == 0.0

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = rng.normal(size=3)
            b = float(rng.normal())
            c = float(rng.uniform(0.1, 10.0))
            x = _sample(rng.normal(size=3))
            d1 = signed_distance(LinearModel(w=w, b=b), x)
            d2 = signed_distance(LinearModel(w=c * w, b=c * b), x)
            assert d2 == pytest.approx(d1, rel=1e-12)
            assert decide(LinearModel(w=w, b=b), x) == decide(LinearModel(w=c * w, b=c * b), x)

    def test_zero_weight_vector_is_error(self):
        m = LinearModel(w=np.zeros(2), b=1.0)
        with pytest.raises(DegenerateModelError):
            signed_distance(m, _sample([1.0, 1.0]))


class TestMargin:
    def test_hand_value(self):
        m = LinearModel(w=np.array([1.0, 0.0]), b=0.0)
        assert margin(m, _sample([2.0, 0.0]), 1) == pytest.approx(2.0)

    def test_antisymmetric_in_label(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = LinearModel(w=rng.normal(size=3), b=float(rng.normal()))
            x = _sample(rng.normal(size=3))
            assert margin(m, x, 1) == pytest.approx(-margin(m, x, -1))

    def test_zero_model(self):
        m = LinearModel(w=np.zeros(2), b=0.0)
        assert margin(m, _sample([5.0, -3.0]), 1) == 0.0


class TestSparseDot:
    def test_skips_unseen_indices(self):
        w = np.array([1.0, 2.0])
        feats = ((1, 1.0), (2, 1.0), (7, 100.0))
        assert sparse_dot(feats, w) == 3.0

    def test_raw_score_includes_bias(self):
        m = LinearModel(w=np.array([1.0]), b=0.5)
        assert raw_score(m, _sample([2.0])) == 2.5


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
    ])
    def test_rejects_bad_value_naming_line(self, tmp_path, edit, line, bad):
        path = tmp_path / "m.txt"
        save_model(LinearModel(w=np.array([0.1, -0.2]), b=0.5), str(path))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: .*{re.escape(bad)}$"):
            load_model(str(path))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_model(str(path))
