import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from awwsvm.data import (Dataset, MinibatchSampler, ParseError, Sample, parse_libsvm, split,
                         synth_two_gaussians, to_libsvm)


class TestParse:
    def test_basic(self):
        ds = parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0")
        assert len(ds) == 2
        assert ds.dim == 3
        assert (ds.n_pos, ds.n_neg) == (1, 1)
        assert ds.samples[0].features == ((1, 0.5), (3, 2.0))

    def test_empty_input_is_error(self):
        with pytest.raises(ParseError, match="empty"):
            parse_libsvm("")

    def test_non_ascending_index_is_error(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("1 3:1 2:1")

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n+1 1:1.0  # trailing\n\n-1 1:-1.0\n"
        ds = parse_libsvm(text)
        assert len(ds) == 2

    def test_bad_label_token(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("abc 1:1.0")

    def test_unsupported_label_value(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:1.0\n5 1:1.0")

    def test_bad_feature_token(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("+1 1:x")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_value_rejected(self, value):
        with pytest.raises(ParseError, match=f"line 2: non-finite feature value '2:{value}'"):
            parse_libsvm(f"+1 1:1.0\n-1 1:0.5 2:{value}")

    @pytest.mark.parametrize("label", ["nan", "inf", "1.5"])
    def test_non_integer_label_rejected(self, label):
        with pytest.raises(ParseError, match="line 1: unsupported label"):
            parse_libsvm(f"{label} 1:1.0")

    def test_index_zero_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("+1 0:1.0")

    def test_three_distinct_labels_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_libsvm("0 1:1\n1 1:1\n2 1:1")

    def test_zero_one_label_mapping(self):
        ds = parse_libsvm("0 1:1.0\n1 1:2.0")
        assert ds.label_map == {0: -1, 1: 1}
        assert ds.samples[0].label == -1
        assert ds.samples[1].label == 1

    def test_one_two_label_mapping(self):
        ds = parse_libsvm("1 1:1.0\n2 1:2.0")
        assert ds.label_map == {1: -1, 2: 1}

    def test_single_label_file(self):
        ds = parse_libsvm("-1 1:1.0\n-1 2:1.0")
        assert (ds.n_pos, ds.n_neg) == (0, 2)

    def test_feature_free_line_allowed(self):
        # real-world files carry all-zero samples as label-only lines
        ds = parse_libsvm("+1\n-1 1:1.0")
        assert ds.samples[0].features == ()


class TestRoundTrip:
    def test_parsed_dataset_round_trips(self):
        text = "+1 1:0.5 3:2.0\n-1 2:1.0\n+1 1:-3.25\n"
        ds = parse_libsvm(text)
        again = parse_libsvm(to_libsvm(ds))
        assert again.dim == ds.dim
        assert again.samples == ds.samples
        assert (again.n_pos, again.n_neg) == (ds.n_pos, ds.n_neg)

    def test_random_datasets_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            samples = []
            for _ in range(n):
                idxs = np.sort(rng.choice(np.arange(1, 15), size=rng.integers(1, 6), replace=False))
                feats = tuple((int(i), float(rng.normal())) for i in idxs)
                samples.append(Sample(features=feats, label=int(rng.choice([-1, 1]))))
            ds = Dataset.from_samples(samples)
            again = parse_libsvm(to_libsvm(ds))
            assert again.samples == ds.samples
            assert again.dim == ds.dim


class TestSplit:
    @staticmethod
    def _dataset(n_maj, n_min):
        samples = [Sample(features=((1, float(i)),), label=-1) for i in range(n_maj)]
        samples += [Sample(features=((1, float(i)),), label=1) for i in range(n_min)]
        return Dataset.from_samples(samples)

    def test_per_class_rounding(self):
        train, test = split(self._dataset(80, 20), 0.2, seed=1)
        assert test.n_neg == 16
        assert test.n_pos == 4
        assert train.n_neg == 64
        assert train.n_pos == 16

    def test_tiny_symmetric(self):
        train, test = split(self._dataset(2, 2), 0.5, seed=3)
        assert (test.n_pos, test.n_neg) == (1, 1)
        assert (train.n_pos, train.n_neg) == (1, 1)

    def test_deterministic_under_seed(self):
        ds = self._dataset(30, 10)
        a = split(ds, 0.25, seed=42)
        b = split(ds, 0.25, seed=42)
        assert a[0].samples == b[0].samples
        assert a[1].samples == b[1].samples

    def test_fraction_bounds(self):
        ds = self._dataset(4, 4)
        for frac in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split(ds, frac, seed=0)

    def test_children_inherit_dim(self):
        ds = self._dataset(10, 10)
        train, test = split(ds, 0.3, seed=0)
        assert train.dim == ds.dim == test.dim


class TestSynth:
    def test_clean_positives_on_positive_side(self):
        ds = synth_two_gaussians(50, 50, 10.0, 0.0, seed=5)
        pos_first = [s.features[0][1] for s in ds.samples if s.label == 1]
        assert all(v > 0 for v in pos_first)

    def test_imbalance(self):
        ds = synth_two_gaussians(425, 75, 3.0, 0.0, seed=0)
        assert (ds.n_pos, ds.n_neg) == (425, 75)

    def test_deterministic(self):
        a = synth_two_gaussians(30, 20, 2.0, 0.1, seed=9)
        b = synth_two_gaussians(30, 20, 2.0, 0.1, seed=9)
        assert a.samples == b.samples

    def test_flip_count(self):
        ds = synth_two_gaussians(200, 200, 3.0, 0.05, seed=1)
        clean = synth_two_gaussians(200, 200, 3.0, 0.0, seed=1)
        n_diff = sum(a.label != b.label for a, b in zip(ds.samples, clean.samples))
        assert n_diff == 20

    def test_bad_params(self):
        with pytest.raises(ValueError):
            synth_two_gaussians(0, 10, 2.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            synth_two_gaussians(10, 10, 2.0, 0.5, seed=0)


class TestMinibatchSampler:
    def test_single_batch_when_batch_covers_active(self):
        s = MinibatchSampler(4, batch_size=10, seed=0)
        batch = s.next_batch()
        assert sorted(batch.tolist()) == [0, 1, 2, 3]

    def test_epoch_partition_sizes(self):
        s = MinibatchSampler(10, batch_size=4, seed=0)
        sizes = [len(s.next_batch()) for _ in range(3)]
        assert sizes == [4, 4, 2]

    def test_epoch_is_permutation(self):
        for seed in range(5):
            s = MinibatchSampler(11, batch_size=3, seed=seed)
            seen = np.concatenate([s.next_batch() for _ in range(4)])
            assert sorted(seen.tolist()) == list(range(11))

    def test_same_seed_same_stream(self):
        a = MinibatchSampler(17, batch_size=4, seed=123)
        b = MinibatchSampler(17, batch_size=4, seed=123)
        for _ in range(12):
            assert a.next_batch().tolist() == b.next_batch().tolist()

    def test_drop_filters_queue(self):
        s = MinibatchSampler(9, batch_size=3, seed=0)
        s.next_batch()
        s.drop(np.arange(4, 9))  # mid-epoch
        for _ in range(6):
            batch = s.next_batch()
            assert set(batch.tolist()) <= set(range(4))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sets(st.integers(0, 500), min_size=1, max_size=60), st.integers(1, 70),
           st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_each_epoch_serves_every_active_index_once(self, active, batch_size, seed, epochs):
        s = MinibatchSampler(501, batch_size=batch_size, seed=seed)
        active = np.array(sorted(active))
        s.drop(np.setdiff1d(np.arange(501), active))
        per_epoch = -(-len(active) // batch_size)
        for _ in range(epochs):
            served = np.concatenate([s.next_batch() for _ in range(per_epoch)])
            assert sorted(served.tolist()) == active.tolist()

    @pytest.mark.parametrize("n, batch_size", [(0, 2), (-1, 2), (5, 0)])
    def test_bad_size_is_error(self, n, batch_size):
        with pytest.raises(ValueError):
            MinibatchSampler(n, batch_size=batch_size, seed=0)

    @pytest.mark.parametrize("idx", [[-1], [0, 3]])
    def test_drop_outside_range_is_error(self, idx):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            MinibatchSampler(3, batch_size=2, seed=0).drop(np.array(idx))

    def test_drop_of_every_index_is_error(self):
        s = MinibatchSampler(3, batch_size=2, seed=0)
        s.drop([1])
        with pytest.raises(ValueError, match="no active index"):
            s.drop([0, 2])
