import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from awwsvm import data
from awwsvm.data import (Dataset, MinibatchSampler, ParseError, Sample, load_libsvm, parse_libsvm,
                         save_libsvm, split, synth_two_gaussians, to_libsvm)
from test_data_equivalence import assert_same_dataset


class TestParse:
    def test_basic(self):
        ds = parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0")
        assert len(ds) == 2
        assert ds.dim == 3
        assert (ds.n_pos, ds.n_neg) == (1, 1)
        row = ds.X[0]
        assert ((row.indices + 1).tolist(), row.data.tolist()) == ([1, 3], [0.5, 2.0])

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
        np.testing.assert_array_equal(ds.y, [-1, 1])

    def test_one_two_label_mapping(self):
        ds = parse_libsvm("1 1:1.0\n2 1:2.0")
        assert ds.label_map == {1: -1, 2: 1}

    def test_single_label_file(self):
        ds = parse_libsvm("-1 1:1.0\n-1 2:1.0")
        assert (ds.n_pos, ds.n_neg) == (0, 2)

    def test_feature_free_line_allowed(self):
        # real-world files carry all-zero samples as label-only lines
        ds = parse_libsvm("+1\n-1 1:1.0")
        assert ds.X[0].nnz == 0


class TestDataset:
    def test_row_count_must_match_labels(self):
        with pytest.raises(ValueError, match=r"^3 rows but labels of shape \(2,\)$"):
            Dataset(X=sparse.csr_matrix((3, 2)), y=[1, -1])

    def test_labels_must_be_plus_minus_one(self):
        with pytest.raises(ValueError, match="^labels must be -1 or \\+1$"):
            Dataset(X=sparse.csr_matrix((2, 2)), y=[1, 0])

    def test_columns_must_ascend_within_a_row(self):
        X = sparse.csr_matrix(([1.0, 2.0], [1, 0], [0, 2]), shape=(1, 2))
        with pytest.raises(ValueError,
                           match="^column indices must be strictly ascending within each row$"):
            Dataset(X=X, y=[1])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_error_naming_its_cell(self, value):
        # the first non-finite cell in row order is named, as X[row, column]
        dense = np.zeros((3, 4))
        dense[1, 2] = value
        dense[2, 0] = np.nan
        with pytest.raises(ValueError, match=rf"^X\[1, 2\] is {value}: feature values must be finite$"):
            Dataset(X=sparse.csr_matrix(dense), y=[1, -1, 1])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_value_is_error(self, value):
        samples = [Sample(features=((1, 1.0),), label=1),
                   Sample(features=((2, 0.5), (4, value)), label=-1)]
        with pytest.raises(ValueError, match=rf"^X\[1, 3\] is {value}: feature values must be finite$"):
            Dataset.from_samples(samples)
        # so no dataset writes text that parse_libsvm refuses, such as '4:nan'
        with pytest.raises(ValueError, match=r"^X\[1, 3\] is "):
            to_libsvm(Dataset.from_samples(samples))

    def test_sample_label_must_be_plus_minus_one(self):
        with pytest.raises(ValueError, match="^label must be -1 or \\+1, got 0$"):
            Sample(features=(), label=0)

    @pytest.mark.parametrize("features, message", [
        (((2, 1.0), (2, 1.0)), "got 2 after 2"),
        (((0, 1.0),), "got 0 after 0"),
    ])
    def test_sample_indices_must_ascend_from_one(self, features, message):
        with pytest.raises(ValueError,
                           match=f"^feature indices must be strictly ascending and >= 1, {message}$"):
            Sample(features=features, label=1)

    def test_from_samples_dim_below_largest_index_is_error(self):
        with pytest.raises(ValueError, match="^dim 3 smaller than max feature index 5$"):
            Dataset.from_samples([Sample(features=((5, 1.0),), label=1)], dim=3)

    def test_empty_dataset_text_is_one_newline(self):
        assert to_libsvm(Dataset(X=sparse.csr_matrix((0, 3)), y=[])) == "\n"

    def test_empty_dataset_text_does_not_parse_back(self):
        # the round trip holds for a dataset with at least one row
        with pytest.raises(ParseError, match="^empty dataset: no samples found$"):
            parse_libsvm(to_libsvm(Dataset(X=sparse.csr_matrix((0, 3)), y=[])))


class TestRoundTrip:
    def test_parsed_dataset_round_trips(self):
        text = "+1 1:0.5 3:2.0\n-1 2:1.0\n+1 1:-3.25\n"
        ds = parse_libsvm(text)
        again = parse_libsvm(to_libsvm(ds))
        assert again.dim == ds.dim
        assert_same_dataset(again, ds)
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
            # a file holding one label maps only that label
            observed = {int(v): int(v) for v in np.unique(ds.y)}
            assert_same_dataset(again, Dataset(X=ds.X, y=ds.y, label_map=observed))
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
        assert_same_dataset(a[0], b[0])
        assert_same_dataset(a[1], b[1])

    @pytest.mark.parametrize("n_neg, n_pos", [(5, 1), (1, 5)])
    def test_fewer_than_two_of_a_class_is_error(self, n_neg, n_pos):
        with pytest.raises(ValueError, match="^split requires at least 2 samples per class$"):
            split(self._dataset(n_neg, n_pos), 0.5, seed=0)

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
        # both coordinates are stored, so column 0 is each row's first feature
        pos_first = ds.X.toarray()[ds.y == 1, 0]
        assert all(v > 0 for v in pos_first)

    def test_imbalance(self):
        ds = synth_two_gaussians(425, 75, 3.0, 0.0, seed=0)
        assert (ds.n_pos, ds.n_neg) == (425, 75)

    def test_deterministic(self):
        a = synth_two_gaussians(30, 20, 2.0, 0.1, seed=9)
        b = synth_two_gaussians(30, 20, 2.0, 0.1, seed=9)
        assert_same_dataset(a, b)

    def test_flip_count(self):
        ds = synth_two_gaussians(200, 200, 3.0, 0.05, seed=1)
        clean = synth_two_gaussians(200, 200, 3.0, 0.0, seed=1)
        n_diff = np.count_nonzero(ds.y != clean.y)
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


# lines of "+1 1:1" that fill the first piece of text a file is read in
FIRST_PIECE_LINES = data._PIECE // len("+1 1:1\n") + 1


def dense_text(rows: int, feats: int) -> str:
    """LIBSVM text of ``rows`` x ``feats`` uniform(-1, 1) values, each written
    as its repr, with alternating labels."""
    rng = np.random.default_rng(0)
    return "".join(("+1" if i % 2 else "-1")
                   + "".join(f" {j}:{v!r}" for j, v in enumerate(row, start=1)) + "\n"
                   for i, row in enumerate(rng.uniform(-1, 1, (rows, feats)).tolist()))


def traced_peak(fn, *args):
    """(result, bytes still held, peak bytes) of ``fn(*args)`` under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


class TestLoad:
    @pytest.mark.parametrize("raw, message", [
        (b"+1 1:1\n-1 2:1 # caf\xe9\n", "line 2: byte 0xe9 is not UTF-8"),
        (b"+1 1:1\r-1 2:1\r\r\n\xff 1:1\r", "line 4: byte 0xff is not UTF-8"),
        # a cut two-byte sequence, in the second piece of text
        (b"+1 1:1\n" * FIRST_PIECE_LINES + b"+1 1:\xc3\n",
         f"line {FIRST_PIECE_LINES + 1}: byte 0xc3 is not UTF-8"),
        # an earlier malformed line is named first
        (b"+1 1:x\n\xff\n", "line 1: bad feature token '1:x'"),
    ], ids=["comment", "cr-breaks", "later-block", "earlier-error"])
    def test_non_utf8_byte_is_parse_error_naming_its_line(self, tmp_path, raw, message):
        path = tmp_path / "bad.libsvm"
        path.write_bytes(raw)
        with pytest.raises(ParseError) as exc:
            load_libsvm(str(path))
        assert str(exc.value) == message

    # (rows, features per row, bound on the peak over the file size). One
    # block of 4,000 long lines peaked at ~9.1x the file size with a copy of
    # the block at 4 bytes per character for numpy's reader, and at ~3.4x
    # without it; 40,000 short lines peaked at ~3.1x with the whole text read
    # first, and at ~2.1x read 4,096 lines at a time. Read a piece at a time,
    # with each parsed field joined apart, they peak at ~1.3x and ~1.7x
    @pytest.mark.parametrize("rows, feats, bound", [(4000, 40, 1.6), (40_000, 4, 2.0)])
    def test_peak_memory_stays_within_a_few_file_sizes(self, tmp_path, rows, feats, bound):
        path = tmp_path / "dense.libsvm"
        path.write_text(dense_text(rows, feats))
        size = path.stat().st_size
        ds, _, peak = traced_peak(load_libsvm, str(path))
        assert (len(ds), ds.X.nnz) == (rows, rows * feats)
        assert peak < bound * size, f"peak {peak / 1e6:.1f} MB for a {size / 1e6:.1f} MB file"

    def test_peak_on_long_lines_is_bounded_by_the_piece(self, tmp_path):
        # 100 lines of 2,000 features (4.8 MB): a block of 4,096 lines held
        # all of them and peaked ~57 MB above the dataset it returns. Pieces
        # bound what the parse holds; the rest is the parsed arrays, held
        # twice while one field's blocks are joined
        path = tmp_path / "long.libsvm"
        path.write_text(dense_text(100, 2000))
        ds, current, peak = traced_peak(load_libsvm, str(path))
        assert ds.X.nnz == 200_000
        assert peak - 2 * current < 4 * data._PIECE, (
            f"peak {peak / 1e6:.2f} MB, dataset {current / 1e6:.2f} MB")


class TestToMatrix:
    def test_own_matrix_is_returned_without_a_copy(self):
        ds = parse_libsvm(dense_text(2000, 50))
        for kwargs in ({}, {"dim": ds.dim}):
            X, _, peak = traced_peak(lambda: ds.to_matrix(**kwargs))
            assert X is ds.X
            assert peak < 1000, f"peak {peak} B for a {ds.X.data.nbytes / 1e6:.1f} MB matrix"

    def test_augment_peaks_at_about_its_result(self):
        # the augmented arrays were copied once more when wrapped, which
        # peaked at ~2.0x the result; wrapped as built, ~1.1x
        ds = parse_libsvm(dense_text(2000, 50))
        X, _, peak = traced_peak(lambda: ds.to_matrix(augment=True))
        size = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
        assert X.shape == (2000, 51)
        assert peak < 1.25 * size, f"peak {peak / 1e6:.2f} MB, result {size / 1e6:.2f} MB"


class TestSave:
    def test_peak_is_a_small_part_of_the_file(self, tmp_path):
        # the text of 4,000 x 40 values (3.6 MB) was built in 4,096-row chunks
        # and peaked at ~4.9x the file; entry-bounded chunks peak at ~0.13x
        path = tmp_path / "out.libsvm"
        text = dense_text(4000, 40)
        ds = parse_libsvm(text)
        _, _, peak = traced_peak(save_libsvm, ds, str(path))
        size = path.stat().st_size
        assert path.read_text() == text
        assert peak < 0.5 * size, f"peak {peak / 1e6:.2f} MB for a {size / 1e6:.1f} MB file"

    def test_chunks_are_bounded_by_entries_and_hold_whole_rows(self, monkeypatch):
        # rows of 0, 1, 5 and 9 entries, each label counted as one more
        dense = np.zeros((8, 9))
        for row, k in enumerate([0, 1, 5, 9, 0, 0, 5, 1]):
            dense[row, :k] = row + 1
        ds = Dataset(X=sparse.csr_matrix(dense), y=[1, -1] * 4)
        whole = to_libsvm(ds)
        monkeypatch.setattr(data, "_WRITE_ENTRIES", 7)
        chunks = list(data._libsvm_chunks(ds))
        # entries per row: 1, 2, 6, 10, 1, 1, 6, 2. The row of 10 is a chunk
        # alone, and a row that would take a chunk past 7 starts the next
        assert [chunk.count("\n") for chunk in chunks] == [2, 1, 1, 2, 1, 1]
        assert "".join(chunks) == whole
