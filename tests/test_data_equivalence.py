"""The array-native data path against scalar reference copies of the
per-sample code it replaced: the set-filter minibatch sampler and the
line-by-line LIBSVM parser and writer. The references live here, so a change
to the data path that alters a batch stream, an accepted dataset, a rejection
message or a written file fails these tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from awwsvm import data
from awwsvm.data import Dataset, MinibatchSampler, ParseError, Sample, parse_libsvm, to_libsvm


class SetFilterSampler:
    """Reference: the queue is a Python list filtered through a set."""

    def __init__(self, batch_size: int, seed: int):
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)
        self._queue: list[int] = []

    def next_batch(self, active) -> np.ndarray:
        active_arr = np.asarray(active, dtype=np.int64)
        allowed = set(active_arr.tolist())
        self._queue = [i for i in self._queue if i in allowed]
        if not self._queue:
            self._queue = self._rng.permutation(active_arr).tolist()
        batch, self._queue = self._queue[: self.batch_size], self._queue[self.batch_size:]
        return np.asarray(batch, dtype=np.int64)


def scalar_parse(text: str) -> tuple[list[Sample], dict[int, int]]:
    """Reference: one token at a time with int() and float()."""
    raw_rows, observed = [], []
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
        feats, prev = [], 0
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
    obs = sorted(observed)
    label_map = {obs[0]: 1 if obs[0] > 0 else -1} if len(obs) == 1 else {obs[0]: -1, obs[1]: 1}
    return [Sample(features=f, label=label_map[lab]) for lab, f in raw_rows], label_map


def scalar_to_libsvm(samples: list[Sample]) -> str:
    """Reference: one f-string per feature of each sample."""
    lines = []
    for s in samples:
        parts = ["+1" if s.label == 1 else "-1"]
        parts.extend(f"{idx}:{val!r}" for idx, val in s.features)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def scalar_to_matrix(samples: list[Sample], dim: int, augment: bool) -> sparse.csr_matrix:
    """Reference: the CSR arrays appended to one feature at a time."""
    data, indices, indptr = [], [], [0]
    for s in samples:
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
        shape=(len(samples), dim + 1 if augment else dim))


def assert_same_csr(got: sparse.csr_matrix, want: sparse.csr_matrix) -> None:
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    # bitwise, so -0.0 and 0.0 differ
    np.testing.assert_array_equal(got.data.view(np.int64), want.data.view(np.int64))


def assert_same_dataset(ds: Dataset, ref: Dataset) -> None:
    assert_same_csr(ds.X, ref.X)
    np.testing.assert_array_equal(ds.y, ref.y)
    assert ds.label_map == ref.label_map


def assert_parses_like_reference(text: str) -> None:
    try:
        samples, label_map = scalar_parse(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_libsvm(text)
        assert str(got.value) == str(exc)
        return
    assert_same_dataset(parse_libsvm(text), Dataset.from_samples(samples, label_map=label_map))


def shrink_schedule(n: int, steps: int, shrinks: dict[int, float], seed: int):
    """Per step, the active set before that step's batch: each step in
    ``shrinks`` drops that fraction of the active set, at random, mid-epoch."""
    rng = np.random.default_rng(seed)
    active = np.arange(n)
    for step in range(steps):
        if step in shrinks:
            keep = max(1, round(len(active) * (1.0 - shrinks[step])))
            active = np.sort(rng.choice(active, size=keep, replace=False))
        yield active


def assert_same_stream(n, batch_size, seed, steps, shrinks, schedule_seed):
    new, ref = MinibatchSampler(n, batch_size, seed), SetFilterSampler(batch_size, seed)
    prev = np.arange(n)
    for active in shrink_schedule(n, steps, shrinks, schedule_seed):
        if len(active) < len(prev):
            new.drop(np.setdiff1d(prev, active))
        prev = active
        got, want = new.next_batch(), ref.next_batch(active)
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist()


class TestSamplerMatchesSetFilter:
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("batch_size", [1, 3, 8, 64])
    def test_same_stream_with_mid_epoch_shrinks(self, seed, batch_size):
        # drop a random fifth of the active set at steps 5, 17 and 30
        assert_same_stream(50, batch_size, seed, 60, {5: 0.2, 17: 0.2, 30: 0.2}, seed + 1000)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 80), st.integers(1, 20), st.integers(0, 2**32 - 1),
           st.dictionaries(st.integers(0, 39), st.floats(0.0, 0.9), max_size=5),
           st.integers(0, 2**32 - 1))
    def test_same_stream_on_random_shrink_schedules(self, n, batch_size, seed, shrinks,
                                                     schedule_seed):
        assert_same_stream(n, batch_size, seed, 40, shrinks, schedule_seed)


class TestParserMatchesScalarReference:
    @pytest.mark.parametrize("bad", [
        "+1 1:2:3 4", "+1 1:", "+1 :1", "+1 1::2", "+1 1:0x10", "+1 1.0:1",
        "+1 2:1 2:1", "1:2 3", "+1 0:nan", "+1 1:1e400", "5 1:1", "+1 1:1 x",
        "+1 1\t:2", "+1 1\x1f:2", "+1 1\xa0:2",
    ])
    def test_rejection_message_and_line(self, bad):
        text = f"-1 1:1\n# comment\n{bad}\n+1 2:1\n"
        with pytest.raises(ParseError, match="^line 3: "):
            parse_libsvm(text)
        assert_parses_like_reference(text)

    @pytest.mark.parametrize("text", [
        "+1 1:1_0\n-1 2:3",
        "+1\n-1 1:1",
        "0 1:1\n1 2:2",
        "1 1:1\n2 3:1 7:0",
        "# header\n\n+1 1:1.0  # trailing\n\n-1\t1:-1.0 3:-0.0\n",
        "-1 1:0 2:1e-400\n-1 3000000000:2",
        "1.0 ١:٣ 2:+.5e1\n-0 4:1",
    ])
    def test_accepted_input_matches(self, text):
        assert_parses_like_reference(text)

    def test_errors_in_a_later_block_name_their_line(self):
        good = "+1 1:1 2:0.5\n" * 4500
        assert_parses_like_reference(good + "-1 1:1\n0 1:1\n")
        assert_parses_like_reference(good + "-1 1:x\n")
        assert_parses_like_reference(good + "-1 3:1\n" * 5000)

    def test_index_beyond_int64_is_parse_error(self):
        # the scalar parser accepted it; no matrix can hold such a column
        with pytest.raises(ParseError, match="^line 2: feature index 9223372036854775808 exceeds"):
            parse_libsvm("+1 1:1\n-1 9223372036854775808:1")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(
        st.just(""), st.just("# note"),
        st.builds(lambda lab, feats, sep, tail: sep.join([lab, *feats]) + tail,
                  st.sampled_from(["+1", "-1", "0", "1", "2", "1.0", "-0", "3", "x", "nan"]),
                  st.lists(st.builds(lambda i, c, v: f"{i}{c}{v}",
                                     st.sampled_from(["1", "2", "3", "07", "1_0", "0", "-2", "",
                                                      "x", "1.0", "3000000000"]),
                                     st.sampled_from([":", ":", ":", "::", ""]),
                                     st.sampled_from(["1", "-2.5", "1e3", "0.0", "-0.0", "1_5",
                                                      "", "nan", "inf", "0x1", ":"])),
                           max_size=4),
                  st.sampled_from([" ", "\t", "  "]),
                  st.sampled_from(["", " ", " # c", "#x:y"]))),
        max_size=8))
    def test_fuzzed_text_matches(self, lines):
        assert_parses_like_reference("\n".join(lines))


def c_reader_only(monkeypatch: pytest.MonkeyPatch) -> None:
    """Fail if any block leaves numpy's C text reader for the scalar parse."""
    def refuse(lines, first_lineno, observed):
        raise AssertionError(f"block at line {first_lineno} took the scalar parse")
    monkeypatch.setattr(data, "_parse_lines", refuse)


# finite doubles as text: repr (shortest round-trip, incl. -0.0, subnormals
# and exponent forms), and fixed-precision formats of values that cannot
# round up to inf
value_texts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-2.3e-308, 2.3e-308).map(repr),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308]).map(repr),
    st.builds(format, st.floats(-1e300, 1e300),
              st.sampled_from([".17e", ".3E", ".6g", ".20g", "+.12e", ".0f"])),
)


@st.composite
def numeric_texts(draw):
    """Well-formed LIBSVM text: indices up to 10**18, written plain, signed
    or zero-padded, values from ``value_texts``, and any ASCII whitespace
    between tokens."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        feats = [draw(st.sampled_from(["{}", "+{}", "00{}"])).format(i) + ":" + draw(value_texts)
                 for i in sorted(draw(st.sets(st.integers(1, 10**18), max_size=5)))]
        sep = draw(st.sampled_from([" ", "\t", "\x1f", "  ", " \t"]))
        lines.append(sep.join([draw(st.sampled_from(["+1", "-1", "1.0"])), *feats]))
    return "\n".join(lines)


SEPARATORS = [" ", "\t", "\x1f", "\xa0", "\u3000", "\t "]


class TestCReaderPath:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(numeric_texts())
    def test_numbers_get_the_reference_bits(self, text):
        with pytest.MonkeyPatch.context() as mp:
            c_reader_only(mp)
            assert_parses_like_reference(text)

    def test_refused_tokens_in_a_later_block_parse_like_reference(self):
        # int() and float() accept 1_0, 1_5 and Arabic-Indic digits; the C
        # reader refuses them, so the second block takes the scalar parse
        good = "+1 1:1 2:0.5\n" * 4500
        text = good + "-1 1_0:2 11:1_5\n+1 \u0661:\u0663 12:1\n"
        assert_parses_like_reference(text)
        assert parse_libsvm(text).X[4500:].toarray()[:, [0, 9, 10, 11]].tolist() == [
            [0.0, 2.0, 15.0, 0.0], [3.0, 0.0, 0.0, 1.0]]

    def test_scalar_parse_alone_gives_the_same_dataset(self, monkeypatch):
        text = "".join(f"{'+1' if i % 3 else '-1'} {i % 7 + 1}:{i / 7!r} 9:-0.0 {10 + i}:1e-320\n"
                       for i in range(9000))
        with pytest.MonkeyPatch.context() as mp:
            c_reader_only(mp)
            want = parse_libsvm(text)
        # as on a numpy whose C reader parses an int64 field through float64
        monkeypatch.setattr(data, "_C_READER", False)
        assert_same_dataset(parse_libsvm(text), want)

    # the block text breaks lines at ASCII whitespace; text holding any other
    # character (Unicode spaces, a BOM, Arabic-Indic digits) takes the scalar parse
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.tuples(
        st.sampled_from(SEPARATORS),
        st.builds(lambda i, a, b, v: f"{i}{a}:{b}{v}",
                  st.sampled_from(["1", "2", "3", "\ufeff4", "\u0665"]),
                  st.sampled_from(["", *SEPARATORS]), st.sampled_from(["", *SEPARATORS]),
                  st.sampled_from(["1", "0.5", "\u0663"]))),
        max_size=4), min_size=1, max_size=4))
    def test_separators_split_like_str_split(self, lines):
        assert_parses_like_reference("\n".join("+1" + "".join(sep + feat for sep, feat in line)
                                                for line in lines))

    def test_label_only_blocks_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = parse_libsvm("+1\n-1\n" * 3000)
        assert len(ds) == 6000 and ds.X.nnz == 0 and ds.dim == 0


@st.composite
def datasets(draw):
    rows = draw(st.lists(st.tuples(
        st.sets(st.integers(1, 40), max_size=6),
        st.sampled_from([-1, 1])), min_size=1, max_size=25))
    samples = []
    for idxs, label in rows:
        vals = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=len(idxs), max_size=len(idxs)))
        samples.append(Sample(features=tuple(zip(sorted(idxs), vals)), label=label))
    return Dataset.from_samples(samples)


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(datasets())
    def test_parse_of_to_libsvm_is_identity(self, ds):
        text = to_libsvm(ds)
        assert text == scalar_to_libsvm(ds.samples)
        again = parse_libsvm(text)
        # a file holding one label maps only that label
        observed = {int(v): int(v) for v in np.unique(ds.y)}
        assert_same_dataset(again, Dataset(X=ds.X, y=ds.y, label_map=observed))
        assert again.samples == ds.samples

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(datasets(), st.sampled_from([None, 0, 5, 60]), st.booleans())
    def test_to_matrix_matches_reference(self, ds, dim, augment):
        want = scalar_to_matrix(ds.samples, ds.dim if dim is None else dim, augment)
        assert_same_csr(ds.to_matrix(dim=dim, augment=augment), want)
