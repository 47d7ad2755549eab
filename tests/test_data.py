import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fxam.data import (
    Dataset,
    build_homogeneous_encoding,
    compress_time_points,
    factorize,
    partition_phases,
)


def _dataset(categorical, n=None):
    n = n or len(next(iter(categorical.values())))
    return Dataset(response=np.zeros(n), categorical=categorical)


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            Dataset(response=np.zeros(3), numerical={"x": np.zeros(2)})

    def test_non_finite_numerical(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(response=np.zeros(2),
                    numerical={"x": np.array([1.0, np.nan])})

    def test_duplicate_names_across_kinds(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset(
                response=np.zeros(2),
                numerical={"x": np.zeros(2)},
                categorical={"x": np.array(["a", "b"])},
            )

    def test_temporal_must_be_integer(self):
        with pytest.raises(ValueError, match="integers"):
            Dataset(response=np.zeros(2),
                    temporal={"t": np.array([0.5, 1.0])})

    @pytest.mark.parametrize("times", [
        [2.0, 2.0 ** 63],
        [2.0, 1e300],
        [2, 2 ** 63],  # numpy makes this a uint64 column
        np.array([2, 2 ** 64 - 1], dtype=np.uint64),
    ])
    def test_temporal_beyond_int64_rejected(self, times):
        # a cast would make these -2**63 silently
        with pytest.raises(ValueError, match=(
            r"column 't': (record 1: )?time outside the int64 range"
        )):
            Dataset(response=np.zeros(2), temporal={"t": times})

    def test_temporal_int64_extremes_accepted(self):
        ds = Dataset(response=np.zeros(2),
                     temporal={"t": [-2.0 ** 63, 2.0 ** 62]})
        assert ds.temporal["t"].tolist() == [-2 ** 63, 2 ** 62]

    def test_caller_dicts_left_unchanged(self):
        numerical = {"x": [1.0, 2.0, 3.0]}
        categorical = {"c": ["a", "b", "a"]}
        temporal = {"t": [0.0, 1.0, 2.0]}
        dataset = Dataset(response=[0.0, 1.0, 2.0], numerical=numerical,
                          categorical=categorical, temporal=temporal)
        assert numerical == {"x": [1.0, 2.0, 3.0]}
        assert categorical == {"c": ["a", "b", "a"]}
        assert temporal == {"t": [0.0, 1.0, 2.0]}
        assert isinstance(dataset.numerical["x"], np.ndarray)
        assert dataset.temporal["t"].dtype == np.int64

    def test_empty_response_rejected(self):
        with pytest.raises(ValueError):
            Dataset(response=np.zeros(0))

    @pytest.mark.parametrize("labels, record", [
        (["a", "b\x00"], 1),               # trailing, numpy would drop it
        (["a\x00b", "c"], 0),
        (np.array(["a", "b", "c\x00d"]), 2),  # embedded survives in <U3
        (np.array(["\x00", "b"], dtype=object), 0),
    ])
    def test_nul_label_rejected(self, labels, record):
        with pytest.raises(ValueError,
                           match=f"column 'c': record {record}: .*NUL"):
            Dataset(response=np.zeros(len(labels)),
                    categorical={"c": labels})

    def test_labels_without_nul_accepted(self):
        wide = np.array(["a", "bcd"], dtype="<U8")
        dataset = Dataset(response=np.zeros(2), categorical={"c": wide})
        assert dataset.categorical["c"].tolist() == ["a", "bcd"]

    @pytest.mark.parametrize("kind", ["numerical", "temporal"])
    def test_non_numeric_value_names_column_and_record(self, kind):
        with pytest.raises(ValueError,
                           match="column 'x': record 1: 'abc' is not a"):
            Dataset(response=np.zeros(3), **{kind: {"x": ["2", "abc", "x"]}})

    def test_separator_in_categorical_name_rejected(self):
        # feature "a" with value "b=c" and feature "a=b" with value "c"
        # would both be labelled "a=b=c" and share one weight
        with pytest.raises(ValueError, match="column 'a=b': .*'='"):
            Dataset(response=np.zeros(2),
                    categorical={"a": ["b=c", "q"], "a=b": ["c", "r"]})

    def test_separator_in_categorical_value_accepted(self):
        dataset = Dataset(response=np.zeros(2),
                          categorical={"a": ["b=c", "q"]})
        labels = build_homogeneous_encoding(dataset).labels
        assert labels == ("a=b=c", "a=q")


class TestHomogeneousEncoding:
    def test_two_features_disjoint_indices(self):
        ds = _dataset({
            "z1": np.array(["a", "b"]),
            "z2": np.array(["x", "x"]),
        })
        enc = build_homogeneous_encoding(ds)
        assert enc.cardinality == 3
        assert enc.labels == ("z1=a", "z1=b", "z2=x")
        assert enc.row_indices.tolist() == [[0, 2], [1, 2]]

    def test_no_categorical_features(self):
        ds = Dataset(response=np.zeros(3))
        enc = build_homogeneous_encoding(ds)
        assert enc.cardinality == 0
        assert enc.row_indices.shape == (3, 0)

    def test_single_value_feature(self):
        ds = _dataset({"z": np.array(["a", "a", "a"])})
        enc = build_homogeneous_encoding(ds)
        assert enc.cardinality == 1
        assert enc.row_indices.tolist() == [[0], [0], [0]]

    def test_first_appearance_order(self):
        ds = _dataset({"z": np.array(["m", "a", "z", "a"])})
        enc = build_homogeneous_encoding(ds)
        assert enc.labels == ("z=m", "z=a", "z=z")
        assert enc.row_indices[:, 0].tolist() == [0, 1, 2, 1]

    def test_q_hot_property(self):
        # every record activates exactly one index per feature
        rng = np.random.default_rng(5)
        ds = _dataset({
            f"z{j}": rng.choice(list("abcdef"), 40) for j in range(4)
        })
        enc = build_homogeneous_encoding(ds)
        assert enc.row_indices.shape == (40, 4)
        hot = np.zeros((40, enc.cardinality))
        np.add.at(hot, (np.arange(40)[:, None], enc.row_indices), 1)
        assert np.all(hot.sum(axis=1) == 4)
        assert np.all(hot <= 1)

    def test_mixed_type_column_keyed_by_str(self):
        ds = _dataset({"c": np.array(["a", 1, None, "1"], dtype=object)})
        enc = build_homogeneous_encoding(ds)
        assert enc.labels == ("c=a", "c=1", "c=None")
        assert enc.row_indices[:, 0].tolist() == [0, 1, 2, 1]


def sorting_factorize(column):
    """The encoding's former algorithm: ``np.unique`` sorts the values,
    which are then re-ranked by first appearance."""
    uniq, first_pos, inverse = np.unique(
        column, return_index=True, return_inverse=True
    )
    appearance = np.argsort(first_pos, kind="stable")
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[appearance] = np.arange(uniq.size)
    return [str(v) for v in uniq[appearance]], rank[inverse]


def assert_factorize_matches_oracle(column):
    values, codes = factorize(column)
    oracle_values, oracle_codes = sorting_factorize(column)
    assert values.tolist() == oracle_values
    assert codes.dtype == np.int64
    np.testing.assert_array_equal(codes, oracle_codes)


# ASCII, two- and three-byte and non-BMP code points, and any other
# character but NUL, which a Dataset rejects
LABEL_CHARS = st.one_of(
    st.sampled_from("ab\u00e9\u4e2d\U0001f600"),
    st.characters(exclude_characters="\x00"),
)


class TestFactorize:
    @settings(max_examples=300, deadline=None)
    @given(
        pool=st.lists(st.text(LABEL_CHARS, max_size=45), min_size=1,
                      max_size=8, unique=True),
        picks=st.lists(st.integers(0, 7), min_size=1, max_size=60),
    )
    # "" alone, and 21-bit labels long enough for several rank steps
    @example(pool=[""], picks=[0, 0])
    @example(pool=["\U0001f600" * 45, "\U0001f600" * 44 + "a", ""],
             picks=[1, 0, 2, 0, 1])
    def test_matches_sorting_oracle(self, pool, picks):
        column = np.array([pool[i % len(pool)] for i in picks])
        assert_factorize_matches_oracle(column)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40),
        st.lists(st.booleans(), min_size=1, max_size=40),
    ))
    def test_int_and_bool_columns_match_sorting_oracle(self, values):
        assert_factorize_matches_oracle(np.array(values))

    def test_empty_column(self):
        values, codes = factorize(np.array([], dtype=str))
        assert values.size == 0 and codes.size == 0


class TestCompressTimePoints:
    def test_duplicates_averaged(self):
        series = compress_time_points([1, 1, 2], [3.0, 5.0, 7.0])
        assert series.times.tolist() == [1, 2]
        assert series.values.tolist() == [4.0, 7.0]
        assert series.weights.tolist() == [2, 1]

    def test_distinct_times_identity(self):
        series = compress_time_points([3, 1, 2], [30.0, 10.0, 20.0])
        assert series.times.tolist() == [1, 2, 3]
        assert series.values.tolist() == [10.0, 20.0, 30.0]
        assert np.all(series.weights == 1)

    def test_all_same_time(self):
        series = compress_time_points([5, 5, 5], [1.0, 2.0, 3.0])
        assert series.times.tolist() == [5]
        assert series.values.tolist() == [2.0]
        assert series.weights.tolist() == [3]

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty series"):
            compress_time_points([], [])

    def test_times_refused_like_a_dataset_column(self):
        with pytest.raises(ValueError, match="column 'day': record 1"):
            compress_time_points([1.0, 1e300], [0.0, 0.0], "day")

    def test_times_that_share_a_float64_knot_rejected(self):
        times = [2 ** 53, 2 ** 53 + 1, 2 ** 53 + 2]
        with pytest.raises(ValueError, match=(
            r"column 'day': times 9007199254740992 and 9007199254740993 "
            "are the same float64 number"
        )):
            compress_time_points(times, np.zeros(3), "day")

    def test_back_map_and_weighted_sum(self):
        rng = np.random.default_rng(2)
        times = rng.integers(0, 20, 200)
        values = rng.normal(0, 1, 200)
        series = compress_time_points(times, values)
        assert np.all(np.diff(series.times) > 0)
        assert series.weights.sum() == 200
        # compression preserves the weighted sum
        assert np.isclose(
            float(series.values @ series.weights), float(values.sum())
        )
        # back_map points each record at its own time
        assert np.all(series.times[series.back_map] == times)


class TestPartitionPhases:
    def test_direct_modulus(self):
        series = compress_time_points(np.arange(6), np.zeros(6))
        part = partition_phases(series, tau=1, period=3)
        sets = [series.times[idx].tolist() for idx in part.phase_sets]
        assert sets == [[0, 3], [1, 4], [2, 5]]

    def test_tau_scaling(self):
        series = compress_time_points([0, 2, 4], np.zeros(3))
        part = partition_phases(series, tau=2, period=2)
        sets = [series.times[idx].tolist() for idx in part.phase_sets]
        assert sets == [[0, 4], [2]]

    def test_missing_time_leaves_empty_phase(self):
        series = compress_time_points([0, 1, 3], np.zeros(3))
        part = partition_phases(series, tau=1, period=4)
        sets = [series.times[idx].tolist() for idx in part.phase_sets]
        assert sets == [[0], [1], [], [3]]

    def test_rejects_degenerate_period(self):
        series = compress_time_points([0, 1], np.zeros(2))
        with pytest.raises(ValueError, match="period"):
            partition_phases(series, tau=1, period=1)

    def test_rejects_non_divisible_times(self):
        series = compress_time_points([0, 3], np.zeros(2))
        with pytest.raises(ValueError, match="divisible"):
            partition_phases(series, tau=2, period=2)

    def test_partition_property(self):
        # phase sets are disjoint and cover every compressed point
        rng = np.random.default_rng(7)
        for _ in range(20):
            times = np.unique(rng.integers(0, 50, 30)) * 3
            series = compress_time_points(times, np.zeros(times.size))
            period = int(rng.integers(2, 9))
            part = partition_phases(series, tau=3, period=period)
            merged = np.concatenate(
                [idx for idx in part.phase_sets if idx.size]
            )
            assert np.array_equal(
                np.sort(merged), np.arange(series.n_points)
            )
            for phi, idx in enumerate(part.phase_sets):
                assert np.all(
                    (series.times[idx] // 3) % period == phi
                )
