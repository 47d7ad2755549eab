"""Dataset container and the encodings that back the three feature kinds.

Categorical features are pooled into a single homogeneous label set and
stored as per-record index lists (a sparse q-hot encoding).  Temporal
features are compressed onto their distinct time points, with record
multiplicities kept as weights, and then partitioned into phase sets
by ``(t / tau) mod period``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Separator between a feature name and one of its values in homogeneous
# labels, e.g. "county=LA".  Suffixing makes domains of distinct features
# disjoint by construction.
LABEL_SEPARATOR = "="


@dataclass(frozen=True)
class Dataset:
    """Column-typed tabular data.

    Parameters
    ----------
    response : ndarray of shape (n,)
        Real-valued target.
    numerical : dict[str, ndarray]
        Name -> float column.  Insertion order is the declaration order.
    categorical : dict[str, ndarray]
        Name -> label column; values are keyed by their ``str`` form.
    temporal : dict[str, ndarray]
        Name -> integer time column, expressed in units of that feature's
        time step tau.
    """

    response: np.ndarray
    numerical: dict = field(default_factory=dict)
    categorical: dict = field(default_factory=dict)
    temporal: dict = field(default_factory=dict)

    def __post_init__(self):
        y = np.asarray(self.response, dtype=float)
        object.__setattr__(self, "response", y)
        if y.ndim != 1 or y.size < 1:
            raise ValueError("response must be a nonempty 1-d vector")
        if not np.all(np.isfinite(y)):
            raise ValueError("response contains non-finite values")
        n = y.size

        names = (
            list(self.numerical) + list(self.categorical) + list(self.temporal)
        )
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique across kinds")

        # converted copies live on the instance; the caller's dicts are
        # left as they were passed
        numerical = {}
        for name, col in self.numerical.items():
            col = float_column(col, name)
            numerical[name] = col
            if col.shape != (n,):
                raise ValueError(f"column '{name}': length mismatch")
            if not np.all(np.isfinite(col)):
                raise ValueError(f"column '{name}': non-finite values")
        categorical = {}
        for name, col in self.categorical.items():
            if LABEL_SEPARATOR in name:
                # feature "a" with value "b=c" and feature "a=b" with
                # value "c" would share the label "a=b=c" and its weight
                raise ValueError(
                    f"column '{name}': a categorical feature name may not "
                    f"contain '{LABEL_SEPARATOR}'"
                )
            labels = np.asarray(col)
            categorical[name] = labels
            if labels.shape != (n,):
                raise ValueError(f"column '{name}': length mismatch")
            bad = _nul_record(col)
            if bad is not None:
                raise ValueError(
                    f"column '{name}': record {bad}: label contains a NUL "
                    "character"
                )
        temporal = {}
        for name, col in self.temporal.items():
            temporal[name] = integer_times(col, name)
            if temporal[name].shape != (n,):
                raise ValueError(f"column '{name}': length mismatch")
        object.__setattr__(self, "numerical", numerical)
        object.__setattr__(self, "categorical", categorical)
        object.__setattr__(self, "temporal", temporal)

    @property
    def n_records(self):
        return self.response.size

    def feature_names(self):
        """All feature names in declaration order, numerical first."""
        return (
            list(self.numerical) + list(self.categorical) + list(self.temporal)
        )


def float_column(column, name):
    """A column as float64.

    Raises
    ------
    ValueError
        Naming the column and its first record that is not a number.
    """
    try:
        return np.asarray(column, dtype=float)
    except (TypeError, ValueError) as exc:
        for i, value in enumerate(np.atleast_1d(np.asarray(column, object))):
            try:
                np.asarray(value, dtype=float)
            except (TypeError, ValueError):
                raise ValueError(
                    f"column '{name}': record {i}: '{value}' is not a number"
                ) from None
        raise ValueError(f"column '{name}': {exc}") from exc


def time_fault(values):
    """The first float time that int64 cannot hold exactly, as (index,
    reason); None when every value is a whole number in its range."""
    for wrong, reason in (
        (~np.isfinite(values), "non-finite value"),
        (values != np.round(values), "temporal values must be integers"),
        # float64 values in [-2**63, 2**63) cast to int64 exactly
        ((values < -2.0 ** 63) | (values >= 2.0 ** 63),
         "time outside the int64 range"),
    ):
        if np.any(wrong):
            return int(np.flatnonzero(wrong)[0]), reason
    return None


def integer_times(column, name):
    """A temporal column as int64, refusing non-finite or fractional
    values and values outside the int64 range.

    Raises
    ------
    ValueError
        Naming the column, and the first bad record of a float column.
    """
    arr = np.asarray(column)
    if np.issubdtype(arr.dtype, np.integer):
        if arr.dtype.kind == "u" and np.any(arr > np.iinfo(np.int64).max):
            raise ValueError(f"column '{name}': time outside the int64 range")
        return arr.astype(np.int64)
    flt = float_column(arr, name)
    fault = time_fault(flt)
    if fault is not None:
        raise ValueError(f"column '{name}': record {fault[0]}: {fault[1]}")
    return flt.astype(np.int64)


def _nul_record(column):
    """Index of the first label that holds a NUL character, or None.

    A fixed-width numpy string drops trailing NULs, so such a label could
    not round-trip through a CSV file.  Labels given as Python strings are
    checked before numpy converts them.  A string array can only still
    hold embedded NULs: numpy measures a string up to its last non-NUL
    character, so a label with an embedded NUL is longer than its count
    of nonzero code points.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind == "U":
        if column.size == 0:
            return None
        codes = np.ascontiguousarray(column).view(np.uint32)
        lengths = np.char.str_len(column)
        if np.count_nonzero(codes) == int(lengths.sum()):
            return None
        codes = codes.reshape(column.size, -1)
        hits = np.flatnonzero(np.count_nonzero(codes, axis=1) != lengths)
    else:
        hits = [i for i, label in enumerate(column)
                if isinstance(label, str) and "\x00" in label]
    return int(hits[0]) if len(hits) else None


@dataclass(frozen=True)
class CategoricalEncoding:
    """Pooled encoding of all categorical features.

    ``labels`` is the homogeneous set in index order; ``row_indices`` holds,
    for each record, the q active indices of its q-hot vector (one per
    categorical feature, in feature declaration order).
    """

    labels: tuple
    row_indices: np.ndarray  # (n, q) int64

    @property
    def cardinality(self):
        return len(self.labels)

    @property
    def n_features(self):
        return self.row_indices.shape[1]


def factorize(column):
    """Distinct values of a label column and the code of every record.

    Values are keyed by their ``str`` form: a column that is not a numpy
    string array goes through ``astype(str)`` first, so ``1``, ``True`` and
    ``None`` become the labels ``"1"``, ``"True"`` and ``"None"``.

    The code points of each label are packed into one int64 key, as many
    characters per key as fit in 63 bits at the column's widest code
    point; when characters remain, the keys are replaced by their dense
    ranks and packing goes on.  One sort of the keys then groups equal
    labels.  The keys are exact for any label width and code point.

    Returns
    -------
    values : ndarray of str, shape (k,)
        Distinct values in first-appearance order.
    codes : ndarray of int64, shape (n,)
        ``values[codes]`` equals the column.
    """
    labels = np.asarray(column)
    if labels.dtype.kind != "U":
        labels = labels.astype(str)
    labels = np.ascontiguousarray(labels).ravel()
    n = labels.size
    if n == 0:
        return labels, np.zeros(0, dtype=np.int64)
    width = labels.dtype.itemsize // 4
    chars = labels.view(np.uint32).reshape(n, width)
    keys = np.zeros(n, dtype=np.int64)
    if width:
        bits = max(int(chars.max()).bit_length(), 1)
        used = 0
        for j in range(width):
            if used + bits > 63:
                keys = np.unique(keys, return_inverse=True)[1].astype(
                    np.int64)
                used = int(keys.max()).bit_length()
            keys = (keys << bits) | chars[:, j]
            used += bits
    order = np.argsort(keys)
    sorted_keys = keys[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    # each group's first record, then the groups ranked by it
    first = np.minimum.reduceat(order, starts)
    appearance = np.argsort(first)
    rank = np.empty(starts.size, dtype=np.int64)
    rank[appearance] = np.arange(starts.size)
    codes = np.empty(n, dtype=np.int64)
    codes[order] = rank[np.cumsum(new) - 1]
    return labels[first[appearance]], codes


def build_homogeneous_encoding(dataset):
    """Pool every categorical value into one indexed label set.

    Indices are assigned feature by feature in declaration order, values in
    first-appearance order, so the encoding is reproducible run to run.
    Labels are feature-name-suffixed (``feature=value``, the value in its
    ``str`` form), which keeps the domains of different features disjoint.

    Returns
    -------
    CategoricalEncoding
        With ``cardinality == 0`` and an (n, 0) index array when the
        dataset has no categorical features.
    """
    n = dataset.n_records
    labels = []
    columns = []
    for name, col in dataset.categorical.items():
        values, codes = factorize(col)
        columns.append(codes + len(labels))
        labels += [f"{name}{LABEL_SEPARATOR}{value}"
                   for value in values.tolist()]
    if columns:
        row_indices = np.stack(columns, axis=1)
    else:
        row_indices = np.empty((n, 0), dtype=np.int64)
    return CategoricalEncoding(labels=tuple(labels), row_indices=row_indices)


@dataclass(frozen=True)
class CompressedSeries:
    """A series collapsed onto its distinct time points.

    ``values`` holds the weighted mean of the records sharing each time
    point and ``weights`` their multiplicity, so weighted smoothing over
    the compressed points is exact for the original records.
    """

    times: np.ndarray    # strictly increasing int64
    values: np.ndarray   # float, per-point weighted mean
    weights: np.ndarray  # positive int64 multiplicities
    back_map: np.ndarray  # original record index -> compressed point index

    @property
    def n_points(self):
        return self.times.size


def compress_time_points(times, values, name="times"):
    """Collapse co-located records into weighted time points.

    The compressed value at a time point is the mean of the records mapped
    to it (the least-squares representative), and the weight is their count.

    Raises
    ------
    ValueError
        On an empty series; naming the column ``name``, on times that
        :func:`integer_times` refuses or two times that are one float64
        number (they would be one curve knot).
    """
    times = np.asarray(times)
    values = np.asarray(values, dtype=float)
    if times.size == 0:
        raise ValueError("empty series")
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be 1-d and equally long")
    unique, back_map, counts = np.unique(
        integer_times(times, name), return_inverse=True, return_counts=True
    )
    same = np.flatnonzero(np.diff(unique.astype(float)) == 0)
    if same.size:
        raise ValueError(
            f"column '{name}': times {unique[same[0]]} and "
            f"{unique[same[0] + 1]} are the same float64 number"
        )
    sums = np.bincount(back_map, weights=values, minlength=unique.size)
    return CompressedSeries(
        times=unique.astype(np.int64),
        values=sums / counts,
        weights=counts.astype(np.int64),
        back_map=back_map.astype(np.int64),
    )


@dataclass(frozen=True)
class PhasePartition:
    """Phase sets of a compressed series under a seasonal period.

    ``phase_sets[phi]`` lists the compressed-point indices whose time t
    satisfies ``(t / tau) mod period == phi``.  Sets may be empty when time
    points are missing; together they always cover every point exactly once.
    """

    period: int
    tau: int
    phase_sets: tuple  # of int64 index arrays, length == period


def partition_phases(series, tau, period):
    """Split compressed time points into the period's phase sets.

    Missing time points are fine: gaps larger than tau simply leave some
    phases thinner (possibly empty).

    Raises
    ------
    ValueError
        If ``period <= 1``, ``tau <= 0``, or any time is not a multiple
        of tau.
    """
    if period <= 1:
        raise ValueError("seasonal period must exceed 1")
    if tau <= 0:
        raise ValueError("tau must be a positive integer")
    times = series.times
    if np.any(times % tau != 0):
        bad = times[times % tau != 0][0]
        raise ValueError(f"time {bad} is not divisible by tau={tau}")
    phases = (times // tau) % period
    sets = tuple(
        np.flatnonzero(phases == phi).astype(np.int64)
        for phi in range(period)
    )
    return PhasePartition(period=int(period), tau=int(tau), phase_sets=sets)
