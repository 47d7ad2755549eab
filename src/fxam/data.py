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
        Name -> string-valued column.
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
            col = np.asarray(col, dtype=float)
            numerical[name] = col
            if col.shape != (n,):
                raise ValueError(f"column '{name}': length mismatch")
            if not np.all(np.isfinite(col)):
                raise ValueError(f"column '{name}': non-finite values")
        categorical = {}
        for name, col in self.categorical.items():
            col = np.asarray(col)
            categorical[name] = col
            if col.shape != (n,):
                raise ValueError(f"column '{name}': length mismatch")
        temporal = {}
        for name, col in self.temporal.items():
            arr = np.asarray(col)
            if not np.issubdtype(arr.dtype, np.integer):
                flt = np.asarray(col, dtype=float)
                if not np.all(np.isfinite(flt)):
                    raise ValueError(f"column '{name}': non-finite values")
                if np.any(flt != np.round(flt)):
                    raise ValueError(
                        f"column '{name}': temporal values must be integers "
                        "in units of tau"
                    )
                arr = flt.astype(np.int64)
            temporal[name] = arr.astype(np.int64)
            if arr.shape != (n,):
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


@dataclass(frozen=True)
class CategoricalEncoding:
    """Pooled encoding of all categorical features.

    ``labels`` is the homogeneous set in index order; ``row_indices`` holds,
    for each record, the q active indices of its q-hot vector (one per
    categorical feature, in feature declaration order).
    """

    labels: tuple
    index_of: dict
    row_indices: np.ndarray  # (n, q) int64

    @property
    def cardinality(self):
        return len(self.labels)

    @property
    def n_features(self):
        return self.row_indices.shape[1]


def build_homogeneous_encoding(dataset):
    """Pool every categorical value into one indexed label set.

    Indices are assigned feature by feature in declaration order, values in
    first-appearance order, so the encoding is reproducible run to run.
    Labels are feature-name-suffixed (``feature=value``), which keeps the
    domains of different features disjoint.

    Returns
    -------
    CategoricalEncoding
        With ``cardinality == 0`` and an (n, 0) index array when the
        dataset has no categorical features.
    """
    n = dataset.n_records
    labels = []
    index_of = {}
    columns = []
    for name, col in dataset.categorical.items():
        # np.unique sorts; re-rank by first appearance to keep the
        # assignment independent of value ordering
        uniq, first_pos, inverse = np.unique(
            col, return_index=True, return_inverse=True
        )
        appearance = np.argsort(first_pos, kind="stable")
        rank = np.empty(uniq.size, dtype=np.int64)
        rank[appearance] = np.arange(uniq.size)
        codes = rank[inverse] + len(labels)
        for value in uniq[appearance]:
            key = f"{name}{LABEL_SEPARATOR}{value}"
            index_of[key] = len(labels)
            labels.append(key)
        columns.append(codes)
    if columns:
        row_indices = np.stack(columns, axis=1)
    else:
        row_indices = np.empty((n, 0), dtype=np.int64)
    return CategoricalEncoding(
        labels=tuple(labels), index_of=index_of, row_indices=row_indices
    )


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


def compress_time_points(times, values):
    """Collapse co-located records into weighted time points.

    The compressed value at a time point is the mean of the records mapped
    to it (the least-squares representative), and the weight is their count.

    Raises
    ------
    ValueError
        On an empty series, or non-integer / non-finite times.
    """
    times = np.asarray(times)
    values = np.asarray(values, dtype=float)
    if times.size == 0:
        raise ValueError("empty series")
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be 1-d and equally long")
    if not np.issubdtype(times.dtype, np.integer):
        flt = np.asarray(times, dtype=float)
        if not np.all(np.isfinite(flt)) or np.any(flt != np.round(flt)):
            raise ValueError("times must be finite integers")
        times = flt.astype(np.int64)
    unique, back_map, counts = np.unique(
        times, return_inverse=True, return_counts=True
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
