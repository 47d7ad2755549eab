"""CSV ingestion, cross-validation, and experiment reports.

The schema file types each CSV column (numerical, categorical, temporal,
response, or ignore) and carries the time step and seasonal period for
temporal columns.  Evaluation is k-fold cross-validation reporting RMSE
per fold and the wall-clock training time of the fit alone.
"""

from __future__ import annotations

import csv
import json
import re
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import orjson

from .data import Dataset, time_fault
from .model import predict_batch
from .training import TemporalRule, TrainConfig, tsi_train

COLUMN_KINDS = ("numerical", "categorical", "temporal", "response", "ignore")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    tau: int = 1
    period: int | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(
                f"a column name must be a string, got {self.name!r}"
            )
        if self.kind not in COLUMN_KINDS:
            raise ValueError(
                f"column '{self.name}': unknown kind '{self.kind}'"
            )
        if self.kind == "temporal":
            # the training rule's checks, named by column
            try:
                TemporalRule(period=self.period, tau=self.tau)
            except ValueError as exc:
                raise ValueError(f"column '{self.name}': {exc}") from None


@dataclass(frozen=True)
class SchemaFile:
    """Typed column list; exactly one response, at least one feature."""

    columns: tuple

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("schema has duplicate column names")
        responses = [c for c in self.columns if c.kind == "response"]
        if len(responses) != 1:
            raise ValueError("schema must declare exactly one response")
        features = [
            c for c in self.columns
            if c.kind in ("numerical", "categorical", "temporal")
        ]
        if not features:
            raise ValueError("schema must declare at least one feature")

    @property
    def response(self):
        return next(c for c in self.columns if c.kind == "response")

    def of_kind(self, kind):
        return [c for c in self.columns if c.kind == kind]

    def temporal_rules(self):
        return {
            c.name: TemporalRule(period=c.period, tau=c.tau)
            for c in self.of_kind("temporal")
        }


def load_schema(path):
    """Read a schema JSON file ({"columns": [{name, kind, tau, period}]});
    a document of another shape raises ``ValueError``."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    entries = doc.get("columns") if isinstance(doc, dict) else None
    if not (isinstance(entries, list)
            and all(isinstance(entry, dict) for entry in entries)):
        raise ValueError(
            f"{path}: a schema is an object whose \"columns\" is an array "
            "of objects"
        )
    return SchemaFile(columns=tuple(
        ColumnSpec(name=entry.get("name"), kind=entry.get("kind"),
                   tau=entry.get("tau", 1), period=entry.get("period"))
        for entry in entries
    ))


def save_schema(schema, path):
    doc = {"columns": []}
    for col in schema.columns:
        entry = {"name": col.name, "kind": col.kind}
        if col.kind == "temporal":
            entry["tau"] = col.tau
            entry["period"] = col.period
        doc["columns"].append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)


def ingest_csv(path, schema, require_response=True):
    """Parse a typed CSV into a Dataset.

    The header must contain every schema column (extra file columns are
    ignored).  Fields follow the ``csv`` module's default dialect: commas,
    ``"`` quoting with doubled quotes inside; ``#`` is ordinary data.
    Every row is a record, so a blank row is a missing-field error.
    Numeric parse failures report the row and column; temporal values
    must be integer multiples of the column's tau.

    Three readers, each bit for bit what the next gives:

    * orjson, for a schema with no categorical column, a chunk of lines
      at a time.  It passes a file on unless every line holds the
      header's count of JSON numbers, so quotes, blank lines, lone CRs,
      ragged rows, text, and spellings JSON does not share with
      ``float`` (``+1``, ``.5``, ``1.``, ``01``, ``nan``, ``inf``,
      ``1e400``) go on.  So does the integer ``-0`` in a chunk with a
      zero, which orjson reads as ``0`` and ``float`` as ``-0.0``.
    * numpy's C reader, for label files and what orjson passes on: one
      ``np.loadtxt`` pass per chunk of rows reads a label file's numbers
      and labels together.
    * The per-row parser (``csv`` and ``float``), for a file numpy's
      reader could read differently from them, or one that holds any
      error; it writes the error message.
    """
    dataset = _ingest_fast(path, schema, require_response)
    if dataset is None:
        dataset = _ingest_rows(path, schema, require_response)
    return dataset


def _column_positions(header, schema, require_response):
    """Header index of each schema column, and the first missing one."""
    positions = {}
    for col in schema.columns:
        if col.kind == "ignore":
            continue
        if col.name in header:
            positions[col.name] = header.index(col.name)
        elif col.kind != "response" or require_response:
            return positions, col.name
    return positions, None


# Bytes a data line may hold, besides its commas and its line end, for
# the JSON reader to take the file: those of JSON numbers, and the blanks
# that both JSON and float() skip around a number.
_NUMBER_BYTES = b"0123456789+-.eE \t"
# Bytes of whole lines per orjson call.  Each chunk's columns are copied
# out before the next is read, so the list of Python floats orjson
# returns stays small.
_JSON_CHUNK_BYTES = 1 << 18
# orjson reads the JSON integer -0 as 0, where float("-0") is -0.0; a
# chunk that parsed to a zero and holds this goes to the next reader.
_INTEGER_MINUS_ZERO = re.compile(rb"-0(?![0-9.eE])")
# Bytes that send a file to the per-row parser: np.loadtxt strips the
# separators \x1c-\x1f around a number where float() rejects them, and a
# fixed-width string array drops a label's trailing NUL.
_ROW_PARSER_BYTES = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Rows per np.loadtxt call.  Columns are filled chunk by chunk, so no
# whole-file block is allocated beside them.
_FAST_CHUNK_ROWS = 2048
# Labels are parsed as <U{_LABEL_WIDTH}; a file with a label that fills
# the width, and so may have been cut, goes to the per-row parser.
_LABEL_WIDTH = 32


def _read_json(path, header, positions):
    """The fields at ``positions`` of every data row, parsed by orjson a
    chunk of lines at a time; None unless every line after the header
    holds ``len(header)`` JSON numbers, each read as ``float`` reads it."""
    width = len(header)
    line_shape = b"," * (width - 1) + b"\n"
    pieces = [[] for _ in positions]
    with open(path, "rb") as handle:
        line = handle.readline()
        # the csv header, unless a quote or a line break inside the line
        # makes the two readers split the file differently
        if line.removesuffix(b"\n").removesuffix(b"\r") != \
                ",".join(header).encode("utf-8"):
            return None
        while chunk := handle.read(_JSON_CHUNK_BYTES) + handle.readline():
            if b"\r" in chunk:
                chunk = chunk.replace(b"\r\n", b"\n")
            if not chunk.endswith(b"\n"):
                chunk += b"\n"
            # one pass that rejects ragged or blank lines, quotes, lone
            # CRs and every byte no JSON number holds
            shape = chunk.translate(None, _NUMBER_BYTES)
            lines = len(shape) // width
            if shape != line_shape * lines:
                return None
            try:
                values = np.array(orjson.loads(
                    b"[" + chunk[:-1].replace(b"\n", b",") + b"]"
                ), dtype=float)
            except orjson.JSONDecodeError:
                return None
            if not values.all() and _INTEGER_MINUS_ZERO.search(chunk):
                return None
            rows = values.reshape(lines, width)
            for piece, position in zip(pieces, positions):
                piece.append(rows[:, position].copy())
    if not pieces[0]:
        return None
    columns = []
    for piece in pieces:
        columns.append(np.concatenate(piece))
        piece.clear()
    return columns


def _data_line_count(path):
    """Lines after the header; None if the file holds a row-parser byte."""
    lines = 0
    last = b"\n"
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            if any(byte in block for byte in _ROW_PARSER_BYTES):
                return None
            lines += block.count(b"\n")
            last = block[-1:]
    return lines - 1 + (last != b"\n")


def _read_columns(path, positions, kinds, n_rows):
    """The fields at ``positions`` of every data row, one np.loadtxt call
    per chunk of rows: float64, or <U{longest label}> for a categorical
    kind (the dtype np.array gives a list of the labels); None if a label
    may have been cut.

    Raises ValueError (or a warning, under an "error" filter) unless the
    file holds exactly ``n_rows`` rows after the header, none of them
    blank.
    """
    dtype = np.dtype([
        (f"f{i}", f"<U{_LABEL_WIDTH}" if kind == "categorical" else float)
        for i, kind in enumerate(kinds)
    ])
    # label pieces in a list, numbers straight into their column
    columns = [
        [] if kind == "categorical" else np.empty(n_rows) for kind in kinds
    ]
    with open(path, "r", encoding="utf-8", newline="") as handle:
        next(csv.reader(handle))
        for start in range(0, n_rows, _FAST_CHUNK_ROWS):
            stop = min(start + _FAST_CHUNK_ROWS, n_rows)
            block = np.loadtxt(
                handle, dtype=dtype, comments=None, delimiter=",",
                quotechar='"', usecols=positions, max_rows=stop - start,
                ndmin=1, encoding="utf-8",
            )
            if block.shape[0] != stop - start:
                raise ValueError("fewer rows than lines")
            for column, name in zip(columns, dtype.names):
                values = block[name]
                if isinstance(column, list):
                    width = np.char.str_len(values).max()
                    if width >= _LABEL_WIDTH:
                        return None
                    column.append(values.astype(f"<U{max(1, width)}"))
                else:
                    column[start:stop] = values
        if handle.read(1):
            raise ValueError("more rows than lines")
    # joined label pieces take the widest piece's width
    return [
        np.concatenate(column) if isinstance(column, list) else column
        for column in columns
    ]


def _ingest_fast(path, schema, require_response):
    """What ``_ingest_rows`` returns, parsed by orjson or np.loadtxt; None
    for a file that is not plainly regular (a blank row, a quoted line
    break, a non-finite value, a field ``float`` reads differently, any
    error or warning)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _parse_fast(path, schema, require_response)
    except (OSError, ValueError, csv.Error, Warning):
        return None


def _parse_fast(path, schema, require_response):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        header = next(csv.reader(handle), None)
    if header is None:
        return None
    positions, missing = _column_positions(header, schema, require_response)
    if missing is not None:
        return None
    present = [col for col in schema.columns if col.name in positions]
    labels = schema.of_kind("categorical")
    places = [positions[c.name] for c in present]
    columns = None if labels else _read_json(path, header, places)
    if columns is not None:
        n_rows = columns[0].size
    else:
        n_rows = _data_line_count(path)
        if n_rows is None or n_rows < 1:
            return None
        columns = _read_columns(path, places, [c.kind for c in present],
                                n_rows)
        if columns is None:
            return None
    parsed = {}
    for col, column in zip(present, columns):
        if col.kind != "categorical" and not np.all(np.isfinite(column)):
            return None
        if col.kind == "temporal":
            if time_fault(column) is not None:
                return None
            column = column.astype(np.int64)
            if np.any(column % col.tau != 0):
                return None
        parsed[col.name] = column
    name = schema.response.name
    return Dataset(
        response=parsed[name] if name in parsed else np.zeros(n_rows),
        numerical={c.name: parsed[c.name]
                   for c in schema.of_kind("numerical")},
        categorical={c.name: parsed[c.name] for c in labels},
        temporal={c.name: parsed[c.name]
                  for c in schema.of_kind("temporal")},
    )


def _ingest_rows(path, schema, require_response):
    """The per-row parser: ``csv.reader`` and ``float`` on every field.
    Writes every ingest error message."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        positions, missing = _column_positions(header, schema,
                                               require_response)
        if missing is not None:
            raise ValueError(f"{path}: missing column '{missing}'")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")

    def short_row(i, col):
        return ValueError(
            f"{path}: row {i + 2}: column '{col}': missing field (the row "
            f"has {len(rows[i])} of {len(header)} fields)"
        )

    def parse_float(col, kind):
        out = np.empty(len(rows))
        pos = positions[col]
        for i, row in enumerate(rows):
            try:
                token = row[pos]
                out[i] = float(token)
            except IndexError:
                raise short_row(i, col) from None
            except ValueError:
                raise ValueError(
                    f"{path}: row {i + 2}: column '{col}': could not parse "
                    f"'{token}' as a number"
                ) from None
            if not np.isfinite(out[i]):
                raise ValueError(
                    f"{path}: row {i + 2}: column '{col}': non-finite value"
                )
        return out

    numerical = {}
    categorical = {}
    temporal = {}
    for col in schema.columns:
        if col.kind == "numerical":
            numerical[col.name] = parse_float(col.name, col.kind)
        elif col.kind == "categorical":
            pos = positions[col.name]
            try:
                # a list, so Dataset sees any trailing NUL before numpy
                # drops it
                categorical[col.name] = [row[pos] for row in rows]
            except IndexError:
                bad = next(i for i, row in enumerate(rows) if len(row) <= pos)
                raise short_row(bad, col.name) from None
        elif col.kind == "temporal":
            values = parse_float(col.name, col.kind)
            fault = time_fault(values)
            if fault is not None:
                raise ValueError(
                    f"{path}: row {fault[0] + 2}: column '{col.name}': "
                    f"{fault[1]}"
                )
            ticks = values.astype(np.int64)
            if np.any(ticks % col.tau != 0):
                bad = int(np.flatnonzero(ticks % col.tau != 0)[0])
                raise ValueError(
                    f"{path}: row {bad + 2}: column '{col.name}': time "
                    f"{ticks[bad]} is not divisible by tau={col.tau}"
                )
            temporal[col.name] = ticks

    name = schema.response.name
    if name in positions:
        response = parse_float(name, "response")
    else:
        response = np.zeros(len(rows))
    return Dataset(
        response=response,
        numerical=numerical,
        categorical=categorical,
        temporal=temporal,
    )


def write_csv(dataset, path, response_name="y"):
    """Write a Dataset back to CSV (features in declaration order)."""
    names = dataset.feature_names()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names + [response_name])
        columns = []
        for name in names:
            if name in dataset.numerical:
                columns.append(
                    [repr(float(v)) for v in dataset.numerical[name]]
                )
            elif name in dataset.categorical:
                columns.append([str(v) for v in dataset.categorical[name]])
            else:
                columns.append([str(int(v)) for v in dataset.temporal[name]])
        columns.append([repr(float(v)) for v in dataset.response])
        for row in zip(*columns):
            writer.writerow(row)


def dataset_schema(dataset, rules, response_name="y"):
    """Schema matching a Dataset's column kinds."""
    columns = []
    for name in dataset.numerical:
        columns.append(ColumnSpec(name=name, kind="numerical"))
    for name in dataset.categorical:
        columns.append(ColumnSpec(name=name, kind="categorical"))
    for name in dataset.temporal:
        rule = rules[name]
        columns.append(ColumnSpec(
            name=name, kind="temporal", tau=rule.tau, period=rule.period,
        ))
    columns.append(ColumnSpec(name=response_name, kind="response"))
    return SchemaFile(columns=tuple(columns))


def kfold_split(n_records, k, seed):
    """Shuffled partition into k folds with sizes differing by at most 1."""
    if k < 2:
        raise ValueError("need at least 2 folds")
    if n_records < k:
        raise ValueError("need at least one record per fold")
    permutation = np.random.default_rng(seed).permutation(n_records)
    return [fold.copy() for fold in np.array_split(permutation, k)]


def rmse(predicted, actual):
    """Root mean squared error."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape or predicted.ndim != 1:
        raise ValueError("prediction and actual lengths differ")
    if predicted.size == 0:
        raise ValueError("empty vectors")
    diff = predicted - actual
    return float(np.sqrt(np.mean(diff * diff)))


@dataclass
class FoldResult:
    fold: int
    rmse: float
    train_seconds: float


@dataclass
class EvalReport:
    """Cross-validation outcome plus the configuration that produced it."""

    folds: list
    mean_rmse: float
    mean_train_seconds: float
    seed: int
    config: dict = field(default_factory=dict)
    converged: bool = True

    def csv_rows(self):
        rows = [["fold", "rmse", "train_seconds"]]
        for fold in self.folds:
            rows.append([
                fold.fold, repr(fold.rmse), repr(fold.train_seconds)
            ])
        rows.append(["mean", repr(self.mean_rmse),
                     repr(self.mean_train_seconds)])
        return rows

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(self.csv_rows())

    def summary(self):
        lines = [
            f"folds: {len(self.folds)}  seed: {self.seed}",
            f"mean rmse: {self.mean_rmse:.6g}",
            f"mean train seconds: {self.mean_train_seconds:.3f}",
        ]
        for fold in self.folds:
            lines.append(
                f"  fold {fold.fold}: rmse {fold.rmse:.6g} "
                f"({fold.train_seconds:.3f}s)"
            )
        return "\n".join(lines)


def _subset(dataset, indices):
    return Dataset(
        response=dataset.response[indices],
        numerical={k: v[indices] for k, v in dataset.numerical.items()},
        categorical={k: v[indices] for k, v in dataset.categorical.items()},
        temporal={k: v[indices] for k, v in dataset.temporal.items()},
    )


def _columns_of(dataset, indices):
    columns = {}
    for mapping in (dataset.numerical, dataset.categorical, dataset.temporal):
        for name, col in mapping.items():
            columns[name] = col[indices]
    return columns


def temporal_as_numerical(dataset):
    """Re-type every temporal column as numerical (ablation support)."""
    numerical = dict(dataset.numerical)
    for name, col in dataset.temporal.items():
        numerical[name] = col.astype(float)
    return Dataset(
        response=dataset.response,
        numerical=numerical,
        categorical=dict(dataset.categorical),
        temporal={},
    )


def run_experiment(dataset, train_config, k=5, seed=0,
                   no_temporal_stage=False):
    """k-fold cross-validation of one training configuration.

    ``no_temporal_stage`` re-types temporal columns as plain numerical
    features before training (the sampling and ordering ablations are
    ``TrainConfig.sampling`` and ``dynamic_ordering``).  Timing covers the
    fit call only, never ingestion or reporting.
    """
    config = train_config
    if no_temporal_stage:
        dataset = temporal_as_numerical(dataset)
        config = replace(config, temporal_rules={})

    folds = kfold_split(dataset.n_records, k, seed)
    all_indices = np.arange(dataset.n_records)

    def run_fold(fold_id):
        test_idx = np.sort(folds[fold_id])
        train_mask = np.ones(dataset.n_records, dtype=bool)
        train_mask[test_idx] = False
        train_idx = all_indices[train_mask]
        train_data = _subset(dataset, train_idx)
        start = time.perf_counter()
        model = tsi_train(train_data, config)
        seconds = time.perf_counter() - start
        predictions = predict_batch(model, _columns_of(dataset, test_idx))
        error = rmse(predictions, dataset.response[test_idx])
        return FoldResult(fold=fold_id, rmse=error, train_seconds=seconds), \
            model.converged

    outcomes = [run_fold(i) for i in range(k)]

    results = [fold for fold, _ in outcomes]
    converged = all(flag for _, flag in outcomes)
    return EvalReport(
        folds=results,
        mean_rmse=float(np.mean([fold.rmse for fold in results])),
        mean_train_seconds=float(
            np.mean([fold.train_seconds for fold in results])
        ),
        seed=seed,
        config={
            "k": k,
            "backend": config.backend,
            "sampling": config.sampling,
            "dynamic_ordering": config.dynamic_ordering,
            "temporal_stage": not no_temporal_stage,
        },
        converged=converged,
    )
