import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fxam.evaluation
from fxam.data import Dataset
from fxam.evaluation import (
    ColumnSpec,
    SchemaFile,
    dataset_schema,
    ingest_csv,
    kfold_split,
    load_schema,
    rmse,
    run_experiment,
    save_schema,
    temporal_as_numerical,
    write_csv,
)
from fxam.synthetic import SynthConfig, generate
from fxam.training import TemporalRule, TrainConfig


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def simple_schema():
    return SchemaFile(columns=(
        ColumnSpec(name="x", kind="numerical"),
        ColumnSpec(name="y", kind="response"),
    ))


class TestSchema:
    def test_exactly_one_response(self):
        with pytest.raises(ValueError, match="exactly one response"):
            SchemaFile(columns=(ColumnSpec(name="x", kind="numerical"),))

    def test_at_least_one_feature(self):
        with pytest.raises(ValueError, match="at least one feature"):
            SchemaFile(columns=(ColumnSpec(name="y", kind="response"),))

    def test_temporal_needs_period(self):
        with pytest.raises(ValueError, match="period"):
            ColumnSpec(name="t", kind="temporal")

    def test_round_trip_file(self, tmp_path):
        schema = SchemaFile(columns=(
            ColumnSpec(name="x", kind="numerical"),
            ColumnSpec(name="t", kind="temporal", tau=2, period=7),
            ColumnSpec(name="y", kind="response"),
        ))
        path = tmp_path / "schema.json"
        save_schema(schema, path)
        loaded = load_schema(path)
        assert loaded == schema
        assert loaded.temporal_rules() == {"t": TemporalRule(period=7, tau=2)}

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], '"columns" is an array'),
        ({"columns": {"a": 1}}, '"columns" is an array'),
        ({"columns": [5]}, "an array of objects"),
        ({"columns": [{"name": ["a"], "kind": "numerical"}]},
         r"a column name must be a string, got \['a'\]"),
        ({"columns": [{"kind": "numerical"}]},
         "a column name must be a string, got None"),
        ({"columns": [{"name": "t", "kind": "temporal", "period": 7,
                       "tau": 2.7}]},
         "column 't': tau must be an integer, got 2.7"),
        ({"columns": [{"name": "t", "kind": "temporal", "period": 7.0}]},
         "column 't': seasonal period must be an integer, got 7.0"),
        ({"columns": [{"name": "t", "kind": "temporal", "period": "7"}]},
         "column 't': seasonal period must be an integer, got '7'"),
        ({"columns": [{"name": "t", "kind": "temporal", "period": True}]},
         "column 't': seasonal period must be an integer, got True"),
        ({"columns": [{"name": "t", "kind": "temporal", "period": 1}]},
         "column 't': seasonal period must exceed 1"),
    ])
    def test_malformed_file_names_the_fault(self, tmp_path, doc, message):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_schema(path)

    @pytest.mark.parametrize("tau, period", [(1, 2.0), (1.0, 2), (True, 2),
                                             (1, np.float64(3))])
    def test_rule_takes_integers_only(self, tau, period):
        with pytest.raises(ValueError, match="must be an integer"):
            TemporalRule(period=period, tau=tau)
        with pytest.raises(ValueError, match="column 't': .*an integer"):
            ColumnSpec(name="t", kind="temporal", tau=tau, period=period)

    def test_rule_takes_numpy_integers(self):
        rule = TemporalRule(period=np.int64(7), tau=np.int32(2))
        assert (rule.period, rule.tau) == (7, 2)


class TestIngestCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["x,y", "1.5,2.0", "2.5,3.0", "3.5,4.0"])
        dataset = ingest_csv(path, simple_schema())
        assert dataset.n_records == 3
        np.testing.assert_allclose(dataset.numerical["x"], [1.5, 2.5, 3.5])
        np.testing.assert_allclose(dataset.response, [2.0, 3.0, 4.0])

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["x,y", "1.5,2.0", "oops,3.0"])
        with pytest.raises(ValueError, match=r"row 3: column 'x'"):
            ingest_csv(path, simple_schema())

    def test_short_categorical_row_names_row_and_column(self, tmp_path):
        schema = SchemaFile(columns=(
            ColumnSpec(name="y", kind="response"),
            ColumnSpec(name="c", kind="categorical"),
        ))
        path = tmp_path / "data.csv"
        write_lines(path, ["y,c", "1.0,a", "2.0,b", "3.0"])
        with pytest.raises(ValueError, match=r"row 4: column 'c'"):
            ingest_csv(path, schema)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["a,y", "1,2"])
        with pytest.raises(ValueError, match="missing column 'x'"):
            ingest_csv(path, simple_schema())

    def test_temporal_divisibility(self, tmp_path):
        schema = SchemaFile(columns=(
            ColumnSpec(name="t", kind="temporal", tau=2, period=3),
            ColumnSpec(name="y", kind="response"),
        ))
        path = tmp_path / "data.csv"
        write_lines(path, ["t,y", "2,1.0", "3,1.0"])
        with pytest.raises(ValueError, match="divisible"):
            ingest_csv(path, schema)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            ingest_csv(path, simple_schema())

    def test_no_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, ["x,y"])
        with pytest.raises(ValueError, match="no data rows"):
            ingest_csv(path, simple_schema())

    def test_round_trip_with_write_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        dataset = Dataset(
            response=rng.normal(0, 1, 50),
            numerical={"x": rng.uniform(0, 1, 50)},
            categorical={"z": rng.choice(["a", "b"], 50)},
            temporal={"t": rng.integers(0, 10, 50) * 3},
        )
        path = tmp_path / "out.csv"
        write_csv(dataset, path)
        schema = dataset_schema(
            dataset, {"t": TemporalRule(period=5, tau=3)}
        )
        loaded = ingest_csv(path, schema)
        np.testing.assert_array_equal(loaded.response, dataset.response)
        np.testing.assert_array_equal(loaded.numerical["x"],
                                      dataset.numerical["x"])
        np.testing.assert_array_equal(loaded.temporal["t"],
                                      dataset.temporal["t"])


def assert_same_dataset(got, expected):
    """Equal column names, dtypes and bytes; every column owns its data."""
    pairs = [(got.response, expected.response)]
    for kind in ("numerical", "categorical", "temporal"):
        assert list(getattr(got, kind)) == list(getattr(expected, kind))
        pairs += [
            (getattr(got, kind)[name], getattr(expected, kind)[name])
            for name in getattr(got, kind)
        ]
    for a, b in pairs:
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
        assert a.flags.c_contiguous and a.flags.owndata


NUMERIC_SCHEMA = simple_schema()
LABEL_SCHEMA = SchemaFile(columns=(
    ColumnSpec(name="c", kind="categorical"),
    ColumnSpec(name="x", kind="numerical"),
    ColumnSpec(name="y", kind="response"),
))
TEMPORAL_SCHEMA = SchemaFile(columns=(
    ColumnSpec(name="t", kind="temporal", tau=2, period=3),
    ColumnSpec(name="y", kind="response"),
))

IGNORE_SCHEMA = SchemaFile(columns=(
    ColumnSpec(name="x", kind="numerical"),
    ColumnSpec(name="i", kind="ignore"),
    ColumnSpec(name="y", kind="response"),
))
# the file's header holds the columns in another order, with a text
# column between them
REORDERED_LABEL_SCHEMA = SchemaFile(columns=(
    ColumnSpec(name="c", kind="categorical"),
    ColumnSpec(name="x", kind="numerical"),
    ColumnSpec(name="i", kind="ignore"),
    ColumnSpec(name="y", kind="response"),
))

# (id, file text, schema, require_response, error text or None, the
# reader that takes the file: "json" (orjson), "loadtxt" (np.loadtxt) or
# None for the per-row parser)
INGEST_CASES = [
    ("blank-line-mid", "x,y\n1,2\n\n3,4\n", NUMERIC_SCHEMA, True,
     "row 3: column 'x': missing field", None),
    ("blank-line-end", "x,y\n1,2\n3,4\n\n", NUMERIC_SCHEMA, True,
     "row 4: column 'x': missing field", None),
    ("hash-in-label", "c,x,y\na#1,1,2\n#b,2,3\n", LABEL_SCHEMA, True,
     None, "loadtxt"),
    ("spaces-around-fields", "c,x,y\n a ,  1.5 ,2\nb, 2,3 \n",
     LABEL_SCHEMA, True, None, "loadtxt"),
    ("quoted-comma", 'c,x,y\n"a,b",1,2\nc,2,3\n', LABEL_SCHEMA, True,
     None, "loadtxt"),
    ("doubled-quote", 'c,x,y\n"say ""hi""",1,2\nc,2,3\n', LABEL_SCHEMA,
     True, None, "loadtxt"),
    ("quote-inside-field", 'c,x,y\na"b,1,2\n"ab"c,2,3\n', LABEL_SCHEMA,
     True, None, "loadtxt"),
    ("quoted-line-break", 'c,x,y\n"a\nb",1,2\nc,2,3\n', LABEL_SCHEMA,
     True, None, None),
    ("crlf", "c,x,y\r\na,1,2\r\nb,2,3\r\n", LABEL_SCHEMA, True, None,
     "loadtxt"),
    ("cr-only", "x,y\r1,2\r3,4\r", NUMERIC_SCHEMA, True, None, None),
    ("no-final-newline", "x,y\n1,2\n3,4", NUMERIC_SCHEMA, True, None,
     "json"),
    ("crlf-numbers", "x,y\r\n1,2\r\n3,4\r\n", NUMERIC_SCHEMA, True, None,
     "json"),
    ("underscore-digits", "x,y\n1_0,2\n3,4\n", NUMERIC_SCHEMA, True, None,
     None),
    ("unit-separator", "x,y\n1\x1f,2\n", NUMERIC_SCHEMA, True,
     "row 2: column 'x': could not parse", None),
    ("nan", "x,y\n1,2\nnan,3\n", NUMERIC_SCHEMA, True,
     "row 3: column 'x': non-finite value", None),
    ("inf", "x,y\n1,inf\n", NUMERIC_SCHEMA, True,
     "row 2: column 'y': non-finite value", None),
    ("overflow", "x,y\n1e400,2\n", NUMERIC_SCHEMA, True,
     "row 2: column 'x': non-finite value", None),
    ("extra-trailing-fields", "x,y\n1,2,extra\n3,4,5,6\n",
     NUMERIC_SCHEMA, True, None, "loadtxt"),
    ("short-row", "c,x,y\na,1,2\nb,2\n", LABEL_SCHEMA, True,
     "row 3: column 'y': missing field", None),
    ("long-label", "c,x,y\n" + "a" * 40 + ",1,2\n", LABEL_SCHEMA, True,
     None, None),
    ("integer-temporal", "t,y\n2,1\n4.0,1\n", TEMPORAL_SCHEMA, True, None,
     "json"),
    ("non-integer-temporal", "t,y\n2,1\n2.5,1\n", TEMPORAL_SCHEMA, True,
     "row 3: column 't': temporal values must be integers", None),
    ("temporal-not-divisible", "t,y\n2,1\n3,1\n", TEMPORAL_SCHEMA, True,
     "row 3: column 't': time 3 is not divisible by tau=2", None),
    # a cast to int64 would read both as -2**63
    ("temporal-beyond-int64", "t,y\n2,1\n1e300,2\n", TEMPORAL_SCHEMA,
     True, "row 3: column 't': time outside the int64 range", None),
    ("temporal-at-2-to-63", "t,y\n2,1\n9223372036854775808,2\n",
     TEMPORAL_SCHEMA, True,
     "row 3: column 't': time outside the int64 range", None),
    ("header-only", "x,y\n", NUMERIC_SCHEMA, True, "no data rows", None),
    ("empty-file", "", NUMERIC_SCHEMA, True, "empty file", None),
    ("no-response-column", "x\n1\n2\n", NUMERIC_SCHEMA, False, None,
     "json"),
    # orjson reads the integer -0 as +0, where float("-0") is -0.0
    ("minus-zero-field", "x,y\n-0,1\n2,3\n", NUMERIC_SCHEMA, True, None,
     "loadtxt"),
    ("minus-zero-response", "x,y\n1,2\n3,-0\n", NUMERIC_SCHEMA, True,
     None, "loadtxt"),
    ("exponent-minus-zero", "x,y\n1e-0,2\n3,4\n", NUMERIC_SCHEMA, True,
     None, "json"),
    # spellings float() reads and JSON does not
    ("plus-sign", "x,y\n+1,2\n3,4\n", NUMERIC_SCHEMA, True, None,
     "loadtxt"),
    ("leading-point", "x,y\n.5,2\n3,4\n", NUMERIC_SCHEMA, True, None,
     "loadtxt"),
    ("trailing-point", "x,y\n1.,2\n3,4\n", NUMERIC_SCHEMA, True, None,
     "loadtxt"),
    ("leading-zero", "x,y\n01,2\n3,4\n", NUMERIC_SCHEMA, True, None,
     "loadtxt"),
    ("lone-cr-mid-row", "x,y\n1,2\r3,4\n", NUMERIC_SCHEMA, True, None,
     None),
    ("lone-cr-after-header", "x,y\r1,2\n3,4\n", NUMERIC_SCHEMA, True,
     None, None),
    ("ragged-rows-cancel-out", "x,y\n1,2,3\n4\n", NUMERIC_SCHEMA, True,
     "row 3: column 'y': missing field", None),
    # a JSON literal orjson would read as a number
    ("json-literal", "x,y\n1,2\ntrue,4\n", NUMERIC_SCHEMA, True,
     "row 3: column 'x': could not parse 'true'", None),
    ("quoted-number", 'x,y\n"1",2\n3,4\n', NUMERIC_SCHEMA, True, None,
     "loadtxt"),
    ("blank-field-one-column", "x\n1\n \n", NUMERIC_SCHEMA, False,
     "row 3: column 'x': could not parse", None),
    ("text-in-ignored-column", "x,i,y\n1,abc,2\n3,4,5\n", IGNORE_SCHEMA,
     True, None, "loadtxt"),
    ("label-file-reordered", "y,i,x,c\n2,abc,1,a\n3,def,2.5,b\n",
     REORDERED_LABEL_SCHEMA, True, None, "loadtxt"),
    # a label one short of the parsed width is whole; one that fills it
    # may have been cut
    ("label-31-chars", "c,x,y\n" + "a" * 31 + ",1,2\nb,2,3\n",
     LABEL_SCHEMA, True, None, "loadtxt"),
    ("label-32-chars", "c,x,y\n" + "a" * 32 + ",1,2\nb,2,3\n",
     LABEL_SCHEMA, True, None, None),
    ("text-in-label-file-number", "c,x,y\na,abc,2\n", LABEL_SCHEMA, True,
     "row 2: column 'x': could not parse 'abc'", None),
    ("label-file-float-spellings", "c,x,y\na,-0,+1\nb,.5,-0\n",
     LABEL_SCHEMA, True, None, "loadtxt"),
]


def outcome(parse):
    try:
        return parse(), None
    except ValueError as error:
        return None, str(error)


def reader_taking(path, schema, require_response, monkeypatch):
    """The fast path's Dataset and the reader that made it, or (None,
    None) when the file is left to the per-row parser."""
    read_json = fxam.evaluation._read_json
    results = []

    def spy(*args):
        results.append(read_json(*args))
        return results[-1]

    monkeypatch.setattr(fxam.evaluation, "_read_json", spy)
    taken = fxam.evaluation._ingest_fast(path, schema, require_response)
    if taken is None:
        return None, None
    return taken, "json" if results and results[0] is not None else "loadtxt"


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


class TestIngestPaths:
    """orjson, numpy's reader and the per-row parser give one result."""

    # a few bytes per JSON chunk, so rows straddle the chunk seams
    @pytest.mark.parametrize(
        "chunk_rows, chunk_bytes",
        [(1, 3), (2048, fxam.evaluation._JSON_CHUNK_BYTES)],
        ids=["1", "2048"],
    )
    @pytest.mark.parametrize(
        "text, schema, require_response, error, reader",
        [case[1:] for case in INGEST_CASES],
        ids=[case[0] for case in INGEST_CASES],
    )
    def test_same_result(self, tmp_path, monkeypatch, chunk_rows,
                         chunk_bytes, text, schema, require_response, error,
                         reader):
        monkeypatch.setattr(fxam.evaluation, "_FAST_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(fxam.evaluation, "_JSON_CHUNK_BYTES",
                            chunk_bytes)
        path = tmp_path / "data.csv"
        write_text(path, text)
        expected, expected_error = outcome(
            lambda: fxam.evaluation._ingest_rows(path, schema,
                                                 require_response)
        )
        got, got_error = outcome(
            lambda: ingest_csv(path, schema, require_response)
        )
        taken, taken_by = reader_taking(path, schema, require_response,
                                        monkeypatch)
        assert taken_by == reader
        if error is None:
            assert expected_error is None and got_error is None
            assert_same_dataset(got, expected)
            if taken is not None:
                assert_same_dataset(taken, expected)
        else:
            assert error in expected_error
            assert got_error == expected_error

    def test_plain_file_skips_row_parser(self, tmp_path, monkeypatch):
        def row_parser(*args):
            raise AssertionError("per-row parser called")

        monkeypatch.setattr(fxam.evaluation, "_ingest_rows", row_parser)
        path = tmp_path / "data.csv"
        write_lines(path, ["c,x,y", "a,1.5,2.0", "b,2.5,3.0"])
        dataset = ingest_csv(path, LABEL_SCHEMA)
        assert dataset.categorical["c"].dtype == np.dtype("<U1")
        np.testing.assert_array_equal(dataset.numerical["x"], [1.5, 2.5])

    @pytest.mark.parametrize("chunk_rows, calls",
                             [(1, 3), (3, 1), (2048, 1)])
    def test_label_file_is_one_loadtxt_call_per_chunk(self, tmp_path,
                                                      monkeypatch,
                                                      chunk_rows, calls):
        loadtxt = np.loadtxt
        made = []

        def counting(*args, **kwargs):
            made.append(kwargs["usecols"])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(fxam.evaluation, "_FAST_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(fxam.evaluation.np, "loadtxt", counting)
        path = tmp_path / "data.csv"
        write_lines(path, ["y,c,x", "2.0,a,1.5", "3.0,bb,2.5", "4.0,c,-1"])
        dataset = fxam.evaluation._ingest_fast(path, LABEL_SCHEMA, True)
        # one call reads every column, labels and numbers alike
        assert made == [[1, 2, 0]] * calls
        np.testing.assert_array_equal(dataset.categorical["c"],
                                      np.array(["a", "bb", "c"]))
        assert dataset.categorical["c"].dtype == np.dtype("<U2")
        np.testing.assert_array_equal(dataset.numerical["x"],
                                      [1.5, 2.5, -1.0])
        np.testing.assert_array_equal(dataset.response, [2.0, 3.0, 4.0])

    def test_number_file_skips_loadtxt_and_row_parser(self, tmp_path,
                                                      monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt or the per-row parser called")

        monkeypatch.setattr(fxam.evaluation, "_ingest_rows", refuse)
        monkeypatch.setattr(fxam.evaluation.np, "loadtxt", refuse)
        path = tmp_path / "data.csv"
        write_lines(path, ["t,x,y", "2,1.5,-2.0", "4,2.5e-3,3"])
        schema = SchemaFile(columns=(
            ColumnSpec(name="t", kind="temporal", tau=2, period=3),
            ColumnSpec(name="x", kind="numerical"),
            ColumnSpec(name="y", kind="response"),
        ))
        dataset = ingest_csv(path, schema)
        np.testing.assert_array_equal(dataset.temporal["t"], [2, 4])
        np.testing.assert_array_equal(dataset.numerical["x"], [1.5, 2.5e-3])
        np.testing.assert_array_equal(dataset.response, [-2.0, 3.0])


# Field spellings for the ingest property: the shortest round-trip form
# of any finite float, subnormals, integers past 2**64, and spellings
# JSON reads differently from float() or not at all.
number_fields = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e-300, 1e-300).map(repr),
    st.integers(-2**70, 2**70).map(str),
    st.builds(
        "{}e{}".format,
        st.integers(-10**20, 10**20),
        st.integers(-330, 330),
    ),
    st.sampled_from([
        "0", "-0", "-0.0", "0.0", "1e-0", "-0e0", "+1", ".5", "1.", "01",
        "-01", "1e400", "-1e400", "nan", "inf", "true", "null", "1_0",
        " 7", "8 ", "\t9",
        "2.4703282292062328e-324", "9007199254740993",
        "1.00000000000000011102230246251565404236316680908203125",
    ]),
)


@st.composite
def number_files(draw):
    """All-number CSV text, the schema it is read with, and a JSON chunk
    size."""
    width = draw(st.integers(2, 4))
    names = [f"c{i}" for i in range(width)]
    kinds = ["response"] + [
        draw(st.sampled_from(["numerical", "numerical", "ignore"]))
        for _ in names[1:]
    ]
    if "numerical" not in kinds:
        kinds[1] = "numerical"
    schema = SchemaFile(columns=tuple(
        ColumnSpec(name=name, kind=kind) for name, kind in zip(names, kinds)
    ))
    rows = draw(st.lists(
        st.lists(number_fields, min_size=width, max_size=width)
        .map(",".join),
        min_size=1, max_size=8,
    ))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header_end = draw(st.sampled_from([newline, "\r"]))
    text = ",".join(names) + header_end + newline.join(rows)
    if draw(st.booleans()):
        text += newline
    chunk_bytes = draw(st.sampled_from(
        [1, 7, 64, fxam.evaluation._JSON_CHUNK_BYTES]
    ))
    return text, schema, chunk_bytes


class TestIngestProperty:
    @settings(max_examples=300, deadline=None)
    @given(number_files())
    def test_fast_path_declines_or_matches_row_parser(self, case):
        text, schema, chunk_bytes = case
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "data.csv")
            write_text(path, text)
            expected, _ = outcome(
                lambda: fxam.evaluation._ingest_rows(path, schema, True)
            )
            with mock.patch.object(fxam.evaluation, "_JSON_CHUNK_BYTES",
                                   chunk_bytes):
                taken = fxam.evaluation._ingest_fast(path, schema, True)
        if taken is not None:
            assert expected is not None
            assert_same_dataset(taken, expected)


# Label spellings for the label-file property: quotes, commas, blanks,
# '#' and digits, written bare or quoted, and labels near the width
# np.loadtxt parses them at.
label_text = st.one_of(
    st.text(st.sampled_from('",# \t0123456789a'), max_size=6),
    st.text(st.sampled_from("a#0"), min_size=30, max_size=33),
)
label_fields = st.one_of(
    label_text,
    label_text.map(lambda text: '"' + text.replace('"', '""') + '"'),
)


@st.composite
def label_files(draw):
    """Label-file CSV text, the schema it is read with (its columns in
    another order than the header's), and a chunk row count."""
    width = draw(st.integers(2, 5))
    names = [f"c{i}" for i in range(width)]
    kinds = ["response", "categorical"] + [
        draw(st.sampled_from(["numerical", "categorical", "ignore"]))
        for _ in names[2:]
    ]
    order = draw(st.permutations(range(width)))
    schema = SchemaFile(columns=tuple(
        ColumnSpec(name=names[i], kind=kinds[i]) for i in order
    ))

    def row():
        return ",".join(
            draw(label_fields if kind in ("categorical", "ignore")
                 else number_fields)
            for kind in kinds
        )

    rows = [row() for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = ",".join(names) + newline + newline.join(rows)
    if draw(st.booleans()):
        text += newline
    return text, schema, draw(st.sampled_from([1, 2, 2048]))


class TestLabelFileProperty:
    @settings(max_examples=300, deadline=None)
    @given(label_files())
    def test_fast_path_declines_or_matches_row_parser(self, case):
        text, schema, chunk_rows = case
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "data.csv")
            write_text(path, text)
            expected, _ = outcome(
                lambda: fxam.evaluation._ingest_rows(path, schema, True)
            )
            with mock.patch.object(fxam.evaluation, "_FAST_CHUNK_ROWS",
                                   chunk_rows):
                taken = fxam.evaluation._ingest_fast(path, schema, True)
        if taken is not None:
            assert expected is not None
            assert_same_dataset(taken, expected)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
labels = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=40,
)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    column = st.lists(finite_floats, min_size=n, max_size=n)
    numerical = {
        f"x{i}": np.array(draw(column), dtype=float)
        for i in range(draw(st.integers(0, 2)))
    }
    categorical = {
        f"c{i}": np.array(draw(st.lists(labels, min_size=n, max_size=n)))
        for i in range(draw(st.integers(0, 2)))
    }
    tau = draw(st.integers(1, 5))
    temporal = {}
    if draw(st.booleans()):
        ticks = st.lists(st.integers(-10**9, 10**9), min_size=n, max_size=n)
        temporal["t"] = np.array(draw(ticks), dtype=np.int64) * tau
    assume(numerical or categorical or temporal)
    dataset = Dataset(
        response=np.array(draw(column), dtype=float),
        numerical=numerical,
        categorical=categorical,
        temporal=temporal,
    )
    return dataset, tau


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(datasets())
    def test_write_then_ingest_is_bit_faithful(self, case):
        dataset, tau = case
        rules = {"t": TemporalRule(period=2, tau=tau)}
        schema = dataset_schema(dataset, rules)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "data.csv")
            write_csv(dataset, path)
            loaded = ingest_csv(path, schema)
        assert_same_dataset(loaded, dataset)


class TestKfoldSplit:
    def test_even_split(self):
        folds = kfold_split(10, 5, seed=0)
        assert [f.size for f in folds] == [2, 2, 2, 2, 2]

    def test_uneven_split(self):
        folds = kfold_split(11, 5, seed=0)
        assert sorted(f.size for f in folds) == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        a = kfold_split(100, 5, seed=7)
        b = kfold_split(100, 5, seed=7)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_partition_property(self):
        folds = kfold_split(57, 4, seed=3)
        merged = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(merged, np.arange(57))

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            kfold_split(3, 5, seed=0)


class TestRmse:
    def test_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_three_four_five(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_constant_offset(self):
        pred = np.arange(10.0)
        assert rmse(pred, pred + 0.7) == pytest.approx(0.7)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])


def small_synthetic(seed=0, n=1500):
    config = SynthConfig(n_records=n, n_features=4, numerical_ratio=0.5,
                         seed=seed)
    dataset, truth = generate(config)
    return dataset, truth


class TestRunExperiment:
    def test_fit_quality_on_easy_synthetic(self):
        dataset, _ = small_synthetic()
        config = TrainConfig(backend="fast-kernel", sampling=False)
        report = run_experiment(dataset, config, k=5, seed=0)
        sd = float(np.std(dataset.response))
        assert report.mean_rmse < 1e-2 * sd * 10  # easy data fits well
        assert len(report.folds) == 5

    def test_reproducible_rmse_column(self, tmp_path):
        dataset, _ = small_synthetic(seed=1, n=800)
        config = TrainConfig(backend="fast-kernel", sampling=False)
        paths = []
        for run in range(2):
            report = run_experiment(dataset, config, k=3, seed=5)
            path = tmp_path / f"report{run}.csv"
            report.write_csv(path)
            paths.append(path)
        rows_a = [line.split(",")[:2] for line in
                  paths[0].read_text().splitlines()]
        rows_b = [line.split(",")[:2] for line in
                  paths[1].read_text().splitlines()]
        assert rows_a == rows_b

    def test_temporal_ablation_retypes_columns(self):
        rng = np.random.default_rng(2)
        dataset = Dataset(
            response=rng.normal(0, 1, 100),
            numerical={"x": rng.uniform(0, 1, 100)},
            temporal={"t": rng.integers(0, 10, 100)},
        )
        flat = temporal_as_numerical(dataset)
        assert not flat.temporal
        assert "t" in flat.numerical
        assert flat.numerical["t"].dtype == float

    def test_report_csv_shape(self, tmp_path):
        dataset, _ = small_synthetic(seed=2, n=600)
        config = TrainConfig(backend="fast-kernel", sampling=False)
        report = run_experiment(dataset, config, k=3, seed=1)
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "fold,rmse,train_seconds"
        assert len(lines) == 5  # header + 3 folds + mean
        assert lines[-1].startswith("mean,")
