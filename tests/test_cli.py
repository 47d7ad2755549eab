import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    MALFORMED_CURVES,
    TINY_GAP_COLUMNS,
    malformed_curve_file,
)

from fxam.cli import (
    DATA_ERROR,
    NON_CONVERGENCE,
    _build_train_config,
    build_parser,
    main,
)
from fxam.model import FxamModel, ShapeCurve, deserialize, serialize
from fxam.training import TrainConfig


def read_text(path):
    return Path(path).read_text(encoding="utf-8")


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generate -> train run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data.csv")
    schema = str(root / "schema.json")
    model = str(root / "model.json")
    truth = str(root / "truth.csv")
    rc = main([
        "generate", "--records", "1500", "--features", "6",
        "--numerical-ratio", "0.5", "--temporal", "--seasonality", "0.05",
        "--seed", "3", "--out", data, "--schema-out", schema,
        "--truth-out", truth,
    ])
    assert rc == 0
    rc = main([
        "train", "--data", data, "--schema", schema, "--out", model,
        "--backend", "fast-kernel", "--no-sampling", "--seed", "1",
    ])
    assert rc == 0
    return {"root": root, "data": data, "schema": schema, "model": model}


class TestGenerate:
    def test_outputs_exist(self, pipeline):
        header = read_text(pipeline["data"]).splitlines()[0].split(",")
        assert header[-1] == "y"
        assert "time" in header
        doc = json.loads(read_text(pipeline["schema"]))
        kinds = {c["name"]: c["kind"] for c in doc["columns"]}
        assert kinds["y"] == "response"
        assert kinds["time"] == "temporal"


class TestTrainPredict:
    def test_model_file_is_versioned(self, pipeline):
        model = deserialize(Path(pipeline["model"]).read_bytes())
        assert model.schema["temporal"] == ["time"]

    def test_predict_writes_one_value_per_row(self, pipeline):
        out = str(pipeline["root"] / "pred.csv")
        rc = main([
            "predict", "--model", pipeline["model"], "--data",
            pipeline["data"], "--schema", pipeline["schema"], "--out", out,
        ])
        assert rc == 0
        rows = read_text(out).splitlines()
        assert rows[0] == "prediction"
        assert len(rows) == 1501
        float(rows[1])

    def test_failed_categorical_factor_exits_4(self, pipeline, tmp_path,
                                               monkeypatch, capsys):
        import scipy.linalg

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("leading minor not positive definite")

        doc = json.loads(read_text(pipeline["schema"]))
        assert "categorical" in {c["kind"] for c in doc["columns"]}
        monkeypatch.setattr(scipy.linalg, "cho_factor", fail)
        rc = main([
            "train", "--data", pipeline["data"], "--schema",
            pipeline["schema"], "--out", str(tmp_path / "model.json"),
            "--backend", "fast-kernel", "--no-sampling",
        ])
        assert rc == 4
        assert "categorical_ridge=" in capsys.readouterr().err

    def test_config_file_with_flag_precedence(self, pipeline, tmp_path):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "backend": "fast-kernel", "max_cycles": 2, "sampling": False,
        }))
        out = str(tmp_path / "model.json")
        rc = main([
            "train", "--data", pipeline["data"], "--schema",
            pipeline["schema"], "--out", out, "--config", str(config_path),
            "--max-cycles", "30",
        ])
        assert rc == 0
        model = deserialize(Path(out).read_bytes())
        # the flag overrode the file's 2-cycle cap
        assert model.diagnostics["cycles"] > 2 or model.converged

    def test_unknown_config_field_is_data_error(self, pipeline, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"wibble": 1}))
        rc = main([
            "train", "--data", pipeline["data"], "--schema",
            pipeline["schema"], "--out", str(tmp_path / "m.json"),
            "--config", str(config_path),
        ])
        assert rc == 3


# (flags, the TrainConfig field they set, its value, and another value a
# config file gives the field)
TRAINING_FLAGS = [
    (["--backend", "penalized"], "backend", "penalized", "fast-kernel"),
    (["--smoothness", "2.5"], "smoothness", 2.5, 1.5),
    (["--categorical-ridge", "0.5"], "categorical_ridge", 0.5, 3.0),
    (["--trend-smoothness", "4"], "trend_smoothness", 4.0, 1.5),
    (["--seasonal-smoothness", "6"], "seasonal_smoothness", 6.0, 1.5),
    (["--bandwidth-factor", "0.25"], "bandwidth_factor", 0.25, 0.75),
    (["--outer-tol", "1e-3"], "outer_tol", 1e-3, 1e-4),
    (["--max-cycles", "7"], "max_cycles", 7, 9),
    (["--sampling"], "sampling", True, False),
    (["--no-sampling"], "sampling", False, True),
    (["--dfi"], "dynamic_ordering", True, False),
    (["--no-dfi"], "dynamic_ordering", False, True),
    (["--sampling-threshold", "500"], "sampling_threshold", 500, 900),
    (["--pilot-size", "300"], "pilot_size", 300, 400),
    (["--gamma", "0.5"], "sampling_gamma", 0.5, 2.0),
    (["--seed", "11"], "seed", 11, 12),
]


class TestTrainingFlags:
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "flags, name, value, other", TRAINING_FLAGS,
        ids=[" ".join(case[0]) for case in TRAINING_FLAGS],
    )
    def test_flag_reaches_train_config(self, tmp_path, command, flags,
                                       name, value, other):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({name: other}))
        io = ["--data", "d.csv", "--schema", "s.json"]
        if command == "train":
            io += ["--out", "m.json"]
        args = build_parser().parse_args(
            [command, *io, "--config", str(config_path), *flags]
        )
        config = _build_train_config(args)
        # the flag wins over the file; every other field keeps its default
        assert getattr(config, name) == value
        assert config == TrainConfig(**{name: value})


class TestEvaluate:
    def test_report_written(self, pipeline, tmp_path):
        report = str(tmp_path / "report.csv")
        rc = main([
            "evaluate", "--data", pipeline["data"], "--schema",
            pipeline["schema"], "--folds", "3", "--report", report,
            "--no-sampling",
        ])
        assert rc == 0
        rows = read_csv(report)
        assert rows[0] == ["fold", "rmse", "train_seconds"]
        assert rows[-1][0] == "mean"

    def test_ablation_flags_accepted(self, pipeline, tmp_path):
        rc = main([
            "evaluate", "--data", pipeline["data"], "--schema",
            pipeline["schema"], "--folds", "2", "--no-sampling",
            "--no-dfi", "--no-temporal-stage",
            "--report", str(tmp_path / "r.csv"),
        ])
        assert rc == 0


class TestExports:
    def test_decompose(self, pipeline, tmp_path):
        out = str(tmp_path / "decomp.csv")
        rc = main(["decompose", "--model", pipeline["model"], "--out", out])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["feature", "component", "phase", "time", "value"]
        components = {row[1] for row in rows[1:]}
        assert components == {"trend", "seasonal"}

    def test_decompose_unknown_feature(self, pipeline, tmp_path):
        rc = main([
            "decompose", "--model", pipeline["model"], "--feature", "nope",
            "--out", str(tmp_path / "d.csv"),
        ])
        assert rc == 3

    def test_export_contributions(self, pipeline, tmp_path):
        out = str(tmp_path / "contrib.csv")
        rc = main([
            "export-contributions", "--model", pipeline["model"],
            "--out", out,
        ])
        assert rc == 0
        rows = read_csv(out)
        kinds = {row[0] for row in rows[1:]}
        assert kinds == {"shape", "categorical", "trend", "seasonal"}


class TestSweep:
    def test_desk_scale_sweep(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        rc = main([
            "sweep", "--name", "ablation2", "--scale", "0.005",
            "--difficulty", "hard", "--folds", "2", "--out", out,
            "--backend", "fast-kernel", "--no-sampling",
            "--outer-tol", "1e-4",
        ])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 4  # header + three feature counts
        assert rows[0][0] == "records"


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()

    def test_missing_file_is_data_error(self, pipeline):
        rc = main([
            "predict", "--model", pipeline["model"], "--data",
            "/definitely/not/here.csv", "--schema", pipeline["schema"],
            "--out", "/tmp/unused.csv",
        ])
        assert rc == 3

    @pytest.mark.parametrize("payload", [b"[]", b"null", b'"x"', None])
    def test_malformed_model_file_is_data_error(self, pipeline, tmp_path,
                                                capsys, payload):
        if payload is None:  # the trained file with "shapes" as a list
            doc = json.loads(Path(pipeline["model"]).read_bytes())
            doc["shapes"] = []
            payload = json.dumps(doc).encode("utf-8")
        model = tmp_path / "bad.json"
        model.write_bytes(payload)
        rc = main([
            "predict", "--model", str(model), "--data", pipeline["data"],
            "--schema", pipeline["schema"],
            "--out", str(tmp_path / "pred.csv"),
        ])
        assert rc == 3
        assert "malformed model payload" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [*MALFORMED_CURVES, "nan-intercept"])
    def test_malformed_model_number_is_data_error(self, pipeline, tmp_path,
                                                  capsys, case):
        if case == "nan-intercept":
            doc = json.loads(Path(pipeline["model"]).read_bytes())
            doc["intercept"] = float("nan")
            payload = json.dumps(doc).encode("utf-8")
        else:
            payload = malformed_curve_file(case)
        model = tmp_path / "bad.json"
        model.write_bytes(payload)
        out = tmp_path / "pred.csv"
        rc = main([
            "predict", "--model", str(model), "--data", pipeline["data"],
            "--schema", pipeline["schema"], "--out", str(out),
        ])
        assert rc == 3
        assert "error: malformed model payload" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_diagnostic_is_data_error(self, pipeline, tmp_path,
                                                 capsys):
        doc = json.loads(Path(pipeline["model"]).read_bytes())
        doc["diagnostics"]["x"] = float("nan")
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "pred.csv"
        rc = main([
            "predict", "--model", str(model), "--data", pipeline["data"],
            "--schema", pipeline["schema"], "--out", str(out),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "malformed model payload" in err
        assert "line 1 column" in err
        assert not out.exists()

    def test_list_format_model_is_data_error(self, pipeline, tmp_path,
                                             capsys):
        # fxam-model/1 held curves as arrays of JSON numbers
        doc = json.loads(Path(pipeline["model"]).read_bytes())
        doc["version"] = "fxam-model/1"
        for curve in doc["shapes"].values():
            curve["knots"] = curve["values"] = [0.0]
        model = tmp_path / "v1.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "pred.csv"
        rc = main([
            "predict", "--model", str(model), "--data", pipeline["data"],
            "--schema", pipeline["schema"], "--out", str(out),
        ])
        assert rc == 3
        assert "unsupported model format version 'fxam-model/1'" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_ragged_row_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "ragged.csv"
        data.write_text("x,y\n1.0,2.0\n3.0\n5.0,6.0\n")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": [
            {"name": "x", "kind": "numerical"},
            {"name": "y", "kind": "response"},
        ]}))
        rc = main([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 3
        assert "row 3: column 'y'" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["b\x00", "b\x00c"])
    def test_nul_label_is_data_error(self, tmp_path, capsys, label):
        data = tmp_path / "nul.csv"
        data.write_text(f"c,y\na,1.0\n{label},2.0\na,3.0\n",
                        encoding="utf-8")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": [
            {"name": "c", "kind": "categorical"},
            {"name": "y", "kind": "response"},
        ]}))
        rc = main([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 3
        assert "column 'c': record 1" in capsys.readouterr().err

    def test_separator_in_categorical_name_is_data_error(self, tmp_path,
                                                          capsys):
        data = tmp_path / "sep.csv"
        data.write_text("a,a=b,y\nb=c,q,1.0\nq,r,2.0\n", encoding="utf-8")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": [
            {"name": "a", "kind": "categorical"},
            {"name": "a=b", "kind": "categorical"},
            {"name": "y", "kind": "response"},
        ]}))
        rc = main([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 3
        assert "column 'a=b'" in capsys.readouterr().err

    @pytest.mark.parametrize("schema, message", [
        ({"columns": [5]}, "an array of objects"),
        ({"columns": {"a": 1}}, '"columns" is an array'),
        ([1, 2], '"columns" is an array'),
        ({"columns": [{"name": ["t"], "kind": "numerical"},
                      {"name": "y", "kind": "response"}]},
         "a column name must be a string"),
        ({"columns": [{"name": "t", "kind": "temporal", "period": 2,
                       "tau": 2.7},
                      {"name": "y", "kind": "response"}]},
         "column 't': tau must be an integer, got 2.7"),
    ])
    def test_malformed_schema_is_data_error(self, tmp_path, capsys, schema,
                                            message):
        data = tmp_path / "d.csv"
        data.write_text("t,y\n0,1\n1,2\n2,3\n3,1\n")
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema))
        rc = main([
            "train", "--data", str(data), "--schema", str(path),
            "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"temporal_rules": {"t": 5}},
         "temporal_rules: feature 't': expected an object"),
        ({"temporal_rules": {"t": {"period": 2.0}}},
         "temporal_rules: feature 't': seasonal period must be an integer"),
        ({"temporal_rules": {"t": {"period": 3, "tau": 1.5}}},
         "temporal_rules: feature 't': tau must be an integer"),
        ({"temporal_rules": {"t": {"period": 3, "step": 1}}},
         "temporal_rules: feature 't': expected an object"),
        ({"temporal_rules": [1]}, "temporal_rules must be an object"),
        ([1, 2], "a training config is an object, not list"),
    ])
    def test_malformed_config_is_data_error(self, pipeline, tmp_path,
                                            capsys, config, message):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps(config))
        rc = main([
            "train", "--data", pipeline["data"], "--schema",
            pipeline["schema"], "--out", str(tmp_path / "m.json"),
            "--config", str(config_path),
        ])
        assert rc == 3
        assert message in capsys.readouterr().err

    def test_tiny_pilot_is_data_error(self, pipeline, tmp_path, capsys):
        rc = main([
            "train", "--data", pipeline["data"], "--schema",
            pipeline["schema"], "--out", str(tmp_path / "m.json"),
            "--pilot-size", "0", "--sampling-threshold", "1000",
        ])
        assert rc == 3
        assert "pilot_size" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("max_cycles", 1.5),
        ("max_cycles", "3"),
        ("max_stage1_passes", 0),
        ("max_inner_iterations", True),
        ("outer_tol", float("nan")),
        ("smoothness", float("inf")),
        ("bandwidth_factor", 0),
        ("sampling_gamma", "1"),
        ("sampling", "no"),
        ("dynamic_ordering", 1),
        ("seed", -1),
    ])
    def test_bad_config_value_is_data_error(self, pipeline, tmp_path,
                                            capsys, field, value):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({field: value}))
        rc = main([
            "train", "--data", pipeline["data"], "--schema",
            pipeline["schema"], "--out", str(tmp_path / "m.json"),
            "--config", str(config_path), "--backend", "penalized",
        ])
        assert rc == 3
        assert field in capsys.readouterr().err

    def test_huge_gamma_caps_the_sample_at_the_data(self, pipeline,
                                                    tmp_path):
        out = tmp_path / "m.json"
        rc = main([
            "train", "--data", pipeline["data"], "--schema",
            pipeline["schema"], "--out", str(out), "--gamma", "1e308",
            "--sampling-threshold", "10", "--pilot-size", "10",
        ])
        assert rc == 0
        sampling = deserialize(out.read_bytes()).diagnostics["sampling"]
        assert sampling == {"sample_size": 1500, "pilot_size": 10}

    def test_unfactorable_numerical_smoother_exits_4(self, tmp_path,
                                                     capsys):
        # 5,000 uniform draws leave knot gaps near 1/n^2, and the banded
        # Cholesky of the penalized smoother breaks down on them
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, 5_000)
        y = np.sin(x) + rng.normal(0, 0.1, x.size)
        data = tmp_path / "uniform.csv"
        np.savetxt(data, np.column_stack([x, y]), fmt="%.17g",
                   delimiter=",", header="x,y", comments="")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": [
            {"name": "x", "kind": "numerical"},
            {"name": "y", "kind": "response"},
        ]}))
        rc = main([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(tmp_path / "m.json"), "--backend", "penalized",
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert "numerical feature 'x'" in err
        assert "smoothness=1.0" in err

    def test_singular_split_factor_exits_4(self, tmp_path, monkeypatch,
                                           capsys):
        import scipy.sparse.linalg

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        rng = np.random.default_rng(1)
        t = rng.integers(0, 60, 400)
        y = np.sin(2 * np.pi * t / 7) + rng.normal(0, 0.1, t.size)
        data = tmp_path / "daily.csv"
        np.savetxt(data, np.column_stack([t, y]), fmt=["%d", "%.17g"],
                   delimiter=",", header="day,y", comments="")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": [
            {"name": "day", "kind": "temporal", "period": 7},
            {"name": "y", "kind": "response"},
        ]}))
        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        rc = main([
            "train", "--data", str(data), "--schema", str(schema),
            "--out", str(tmp_path / "m.json"), "--backend", "penalized",
            "--trend-smoothness", "3",
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert "temporal feature 'day'" in err
        assert "trend_smoothness=3.0" in err

    def test_prediction_past_the_float_range_is_data_error(self, tmp_path,
                                                           capsys):
        model = tmp_path / "m.json"
        model.write_bytes(serialize(FxamModel(
            intercept=-1.7e308,
            shapes={"x": ShapeCurve(np.array([0.0]), np.array([-1e307]))},
            betas={}, temporals={},
            schema={"numerical": ["x"], "categorical": [], "temporal": []},
        )))
        data = tmp_path / "data.csv"
        data.write_text("x\n1.0\n")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": [
            {"name": "x", "kind": "numerical"},
            {"name": "y", "kind": "response"},
        ]}))
        out = tmp_path / "pred.csv"
        rc = main([
            "predict", "--model", str(model), "--data", str(data),
            "--schema", str(schema), "--out", str(out),
        ])
        assert rc == 3
        assert "record 0: the prediction is not finite" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_bad_schema_is_data_error(self, pipeline, tmp_path):
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps({"columns": [
            {"name": "y", "kind": "response"},
        ]}))
        rc = main([
            "train", "--data", pipeline["data"], "--schema", str(bad),
            "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 3


BACKENDS = st.sampled_from(["penalized", "fast-kernel"])
RESPONSE = st.floats(-10.0, 10.0)
# feature values to two decimals, as a CSV file records them
CENTS = st.integers(-10_000, 10_000).map(lambda cents: cents / 100)


def tiny_gap_examples(test):
    """``test`` with an explicit example per backend and tiny-gap column,
    each beside a constant column."""
    for backend in ("penalized", "fast-kernel"):
        for column in TINY_GAP_COLUMNS:
            test = example(
                backend=backend, constant=0.5, other=column,
                y=[1.0, -2.0, 3.0] * 9,
            )(test)
    return test


def write_table(path, columns):
    """A CSV file of ``columns`` (name -> values), in their order."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(columns))
        # repr() spells a float so that it reads back to the same bits
        writer.writerows(zip(*[
            [v if isinstance(v, str) else repr(v) for v in values]
            for values in columns.values()
        ]))


def train_and_predict(kinds, columns, backend, query=None, **rule):
    """Train through the CLI on ``columns`` (with response ``y``), whose
    feature kinds ``kinds`` gives, then predict the training records, or
    ``query`` when given.

    Returns the exit code and, when both steps succeed, the loaded model
    and the predictions.  ``rule`` holds a temporal column's ``period``
    and ``tau``.
    """
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        schema = root / "schema.json"
        schema.write_text(json.dumps({"columns": [
            {"name": name, "kind": kind,
             **(rule if kind == "temporal" else {})}
            for name, kind in {**kinds, "y": "response"}.items()
        ]}))
        write_table(root / "train.csv", columns)
        model = root / "model.json"
        rc = main([
            "train", "--data", str(root / "train.csv"), "--schema",
            str(schema), "--out", str(model), "--backend", backend,
        ])
        if rc != 0:
            return rc, None, None
        write_table(root / "query.csv", query or columns)
        out = root / "pred.csv"
        rc = main([
            "predict", "--model", str(model), "--data",
            str(root / "query.csv"), "--schema", str(schema),
            "--out", str(out),
        ])
        if rc != 0:
            return rc, None, None
        predictions = np.array([float(row[0]) for row in read_csv(out)[1:]])
        return rc, deserialize(model.read_bytes()), predictions


def assert_result(rc, predictions, n):
    assert rc in (0, DATA_ERROR, NON_CONVERGENCE)
    if rc == 0:
        assert predictions.shape == (n,)
        assert np.all(np.isfinite(predictions))


class TestEdgeShapeProperties:
    """Training and prediction on the smallest and emptiest shapes end in
    predictions or a documented exit code, never a raw traceback."""

    @settings(max_examples=30, deadline=None)
    @given(backend=BACKENDS, constant=CENTS,
           other=st.lists(CENTS, min_size=3, max_size=25),
           y=st.lists(RESPONSE, min_size=25, max_size=25))
    @tiny_gap_examples
    def test_constant_numerical_column(self, backend, constant, other, y):
        n = len(other)
        rc, model, predictions = train_and_predict(
            {"x": "numerical", "u": "numerical"},
            {"x": [constant] * n, "u": other, "y": y[:n]}, backend,
        )
        assert_result(rc, predictions, n)
        if rc == 0:
            assert model.shapes["x"].knots.tolist() == [constant]

    @settings(max_examples=30, deadline=None)
    @given(backend=BACKENDS, n=st.integers(1, 2),
           period=st.integers(1, 5), data=st.data())
    def test_one_or_two_records(self, backend, n, period, data):
        def column(values):
            return data.draw(st.lists(values, min_size=n, max_size=n))

        rc, _, predictions = train_and_predict(
            {"x": "numerical", "z": "categorical", "t": "temporal"},
            {"x": column(CENTS),
             "z": column(st.sampled_from(["a", "b"])),
             "t": column(st.integers(0, 50)),
             "y": column(RESPONSE)},
            backend, period=period, tau=1,
        )
        assert_result(rc, predictions, n)

    @settings(max_examples=30, deadline=None)
    @given(backend=BACKENDS, tau=st.integers(1, 3),
           period=st.integers(2, 24),
           ticks=st.sets(st.integers(0, 120), min_size=3, max_size=25),
           data=st.data())
    def test_temporal_empty_phases_and_gaps(self, backend, tau, period,
                                            ticks, data):
        # few, scattered times leave gaps between them and phases with no
        # record; prediction covers every time from before the first to
        # past the last, gaps and empty phases included
        times = [tau * tick for tick in sorted(ticks)]
        y = data.draw(st.lists(RESPONSE, min_size=len(times),
                               max_size=len(times)))
        query = list(range(-tau * period, tau * (max(ticks) + period), tau))
        rc, _, predictions = train_and_predict(
            {"t": "temporal"}, {"t": times, "y": y}, backend,
            query={"t": query}, period=period, tau=tau,
        )
        assert_result(rc, predictions, len(query))
