import csv
import json
from pathlib import Path

import numpy as np
import pytest

from fxam.cli import main
from fxam.model import deserialize


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
            "--no-dfi-ablation", "--no-temporal-stage",
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

    def test_tiny_pilot_is_data_error(self, pipeline, tmp_path, capsys):
        rc = main([
            "train", "--data", pipeline["data"], "--schema",
            pipeline["schema"], "--out", str(tmp_path / "m.json"),
            "--pilot-size", "0", "--sampling-threshold", "1000",
        ])
        assert rc == 3
        assert "pilot_size" in capsys.readouterr().err

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
