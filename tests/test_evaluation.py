import numpy as np
import pytest

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
