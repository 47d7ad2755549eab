import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_toy_dataset, tight_toy_config

from fxam.model import (
    FxamModel,
    ShapeCurve,
    TemporalCurves,
    deserialize,
    export_contributions,
    predict,
    predict_batch,
    serialize,
)
from fxam.training import tsi_train


def small_model():
    return FxamModel(
        intercept=1.0,
        shapes={"x": ShapeCurve(np.array([0.0, 1.0]), np.array([0.0, 2.0]))},
        betas={"z=a": 1.5, "z=b": -0.5},
        temporals={},
        schema={"numerical": ["x"], "categorical": ["z"], "temporal": []},
    )


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def quote_floats(obj):
    """A payload as earlier versions wrote it: every float a repr() string."""
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, list):
        return [quote_floats(v) for v in obj]
    if isinstance(obj, dict):
        return {k: quote_floats(v) for k, v in obj.items()}
    return obj


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_bit_identical(clone, model):
    """Same intercept, betas and curves, to the bit (so -0.0 != 0.0)."""
    assert bits(clone.intercept) == bits(model.intercept)
    assert list(clone.betas) == list(model.betas)
    assert bits(list(clone.betas.values())) == bits(list(model.betas.values()))
    pairs = [(clone.shapes[k], c) for k, c in model.shapes.items()]
    for name, tc in model.temporals.items():
        other = clone.temporals[name]
        assert (other.tau, other.period) == (tc.tau, tc.period)
        pairs.append((other.trend, tc.trend))
        pairs += zip(other.seasonal_phases, tc.seasonal_phases, strict=True)
    for got, want in pairs:
        assert bits(got.knots) == bits(want.knots)
        assert bits(got.values) == bits(want.values)


def temporal_model():
    curves = TemporalCurves(
        tau=2, period=2,
        trend=ShapeCurve(np.array([0.0, 2.0]), np.array([1.0, 1.0])),
        seasonal_phases=(
            ShapeCurve(np.array([0.0]), np.array([0.5])),
            ShapeCurve(np.array([2.0]), np.array([-0.5])),
        ),
    )
    return FxamModel(
        intercept=0.0, shapes={}, betas={}, temporals={"t": curves},
        schema={"numerical": [], "categorical": [], "temporal": ["t"]},
    )


@pytest.fixture(scope="module")
def trained():
    dataset = make_toy_dataset(0)
    model = tsi_train(dataset, tight_toy_config())
    return dataset, model


def shape_at(curve, *xs):
    """The curve's predictions at xs, through a one-feature model."""
    model = FxamModel(
        intercept=0.0, shapes={"x": curve}, betas={}, temporals={},
        schema={"numerical": ["x"], "categorical": [], "temporal": []},
    )
    return predict_batch(model, {"x": np.array(xs)}).tolist()


class TestShapeCurve:
    def test_exact_at_knots(self):
        curve = ShapeCurve(np.array([0.0, 2.0, 5.0]),
                           np.array([1.0, -1.0, 4.0]))
        assert shape_at(curve, 2.0) == [-1.0]

    def test_midpoint_interpolates(self):
        curve = ShapeCurve(np.array([0.0, 1.0]), np.array([2.0, 4.0]))
        assert shape_at(curve, 0.5) == [3.0]

    def test_clamped_outside_range(self):
        curve = ShapeCurve(np.array([0.0, 1.0]), np.array([2.0, 4.0]))
        assert shape_at(curve, -10.0, 10.0) == [2.0, 4.0]

    def test_empty_curve_rejected_at_eval(self):
        curve = ShapeCurve(np.array([]), np.array([]))
        with pytest.raises(ValueError, match="'x': .*empty"):
            shape_at(curve, 0.0)

    def test_non_increasing_knots_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ShapeCurve(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


class TestPredict:
    def test_interpolated_contribution(self):
        model = small_model()
        assert predict(model, {"x": 0.5, "z": "a"}) == pytest.approx(
            1.0 + 1.0 + 1.5
        )

    def test_unseen_category_contributes_zero(self):
        model = small_model()
        seen = predict(model, {"x": 0.5, "z": "a"})
        unseen = predict(model, {"x": 0.5, "z": "mystery"})
        assert unseen == pytest.approx(seen - 1.5)

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError, match="missing required column"):
            predict(small_model(), {"x": 0.5})

    def test_non_finite_numeric_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            predict(small_model(), {"x": np.nan, "z": "a"})

    def test_training_records_match_stored_fit(self, trained):
        dataset, model = trained
        columns = {}
        for mapping in (dataset.numerical, dataset.categorical,
                        dataset.temporal):
            columns.update(mapping)
        batch = predict_batch(model, columns)
        # row-by-row predict agrees with the vectorized path
        for i in (0, 7, 150):
            record = {name: columns[name][i] for name in columns}
            assert predict(model, record) == batch[i]

    def test_model_without_features_predicts_intercept(self):
        model = FxamModel(
            intercept=2.5, shapes={}, betas={}, temporals={},
            schema={"numerical": [], "categorical": [], "temporal": []},
        )
        assert predict(model, {}) == 2.5

    def test_temporal_divisibility_enforced(self):
        curves = TemporalCurves(
            tau=2, period=2,
            trend=ShapeCurve(np.array([0.0, 2.0]), np.array([1.0, 1.0])),
            seasonal_phases=(
                ShapeCurve(np.array([0.0]), np.array([0.5])),
                ShapeCurve(np.array([2.0]), np.array([-0.5])),
            ),
        )
        model = FxamModel(
            intercept=0.0, shapes={}, betas={}, temporals={"t": curves},
            schema={"numerical": [], "categorical": [], "temporal": ["t"]},
        )
        assert predict(model, {"t": 2}) == pytest.approx(1.0 - 0.5)
        with pytest.raises(ValueError, match="divisible"):
            predict(model, {"t": 3})

    @pytest.mark.parametrize("t", [2.5, np.nan, np.inf])
    def test_non_integer_time_rejected(self, t):
        with pytest.raises(ValueError, match="column 't'"):
            predict(temporal_model(), {"t": t})

    def test_short_categorical_column_rejected(self):
        # a one-element column is not broadcast over the batch
        with pytest.raises(ValueError, match="column 'z'"):
            predict_batch(small_model(), {"x": [0.0, 0.5, 1.0], "z": ["b"]})

    def test_non_numeric_value_names_column_and_record(self):
        with pytest.raises(ValueError,
                           match="column 'x': record 1: 'abc' is not a"):
            predict_batch(small_model(), {"x": ["0.5", "abc"],
                                          "z": ["a", "a"]})
        with pytest.raises(ValueError,
                           match="column 't': record 1: 'abc' is not a"):
            predict_batch(temporal_model(), {"t": ["2", "abc"]})

    def test_object_categorical_column(self):
        # None is keyed as the unseen label "None" and contributes zero
        got = predict_batch(small_model(), {
            "x": [0.5, 0.5], "z": np.array(["a", None], dtype=object),
        })
        assert got.tolist() == [1.0 + 1.0 + 1.5, 1.0 + 1.0]

    def test_short_temporal_column_rejected(self):
        model = FxamModel(
            intercept=0.0, shapes=small_model().shapes, betas={},
            temporals=temporal_model().temporals,
            schema={"numerical": ["x"], "categorical": [], "temporal": ["t"]},
        )
        with pytest.raises(ValueError, match="column 't'"):
            predict_batch(model, {"x": [0.0, 0.5, 1.0], "t": [0, 2]})


def training_columns(dataset):
    columns = {}
    for mapping in (dataset.numerical, dataset.categorical,
                    dataset.temporal):
        columns.update(mapping)
    return columns


# labels whose str form is none of the toy data's z1 labels (a, b, c);
# NUL is left out because numpy drops a trailing one
UNSEEN = st.one_of(
    st.none(), st.integers(),
    st.text(st.characters(exclude_characters="\x00"), max_size=8),
).filter(lambda label: str(label) not in ("a", "b", "c"))


class TestPredictionProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_row_permutation_permutes_predictions(self, trained, seed):
        dataset, model = trained
        columns = training_columns(dataset)
        order = np.random.default_rng(seed).permutation(dataset.n_records)
        shuffled = {name: col[order] for name, col in columns.items()}
        assert bits(predict_batch(model, shuffled)) == bits(
            predict_batch(model, columns)[order]
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_unseen_label_contributes_exactly_zero(self, trained, data):
        dataset, model = trained
        columns = training_columns(dataset)
        n = dataset.n_records
        hits = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  max_size=20, unique=True))
        labels = data.draw(st.lists(UNSEEN, min_size=len(hits),
                                    max_size=len(hits)))
        z1 = columns["z1"].astype(object)
        for i, label in zip(hits, labels):
            z1[i] = label
        got = predict_batch(model, {**columns, "z1": z1})
        # the same model with feature z1 left out of its schema entirely
        schema = dict(model.schema, categorical=["z2"])
        without = predict_batch(replace(model, schema=schema), columns)
        assert bits(got[hits]) == bits(without[hits])


class TestSerialization:
    def test_round_trip_is_bit_faithful(self, trained):
        dataset, model = trained
        clone = deserialize(serialize(model))
        assert clone.intercept == model.intercept
        for name, curve in model.shapes.items():
            np.testing.assert_array_equal(clone.shapes[name].knots,
                                          curve.knots)
            np.testing.assert_array_equal(clone.shapes[name].values,
                                          curve.values)
        assert clone.betas == model.betas
        for name, tc in model.temporals.items():
            other = clone.temporals[name]
            np.testing.assert_array_equal(other.trend.values,
                                          tc.trend.values)
            for a, b in zip(other.seasonal_phases, tc.seasonal_phases):
                np.testing.assert_array_equal(a.values, b.values)

    def test_round_trip_predicts_identically(self, trained):
        dataset, model = trained
        clone = deserialize(serialize(model))
        columns = {}
        for mapping in (dataset.numerical, dataset.categorical,
                        dataset.temporal):
            columns.update(mapping)
        np.testing.assert_array_equal(
            predict_batch(clone, columns), predict_batch(model, columns)
        )

    def test_payload_is_compact_json(self, trained):
        _, model = trained
        payload = serialize(model)
        doc = json.loads(payload)
        assert payload == json.dumps(doc, separators=(",", ":")).encode()

    def test_indented_payload_predicts_identically(self, trained):
        # model files written with json.dumps(doc, indent=1) stay readable
        dataset, model = trained
        indented = json.dumps(json.loads(serialize(model)), indent=1)
        clone = deserialize(indented.encode("utf-8"))
        columns = {}
        for mapping in (dataset.numerical, dataset.categorical,
                        dataset.temporal):
            columns.update(mapping)
        expected = predict_batch(model, columns)
        got = predict_batch(clone, columns)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_flags_round_trip_as_booleans(self, trained):
        _, model = trained
        payload = serialize(model)
        clone = deserialize(payload)
        assert clone.diagnostics["converged"] is True
        flags = clone.diagnostics["stage3"]["converged"]
        assert flags and all(flag is True for flag in flags)
        # files that wrote the flags as 0/1 still load
        legacy = payload.replace(b'"converged":true', b'"converged":1')
        assert legacy != payload
        assert deserialize(legacy).converged is True

    def test_empty_categorical_model_round_trips(self):
        model = FxamModel(
            intercept=2.0,
            shapes={"x": ShapeCurve(np.array([0.0, 1.0]),
                                    np.array([1.0, -1.0]))},
            betas={},
            temporals={},
            schema={"numerical": ["x"], "categorical": [], "temporal": []},
        )
        clone = deserialize(serialize(model))
        assert clone.betas == {}
        assert clone.intercept == 2.0

    @settings(max_examples=100, deadline=None)
    @given(
        intercept=FINITE,
        points=st.dictionaries(FINITE, FINITE, min_size=1, max_size=20),
        betas=st.lists(FINITE, max_size=5),
    )
    @example(intercept=-0.0, points={-0.0: 5e-324, 1.7e308: -1.7e308},
             betas=[2.2250738585072014e-308, -0.0])
    def test_finite_numbers_round_trip_bit_for_bit(self, intercept, points,
                                                   betas):
        knots = np.array(sorted(points))
        curve = ShapeCurve(knots, np.array([points[k] for k in knots]))
        model = FxamModel(
            intercept=intercept, shapes={"x": curve},
            betas={f"z={j}": b for j, b in enumerate(betas)},
            temporals={"t": TemporalCurves(
                tau=1, period=2, trend=curve,
                seasonal_phases=(curve, ShapeCurve([], [])),
            )},
            schema={"numerical": ["x"], "categorical": ["z"],
                    "temporal": ["t"]},
        )
        payload = serialize(model)
        assert_bit_identical(deserialize(payload), model)
        # the quoted, indented form written by earlier versions of the
        # format loads to the same numbers
        legacy = json.dumps(quote_floats(json.loads(payload)), indent=1)
        assert_bit_identical(deserialize(legacy.encode("utf-8")), model)

    def test_quoted_payload_predicts_identically(self, trained):
        dataset, model = trained
        doc = quote_floats(json.loads(serialize(model)))
        assert isinstance(doc["intercept"], str)
        clone = deserialize(json.dumps(doc, indent=1).encode("utf-8"))
        assert_bit_identical(clone, model)
        columns = {}
        for mapping in (dataset.numerical, dataset.categorical,
                        dataset.temporal):
            columns.update(mapping)
        expected = predict_batch(model, columns)
        assert predict_batch(clone, columns).tobytes() == expected.tobytes()
        assert clone.converged is True

    @pytest.mark.parametrize("field", ["intercept", "beta"])
    def test_non_finite_number_rejected(self, field):
        model = small_model()
        if field == "intercept":
            model = replace(model, intercept=np.nan)
        else:
            model = replace(model, betas={"z=a": np.nan})
        with pytest.raises(ValueError):
            serialize(model)

    def test_version_mismatch_rejected(self, trained):
        _, model = trained
        payload = serialize(model).replace(
            b"fxam-model/1", b"fxam-model/999"
        )
        with pytest.raises(ValueError, match="version"):
            deserialize(payload)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            deserialize(b"{not json")


class TestExportContributions:
    def test_categorical_rows(self):
        rows = export_contributions(small_model())
        cat = [r for r in rows if r["component"] == "categorical"]
        assert {(r["feature"], r["x"], r["value"]) for r in cat} == {
            ("z", "a", 1.5), ("z", "b", -0.5),
        }

    def test_shape_rows_match_curve(self):
        rows = export_contributions(small_model())
        shape = [r for r in rows if r["component"] == "shape"]
        assert [(r["x"], r["value"]) for r in shape] == [
            (0.0, 0.0), (1.0, 2.0),
        ]

    def test_trained_export_reproduces_components(self, trained):
        dataset, model = trained
        rows = export_contributions(model)
        by_kind = {}
        for row in rows:
            by_kind.setdefault(row["component"], []).append(row)
        assert set(by_kind) == {"shape", "categorical", "trend", "seasonal"}
        # seasonal rows reproduce the stored phase curves
        tc = model.temporals["t"]
        for row in by_kind["seasonal"]:
            curve = tc.seasonal_phases[row["phase"]]
            at = np.flatnonzero(curve.knots == row["x"])[0]
            assert row["value"] == pytest.approx(float(curve.values[at]))

    def test_noiseless_slope_recovered(self):
        # linear truth: the exported curve's interior secants are the slope
        from fxam.data import Dataset

        rng = np.random.default_rng(0)
        x = np.cumsum(rng.uniform(0.5, 1.5, 300))
        rng.shuffle(x)
        y = 2.0 * x
        ds = Dataset(response=y, numerical={"x": x})
        model = tsi_train(ds, tight_toy_config(temporal_rules={}))
        curve = model.shapes["x"]
        slopes = np.diff(curve.values) / np.diff(curve.knots)
        np.testing.assert_allclose(slopes, 2.0, atol=1e-6)
