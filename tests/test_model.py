import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    MALFORMED_CURVES,
    make_toy_dataset,
    malformed_curve_file,
    tight_toy_config,
)

from fxam import model as model_module
from fxam.model import (
    FORMAT_VERSION,
    FxamModel,
    ShapeCurve,
    TemporalCurves,
    deserialize,
    export_contributions,
    guided_interp,
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

    @pytest.mark.parametrize("knots", [
        [0.0, np.nan], [np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0],
        [np.nan],
    ], ids=["nan-last", "nan-first", "inf", "-inf", "single-nan"])
    def test_non_finite_knots_rejected(self, knots):
        with pytest.raises(ValueError, match="knots must be finite"):
            ShapeCurve(knots, np.ones(len(knots)))


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

    def test_sum_past_the_float_range_names_the_record(self):
        # every term is finite; their sum is not, from record 1 on
        model = FxamModel(
            intercept=-1.7e308,
            shapes={"x": ShapeCurve(np.array([0.0, 1.0]),
                                    np.array([0.0, -1e307]))},
            betas={}, temporals={},
            schema={"numerical": ["x"], "categorical": [], "temporal": []},
        )
        assert predict_batch(model, {"x": [0.0]}).tolist() == [-1.7e308]
        with pytest.raises(ValueError,
                           match="record 1: the prediction is not finite"):
            predict_batch(model, {"x": [0.0, 1.0, 1.0]})

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


TEMPORAL_ONLY = {"numerical": [], "categorical": [], "temporal": ["t"]}


def loop_prediction(model, t):
    """A one-temporal-feature model's predictions, each seasonal phase
    evaluated by its own mask and np.interp call."""
    tc = model.temporals["t"]
    times = t.astype(float)
    total = np.full(t.size, model.intercept)
    total += np.interp(times, tc.trend.knots, tc.trend.values)
    phases = (t // tc.tau) % tc.period
    for phi, curve in enumerate(tc.seasonal_phases):
        if not curve.is_empty:
            mask = phases == phi
            total[mask] += np.interp(times[mask], curve.knots, curve.values)
    return total


@st.composite
def seasonal_cases(draw):
    """A one-temporal-feature model and times to predict at.  Knots are
    small integers, integers whose span is too wide to shift exactly, or
    any floats."""
    tau = draw(st.integers(1, 3))
    period = draw(st.integers(1, 6))
    reach = draw(st.sampled_from([60, 2**60]))
    knot = draw(st.sampled_from([
        st.integers(-reach, reach).map(float),
        st.floats(-1e3, 1e3, allow_nan=False),
    ]))
    # bounded, so no sum overflows
    values = st.floats(-1e6, 1e6)

    def curve(min_size):
        knots = sorted(draw(st.sets(knot, min_size=min_size, max_size=6)))
        return ShapeCurve(
            knots, draw(st.lists(values, min_size=len(knots),
                                 max_size=len(knots))),
        )

    curves = TemporalCurves(
        tau=tau, period=period, trend=curve(1),
        seasonal_phases=tuple(curve(0) for _ in range(period)),
    )
    model = FxamModel(
        intercept=draw(values), shapes={}, betas={},
        temporals={"t": curves}, schema=TEMPORAL_ONLY,
    )
    ticks = draw(st.lists(st.integers(-reach - 5, reach + 5), min_size=1,
                          max_size=30))
    return model, np.array(ticks, dtype=np.int64) * tau


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

    @settings(max_examples=200, deadline=None)
    @given(case=seasonal_cases())
    @example(case=(
        # an empty phase, a one-knot phase, times outside every knot, and
        # -0.0 totals that an added +0.0 would turn into +0.0
        FxamModel(
            intercept=-0.0, shapes={}, betas={}, schema=TEMPORAL_ONLY,
            temporals={"t": TemporalCurves(
                tau=2, period=3,
                trend=ShapeCurve([0.0], [-0.0]),
                seasonal_phases=(
                    ShapeCurve([0.0, 6.0, 12.0], [1.0, -0.0, 3.0]),
                    ShapeCurve([], []),
                    ShapeCurve([4.0], [-0.5]),
                ),
            )},
        ),
        np.array([-12, -2, 0, 2, 4, 6, 8, 10, 12, 14, 16, 40]),
    ))
    def test_seasonal_phases_match_one_interp_per_phase(self, case):
        model, t = case
        assert bits(predict_batch(model, {"t": t})) == bits(
            loop_prediction(model, t)
        )


def knot_sets(kind, m, data):
    """``m`` or fewer strictly increasing finite knots of one ``kind``."""
    if kind == "uniform":
        start = data.draw(st.floats(-1e3, 1e3))
        step = data.draw(st.floats(1e-3, 10.0))
        knots = start + step * np.arange(m)
    elif kind == "integer":
        knots = np.array(sorted(data.draw(st.sets(
            st.integers(-50, 50), min_size=1, max_size=m,
        ))), dtype=float)
    elif kind == "clustered":
        gaps = data.draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
        knots = 0.5 + np.cumsum(gaps) * 1e-12
    elif kind == "lognormal":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        knots = rng.lognormal(0.0, 2.0, m)
    elif kind == "overflowing":
        # the span, knots[-1] - knots[0], overflows to inf
        inner = data.draw(st.lists(st.floats(-1.7e308, 1.7e308),
                                   max_size=m))
        knots = np.array([-1.7e308, 1.7e308, *inner])
    else:  # subnormal
        knots = np.array(sorted(data.draw(st.sets(
            st.integers(-40, 40), min_size=1, max_size=m,
        ))), dtype=float) * 5e-324
    return np.unique(knots)


def interp_queries(knots, data):
    """At least ``knots.size`` queries: at knots, between them, beyond
    both ends and at signed zeros."""
    low, high = float(knots[0]), float(knots[-1])
    query = st.one_of(
        st.sampled_from(knots.tolist()),
        st.floats(low, high),
        st.sampled_from([
            -0.0, 0.0, -1.7e308, 1.7e308,
            float(np.nextafter(low, -np.inf)),
            float(np.nextafter(high, np.inf)),
        ]),
    )
    return np.array(data.draw(st.lists(query, min_size=knots.size,
                                       max_size=knots.size + 40)))


class TestGuidedInterp:
    """guided_interp must return np.interp's result to the bit."""

    @pytest.mark.parametrize("crowded_share", [
        model_module._CROWDED_SHARE,
        1.0,  # never falls back on crowding, so every search path runs
    ])
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "integer", "clustered", "lognormal",
                              "overflowing", "subnormal"]),
        m=st.integers(1, 40),
        data=st.data(),
    )
    def test_matches_np_interp_bit_for_bit(self, crowded_share, kind, m,
                                           data):
        knots = knot_sets(kind, m, data)
        # signed zeros, and extremes whose slopes overflow to infinity
        value = st.one_of(
            st.sampled_from([0.0, -0.0, 1e308, -1e308]), FINITE,
        )
        values = np.array(data.draw(st.lists(
            value, min_size=knots.size, max_size=knots.size,
        )), dtype=float)
        x = interp_queries(knots, data)
        with mock.patch.object(model_module, "_CROWDED_SHARE",
                               crowded_share):
            got = guided_interp(x, knots, values)
        assert bits(got) == bits(np.interp(x, knots, values))

    @pytest.mark.parametrize("knots,values", [
        ([0.0], [-0.0]),
        ([-1.0, 1.0], [-1e308, 1e308]),
        ([-1e308, 1e308], [1.0, -0.0]),
        ([0.0, 5e-324, 1e-323], [1e308, -1e308, 0.0]),
    ], ids=["one-knot", "overflowing-slope", "overflowing-span",
            "subnormal-span"])
    def test_edge_curves(self, knots, values):
        knots, values = np.array(knots), np.array(values)
        x = np.array([-np.inf, -1.7e308, -1.0, -0.0, 0.0, 5e-324, 0.5,
                      1.0, 1.7e308, np.inf, *knots])
        assert bits(guided_interp(x, knots, values)) == bits(
            np.interp(x, knots, values)
        )

    @pytest.mark.parametrize("crowded_share", [
        model_module._CROWDED_SHARE, 1.0,
    ])
    def test_crowded_cell(self, crowded_share):
        # twenty knots 1e-12 apart share one cell of a [0, 1] table, so a
        # query among them is left to the binary search
        knots = np.unique(np.concatenate([
            np.linspace(0.0, 1.0, 20), 0.5 + np.arange(20) * 1e-12,
        ]))
        values = np.cos(np.arange(knots.size) * 1e6)
        x = np.concatenate([0.5 + np.linspace(0, 2e-11, 40),
                            np.linspace(-0.5, 1.5, 20)])
        with mock.patch.object(model_module, "_CROWDED_SHARE",
                               crowded_share):
            got = guided_interp(x, knots, values)
        assert bits(got) == bits(np.interp(x, knots, values))

    def test_nan_query_falls_back(self):
        knots = np.arange(4.0)
        x = np.array([0.5, np.nan, 1.5, 2.5, 3.5])
        got = guided_interp(x, knots, knots ** 2)
        assert bits(got) == bits(np.interp(x, knots, knots ** 2))

    def test_single_record_takes_np_interp(self, monkeypatch):
        curve = ShapeCurve(np.linspace(0.0, 1.0, 50), np.linspace(0, 2, 50))
        model = FxamModel(
            intercept=0.0, shapes={"x": curve}, betas={}, temporals={},
            schema={"numerical": ["x"], "categorical": [], "temporal": []},
        )
        calls = []
        interp = np.interp

        def spy(*args):
            calls.append(np.size(args[0]))
            return interp(*args)

        monkeypatch.setattr(np, "interp", spy)
        predict(model, {"x": 0.25})
        assert calls == [1]
        # a batch of more queries than knots goes through the table
        predict_batch(model, {"x": np.linspace(-1.0, 2.0, 200)})
        assert calls == [1]


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
    # numbers whose shortest decimal the writer spells unlike repr()
    @example(intercept=1e-05,
             points={-1e-05: 1e16, 2.5e-310: 1e22, 1e16: -2.5e-310,
                     1.2345678901234568e17: 1e-05},
             betas=[1.2345678901234568e17, -1e22])
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

    @pytest.mark.parametrize("field", [
        "intercept", "beta", "curve", "diagnostic", "numpy-diagnostic",
        "array-diagnostic",
    ])
    def test_non_finite_number_rejected(self, field):
        # the writer would spell each of these as null
        model = small_model()
        if field == "intercept":
            model = replace(model, intercept=np.nan)
        elif field == "beta":
            model = replace(model, betas={"z=a": np.nan})
        elif field == "curve":
            model.shapes["x"].values[1] = np.inf  # the arrays stay writable
        else:
            value = {
                "diagnostic": np.inf,
                "numpy-diagnostic": np.float64(-np.inf),
                "array-diagnostic": np.array([1.0, np.nan]),
            }[field]
            model = replace(model, diagnostics={"timings": {"x": value}})
        with pytest.raises(ValueError, match=r"non-finite number in model\."):
            serialize(model)

    @pytest.mark.parametrize("value", [
        np.longdouble(1) / np.longdouble(3), np.float32(0.1),
    ], ids=["longdouble", "float32"])
    def test_numpy_float_diagnostics_written_as_float64(self, value):
        model = replace(small_model(), diagnostics={
            "x": value, "xs": np.array([value, -value]), "nested": [value],
        })
        clone = deserialize(serialize(model))
        expected = float(np.float64(value))
        assert clone.diagnostics == {
            "x": expected, "xs": [expected, -expected], "nested": [expected],
        }

    def test_version_mismatch_rejected(self, trained):
        _, model = trained
        payload = serialize(model).replace(
            FORMAT_VERSION.encode(), b"fxam-model/999"
        )
        with pytest.raises(ValueError, match="version"):
            deserialize(payload)

    def test_curves_are_little_endian_float64_base64(self):
        doc = json.loads(serialize(small_model()))
        assert doc["version"] == "fxam-model/2"
        assert doc["shapes"]["x"] == {
            "knots": "AAAAAAAAAAAAAAAAAADwPw==",
            "values": "AAAAAAAAAAAAAAAAAAAAQA==",
        }

    def test_list_format_loads_to_the_same_bits(self, trained):
        # fxam-model/1 held each curve as an array of JSON numbers; earlier
        # files also quoted every number and indented the document
        _, model = trained

        def listed(curve):
            return {"knots": curve.knots.tolist(),
                    "values": curve.values.tolist()}

        doc = json.loads(serialize(model))
        doc["version"] = "fxam-model/1"
        doc["shapes"] = {name: listed(c) for name, c in model.shapes.items()}
        for name, tc in model.temporals.items():
            doc["temporals"][name]["trend"] = listed(tc.trend)
            doc["temporals"][name]["seasonal_phases"] = [
                listed(c) for c in tc.seasonal_phases
            ]
        numbers = json.dumps(doc, separators=(",", ":"))
        quoted = json.dumps(quote_floats(doc), indent=1)
        for legacy in (numbers, quoted):
            clone = deserialize(legacy.encode("utf-8"))
            assert_bit_identical(clone, model)
            assert clone.shapes["x1"].values.flags.writeable

    def test_loaded_curves_are_owned_and_writable(self, trained):
        _, model = trained
        curve = deserialize(serialize(model)).shapes["x1"]
        for array in (curve.knots, curve.values):
            assert array.flags.owndata and array.flags.writeable
            assert array.dtype == np.float64

    @pytest.mark.parametrize("case", list(MALFORMED_CURVES))
    def test_malformed_packed_curve_rejected(self, case):
        with pytest.raises(ValueError,
                           match=r"malformed model payload: shapes\.x"):
            deserialize(malformed_curve_file(case))

    @pytest.mark.parametrize("field", ["intercept", "beta"])
    @pytest.mark.parametrize("token", [
        "NaN", "Infinity", "-Infinity", "1e400", '"nan"', "true", "null",
    ])
    def test_non_finite_number_rejected_on_load(self, field, token):
        doc = json.loads(serialize(small_model()))
        if field == "intercept":
            doc["intercept"] = "@"
            what = "intercept"
        else:
            doc["betas"]["z=a"] = "@"
            what = "betas.z=a"
        payload = json.dumps(doc).replace('"@"', token).encode("utf-8")
        with pytest.raises(ValueError, match=(
            f"malformed model payload: {what} is .*, not a finite number"
        )):
            deserialize(payload)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity",
                                       "1e400"])
    @pytest.mark.parametrize("where,diagnostics", [
        ("diagnostics.x", {"x": "@"}),
        ("diagnostics.timings.fit", {"timings": {"fit": "@", "n": 1}}),
        (r"diagnostics.objective_history\[1\]",
         {"objective_history": [2.0, "@"]}),
    ], ids=["top", "nested", "listed"])
    def test_non_finite_diagnostic_rejected_on_load(self, token, where,
                                                    diagnostics):
        # loaded, it could not be written back
        doc = json.loads(serialize(small_model()))
        doc["diagnostics"] = diagnostics
        payload = json.dumps(doc).replace('"@"', token).encode("utf-8")
        with pytest.raises(ValueError, match=(
            f"malformed model payload: {where} is .*, not a finite number"
        )):
            deserialize(payload)

    @pytest.mark.parametrize("field", ["intercept", "beta"])
    @pytest.mark.parametrize("text", ["1_0", " 1", "1\n"],
                             ids=["underscore", "space", "newline"])
    def test_quoted_number_unlike_repr_rejected(self, field, text):
        # float() takes each of these; repr() writes none of them
        doc = json.loads(serialize(small_model()))
        if field == "intercept":
            doc["intercept"] = text
            what = "intercept"
        else:
            doc["betas"]["z=a"] = text
            what = "betas.z=a"
        with pytest.raises(ValueError, match=(
            f"malformed model payload: {what} is .*, not a finite number"
        )):
            deserialize(json.dumps(doc).encode("utf-8"))

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            deserialize(b"{not json")

    @pytest.mark.parametrize("payload", [b"[]", b"null", b'"x"', b"1.5"])
    def test_non_object_document_rejected(self, payload):
        with pytest.raises(ValueError, match="malformed model payload"):
            deserialize(payload)

    @pytest.mark.parametrize("field,value,message", [
        ("tau", 0, "must be positive"), ("period", 0, "must be positive"),
        ("period", 3, "2 seasonal phases for period=3"),
        ("tau", 2.7, "malformed model payload"),
        ("period", "24", "malformed model payload"),
        ("tau", True, "malformed model payload"),
    ])
    def test_inconsistent_temporal_entry_rejected(self, field, value,
                                                  message):
        doc = json.loads(serialize(temporal_model()))
        doc["temporals"]["t"][field] = value
        with pytest.raises(ValueError, match=message):
            deserialize(json.dumps(doc).encode("utf-8"))

    @pytest.mark.parametrize("path,value", [
        ("shapes", []), ("betas", [1.0]), ("temporals", []),
        ("schema", ["x"]), ("diagnostics", []), ("schema.numerical", "x"),
    ])
    def test_misshapen_section_rejected(self, path, value):
        doc = json.loads(serialize(small_model()))
        *parents, key = path.split(".")
        section = doc
        for parent in parents:
            section = section[parent]
        section[key] = value
        with pytest.raises(ValueError, match="malformed model payload"):
            deserialize(json.dumps(doc).encode("utf-8"))


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
