"""The trained additive model: evaluable curves, weights, serialization.

A fitted model is an intercept plus piecewise-linear shape curves over
the training knots (numerical features), a weight per categorical value,
and trend plus per-phase seasonal curves per temporal feature.  Values
between knots are linearly interpolated and clamped outside the observed
range; unseen categorical values contribute zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import LABEL_SEPARATOR, factorize, float_column, integer_times

FORMAT_VERSION = "fxam-model/1"


@dataclass(frozen=True)
class ShapeCurve:
    """A contribution curve sampled at strictly increasing knots."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if knots.shape != values.shape or knots.ndim != 1:
            raise ValueError("knots and values must be 1-d and equally long")
        if knots.size and not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")

    @property
    def is_empty(self):
        return self.knots.size == 0


@dataclass(frozen=True)
class TemporalCurves:
    """Deployable form of one temporal feature's components."""

    tau: int
    period: int
    trend: ShapeCurve
    seasonal_phases: tuple  # of ShapeCurve, length == period


@dataclass(frozen=True)
class FxamModel:
    """Immutable trained artifact; safe to share across threads."""

    intercept: float
    shapes: dict          # numerical feature -> ShapeCurve
    betas: dict           # homogeneous label ("feature=value") -> weight
    temporals: dict       # temporal feature -> TemporalCurves
    schema: dict          # kind -> ordered feature names
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for kind in ("numerical", "categorical", "temporal"):
            if kind not in self.schema:
                raise ValueError(f"schema is missing the '{kind}' kind")
        if set(self.schema["numerical"]) != set(self.shapes):
            raise ValueError("schema and shape curves disagree")
        if set(self.schema["temporal"]) != set(self.temporals):
            raise ValueError("schema and temporal curves disagree")

    @property
    def converged(self):
        return bool(self.diagnostics.get("converged", True))


def predict(model, record):
    """Predict the response for one record (a name -> value mapping).

    The record is one row of :func:`predict_batch`, so both give the
    same value and raise the same errors.  Unseen categorical values
    contribute zero (the ridge prior's mean).
    """
    row = predict_batch(
        model, {name: [value] for name, value in record.items()}
    )
    # a model without features has no column to size the batch
    return float(row[0]) if row.size else float(model.intercept)


def predict_batch(model, columns):
    """Vectorized prediction over column arrays (name -> 1-d array).

    Every column must be as long as the first.  Numerical values must be
    finite, and temporal values finite integers divisible by the
    feature's tau.  Categorical values are matched by their ``str`` form,
    and one the model has not seen contributes zero.  Curves are
    interpolated linearly between knots and clamped outside them; an
    empty seasonal phase contributes zero.

    Raises
    ------
    ValueError
        Naming the column, on a missing, misshapen or invalid column.
    """
    names = (
        model.schema["numerical"]
        + model.schema["categorical"]
        + model.schema["temporal"]
    )
    arrays = {}
    for name in names:
        if name not in columns:
            raise ValueError(f"missing required column '{name}'")
        arrays[name] = np.asarray(columns[name])
    n = arrays[names[0]].size if names else 0
    for name, col in arrays.items():
        if col.shape != (n,):
            raise ValueError(
                f"column '{name}': expected {n} values, got shape "
                f"{col.shape}"
            )
    total = np.full(n, model.intercept)
    for name in model.schema["numerical"]:
        x = float_column(arrays[name], name)
        if not np.all(np.isfinite(x)):
            raise ValueError(f"column '{name}': non-finite value")
        total += _interp(name, x, model.shapes[name])
    for name in model.schema["categorical"]:
        values, codes = factorize(arrays[name])
        weights = np.array([
            model.betas.get(f"{name}{LABEL_SEPARATOR}{v}", 0.0)
            for v in values.tolist()
        ])
        total += weights[codes]
    for name in model.schema["temporal"]:
        tc = model.temporals[name]
        t = integer_times(arrays[name], name)
        if np.any(t % tc.tau != 0):
            bad = t[t % tc.tau != 0][0]
            raise ValueError(
                f"column '{name}': time {bad} is not divisible by "
                f"tau={tc.tau}"
            )
        times = t.astype(float)
        total += _interp(name, times, tc.trend)
        phases = (t // tc.tau) % tc.period
        for phi, curve in enumerate(tc.seasonal_phases):
            if not curve.is_empty:
                mask = phases == phi
                total[mask] += np.interp(times[mask], curve.knots, curve.values)
    return total


def _interp(name, x, curve):
    if curve.is_empty:
        raise ValueError(f"feature '{name}': cannot evaluate an empty curve")
    return np.interp(x, curve.knots, curve.values)


# --- serialization ---------------------------------------------------------
# Numbers are JSON numbers: json writes a float as its shortest round-trip
# decimal and reads it back correctly rounded, so the round trip is
# bit-faithful.  Files that quoted each number as a repr() string load
# through the same float conversion.

def _plain(obj):
    """``json.dumps`` hook: numpy scalars and arrays as plain values."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _curve_payload(curve):
    return {"knots": curve.knots.tolist(), "values": curve.values.tolist()}


def _curve_from_payload(payload):
    # ShapeCurve converts numbers and repr() strings alike to float64
    return ShapeCurve(payload["knots"], payload["values"])


def serialize(model):
    """Versioned JSON bytes for a trained model.

    Raises ``ValueError`` if any number is not finite.
    """
    doc = {
        "version": FORMAT_VERSION,
        "schema": model.schema,
        "intercept": float(model.intercept),
        "shapes": {
            name: _curve_payload(curve) for name, curve in model.shapes.items()
        },
        "betas": {label: float(b) for label, b in model.betas.items()},
        "temporals": {
            name: {
                "tau": int(tc.tau),
                "period": int(tc.period),
                "trend": _curve_payload(tc.trend),
                "seasonal_phases": [
                    _curve_payload(c) for c in tc.seasonal_phases
                ],
            }
            for name, tc in model.temporals.items()
        },
        "diagnostics": model.diagnostics,
    }
    # compact separators keep json on its C encoder, which indent= disables
    return json.dumps(
        doc, separators=(",", ":"), allow_nan=False, default=_plain
    ).encode("utf-8")


def deserialize(payload):
    """Rebuild a model from :func:`serialize` output.

    Raises
    ------
    ValueError
        On a version mismatch or a malformed document.
    """
    try:
        doc = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed model payload: {exc}") from exc
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r} "
            f"(expected {FORMAT_VERSION!r})"
        )
    try:
        temporals = {
            name: TemporalCurves(
                tau=int(entry["tau"]),
                period=int(entry["period"]),
                trend=_curve_from_payload(entry["trend"]),
                seasonal_phases=tuple(
                    _curve_from_payload(c) for c in entry["seasonal_phases"]
                ),
            )
            for name, entry in doc["temporals"].items()
        }
        return FxamModel(
            intercept=float(doc["intercept"]),
            shapes={
                name: _curve_from_payload(c)
                for name, c in doc["shapes"].items()
            },
            betas={label: float(b) for label, b in doc["betas"].items()},
            temporals=temporals,
            schema=doc["schema"],
            diagnostics=doc.get("diagnostics", {}),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model payload: {exc}") from exc


def export_contributions(model):
    """Plot-ready rows for every fitted component.

    Returns a list of dicts with keys ``component`` (shape, categorical,
    trend, seasonal), ``feature``, ``phase`` (seasonal rows only), ``x``
    (knot, value label, or time), and ``value``.
    """
    def curve_rows(component, feature, curve, phase=""):
        return [
            {"component": component, "feature": feature, "phase": phase,
             "x": knot, "value": value}
            for knot, value in zip(curve.knots.tolist(), curve.values.tolist())
        ]

    rows = []
    for name in model.schema["numerical"]:
        rows += curve_rows("shape", name, model.shapes[name])
    for label, beta in model.betas.items():
        feature, _, value_label = label.partition(LABEL_SEPARATOR)
        rows.append({
            "component": "categorical", "feature": feature, "phase": "",
            "x": value_label, "value": float(beta),
        })
    for name in model.schema["temporal"]:
        tc = model.temporals[name]
        rows += curve_rows("trend", name, tc.trend)
        for phi, curve in enumerate(tc.seasonal_phases):
            rows += curve_rows("seasonal", name, curve, phi)
    return rows
