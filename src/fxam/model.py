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

from .data import LABEL_SEPARATOR

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


def evaluate_shape(curve, x):
    """Curve value at x: linear interpolation, clamped at the boundary."""
    if curve.is_empty:
        raise ValueError("cannot evaluate an empty curve")
    return float(np.interp(float(x), curve.knots, curve.values))


@dataclass(frozen=True)
class TemporalCurves:
    """Deployable form of one temporal feature's components."""

    tau: int
    period: int
    trend: ShapeCurve
    seasonal_phases: tuple  # of ShapeCurve, length == period

    def contribution(self, t):
        """Trend plus seasonal value at integer time t (units of tau)."""
        if t % self.tau != 0:
            raise ValueError(
                f"time {t} is not divisible by tau={self.tau}"
            )
        value = evaluate_shape(self.trend, t)
        phase = int((t // self.tau) % self.period)
        curve = self.seasonal_phases[phase]
        if not curve.is_empty:
            value += evaluate_shape(curve, t)
        return value


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

    Raises
    ------
    ValueError
        On a missing feature column or a non-finite numeric value.
    """
    row = predict_batch(
        model, {name: [value] for name, value in record.items()}
    )
    # a model without features has no column to size the batch
    return float(row[0]) if row.size else float(model.intercept)


def predict_batch(model, columns):
    """Vectorized prediction over column arrays (name -> ndarray)."""
    names = (
        model.schema["numerical"]
        + model.schema["categorical"]
        + model.schema["temporal"]
    )
    for name in names:
        if name not in columns:
            raise ValueError(f"missing required column '{name}'")
    n = len(np.asarray(columns[names[0]])) if names else 0
    total = np.full(n, model.intercept)
    for name in model.schema["numerical"]:
        x = np.asarray(columns[name], dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError(f"column '{name}': non-finite value")
        curve = model.shapes[name]
        total += np.interp(x, curve.knots, curve.values)
    for name in model.schema["categorical"]:
        col = np.asarray(columns[name])
        uniq, inverse = np.unique(col, return_inverse=True)
        weights = np.array([
            model.betas.get(f"{name}{LABEL_SEPARATOR}{v}", 0.0)
            for v in uniq
        ])
        total += weights[inverse]
    for name in model.schema["temporal"]:
        tc = model.temporals[name]
        t = np.asarray(columns[name], dtype=np.int64)
        if np.any(t % tc.tau != 0):
            bad = t[t % tc.tau != 0][0]
            raise ValueError(
                f"column '{name}': time {bad} is not divisible by "
                f"tau={tc.tau}"
            )
        total += np.interp(t.astype(float), tc.trend.knots, tc.trend.values)
        phases = (t // tc.tau) % tc.period
        for phi in range(tc.period):
            mask = phases == phi
            if not np.any(mask):
                continue
            curve = tc.seasonal_phases[phi]
            if curve.is_empty:
                continue
            total[mask] += np.interp(
                t[mask].astype(float), curve.knots, curve.values
            )
    return total


# --- serialization ---------------------------------------------------------
#
# All floats are encoded as repr() strings: decimal shortest-round-trip
# text, so deserialize(serialize(m)) is bit-faithful on every numeric
# field.

def _encode_floats(obj):
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (np.floating,)):
        return repr(float(obj))
    # bool before int: bool is a subclass of int
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_encode_floats(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_encode_floats(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _encode_floats(v) for k, v in obj.items()}
    return obj


def _decode_floats(obj):
    if isinstance(obj, str):
        try:
            return float(obj)
        except ValueError:
            return obj
    if isinstance(obj, list):
        return [_decode_floats(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _decode_floats(v) for k, v in obj.items()}
    return obj


def _curve_payload(curve):
    return {
        "knots": [repr(float(v)) for v in curve.knots],
        "values": [repr(float(v)) for v in curve.values],
    }


def _curve_from_payload(payload):
    return ShapeCurve(
        knots=np.array([float(v) for v in payload["knots"]], dtype=float),
        values=np.array([float(v) for v in payload["values"]], dtype=float),
    )


def serialize(model):
    """Versioned JSON bytes for a trained model."""
    doc = {
        "version": FORMAT_VERSION,
        "schema": model.schema,
        "intercept": repr(float(model.intercept)),
        "shapes": {
            name: _curve_payload(curve) for name, curve in model.shapes.items()
        },
        "betas": {label: repr(float(b)) for label, b in model.betas.items()},
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
        "diagnostics": _encode_floats(model.diagnostics),
    }
    # compact separators keep json on its C encoder, which indent= disables
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


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
            betas={
                label: float(b) for label, b in doc["betas"].items()
            },
            temporals=temporals,
            schema=doc["schema"],
            diagnostics=_decode_floats(doc.get("diagnostics", {})),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model payload: {exc}") from exc


def export_contributions(model):
    """Plot-ready rows for every fitted component.

    Returns a list of dicts with keys ``component`` (shape, categorical,
    trend, seasonal), ``feature``, ``phase`` (seasonal rows only), ``x``
    (knot, value label, or time), and ``value``.
    """
    rows = []
    for name in model.schema["numerical"]:
        curve = model.shapes[name]
        for knot, value in zip(curve.knots, curve.values):
            rows.append({
                "component": "shape", "feature": name, "phase": "",
                "x": float(knot), "value": float(value),
            })
    for label, beta in model.betas.items():
        feature, _, value_label = label.partition(LABEL_SEPARATOR)
        rows.append({
            "component": "categorical", "feature": feature, "phase": "",
            "x": value_label, "value": float(beta),
        })
    for name in model.schema["temporal"]:
        tc = model.temporals[name]
        for knot, value in zip(tc.trend.knots, tc.trend.values):
            rows.append({
                "component": "trend", "feature": name, "phase": "",
                "x": float(knot), "value": float(value),
            })
        for phi, curve in enumerate(tc.seasonal_phases):
            for knot, value in zip(curve.knots, curve.values):
                rows.append({
                    "component": "seasonal", "feature": name, "phase": phi,
                    "x": float(knot), "value": float(value),
                })
    return rows
