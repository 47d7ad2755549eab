"""The trained additive model: evaluable curves, weights, serialization.

A fitted model is an intercept plus piecewise-linear shape curves over
the training knots (numerical features), a weight per categorical value,
and trend plus per-phase seasonal curves per temporal feature.  Values
between knots are linearly interpolated and clamped outside the observed
range; unseen categorical values contribute zero.
"""

from __future__ import annotations

import base64
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np
import orjson

from .data import LABEL_SEPARATOR, factorize, float_column, integer_times

FORMAT_VERSION = "fxam-model/2"
# the first format, whose curves are arrays of JSON numbers; still read
_LIST_VERSION = "fxam-model/1"


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
        if not np.all(np.isfinite(knots)):
            raise ValueError("curve knots must be finite")
        if not np.all(np.isfinite(values)):
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

    def __post_init__(self):
        if self.tau < 1 or self.period < 1:
            raise ValueError(
                f"tau={self.tau} and period={self.period} must be positive"
            )
        if len(self.seasonal_phases) != self.period:
            raise ValueError(
                f"{len(self.seasonal_phases)} seasonal phases for "
                f"period={self.period}"
            )


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
        Naming the column, on a missing, misshapen or invalid column;
        naming the first record (counted from 0) whose terms sum past the
        float range.
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
    # finite terms can sum past the float range; the check below names
    # the first record whose sum does
    with np.errstate(over="ignore"):
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
            _add_seasonal(total, times, (t // tc.tau) % tc.period,
                          tc.seasonal_phases)
    bad = np.flatnonzero(~np.isfinite(total))
    if bad.size:
        raise ValueError(
            f"record {bad[0]}: the prediction is not finite (its "
            "terms sum past the float range)"
        )
    return total


def _interp(name, x, curve):
    if curve.is_empty:
        raise ValueError(f"feature '{name}': cannot evaluate an empty curve")
    return guided_interp(x, curve.knots, curve.values)


# The guide table falls back to np.interp when more than this share of a
# strided probe of the queries lands in cells of three or more knots:
# those queries take a binary search on top of the table's passes, and
# near 70% crowded the table stops paying for itself.
_CROWDED_SHARE = 0.5
_PROBES = 1024


def guided_interp(x, knots, values):
    """``np.interp(x, knots, values)``, bit for bit, with each query's
    cell found through a uniform guide table instead of a binary search.

    ``x`` is 1-d; ``knots`` and ``values`` are float64 arrays, the knots
    finite and strictly increasing and the values finite, as a
    :class:`ShapeCurve`'s are.  :func:`_guided_search` finds each
    query's knot.  The value is np.interp's own expression,
    ``slope[j] * (x - knots[j]) + values[j]``, and a query on a knot or
    clamped to an end reads ``values[j]`` itself, as np.interp does (this
    keeps a ``-0.0``).  Where the search declines, np.interp runs.
    """
    x = np.asarray(x, dtype=float)
    found = _guided_search(x, knots)
    if found is None:
        return np.interp(x, knots, values)
    j, x = found
    at = knots.take(j)
    base = values.take(j)
    on_knot = at == x
    np.minimum(j, knots.size - 2, out=j)
    # a slope, or its product, may overflow to an infinity, as in
    # np.interp; an infinite slope times a query's zero offset from its
    # knot is NaN, which the knot's own value then replaces
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.diff(values) / np.diff(knots)
        result = x - at
        result *= slopes.take(j)
        result += base
    np.copyto(result, base, where=on_knot)
    return result


def _guided_search(x, knots):
    """``(j, clamped)``: ``x`` clamped to the knots' range, and for each
    query the index of the last knot at or below it.  None where
    np.interp should run instead.

    ``2 * knots.size`` equal cells cover ``[knots[0], knots[-1]]``;
    ``first[c]`` counts the knots in the cells before ``c``.  Knots and
    clamped queries get their cells from one float expression, monotone
    in its input, so every knot of an earlier cell lies below the query
    and every knot of a later one above it.  Each query starts at
    ``first[cell]`` and steps past at most two more knots; the rare query
    still unresolved gets a binary search on that subset alone.

    Declines when there are fewer queries than knots (so a single record
    skips the table), when the knot span or its cell scale overflows,
    when a query is NaN, and when most of a probe of the queries lands in
    crowded cells, where np.interp is faster.  Its temporaries are freed
    on return, before np.interp or the caller allocates a result of the
    queries' size; kept alive, they made that allocation fault in fresh
    pages.
    """
    m = knots.size
    if x.size < m or m < 2:
        return None
    low, high = knots[0], knots[-1]
    cells = 2 * m
    with np.errstate(over="ignore"):
        span = high - low
        scale = cells / span
    if not (np.isfinite(span) and np.isfinite(scale)) or np.isnan(x).any():
        return None

    def cell(points):
        # points lie in [low, high], so nothing here overflows
        t = points - low
        t *= scale
        np.minimum(t, cells - 1, out=t)
        return t.astype(np.intp)

    counts = np.bincount(cell(knots), minlength=cells)
    probe = np.clip(x[::max(1, x.size // _PROBES)], low, high)
    if np.count_nonzero(counts[cell(probe)] > 2) > _CROWDED_SHARE * probe.size:
        return None
    first = np.zeros(cells, dtype=np.intp)
    np.cumsum(counts[:-1], out=first[1:])
    x = np.clip(x, low, high)
    # after the search, count[i] is the number of knots at or below x[i]
    count = first.take(cell(x))
    padded = np.append(knots, np.inf)
    for _ in range(2):
        count += padded.take(count) <= x
    rest = np.flatnonzero(padded.take(count) <= x)
    if rest.size:
        count[rest] = np.searchsorted(knots, x[rest], side="right")
    return np.subtract(count, 1, out=count), x


def _add_seasonal(total, times, phases, curves):
    """Add to each row its own phase's curve at its time; a row of an
    empty phase gets nothing added.

    One interpolation runs over every populated phase's knots, phase
    phi's moved to ``(knot - lowest knot) + phi * (span + 1)``, and each
    time is clamped to its own phase's knots before it moves, so no row
    interpolates across a seam.  When the knots are integers and the
    moved ones stay within 2**53, every difference np.interp takes is
    exact and equals the one it takes on the phase's own curve, so the
    result is bit for bit that of one np.interp per phase.  Other curves
    get one interpolation per phase.  Both go through
    :func:`guided_interp`, which gives np.interp's result.
    """
    populated = [phi for phi, curve in enumerate(curves)
                 if not curve.is_empty]
    if not populated:
        return
    knots = np.concatenate([curves[phi].knots for phi in populated])
    low = knots.min()
    step = knots.max() - low + 1
    if np.any(knots != np.round(knots)) or len(curves) * step > 2.0 ** 53:
        for phi in populated:
            mask = phases == phi
            total[mask] += guided_interp(times[mask], curves[phi].knots,
                                         curves[phi].values)
        return
    first = np.zeros(len(curves))
    last = np.zeros(len(curves))
    has_curve = np.zeros(len(curves), dtype=bool)
    for phi in populated:
        first[phi] = curves[phi].knots[0]
        last[phi] = curves[phi].knots[-1]
        has_curve[phi] = True
    offsets = np.arange(len(curves)) * step
    moved = np.concatenate([
        (curves[phi].knots - low) + offsets[phi] for phi in populated
    ])
    values = np.concatenate([curves[phi].values for phi in populated])
    x = (np.clip(times, first[phases], last[phases]) - low) + offsets[phases]
    np.add(total, guided_interp(x, moved, values), out=total,
           where=has_curve[phases])


# --- serialization ---------------------------------------------------------
# Each curve's knots and values are one base64 string of little-endian
# float64 ("<f8") bytes, so a large model is a few dozen long strings for
# json.loads to read, not one JSON number per knot, and the round trip is
# the bytes themselves.  Every other number (intercept, betas, tau,
# period, diagnostics) is a JSON number: orjson writes each float as its
# shortest round-trip decimal and the stdlib json reader rounds it back
# correctly.  The reader stays on json: on fxam-model/1 documents
# orjson.loads peaked about 15 MB higher.  fxam-model/1 files hold curves
# as arrays of JSON numbers, and earlier ones quoted every number as a
# repr() string; both still load, through the same float conversion as
# before.

def _plain(obj):
    """``orjson.dumps`` hook: what orjson does not write natively, such
    as non-contiguous arrays, as plain values."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _portable(obj, where):
    """``obj`` with every numpy float as float64, checked finite.

    orjson writes a float32 as its own shortest decimal and cannot write
    a longdouble at all; converted first, each reads back as
    ``float(np.float64(v))``.  Raises ``ValueError`` on a NaN or infinity,
    which orjson would write as ``null``.
    """
    if isinstance(obj, np.floating):
        obj = float(np.float64(obj))
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite number in {where}")
        return obj
    if isinstance(obj, dict):
        return {key: _portable(value, f"{where}.{key}")
                for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_portable(value, where) for value in obj]
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        obj = obj.astype(np.float64, copy=False)
        if not np.all(np.isfinite(obj)):
            raise ValueError(f"non-finite number in {where}")
    return obj


def _pack(array, where):
    """Base64 text of ``array``'s little-endian float64 bytes.

    Raises ``ValueError`` on a NaN or infinity, as the rest of the
    writer does.
    """
    array = np.ascontiguousarray(array, dtype="<f8")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"non-finite number in {where}")
    return base64.b64encode(array).decode("ascii")


def _unpack(text, where):
    """The float64 array whose little-endian bytes ``text`` holds in
    base64, owned and writable."""
    if not isinstance(text, str):
        raise ValueError(
            f"malformed model payload: {where} is {type(text).__name__}, "
            "not a base64 string"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"malformed model payload: {where}: {exc}") from exc
    if len(raw) % 8:
        raise ValueError(
            f"malformed model payload: {where} holds {len(raw)} bytes, "
            "not a whole number of float64s"
        )
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def _integer(value, what):
    """``value`` if it is a JSON integer (not a boolean), else
    ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"malformed model payload: {what} is {value!r}, not an integer"
        )
    return value


# the decimals repr() writes for an int or a finite float; Python's float()
# also takes "1_0", surrounding whitespace and non-ASCII digits
_REPR_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?")


def _finite(value, what):
    """``value`` as a finite float, else ``ValueError``.  It may be a JSON
    number or a decimal string as repr() writes it, as earlier files wrote
    every number, but not a boolean."""
    number = math.nan
    if isinstance(value, str):
        if _REPR_DECIMAL.fullmatch(value):
            number = float(value)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            pass
    if not math.isfinite(number):
        raise ValueError(
            f"malformed model payload: {what} is {value!r}, not a finite "
            "number"
        )
    return number


def _finite_numbers(obj, where, path=()):
    """``obj``, a parsed JSON object or array, after checking that every
    float in it is finite; ``ValueError`` names the first that is not.

    json.loads reads ``NaN``, ``Infinity`` and an out-of-range literal
    such as ``1e400`` as non-finite floats, which the writer refuses.  It
    gives exact dicts, lists and floats, so exact type tests serve, and a
    path is spelled only for a bad number: the walk stays about 1% of
    loading a small model.
    """
    for key, value in (obj.items() if type(obj) is dict else enumerate(obj)):
        kind = type(value)
        if kind is float:
            if not math.isfinite(value):
                _finite(value, where + "".join(
                    f"[{k}]" if type(k) is int else f".{k}"
                    for k in (*path, key)
                ))
        elif kind is dict or kind is list:
            _finite_numbers(value, where, (*path, key))
    return obj


def _curve_payload(curve, where):
    return {"knots": _pack(curve.knots, f"{where}.knots"),
            "values": _pack(curve.values, f"{where}.values")}


def _curve_from_payload(payload, where, packed):
    """The curve of a ``packed`` (fxam-model/2) or listed (fxam-model/1)
    curve entry."""
    _expect(payload, dict, where)
    knots, values = payload["knots"], payload["values"]
    if packed:
        knots = _unpack(knots, f"{where}.knots")
        values = _unpack(values, f"{where}.values")
    # ShapeCurve converts listed numbers and repr() strings alike
    try:
        return ShapeCurve(knots, values)
    except ValueError as exc:
        raise ValueError(f"malformed model payload: {where}: {exc}") from exc


def _expect(value, kind, what):
    """``value`` if it is a ``kind`` (dict or list), else ``ValueError``."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "an array"
        raise ValueError(
            f"malformed model payload: {what} is {type(value).__name__}, "
            f"not {expected}"
        )
    return value


def serialize(model):
    """Versioned JSON bytes for a trained model.

    Raises ``ValueError`` if any number is not finite.
    """
    doc = {
        "version": FORMAT_VERSION,
        "schema": model.schema,
        "intercept": float(model.intercept),
        "shapes": {
            name: _curve_payload(curve, f"model.shapes.{name}")
            for name, curve in model.shapes.items()
        },
        "betas": {label: float(b) for label, b in model.betas.items()},
        "temporals": {
            name: {
                "tau": int(tc.tau),
                "period": int(tc.period),
                "trend": _curve_payload(tc.trend,
                                        f"model.temporals.{name}.trend"),
                "seasonal_phases": [
                    _curve_payload(
                        c, f"model.temporals.{name}.seasonal_phases.{phi}"
                    )
                    for phi, c in enumerate(tc.seasonal_phases)
                ],
            }
            for name, tc in model.temporals.items()
        },
        "diagnostics": model.diagnostics,
    }
    return orjson.dumps(
        _portable(doc, "model"), option=orjson.OPT_SERIALIZE_NUMPY,
        default=_plain,
    )


def deserialize(payload):
    """Rebuild a model from :func:`serialize` output, or from an
    ``fxam-model/1`` file.

    Raises
    ------
    ValueError
        On an unsupported version or a malformed document.
    """
    try:
        doc = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed model payload: {exc}") from exc
    _expect(doc, dict, "the document")
    version = doc.get("version")
    if version not in (FORMAT_VERSION, _LIST_VERSION):
        raise ValueError(
            f"unsupported model format version {version!r} "
            f"(expected {FORMAT_VERSION!r} or {_LIST_VERSION!r})"
        )
    packed = version == FORMAT_VERSION
    try:
        temporals = {
            name: TemporalCurves(
                tau=_integer(entry["tau"], f"'{name}' tau"),
                period=_integer(entry["period"], f"'{name}' period"),
                trend=_curve_from_payload(
                    entry["trend"], f"temporals.{name}.trend", packed
                ),
                seasonal_phases=tuple(
                    _curve_from_payload(
                        c, f"temporals.{name}.seasonal_phases.{phi}", packed
                    )
                    for phi, c in enumerate(entry["seasonal_phases"])
                ),
            )
            for name, entry in _expect(doc["temporals"], dict,
                                       "'temporals'").items()
        }
        schema = _expect(doc["schema"], dict, "'schema'")
        for kind, names in schema.items():
            _expect(names, list, f"schema '{kind}'")
        return FxamModel(
            intercept=_finite(doc["intercept"], "intercept"),
            shapes={
                name: _curve_from_payload(c, f"shapes.{name}", packed)
                for name, c in _expect(doc["shapes"], dict,
                                       "'shapes'").items()
            },
            betas={
                label: _finite(b, f"betas.{label}")
                for label, b in _expect(doc["betas"], dict, "'betas'").items()
            },
            temporals=temporals,
            schema=schema,
            diagnostics=_finite_numbers(
                _expect(doc.get("diagnostics", {}), dict, "'diagnostics'"),
                "diagnostics",
            ),
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
