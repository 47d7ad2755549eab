"""One benchmark process: CSV on disk to checked predictions.

Runs whole rounds of ``ingest_csv -> tsi_train -> serialize -> model file
-> deserialize -> predict_batch`` on inputs that ``run.py`` generated,
checks every round against the generator's truth, and prints one JSON
object as its last line.  An untraced round then times ``TrainingProblem``
on its own.  A step that raises counts as a failed operation and ends its
round.  This is its own process so that its peak resident memory covers
the pipeline and not the input generator; the figure is read after the
first round's pipeline steps, before problem setup is timed and the truth
is loaded for the checks.

Usage: python3 bench/pipeline.py --dir WORKDIR --seconds S --trace 0|1

WORKDIR holds one directory per generated part (``part0``, ``part1``,
...), each written by ``workloads.Workload.write``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from fxam import (  # noqa: E402
    Dataset,
    TrainConfig,
    TrainingProblem,
    deserialize,
    ingest_csv,
    load_schema,
    predict_batch,
    rmse,
    serialize,
    tsi_train,
)

# Below the default threshold of 100k records the sampling initialization
# is skipped; every workload here trains on at least 40k records and
# should run it.
SAMPLING_THRESHOLD = 20_000
PIPELINE_STEPS = ("ingest", "fit", "save", "load", "predict")
# save, load, predict and problem setup take milliseconds on some
# workloads; each is repeated until this much time accumulates and timed
# by its median
MIN_STEP_SECONDS = 0.3
MAX_REPEATS = 20

# Check tolerances, fixed from the generator's noise scale rather than
# from any fitted output.  A categorical weight is estimated from at
# least ~260 records of unit noise (standard error <= 0.065); a phase's
# seasonal mean from at least ~3,300 (standard error <= 0.018).  A fit
# that lost one whole shape feature (RMS 0.4-1) fails the holdout check.
HOLDOUT_MAX_ERROR_SHARE = 0.3  # of the noise scale
WEIGHT_MIN_CORRELATION = 0.95
WEIGHT_MAX_RMS_SHARE = 0.25   # of the true weights' standard deviation
SEASONAL_MAX_ERROR_SHARE = 0.1  # of the noise scale, per phase


def _subset(dataset, stop):
    return Dataset(
        response=dataset.response[:stop],
        numerical={k: v[:stop] for k, v in dataset.numerical.items()},
        categorical={k: v[:stop] for k, v in dataset.categorical.items()},
        temporal={k: v[:stop] for k, v in dataset.temporal.items()},
    )


def _features(dataset):
    columns = {}
    columns.update(dataset.numerical)
    columns.update(dataset.categorical)
    columns.update(dataset.temporal)
    return columns


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype.kind == "f":
        return bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))
    return bool(np.array_equal(a, b))


class Checks:
    """Correctness checks, each counted as one operation."""

    def __init__(self, truth, meta):
        self.truth = truth
        self.meta = meta
        self.n_train = meta["n_train"]

    def run(self, dataset, model, loaded_predictions, fitted_predictions):
        checks = [
            ("ingest_exact", self.ingest_exact, (dataset,)),
            ("roundtrip_exact", _same_bits,
             (loaded_predictions, fitted_predictions)),
            ("holdout_vs_truth", self.holdout_vs_truth,
             (loaded_predictions,)),
        ]
        if self.meta["weights"]:
            checks.append(("weights_track", self.weights_track, (model,)))
        if self.meta["seasonal"]:
            checks.append(("seasonal_track", self.seasonal_track, (model,)))
        if self.meta["backend"] == "penalized":
            checks.append(("monotone_descent", self.monotone_descent,
                           (model,)))
        failed = []
        for name, check, args in checks:
            try:
                held = check(*args)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                held = False
            if not held:
                failed.append(name)
        return len(checks), failed

    def ingest_exact(self, dataset):
        columns = _features(dataset)
        columns["y"] = dataset.response
        expected = [k[4:] for k in self.truth.files if k.startswith("col:")]
        if sorted(columns) != sorted(expected):
            return False
        return all(
            _same_bits(columns[name], self.truth[f"col:{name}"])
            for name in expected
        )

    def holdout_vs_truth(self, predictions):
        error = rmse(predictions[self.n_train:],
                     self.truth["noiseless"][self.n_train:])
        return error < HOLDOUT_MAX_ERROR_SHARE * self.meta["noise_scale"]

    def weights_track(self, model):
        for feature, weights in self.meta["weights"].items():
            true = np.array(list(weights.values()))
            fitted = np.array([
                model.betas.get(f"{feature}={label}", np.nan)
                for label in weights
            ])
            true = true - true.mean()
            fitted = fitted - fitted.mean()
            if not np.all(np.isfinite(fitted)):
                return False
            if np.corrcoef(true, fitted)[0, 1] < WEIGHT_MIN_CORRELATION:
                return False
            rms = float(np.sqrt(np.mean((fitted - true) ** 2)))
            if rms > WEIGHT_MAX_RMS_SHARE * float(np.std(true)):
                return False
        return True

    def seasonal_track(self, model):
        for feature, profile in self.meta["seasonal"].items():
            phases = model.temporals[feature].seasonal_phases
            means = np.array([
                float(np.mean(c.values)) if c.values.size else np.nan
                for c in phases
            ])
            error = np.max(np.abs(means - np.asarray(profile)))
            if not error < SEASONAL_MAX_ERROR_SHARE * self.meta["noise_scale"]:
                return False
        return True

    def monotone_descent(self, model):
        history = model.diagnostics.get("objective_history")
        if not history:
            return False
        return all(b <= a for a, b in zip(history, history[1:]))


def _timed(step, min_seconds=0.0):
    """Median seconds of ``step()`` and its last result.

    Repeats a cheap step until ``min_seconds`` of samples accumulate, so
    its median does not rest on a single sample of a few milliseconds.
    """
    samples = []
    while True:
        start = time.perf_counter()
        result = step()
        samples.append(time.perf_counter() - start)
        if sum(samples) >= min_seconds or len(samples) >= MAX_REPEATS:
            return statistics.median(samples), result


class Round:
    """Timings and outputs of one round; a step that raises ends it."""

    def __init__(self):
        self.times = {}
        self.failed = None  # "step: error type" of the step that raised

    @property
    def attempted(self):
        return len(self.times) + (self.failed is not None)

    def step(self, name, call, min_seconds=0.0):
        """Time ``call`` as step ``name``; skipped once a step has failed."""
        if self.failed is not None:
            return None
        try:
            self.times[name], result = _timed(call, min_seconds)
        except Exception as error:
            traceback.print_exc(file=sys.stderr)
            self.failed = f"{name}: {type(error).__name__}"
            return None
        return result


def run_round(part, config):
    """One round of the pipeline steps down the public path."""
    rnd = Round()
    rnd.dataset = rnd.step(
        "ingest", lambda: ingest_csv(part.csv_path, part.schema)
    )
    if rnd.failed is not None:
        return rnd
    rnd.train = _subset(rnd.dataset, part.n_train)
    rnd.model = rnd.step("fit", lambda: tsi_train(rnd.train, config))

    def save():
        with open(part.model_path, "wb") as handle:
            handle.write(serialize(rnd.model))

    def load():
        with open(part.model_path, "rb") as handle:
            return deserialize(handle.read())

    rnd.step("save", save, MIN_STEP_SECONDS)
    loaded = rnd.step("load", load, MIN_STEP_SECONDS)
    columns = _features(rnd.dataset)
    rnd.predictions = rnd.step(
        "predict", lambda: predict_batch(loaded, columns), MIN_STEP_SECONDS
    )
    return rnd


class Part:
    """One generated input set: CSV, schema, and the truth for its checks."""

    def __init__(self, directory):
        self.csv_path = os.path.join(directory, "input.csv")
        self.model_path = os.path.join(directory, "model.json")
        self.schema = load_schema(os.path.join(directory, "schema.json"))
        self.truth_path = os.path.join(directory, "truth.npz")
        with open(os.path.join(directory, "truth.json"),
                  encoding="utf-8") as handle:
            self.meta = json.load(handle)
        self.n_train = self.meta["n_train"]
        self._checks = None

    @property
    def checks(self):
        # loaded on first use, after the first round's peak memory is read
        if self._checks is None:
            self._checks = Checks(np.load(self.truth_path), self.meta)
        return self._checks


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    parts = [
        Part(os.path.join(args.dir, name))
        for name in sorted(os.listdir(args.dir)) if name.startswith("part")
    ]
    config = TrainConfig(
        backend=parts[0].meta["backend"],
        sampling_threshold=SAMPLING_THRESHOLD,
        temporal_rules=parts[0].schema.temporal_rules(),
    )

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    attempted = failed = 0
    check_failures = set()
    step_failures = set()
    rounds = []
    layers = []
    peak_rss_mb = None
    begin = time.perf_counter()
    # whole passes over every part, so each run attempts the same
    # operations and the medians always cover the same inputs
    while True:
        pass_start = time.perf_counter()
        for part in parts:
            if tracer is not None:
                tracer.reset()
            rnd = run_round(part, config)
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is None:
                # problem setup on its own, after the peak memory is read
                rnd.step(
                    "setup", lambda: TrainingProblem(rnd.train, config),
                    MIN_STEP_SECONDS,
                )
            attempted += rnd.attempted
            if rnd.failed is not None:
                failed += 1
                step_failures.add(rnd.failed)
                del rnd
                gc.collect()
                continue
            times = rnd.times
            if tracer is not None:
                layer = tracer.layer_metrics(rnd.model)
                layer.update(_outer_layers(times, rnd.dataset.n_records,
                                           part.csv_path))
                layers.append(layer)
            fitted_predictions = predict_batch(rnd.model,
                                               _features(rnd.dataset))
            n_checks, failed_checks = part.checks.run(
                rnd.dataset, rnd.model, rnd.predictions, fitted_predictions
            )
            attempted += n_checks
            failed += len(failed_checks)
            check_failures.update(failed_checks)
            times["holdout_rmse"] = rmse(
                rnd.predictions[part.n_train:],
                rnd.dataset.response[part.n_train:],
            )
            times["model_bytes"] = os.path.getsize(part.model_path)
            times["n_records"] = rnd.dataset.n_records
            rounds.append(times)
            del rnd, fitted_predictions
            gc.collect()
        now = time.perf_counter()
        if now - begin + (now - pass_start) > args.seconds:
            break

    metrics = {}
    if tracer is not None:
        tracer.remove()
        if layers:
            # counts stay whole numbers: the lower median is one of the
            # samples
            metrics = {
                key: (statistics.median_low
                      if isinstance(layers[0][key], int)
                      else statistics.median)(layer[key] for layer in layers)
                for key in layers[0]
            }
    elif rounds:
        metrics = _end_to_end(rounds, peak_rss_mb)

    print(json.dumps({
        # speaks of the outputs checked; a step that raised is counted in
        # ``failed`` and listed in ``step_failures``
        "correct": not check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "rounds": len(rounds),
        "check_failures": sorted(check_failures),
        "step_failures": sorted(step_failures),
    }))
    return 0


def _outer_layers(times, n_records, csv_path):
    """Layer figures the pipeline times itself, at its own call sites."""
    pipeline = sum(times[s] for s in PIPELINE_STEPS)
    return {
        "evaluation.ingest_s": times["ingest"],
        "evaluation.ingest_rows_per_s": n_records / times["ingest"],
        "evaluation.csv_bytes": os.path.getsize(csv_path),
        "model.serialize_s": times["save"],
        "model.deserialize_s": times["load"],
        "model.predict_s": times["predict"],
        "traced.pipeline_s": pipeline,
    }


def _end_to_end(rounds, peak_rss_mb):
    def median(key):
        return statistics.median(r[key] for r in rounds)

    return {
        "setup_s": median("setup"),
        "ingest_s": median("ingest"),
        "fit_s": median("fit"),
        "save_s": median("save"),
        "load_s": median("load"),
        "predict_rows_per_s": statistics.median(
            r["n_records"] / r["predict"] for r in rounds
        ),
        "pipeline_s": statistics.median(
            sum(r[s] for s in PIPELINE_STEPS) for r in rounds
        ),
        "model_bytes": median("model_bytes"),
        "peak_rss_mb": peak_rss_mb,
        "holdout_rmse": median("holdout_rmse"),
    }


if __name__ == "__main__":
    sys.exit(main())
