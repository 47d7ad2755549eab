"""Command-line front end.

Subcommands: generate, train, predict, evaluate, decompose,
export-contributions, sweep.  Training options can come from flags or a
JSON config file; flags win.  Exit codes: 0 success, 2 usage error,
3 data error, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace

import numpy as np

from .categorical import ConvergenceError
from .evaluation import (
    dataset_schema,
    ingest_csv,
    load_schema,
    run_experiment,
    save_schema,
    write_csv,
)
from .model import deserialize, export_contributions, predict_batch, serialize
from .synthetic import (
    TEMPORAL_PERIOD,
    SynthConfig,
    experiment_sweep_configs,
    generate,
)
from .training import TemporalRule, TrainConfig, tsi_train

USAGE_ERROR = 2
DATA_ERROR = 3
NON_CONVERGENCE = 4


def _train_flags(parser):
    group = parser.add_argument_group("training options")
    group.add_argument("--config", help="JSON file with TrainConfig fields")
    group.add_argument("--backend", choices=("penalized", "fast-kernel"))
    group.add_argument("--smoothness", type=float)
    group.add_argument("--categorical-ridge", type=float)
    group.add_argument("--trend-smoothness", type=float)
    group.add_argument("--seasonal-smoothness", type=float)
    group.add_argument("--bandwidth-factor", type=float)
    group.add_argument("--outer-tol", type=float)
    group.add_argument("--max-cycles", type=int)
    group.add_argument("--sampling", dest="sampling", action="store_true",
                       default=None)
    group.add_argument("--no-sampling", dest="sampling",
                       action="store_false")
    group.add_argument("--dfi", dest="dynamic_ordering", action="store_true",
                       default=None)
    group.add_argument("--no-dfi", dest="dynamic_ordering",
                       action="store_false")
    group.add_argument("--sampling-threshold", type=int)
    group.add_argument("--pilot-size", type=int)
    group.add_argument("--gamma", dest="sampling_gamma", type=float)
    group.add_argument("--seed", type=int)


def _build_train_config(args, schema=None):
    """Flags > config file > defaults, plus the schema's temporal rules."""
    values = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError(
                f"{args.config}: a training config is an object, not "
                f"{type(doc).__name__}"
            )
        known = {f.name for f in fields(TrainConfig)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown training config fields: {sorted(unknown)}"
            )
        values.update(doc)
    # every training flag's dest is the TrainConfig field it sets
    for f in fields(TrainConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    given = values.get("temporal_rules", {})
    if not isinstance(given, dict):
        raise ValueError("temporal_rules must be an object of feature "
                         f"name -> rule, not {type(given).__name__}")
    rules = {}
    for name, rule in given.items():
        try:
            if (not isinstance(rule, dict)
                    or not {"period"} <= set(rule) <= {"period", "tau"}):
                raise ValueError('expected an object with "period" and an '
                                 f'optional "tau", got {rule!r}')
            rules[name] = TemporalRule(**rule)
        except ValueError as exc:
            raise ValueError(
                f"temporal_rules: feature '{name}': {exc}"
            ) from None
    if schema is not None:
        rules.update(schema.temporal_rules())
    values["temporal_rules"] = rules
    return TrainConfig(**values)


def _cmd_generate(args):
    config = SynthConfig(
        n_records=args.records,
        n_features=args.features,
        max_cardinality=args.max_cardinality,
        numerical_ratio=args.numerical_ratio,
        has_temporal=args.temporal,
        seasonality_ratio=args.seasonality,
        difficulty=args.difficulty,
        seed=args.seed,
    )
    dataset, truth = generate(config)
    write_csv(dataset, args.out)
    rules = {
        name: TemporalRule(period=TEMPORAL_PERIOD, tau=1)
        for name in dataset.temporal
    }
    if args.schema_out:
        save_schema(dataset_schema(dataset, rules), args.schema_out)
    if args.truth_out:
        _write_truth(truth, dataset.n_records, args.truth_out)
    print(f"wrote {dataset.n_records} records to {args.out}")
    return 0


def _write_truth(truth, n_records, path):
    headers = []
    columns = []
    for name, vec in truth.contributions.items():
        headers.append(f"component_{name}")
        columns.append(vec)
    for (a, b), vec in truth.interactions.items():
        headers.append(f"interaction_{a}_{b}")
        columns.append(vec)
    if truth.seasonal is not None:
        headers.append("seasonal")
        columns.append(truth.seasonal)
    headers.append("noise")
    columns.append(truth.noise)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for i in range(n_records):
            writer.writerow([repr(float(col[i])) for col in columns])


def _cmd_train(args):
    schema = load_schema(args.schema)
    config = _build_train_config(args, schema)
    dataset = ingest_csv(args.data, schema)
    model = tsi_train(dataset, config)
    with open(args.out, "wb") as handle:
        handle.write(serialize(model))
    diag = model.diagnostics
    print(
        f"trained on {dataset.n_records} records in "
        f"{diag['cycles']} cycles (converged: {model.converged}); "
        f"model written to {args.out}"
    )
    return 0 if model.converged else NON_CONVERGENCE


def _load_model(path):
    with open(path, "rb") as handle:
        return deserialize(handle.read())


def _cmd_predict(args):
    model = _load_model(args.model)
    schema = load_schema(args.schema)
    dataset = ingest_csv(args.data, schema, require_response=False)
    columns = {}
    for mapping in (dataset.numerical, dataset.categorical, dataset.temporal):
        columns.update(mapping)
    predictions = predict_batch(model, columns)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["prediction"])
        for value in predictions:
            writer.writerow([repr(float(value))])
    print(f"wrote {predictions.size} predictions to {args.out}")
    return 0


def _cmd_evaluate(args):
    schema = load_schema(args.schema)
    config = _build_train_config(args, schema)
    dataset = ingest_csv(args.data, schema)
    report = run_experiment(
        dataset, config, k=args.folds, seed=args.split_seed,
        no_temporal_stage=args.ablate_temporal_stage,
    )
    if args.report:
        report.write_csv(args.report)
    print(report.summary())
    return 0 if report.converged else NON_CONVERGENCE


def _cmd_decompose(args):
    model = _load_model(args.model)
    names = [args.feature] if args.feature else model.schema["temporal"]
    if not names:
        raise ValueError("the model has no temporal features")
    for name in names:
        if name not in model.temporals:
            raise ValueError(f"unknown temporal feature '{name}'")
    # export_contributions lists each temporal feature's trend, then its
    # seasonal phases, in schema order
    rows = [
        [row["feature"], row["component"], row["phase"], repr(row["x"]),
         repr(row["value"])]
        for row in export_contributions(model)
        if row["component"] in ("trend", "seasonal")
        and row["feature"] in names
    ]
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["feature", "component", "phase", "time", "value"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} decomposition rows to {args.out}")
    return 0


def _cmd_export_contributions(args):
    model = _load_model(args.model)
    rows = export_contributions(model)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["component", "feature", "phase", "x", "value"])
        for row in rows:
            writer.writerow([
                row["component"], row["feature"], row["phase"],
                row["x"] if isinstance(row["x"], str) else repr(row["x"]),
                repr(row["value"]),
            ])
    print(f"wrote {len(rows)} contribution rows to {args.out}")
    return 0


def _cmd_sweep(args):
    configs = experiment_sweep_configs(
        args.name, difficulty=args.difficulty, scale=args.scale,
        seed=args.seed,
    )
    base = _build_train_config(args)
    rows = [[
        "records", "features", "numerical_ratio", "seasonality",
        "mean_rmse", "mean_train_seconds",
    ]]
    exit_code = 0
    for config in configs:
        dataset, _ = generate(config)
        rules = {
            name: TemporalRule(period=TEMPORAL_PERIOD, tau=1)
            for name in dataset.temporal
        }
        report = run_experiment(
            dataset, replace(base, temporal_rules=rules), k=args.folds,
            seed=args.split_seed,
        )
        if not report.converged:
            exit_code = NON_CONVERGENCE
        rows.append([
            config.n_records, config.n_features,
            repr(config.numerical_ratio), repr(config.seasonality_ratio),
            repr(report.mean_rmse), repr(report.mean_train_seconds),
        ])
        print(
            f"records={config.n_records} features={config.n_features} "
            f"ratio={config.numerical_ratio:.3g} "
            f"seasonality={config.seasonality_ratio:.3g}: "
            f"rmse={report.mean_rmse:.6g} "
            f"time={report.mean_train_seconds:.2f}s"
        )
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)
    print(f"sweep written to {args.out}")
    return exit_code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fxam",
        description="Additive regression over numerical, categorical, and "
                    "temporal features",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a dataset with ground "
                                        "truth")
    p.add_argument("--records", type=int, default=10_000)
    p.add_argument("--features", type=int, default=20)
    p.add_argument("--max-cardinality", type=int, default=10)
    p.add_argument("--numerical-ratio", type=float, default=0.8)
    p.add_argument("--temporal", action="store_true")
    p.add_argument("--seasonality", type=float, default=0.0)
    p.add_argument("--difficulty", choices=("easy", "hard"), default="easy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--schema-out")
    p.add_argument("--truth-out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="fit a model from CSV data")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    _train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="apply a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="k-fold cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--report")
    p.add_argument("--no-temporal-stage", dest="ablate_temporal_stage",
                   action="store_true",
                   help="treat temporal features as plain numerical")
    _train_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("decompose", help="export trend and seasonal curves")
    p.add_argument("--model", required=True)
    p.add_argument("--feature")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("export-contributions",
                       help="export every fitted component")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_contributions)

    p = sub.add_parser("sweep", help="run a preset experiment sweep")
    p.add_argument("--name", required=True)
    p.add_argument("--difficulty", choices=("easy", "hard"), default="hard")
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply sweep record counts (desk-scale runs)")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _train_flags(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NON_CONVERGENCE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
