"""Command-line entry point: train, predict, evaluate, cross-validate.

Errors exit nonzero with a single machine-parsable line on stderr of the
form ``mlme: error[<code>] <message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from .dataset import Dataset, Standardizer, load_arff, load_csv, read_csv_rows
from .errors import ArgumentError, MlmeError, SchemaError
from .evaluation import EvalReport, _aggregate, cross_validate, evaluate_model
from .inference import AnnealConfig, predict_dataset
from .logreg import DEFAULT_LAMBDA_GRID, OptimizerConfig
from .mixture import TrainConfig, grow_mixture
from .model_io import atomic_write_text, load_model, save_model


def _add_data_args(p):
    # --labels (CSV) vs --label-names (ARFF) is validated at load time
    p.add_argument("--data", required=True, help="input CSV or ARFF file")
    p.add_argument("--labels", type=int, default=None,
                   help="number of trailing label columns (CSV)")
    p.add_argument("--arff", action="store_true",
                   help="treat the data file as ARFF")
    p.add_argument("--label-names", default=None,
                   help="comma-separated ARFF label attribute names")


def _add_train_args(p):
    p.add_argument("--max-experts", type=int, default=5)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="fixed L2 strength (skips grid selection)")
    p.add_argument("--lambda-grid", default=None,
                   help="comma-separated L2 grid (default 0.01,0.1,1,10)")
    p.add_argument("--lambda-gate", type=float, default=None)
    p.add_argument("--holdout-ratio", type=float, default=0.25)
    p.add_argument("--internal-test-ratio", type=float, default=0.2)
    p.add_argument("--em-max-iters", type=int, default=100)
    p.add_argument("--em-tol", type=float, default=1e-5)
    p.add_argument("--no-standardize", action="store_true",
                   help="disable per-feature z-scoring")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlme",
        description="Multi-label classification with mixtures of "
                    "tree-structured Bayesian network experts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a mixture and save it")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--out", required=True, help="output model file (JSON)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("predict", help="MAP-predict labels for a data file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--arff", action="store_true")
    p.add_argument("--label-names", default=None)
    p.add_argument("--out", required=True, help="output prediction CSV")
    p.add_argument("--anneal-iters", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-logprob", action="store_true",
                   help="omit the per-instance log-probability column")

    p = sub.add_parser("evaluate", help="score a saved model on labeled data")
    p.add_argument("--model", required=True)
    _add_data_args(p)
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--anneal-iters", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("cv", help="k-fold cross-validation from scratch")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--anneal-iters", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _load_labeled(args, d_hint=None) -> Dataset:
    if args.arff:
        if not args.label_names:
            raise ArgumentError("--arff requires --label-names")
        names = [s for s in args.label_names.split(",") if s]
        return load_arff(args.data, names)
    d = args.labels if args.labels is not None else d_hint
    if d is None:
        raise ArgumentError("--labels is required for CSV data")
    return load_csv(args.data, d)


def _train_config(args) -> TrainConfig:
    grid = DEFAULT_LAMBDA_GRID
    if args.lambda_grid:
        grid = tuple(float(s) for s in args.lambda_grid.split(",") if s)
    return TrainConfig(
        max_experts=args.max_experts,
        lam=args.lam,
        lambda_grid=grid,
        lam_gate=args.lambda_gate,
        holdout_ratio=args.holdout_ratio,
        internal_test_ratio=args.internal_test_ratio,
        em_tol=args.em_tol,
        em_max_iters=args.em_max_iters,
        optimizer=OptimizerConfig(),
        seed=args.seed,
    )


def cmd_train(args) -> int:
    data = _load_labeled(args)
    scaler = None
    if not args.no_standardize:
        scaler = Standardizer.fit(data)
        data = scaler.transform(data)
    config = _train_config(args)
    model = grow_mixture(data, config)
    save_model(model, args.out, scaler)
    log = {
        "accepted_k": model.k,
        "lambda": model.meta.get("lambda"),
        "growth": model.meta.get("growth"),
    }
    atomic_write_text(f"{args.out}.log.json",
                      json.dumps(log, indent=2, sort_keys=True) + "\n")
    print(f"trained mixture with {model.k} expert(s); model -> {args.out}")
    return 0


def _features_for_model(args, model) -> np.ndarray:
    """(N, m+1) biased feature matrix matching the model's dimensionality."""
    m, d = model.n_features - 1, model.d
    if args.arff:
        if not args.label_names:
            raise ArgumentError("--arff requires --label-names")
        names = [s for s in args.label_names.split(",") if s]
        data = load_arff(args.data, names)
        if data.m != m:
            raise SchemaError(
                f"model expects m={m} features but data has m={data.m}")
        return data.features
    raw = read_csv_rows(args.data)
    if raw.shape[1] == m + d:
        raw = raw[:, :m]
    elif raw.shape[1] != m:
        raise SchemaError(
            f"model expects {m} feature columns (optionally + {d} labels) "
            f"but data has {raw.shape[1]} columns")
    return np.hstack([np.ones((raw.shape[0], 1)), raw])


def cmd_predict(args) -> int:
    model, scaler = load_model(args.model)
    features = _features_for_model(args, model)
    if scaler is not None:
        features = scaler.transform_features(features)
    cfg = AnnealConfig.for_iterations(args.anneal_iters, seed=args.seed)
    preds, logps = predict_dataset(model, features, cfg)
    lines = []
    for i in range(preds.shape[0]):
        cells = [str(int(v)) for v in preds[i]]
        if not args.no_logprob:
            cells.append(repr(float(logps[i])))
        lines.append(",".join(cells))
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {preds.shape[0]} predictions -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    model, scaler = load_model(args.model)
    data = _load_labeled(args, d_hint=model.d)
    if data.m != model.n_features - 1 or data.d != model.d:
        raise SchemaError(
            f"model (m={model.n_features - 1}, d={model.d}) does not match "
            f"data (m={data.m}, d={data.d})")
    if scaler is not None:
        data = scaler.transform(data)
    cfg = AnnealConfig.for_iterations(args.anneal_iters, seed=args.seed)
    start = time.perf_counter()
    fold = evaluate_model(model, data, cfg)
    fold = dataclasses.replace(fold, wall_time=time.perf_counter() - start)
    report = EvalReport((fold,), _aggregate((fold,)), {
        "model": args.model,
        "data": args.data,
        "anneal_iterations": cfg.iterations,
        "seed": args.seed,
        "lambda": model.meta.get("lambda"),
    })
    atomic_write_text(args.out, report.to_json() + "\n")
    print(report.to_text_table())
    return 0


def cmd_cv(args) -> int:
    data = _load_labeled(args)
    config = _train_config(args)
    anneal = AnnealConfig.for_iterations(args.anneal_iters, seed=args.seed)
    report = cross_validate(data, config, k=args.folds, seed=args.seed,
                            anneal=anneal,
                            standardize=not args.no_standardize)
    atomic_write_text(args.out, report.to_json() + "\n")
    print(report.to_text_table())
    return 0


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "cv": cmd_cv,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except MlmeError as exc:
        print(f"mlme: error[{exc.code}] {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"mlme: error[io] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
