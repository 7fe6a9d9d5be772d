"""Command-line entry point: train, predict, evaluate, cross-validate.

Errors exit nonzero with a single machine-parsable line on stderr of the
form ``mlme: error[<code>] <message>``.  Warnings raised while a command
runs are collected and printed once per distinct message, as
``mlme: warning[<code>] <message>``; they do not change the exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
import warnings

from .dataset import (Dataset, Standardizer, check_fold_count, load_arff,
                      load_csv, read_features)
from .errors import ArgumentError, MlmeError, SchemaError
from .evaluation import EvalReport, cross_validate, evaluate_model
from .inference import predict_dataset
from .logreg import DEFAULT_LAMBDA_GRID
from .mixture import TrainConfig, grow_mixture
from .model_io import atomic_write_text, load_model, save_model


def _float_list(text: str) -> tuple[float, ...]:
    """argparse type of --lambda-grid: comma-separated numbers."""
    return tuple(float(s) for s in text.split(",") if s)


def _name_list(text: str) -> list[str]:
    """argparse type of --label-names: comma-separated names, at least one."""
    names = [s for s in text.split(",") if s]
    if not names:
        raise argparse.ArgumentTypeError("needs at least one name")
    return names


class _Parser(argparse.ArgumentParser):
    """Raises ArgumentError on a usage error, so main reports one line."""

    def error(self, message):
        raise ArgumentError(message)


_ARFF_HELP = ("comma-separated ARFF label names; the data file is ARFF "
              "exactly when they are given")


def _add_data_args(p):
    p.add_argument("--data", required=True, help="input CSV or ARFF file")
    # the one flag given names the format: CSV label count or ARFF names
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--labels", type=int, default=None,
                     help="number of trailing label columns (CSV)")
    fmt.add_argument("--label-names", type=_name_list, help=_ARFF_HELP)


def _add_train_args(p):
    absent = argparse.SUPPRESS
    p.add_argument("--max-experts", type=int, default=absent)
    p.add_argument("--lambda", dest="lam", type=float, default=absent,
                   help="fixed L2 strength (skips grid selection)")
    p.add_argument("--lambda-grid", type=_float_list, default=absent,
                   help="comma-separated L2 grid (default "
                        f"{','.join(f'{g:g}' for g in DEFAULT_LAMBDA_GRID)})")
    p.add_argument("--em-max-iters", type=int, default=absent)
    p.add_argument("--no-standardize", action="store_true",
                   help="disable per-feature z-scoring")
    p.add_argument("--seed", type=int, default=absent)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mlme",
        description="Multi-label classification with mixtures of "
                    "tree-structured Bayesian network experts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a mixture and save it")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--out", required=True, help="output model file (JSON)")

    p = sub.add_parser("predict", help="MAP-predict labels for a data file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="input CSV or ARFF file")
    p.add_argument("--label-names", type=_name_list, help=_ARFF_HELP)
    p.add_argument("--out", required=True, help="output prediction CSV")

    p = sub.add_parser("evaluate", help="score a saved model on labeled data")
    p.add_argument("--model", required=True)
    _add_data_args(p)
    p.add_argument("--out", required=True, help="output report JSON")

    p = sub.add_parser("cv", help="k-fold cross-validation from scratch")
    _add_data_args(p)
    _add_train_args(p)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--out", required=True, help="output report JSON")
    return parser


def _config(cls, args):
    """``cls`` built from the parsed flags named after its fields.

    Those flags default to argparse.SUPPRESS, so an absent flag leaves the
    library default in force.
    """
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in dataclasses.fields(cls)
                  if f.name in given})


def _load_labeled(args, d_hint=None) -> Dataset:
    if args.label_names is not None:
        return load_arff(args.data, args.label_names)
    d = args.labels if args.labels is not None else d_hint
    if d is None:
        raise ArgumentError("--labels is required for CSV data")
    return load_csv(args.data, d)


def cmd_train(args) -> int:
    config = _config(TrainConfig, args)
    data = _load_labeled(args)
    scaler = None
    if not args.no_standardize:
        scaler = Standardizer.fit(data)
        data = scaler.transform(data)
    model = grow_mixture(data, config)
    save_model(model, args.out, scaler)
    print(f"trained mixture with {model.k} expert(s); model -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    model, scaler = load_model(args.model)
    features = read_features(args.data, model.n_features - 1, model.d,
                             args.label_names)
    if scaler is not None:
        features = scaler.transform_features(features)
    preds, logps = predict_dataset(model, features)
    lines = [",".join([str(int(v)) for v in preds[i]] + [repr(float(logps[i]))])
             for i in range(preds.shape[0])]
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
    start = time.perf_counter()
    fold = evaluate_model(model, data)
    fold = dataclasses.replace(fold, wall_time=time.perf_counter() - start)
    report = EvalReport((fold,), {
        "model": args.model,
        "data": args.data,
        "lambda": model.meta.get("lambda"),
    })
    atomic_write_text(args.out, report.to_json() + "\n")
    print(report.to_text_table())
    return 0


def cmd_cv(args) -> int:
    config = _config(TrainConfig, args)
    check_fold_count(args.folds)
    data = _load_labeled(args)
    report = cross_validate(data, config, k=args.folds,
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
    with warnings.catch_warnings(record=True) as caught:
        # collect every RuntimeWarning whatever the caller's filters; other
        # kinds keep the interpreter's filters, so deprecations stay hidden
        warnings.simplefilter("always", RuntimeWarning)
        try:
            args = build_parser().parse_args(argv)
            return _COMMANDS[args.command](args)
        except MlmeError as exc:
            error = f"error[{exc.code}] {exc}"
        except (OSError, UnicodeDecodeError) as exc:
            error = f"error[io] {exc}"
        finally:
            lines = {}                 # one line per distinct message, in order
            for w in caught:
                code = getattr(w.category, "code", w.category.__name__)
                lines[f"mlme: warning[{code}] {w.message}"] = None
            for line in lines:
                print(line, file=sys.stderr)
    print(f"mlme: {error}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
