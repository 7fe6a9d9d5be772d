"""Evaluation measures, the cross-validation harness, and a sanity baseline.

Four measures are reported: exact match accuracy (the strictest), the
conditional log-likelihood loss (per-fold sum and per-instance mean), and
micro/macro F1.  Binary relevance (d independent logistic regressions)
rides along in reports as a sanity reference.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from .dataset import Dataset, Standardizer, split_folds
from .errors import ArgumentError
from .inference import predict_dataset
from .logreg import train_columns
from .mixture import (
    MixtureModel,
    TrainConfig,
    _tagged_seed,
    grow_mixture,
    instance_log_probs,
)


def _check_shapes(preds, truth):
    preds = np.asarray(preds)
    truth = np.asarray(truth)
    if preds.shape != truth.shape:
        raise ArgumentError(
            f"prediction shape {preds.shape} != truth shape {truth.shape}")
    return preds, truth


def exact_match_accuracy(preds, truth) -> float:
    """Fraction of rows predicted exactly right."""
    preds, truth = _check_shapes(preds, truth)
    return float(np.all(preds == truth, axis=1).mean())


def _f1(tp: float, fp: float, fn: float) -> float:
    denom = 2 * tp + fp + fn
    if denom == 0:
        # nothing to find and nothing predicted: perfect by convention
        return 1.0
    return 2 * tp / denom


def micro_f1(preds, truth) -> float:
    """F1 over true/false positive/negative counts pooled across classes."""
    preds, truth = _check_shapes(preds, truth)
    tp = float(np.sum((preds == 1) & (truth == 1)))
    fp = float(np.sum((preds == 1) & (truth == 0)))
    fn = float(np.sum((preds == 0) & (truth == 1)))
    return _f1(tp, fp, fn)


def macro_f1(preds, truth) -> float:
    """Mean of per-class F1 scores.

    A class with no true positives in the truth and no predicted positives
    scores 1; any other zero-denominator class scores 0.
    """
    preds, truth = _check_shapes(preds, truth)
    tp = np.sum((preds == 1) & (truth == 1), axis=0, dtype=np.float64)
    fp = np.sum(preds == 1, axis=0, dtype=np.float64) - tp
    fn = np.sum(truth == 1, axis=0, dtype=np.float64) - tp
    return float(np.mean([_f1(*counts) for counts in
                          zip(tp.tolist(), fp.tolist(), fn.tolist())]))


def cll_loss(model: MixtureModel, test: Dataset) -> float:
    """Summed negative conditional log-likelihood of the true label vectors."""
    return float(-instance_log_probs(model, test).sum())


def binary_relevance_baseline(train: Dataset, test: Dataset, lam: float) -> np.ndarray:
    """Predictions from d independent logistic regressions at threshold 0.5."""
    if (train.m, train.d) != (test.m, test.d):
        raise ArgumentError("train and test must share feature/label dims")
    params = train_columns(train.features, train.labels,
                           np.ones(train.labels.shape), lam)
    return (test.features @ params > 0).astype(np.int8)


@dataclass(frozen=True)
class FoldResult:
    ema: float
    cll_loss: float              # sum over the fold's test instances
    cll_per_instance: float
    micro_f1: float
    macro_f1: float
    wall_time: float
    accepted_k: int
    br_ema: Optional[float] = None
    br_micro_f1: Optional[float] = None
    br_macro_f1: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EvalReport:
    per_fold: tuple[FoldResult, ...]
    config: dict

    @property
    def aggregate(self) -> dict:
        """Mean and sd (ddof=1, 0 for one fold) of each measure over the folds.

        Measures missing from any fold are left out; ``cll_loss_total`` is
        the summed loss of all folds.
        """
        agg = {}
        for name in (field.name for field in fields(FoldResult)):
            vals = [getattr(f, name) for f in self.per_fold]
            if any(v is None for v in vals):
                continue
            arr = np.asarray(vals, dtype=np.float64)
            sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
            agg[name] = {"mean": float(arr.mean()), "sd": sd}
        agg["cll_loss_total"] = float(np.sum([f.cll_loss for f in self.per_fold]))
        return agg

    def to_dict(self) -> dict:
        return {
            "per_fold": [f.to_dict() for f in self.per_fold],
            "aggregate": self.aggregate,
            "config": self.config,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text_table(self) -> str:
        cols = ("ema", "cll_loss", "micro_f1", "macro_f1", "wall_time")
        lines = ["fold  " + "".join(f"{c:>14}" for c in cols)]
        for i, f in enumerate(self.per_fold):
            vals = [getattr(f, c) for c in cols]
            lines.append(f"{i:<6d}" + "".join(f"{v:>14.4f}" for v in vals))
        mean_row = [self.aggregate[c]["mean"] for c in cols]
        sd_row = [self.aggregate[c]["sd"] for c in cols]
        lines.append("mean  " + "".join(f"{v:>14.4f}" for v in mean_row))
        lines.append("sd    " + "".join(f"{v:>14.4f}" for v in sd_row))
        return "\n".join(lines)


def evaluate_model(
    model: MixtureModel,
    test: Dataset,
    wall_time: float = 0.0,
    baseline_preds: Optional[np.ndarray] = None,
) -> FoldResult:
    """Score one trained model on one test set."""
    preds, _ = predict_dataset(model, test.features)
    loss = cll_loss(model, test)
    br = {}
    if baseline_preds is not None:
        br = {
            "br_ema": exact_match_accuracy(baseline_preds, test.labels),
            "br_micro_f1": micro_f1(baseline_preds, test.labels),
            "br_macro_f1": macro_f1(baseline_preds, test.labels),
        }
    return FoldResult(
        ema=exact_match_accuracy(preds, test.labels),
        cll_loss=loss,
        cll_per_instance=loss / test.n,
        micro_f1=micro_f1(preds, test.labels),
        macro_f1=macro_f1(preds, test.labels),
        wall_time=wall_time,
        accepted_k=model.k,
        **br,
    )


def cross_validate(
    data: Dataset,
    trainer: TrainConfig,
    k: int,
    standardize: bool = True,
) -> EvalReport:
    """k-fold cross-validation of the full train/predict pipeline.

    Each fold grows a mixture on its training part (fold-specific seeds
    derived from ``trainer.seed``), MAP-predicts the test part, and records
    all measures plus wall time, and the binary relevance baseline's (fit at
    the fold model's lambda).  Feature z-scoring, when enabled, is fit on the
    training part only.
    """
    folds = split_folds(data, k, trainer.seed)
    results = []
    for fold_idx, (train, test) in enumerate(folds):
        start = time.perf_counter()
        if standardize:
            scaler = Standardizer.fit(train)
            train_t, test_t = scaler.transform(train), scaler.transform(test)
        else:
            train_t, test_t = train, test
        fold_cfg = replace(trainer, seed=_tagged_seed(trainer.seed, 101, fold_idx))
        model = grow_mixture(train_t, fold_cfg)
        elapsed = time.perf_counter() - start
        baseline = binary_relevance_baseline(train_t, test_t, model.meta["lambda"])
        results.append(evaluate_model(model, test_t, wall_time=elapsed,
                                      baseline_preds=baseline))
    return EvalReport(tuple(results), {
        "folds": int(k),  # split_folds checked it is an integer
        "seed": trainer.seed,
        "standardize": standardize,
        "trainer": trainer.to_dict(),
    })
