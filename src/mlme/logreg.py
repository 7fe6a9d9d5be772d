"""Instance-weighted, L2-regularized binary logistic regression.

This is the conditional-probability primitive for every tree node and the
building block for structure scoring.  The bias (index 0) is never
regularized.  Optimization uses scipy's L-BFGS-B with the fixed settings in
``LBFGS_OPTIONS``; the objective/gradient pair is analytic and is checked
against finite differences in the test suite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .dataset import Dataset, as_weight_array, split_folds
from .errors import ArgumentError, NumericError


# L-BFGS-B settings shared by every fit: CPDs, structure scoring and the gate
LBFGS_OPTIONS = {"maxiter": 500, "maxcor": 10, "gtol": 1e-6, "ftol": 1e-14}
DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0)


def check_finite_nonnegative(value, name: str) -> None:
    """Raise ArgumentError naming ``name`` unless ``value`` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ArgumentError(f"{name} must be finite and >= 0, got {value}")


def lbfgs_problem(objective, what: str) -> dict:
    """Keyword arguments for scipy's minimize that maximize ``objective``.

    ``objective(params)`` returns (value, gradient); L-BFGS-B minimizes
    their negation.  A non-finite value raises NumericError naming ``what``
    and the evaluation count.
    """
    n_evals = 0

    def neg(params):
        nonlocal n_evals
        n_evals += 1
        value, grad = objective(params)
        if not np.isfinite(value):
            raise NumericError(f"non-finite {what} at evaluation {n_evals}")
        return -value, -grad

    return {"fun": neg, "jac": True, "method": "L-BFGS-B", "options": LBFGS_OPTIONS}


@dataclass(frozen=True)
class LinearModel:
    """A trained logistic model: params (bias at index 0) plus its L2 strength."""

    params: np.ndarray
    lam: float

    def __post_init__(self):
        p = np.array(self.params, dtype=np.float64, order="C")
        if p.ndim != 1 or not np.all(np.isfinite(p)):
            raise ArgumentError("params must be a finite 1-D vector")
        check_finite_nonnegative(self.lam, "lambda")
        p.flags.writeable = False
        object.__setattr__(self, "params", p)


def log_sigmoid(z):
    """log(sigma(z)), stable for large |z|: -log(1 + e^-z)."""
    return -np.logaddexp(0.0, -z)


def sigmoid(z):
    return np.exp(log_sigmoid(z))


def predict_prob(model: LinearModel, x: np.ndarray) -> float:
    """P(t=1 | x) = sigma(params . x); strictly inside (0,1) barring underflow."""
    return float(sigmoid(model.params @ np.asarray(x, dtype=np.float64)))


def logistic_log_prob(z, t):
    """Elementwise log P(t | logit z) = log sigma(+-z); finite for finite z."""
    return log_sigmoid(np.where(t == 1, z, -z))


def objective_and_gradient(params, X, t, w, lam):
    """Weighted log-likelihood minus the L2 penalty, with its exact gradient.

    value = sum_n w_n [t_n log sigma(z_n) + (1-t_n) log sigma(-z_n)]
            - lam/2 * ||params[1:]||^2         (bias unpenalized)
    """
    params = np.asarray(params, dtype=np.float64)
    z = X @ params
    p = sigmoid(z)
    value = float(w @ logistic_log_prob(z, t))
    grad = X.T @ (w * (t - p))
    value -= 0.5 * lam * float(params[1:] @ params[1:])
    grad[1:] -= lam * params[1:]
    return value, grad


def train_weighted(
    X: np.ndarray,
    t: np.ndarray,
    w,
    lam: float,
    x0: np.ndarray | None = None,
) -> LinearModel:
    """Maximize the weighted, penalized log-likelihood over params.

    Instances with zero weight do not influence the fit.  Degenerate targets
    (no effective instances, or all effective targets equal) still have a
    finite optimum thanks to the penalty; a RuntimeWarning is surfaced.
    """
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    w = as_weight_array(w, X.shape[0])
    check_finite_nonnegative(lam, "lambda")
    if t.shape[0] != X.shape[0]:
        raise ArgumentError("target length does not match feature rows")

    effective = t[w > 0]
    if effective.size == 0:
        warnings.warn("training set has no effective (positive-weight) instances",
                      RuntimeWarning, stacklevel=2)
    elif np.all(effective == effective[0]):
        warnings.warn("all effective targets are identical; fit is penalty-driven",
                      RuntimeWarning, stacklevel=2)

    start = np.zeros(X.shape[1]) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    res = minimize(x0=start, **lbfgs_problem(
        lambda p: objective_and_gradient(p, X, t, w, lam), "objective"))
    return LinearModel(res.x, lam)


def select_lambda(data: Dataset, grid=DEFAULT_LAMBDA_GRID, seed: int = 0) -> float:
    """Pick one L2 strength by 3-fold CV on per-label logistic regressions.

    Scores each grid value by summed held-out log-likelihood across all d
    labels; ties go to the smaller (less trusting) lambda.
    """
    if not grid:
        raise ArgumentError("lambda grid must be nonempty")
    if len(grid) == 1:
        return float(grid[0])
    n_folds = min(3, data.n)
    if n_folds < 2:
        return float(sorted(grid)[0])
    scores = {float(g): 0.0 for g in grid}
    for train, test in split_folds(data, n_folds, seed):
        ones = np.ones(train.n)
        for lam in scores:
            for i in range(train.d):
                model = train_weighted(train.features, train.labels[:, i],
                                       ones, lam)
                lp = logistic_log_prob(test.features @ model.params,
                                       test.labels[:, i])
                scores[lam] += float(lp.sum())
    best = max(sorted(scores), key=lambda g: (scores[g], -g))
    return best


__all__ = [
    "LinearModel",
    "LBFGS_OPTIONS",
    "DEFAULT_LAMBDA_GRID",
    "check_finite_nonnegative",
    "lbfgs_problem",
    "log_sigmoid",
    "logistic_log_prob",
    "sigmoid",
    "predict_prob",
    "objective_and_gradient",
    "train_weighted",
    "select_lambda",
]
