"""Instance-weighted, L2-regularized binary logistic regression.

This is the conditional-probability primitive for every tree node and the
building block for structure scoring.  The bias (index 0) is never
regularized.  Every fit, and the mixture's softmax gate, runs through
``minimize``: a numpy L-BFGS that solves B independent problems in lockstep
over one design matrix, so fits that share the matrix share its products.
It stops on the fixed settings in ``LBFGS_OPTIONS``; a warm-started EM
M-step stops after at most ``EM_MSTEP_MAXITER`` iterations instead.  The
objective/gradient pair is analytic and is checked against finite
differences in the test suite; the solver is checked against scipy's
L-BFGS-B there too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, as_weight_array, split_folds
from .errors import ArgumentError, DegenerateTargetWarning, NumericError


# L-BFGS settings shared by every fit: CPDs, structure scoring and the gate
LBFGS_OPTIONS = {"maxiter": 500, "maxcor": 10, "gtol": 1e-6, "maxls": 20}
# iteration cap of every warm-started M-step inside mixture.em_fit
# (generalised EM: each M-step only has to raise its objective)
EM_MSTEP_MAXITER = 3
_EPS, _TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0, 10.0)


def check_finite_nonnegative(value, name: str) -> None:
    """Raise ArgumentError naming ``name`` unless ``value`` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ArgumentError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class LbfgsResult:
    """One lockstep solve: ``x`` is (p, B); ``nit`` and ``nfev`` sum over columns."""

    x: np.ndarray
    converged: np.ndarray  # (B,) bool: the column's gradient reached gtol
    nit: int
    nfev: int

    @property
    def success(self) -> bool:
        return bool(self.converged.all())


def minimize(fg, x0: np.ndarray, what: str = "objective",
             maxiter: int | None = None) -> LbfgsResult:
    """Minimize B independent smooth functions in lockstep by L-BFGS.

    ``x0`` is (p, B).  ``fg(theta, cols)`` returns the values (b,) and the
    gradients (p, b) of the functions ``cols`` (an index array) at the
    columns of ``theta`` (p, b), so fits that share a design matrix share
    its matrix products.  Each column keeps its own curvature pairs (the
    two-loop recursion, Nocedal & Wright alg. 7.4) and its own backtracking
    Armijo line search with quadratic interpolation.  With LBFGS_OPTIONS
    read at call time, a column converges once its gradient inf-norm is at
    most gtol; it stops unconverged when maxls trial steps find no
    acceptable one, or after maxiter iterations (``maxiter``, when given,
    overrides the option).  Stopped columns freeze and are not evaluated
    again.  No column ends above its starting value: one whose accepted
    steps added up to a rise (the approximate Wolfe test below tolerates
    rounding-sized ones) returns its start, unconverged.  A non-finite
    value raises NumericError naming ``what``.
    """
    opts = dict(LBFGS_OPTIONS)
    if maxiter is not None:
        opts["maxiter"] = maxiter
    x = np.array(x0, dtype=np.float64)
    f, g = _evaluate(fg, x, np.arange(x.shape[1]), what)
    f_start, f_end = f.copy(), f.copy()
    nfev, nit = x.shape[1], 0
    converged = np.abs(g).max(axis=0, initial=0.0) <= opts["gtol"]
    live = np.flatnonzero(~converged)          # original column of each slot
    xs, f, g = x[:, live], f[live], g[:, live]
    pairs = []       # newest last: s, y, rho s, rho y; rho = 0 skips a column
    gamma = np.ones(live.size)                 # initial Hessian scale s.y / y.y
    for it in range(opts["maxiter"]):
        if live.size == 0:
            break
        d = -g
        alphas = []
        for s, y, rs, ry in reversed(pairs):
            alphas.append(np.einsum("pb,pb->b", rs, d))
            d -= alphas[-1] * y
        d *= gamma
        for (s, y, rs, ry), a in zip(pairs, reversed(alphas)):
            d += s * (a - np.einsum("pb,pb->b", ry, d))
        slope = np.einsum("pb,pb->b", g, d)
        step = (np.minimum(1.0, 1.0 / np.linalg.norm(g, axis=0)) if it == 0
                else np.ones(live.size))
        x_new, f_new, g_new = xs.copy(), f.copy(), g.copy()
        search = np.arange(live.size)
        for _ in range(opts["maxls"]):
            a, f0, s0 = step[search], f[search], slope[search]
            trial = xs[:, search] + a * d[:, search]
            ft, gt = _evaluate(fg, trial, live[search], what)
            nfev += search.size
            ok = ft <= f0 + 1e-4 * a * s0      # Armijo, c1 = 1e-4
            if not ok.all():
                # near the optimum rounding hides the decrease in f; use its
                # derivative form from the slope at the trial point
                # (Hager & Zhang's approximate Wolfe condition)
                ok |= (ft <= f0 + 1e-12 * np.abs(f0)) & (
                    np.einsum("pb,pb->b", gt, d[:, search]) <= (2e-4 - 1) * s0)
            took = search[ok]
            x_new[:, took], f_new[took], g_new[:, took] = trial[:, ok], ft[ok], gt[:, ok]
            bad = ~ok
            search = search[bad]
            if search.size == 0:
                break
            # back off to the minimizer of the quadratic through f(0), f'(0)
            # and f(a), kept within [a/10, a/2]
            a, s0 = a[bad], s0[bad]
            curv = np.maximum(ft[bad] - f0[bad] - s0 * a, _TINY)
            step[search] = np.clip(-s0 * a * a / (2.0 * curv), 0.1 * a, 0.5 * a)
        s, y = x_new - xs, g_new - g
        sy = np.einsum("pb,pb->b", s, y)
        yy = np.einsum("pb,pb->b", y, y)
        curved = sy > _EPS * yy
        rho = np.divide(1.0, sy, out=np.zeros_like(sy), where=curved)
        pairs = (pairs + [(s, y, rho * s, rho * y)])[-opts["maxcor"]:]
        gamma = np.divide(sy, yy, out=gamma, where=curved)
        xs, f, g = x_new, f_new, g_new
        done = np.abs(g).max(axis=0) <= opts["gtol"]
        stop = done | (it + 1 == opts["maxiter"])
        stop[search] = True                    # no acceptable step was found
        if stop.any():
            x[:, live[stop]], f_end[live[stop]] = xs[:, stop], f[stop]
            converged[live[stop]] = done[stop]
            nit += (it + 1) * int(stop.sum())
            keep = ~stop
            live, xs, f, g, gamma = live[keep], xs[:, keep], f[keep], g[:, keep], gamma[keep]
            pairs = [tuple(v[:, keep] for v in pair) for pair in pairs]
    rose = f_end > f_start
    x[:, rose], converged[rose] = np.asarray(x0, dtype=np.float64)[:, rose], False
    return LbfgsResult(x, converged, nit, nfev)


def _evaluate(fg, theta, cols, what):
    f, g = fg(theta, cols)
    if not np.isfinite(f).all():
        bad = cols[~np.isfinite(f)][0]
        raise NumericError(f"non-finite {what} in column {int(bad)}")
    return f, g


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


def logistic_log_prob(z, t):
    """Elementwise log P(t | logit z) = log sigma(+-z); finite for finite z."""
    return log_sigmoid(np.where(t == 1, z, -z))


def objective_and_gradient(params, X, t, w, lam):
    """Weighted log-likelihood minus the L2 penalty, with its exact gradient.

    value = sum_n w_n [t_n log sigma(z_n) + (1-t_n) log sigma(-z_n)]
            - lam/2 * ||params[1:]||^2         (bias unpenalized)

    ``params`` may also be (p, B), with ``t`` and ``w`` (n, B) and ``lam``
    scalar or (B,): then value is (B,) and the gradient (p, B), column by
    column.
    """
    params = np.asarray(params, dtype=np.float64)
    sign = np.where(t == 1, 1.0, -1.0)
    sz = sign * (X @ params)
    lp = log_sigmoid(sz)                       # logistic_log_prob(z, t)
    value = (w * lp).sum(axis=0) - 0.5 * lam * (params[1:] ** 2).sum(axis=0)
    # t - sigma(z) = sign * sigma(-sign z), and log sigma(-s) = log sigma(s) - s
    grad = X.T @ (w * sign * np.exp(lp - sz))
    grad[1:] -= lam * params[1:]
    return value, grad


def train_columns(X, T, W, lam, x0=None, maxiter=None) -> np.ndarray:
    """(p, B) params maximizing each column's weighted, penalized log-likelihood.

    Column b fits targets T[:, b] under weights W[:, b] and L2 strength
    ``lam`` (scalar or (B,)) on the shared design matrix X, all B fits in
    one lockstep ``minimize`` call from ``x0`` (p, B; zeros when None),
    stopping after ``maxiter`` iterations when that is given.
    Instances with zero weight do not influence a fit.  Degenerate targets
    (no effective instances, or all effective targets equal) surface a
    DegenerateTargetWarning, a RuntimeWarning; when all effective targets
    are equal the unpenalized bias has no finite optimum, and its fit stops
    once the gradient is below gtol.
    """
    X = np.asarray(X, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), T.shape[1:])
    for value in np.unique(lam):
        check_finite_nonnegative(value, "lambda")
    effective = W > 0
    if not effective.any(axis=0).all():
        warnings.warn("training set has no effective (positive-weight) instances",
                      DegenerateTargetWarning)
    lo = np.where(effective, T, np.inf).min(axis=0, initial=np.inf)
    hi = np.where(effective, T, -np.inf).max(axis=0, initial=-np.inf)
    if np.any(lo == hi):
        warnings.warn("all effective targets are identical; fit is penalty-driven",
                      DegenerateTargetWarning)

    def fg(theta, cols):
        value, grad = objective_and_gradient(theta, X, T[:, cols], W[:, cols], lam[cols])
        return -value, -grad

    start = np.zeros((X.shape[1], T.shape[1])) if x0 is None else x0
    return minimize(fg, start, maxiter=maxiter).x


def train_weighted(
    X: np.ndarray,
    t: np.ndarray,
    w,
    lam: float,
    x0: np.ndarray | None = None,
) -> LinearModel:
    """Maximize the weighted, penalized log-likelihood over params.

    The one-column case of train_columns: zero-weight instances do not
    influence the fit, and degenerate targets warn but stay finite.
    """
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    w = as_weight_array(w, X.shape[0])
    if t.shape[0] != X.shape[0]:
        raise ArgumentError("target length does not match feature rows")
    start = None if x0 is None else np.asarray(x0, dtype=np.float64)[:, None]
    params = train_columns(X, t[:, None], w[:, None], lam, start)
    return LinearModel(params[:, 0], lam)


def select_lambda(data: Dataset, grid=DEFAULT_LAMBDA_GRID, seed: int = 0) -> float:
    """Pick one L2 strength by 3-fold CV on per-label logistic regressions.

    Scores each grid value by summed held-out log-likelihood across all d
    labels; ties go to the smaller (less trusting) lambda.  Each fold fits
    every (grid value, label) pair in one lockstep solve.
    """
    if not grid:
        raise ArgumentError("lambda grid must be nonempty")
    if len(grid) == 1:
        return float(grid[0])
    n_folds = min(3, data.n)
    if n_folds < 2:
        return float(sorted(grid)[0])
    lams = sorted({float(g) for g in grid})
    scores = np.zeros(len(lams))
    for train, test in split_folds(data, n_folds, seed):
        T = np.tile(train.labels, len(lams))        # column g*d + i: label i
        params = train_columns(train.features, T, np.ones(T.shape),
                               np.repeat(lams, train.d))
        lp = logistic_log_prob(test.features @ params,
                               np.tile(test.labels, len(lams)))
        scores += lp.sum(axis=0).reshape(len(lams), train.d).sum(axis=1)
    return lams[int(np.argmax(scores))]     # first maximum: the smaller lambda

