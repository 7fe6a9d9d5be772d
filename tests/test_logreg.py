import numpy as np
import pytest

from mlme import logreg, mixture
from mlme.errors import ArgumentError, NumericError
from mlme.logreg import (
    EM_MSTEP_MAXITER,
    LBFGS_OPTIONS,
    LinearModel,
    logistic_log_prob,
    minimize,
    objective_and_gradient,
    select_lambda,
    sigmoid,
    train_weighted,
)
from mlme.dataset import Dataset


def finite_difference_gradient(params, X, t, w, lam, step=1e-5):
    grad = np.zeros_like(params)
    for j in range(len(params)):
        hi = params.copy()
        lo = params.copy()
        hi[j] += step
        lo[j] -= step
        fhi, _ = objective_and_gradient(hi, X, t, w, lam)
        flo, _ = objective_and_gradient(lo, X, t, w, lam)
        grad[j] = (fhi - flo) / (2 * step)
    return grad


class TestPredictProb:
    def test_zero_params_is_half(self):
        model = LinearModel(np.zeros(4), 0.0)
        assert sigmoid(model.params @ np.array([1.0, 3.0, -2.0, 0.5])) == 0.5

    def test_log_three_gives_three_quarters(self):
        model = LinearModel(np.array([np.log(3.0), 0.0]), 0.0)
        assert abs(sigmoid(model.params @ np.array([1.0, 0.0])) - 0.75) < 1e-15

    def test_saturation_no_nan(self):
        model = LinearModel(np.array([-1000.0, 0.0]), 0.0)
        x = np.array([1.0, 0.0])
        p = sigmoid(model.params @ x)
        assert 0.0 <= p <= 1e-300

    def test_strictly_inside_unit_interval_moderate(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            model = LinearModel(rng.normal(scale=5, size=3), 0.0)
            p = sigmoid(model.params @ np.concatenate([[1.0], rng.normal(size=2)]))
            assert 0.0 < p < 1.0


class TestLogisticLogProb:
    def test_saturation_no_nan(self):
        lp = logistic_log_prob(-1000.0, 1)
        assert np.isfinite(lp)
        assert abs(lp - (-1000.0)) < 1e-9
        # the log path stays finite out to |z| = 1e6
        for t in (0, 1):
            assert np.isfinite(logistic_log_prob(1e6, t))
            assert np.isfinite(logistic_log_prob(-1e6, t))

    def test_consistent_with_predict_prob(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            model = LinearModel(rng.normal(scale=5, size=3), 0.0)
            x = np.concatenate([[1.0], rng.normal(size=2)])
            z = model.params @ x
            p1, p0 = np.exp(logistic_log_prob(z, 1)), np.exp(logistic_log_prob(z, 0))
            assert abs(p1 - sigmoid(model.params @ x)) < 1e-15
            assert abs(p0 + p1 - 1.0) < 1e-15


class TestObjective:
    def test_zero_params_balanced_targets(self):
        X = np.array([[1.0, 2.0], [1.0, -1.0]])
        t = np.array([1.0, 0.0])
        w = np.array([0.5, 0.5])
        value, _ = objective_and_gradient(np.zeros(2), X, t, w, 0.0)
        assert abs(value - np.log(0.5)) < 1e-12

    def test_zero_weights_penalty_only(self):
        params = np.array([0.7, -1.2, 2.0])
        X = np.ones((3, 3))
        t = np.array([1.0, 0.0, 1.0])
        w = np.zeros(3)
        lam = 2.5
        value, grad = objective_and_gradient(params, X, t, w, lam)
        assert abs(value - (-0.5 * lam * (params[1] ** 2 + params[2] ** 2))) < 1e-12
        np.testing.assert_allclose(grad, [0.0, -lam * params[1], -lam * params[2]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            n, m = int(rng.integers(3, 12)), int(rng.integers(1, 5))
            X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, m))])
            t = rng.integers(0, 2, size=n).astype(float)
            w = rng.random(n)
            lam = float(rng.random() * 2)
            params = rng.normal(size=m + 1)
            _, grad = objective_and_gradient(params, X, t, w, lam)
            fd = finite_difference_gradient(params, X, t, w, lam)
            denom = max(np.linalg.norm(fd), 1e-8)
            worst = max(worst, np.linalg.norm(grad - fd) / denom)
        assert worst < 1e-4


class TestTrainWeighted:
    def test_single_effective_instance(self):
        X = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 0.3]])
        t = np.array([1.0, 0.0, 0.0])
        w = np.array([1.0, 0.0, 0.0])
        model = train_weighted(X, t, w, lam=0.5)
        assert sigmoid(model.params @ X[0]) > 0.5

    def test_huge_lambda_shrinks_weights(self):
        rng = np.random.default_rng(1)
        X = np.hstack([np.ones((50, 1)), rng.normal(size=(50, 3))])
        t = rng.integers(0, 2, 50).astype(float)
        model = train_weighted(X, t, np.ones(50), lam=1e8)
        assert np.all(np.abs(model.params[1:]) < 1e-6)
        # bias still tracks the class prior
        prior = t.mean()
        assert abs(sigmoid(model.params @ np.array([1.0, 0, 0, 0])) - prior) < 0.05

    def test_matches_dense_grid_search_1d(self):
        # two separable points; optimum found by brute force over (bias, w)
        X = np.array([[1.0, -1.0], [1.0, 1.0]])
        t = np.array([0.0, 1.0])
        w = np.ones(2)
        lam = 1.0
        model = train_weighted(X, t, w, lam=lam)
        trained_value, _ = objective_and_gradient(model.params, X, t, w, lam)

        biases = np.arange(-3.0, 3.0, 0.01)
        slopes = np.arange(-3.0, 3.0, 0.01)
        B, S = np.meshgrid(biases, slopes, indexing="ij")
        # objective for all grid points, vectorized over the two instances
        z0 = B - S
        z1 = B + S
        ll = -np.logaddexp(0.0, z0) - np.logaddexp(0.0, -z1)
        values = ll - 0.5 * lam * S ** 2
        grid_best = values.max()
        assert trained_value >= grid_best - 1e-3
        # and the fitted probability curve is monotone in x
        xs = np.linspace(-2, 2, 50)
        probs = [sigmoid(model.params @ np.array([1.0, x])) for x in xs]
        assert np.all(np.diff(probs) > 0)

    def test_weight_scaling_with_lambda_matches(self):
        rng = np.random.default_rng(3)
        X = np.hstack([np.ones((40, 1)), rng.normal(size=(40, 2))])
        t = rng.integers(0, 2, 40).astype(float)
        w = rng.random(40) + 0.1
        a = train_weighted(X, t, w, lam=0.7)
        b = train_weighted(X, t, 3.0 * w, lam=3 * 0.7)
        np.testing.assert_allclose(a.params, b.params, atol=1e-6)

    def test_duplicate_equals_double_weight(self):
        rng = np.random.default_rng(4)
        X = np.hstack([np.ones((10, 1)), rng.normal(size=(10, 2))])
        t = rng.integers(0, 2, 10).astype(float)
        w = np.ones(10)
        X2 = np.vstack([X, X[:1]])
        t2 = np.concatenate([t, t[:1]])
        w2 = np.ones(11)
        wd = w.copy()
        wd[0] = 2.0
        a = train_weighted(X2, t2, w2, lam=0.3)
        b = train_weighted(X, t, wd, lam=0.3)
        np.testing.assert_allclose(a.params, b.params, atol=1e-5)

    def test_degenerate_targets_warn_but_finite(self):
        X = np.array([[1.0, 0.5], [1.0, -0.5]])
        t = np.array([1.0, 1.0])
        with pytest.warns(RuntimeWarning):
            model = train_weighted(X, t, np.ones(2), lam=0.5)
        assert np.all(np.isfinite(model.params))

    def test_rejects_negative_lambda(self):
        with pytest.raises(ArgumentError):
            train_weighted(np.ones((2, 1)), np.array([0.0, 1.0]), np.ones(2), -1.0)

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_rejects_non_finite_or_negative_lambda(self, lam):
        with pytest.raises(ArgumentError, match="lambda must be finite"):
            train_weighted(np.ones((2, 1)), np.array([0.0, 1.0]), np.ones(2), lam)
        with pytest.raises(ArgumentError, match="lambda must be finite"):
            LinearModel(np.zeros(2), lam)


class TestSelectLambda:
    def test_picks_from_grid_deterministically(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        Y = (X[:, :2] > 0).astype(int)
        data = Dataset.from_raw(X, Y)
        a = select_lambda(data, (0.01, 0.1, 1.0, 10.0), seed=9)
        b = select_lambda(data, (0.01, 0.1, 1.0, 10.0), seed=9)
        assert a == b
        assert a in (0.01, 0.1, 1.0, 10.0)

    def test_single_value_grid_short_circuits(self):
        data = Dataset.from_raw(np.zeros((5, 1)), np.zeros((5, 1), dtype=int))
        assert select_lambda(data, (0.5,)) == 0.5



def random_columns(rng, B, n=60, m=4):
    """B weighted problems on one matrix: masked rows, a lambda per column,
    warm starts on about half the columns, and every third column with all
    of its effective targets equal."""
    X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, m))])
    T = rng.integers(0, 2, size=(n, B)).astype(float)
    W = rng.random((n, B)) * (rng.random((n, B)) > 0.3)
    lam = rng.choice([0.01, 0.3, 2.0], size=B)
    equal = np.arange(B) % 3 == 0
    for b in np.flatnonzero(equal):
        T[W[:, b] > 0, b] = b % 2
    x0 = rng.normal(size=(m + 1, B)) * (rng.random(B) < 0.5)
    return X, T, W, lam, x0, equal


def column_problem(X, T, W, lam):
    def fg(theta, cols):
        value, grad = objective_and_gradient(theta, X, T[:, cols], W[:, cols], lam[cols])
        return -value, -grad
    return fg


class TestMinimize:
    """The lockstep L-BFGS against scipy's L-BFGS-B as a test-only oracle."""

    @pytest.mark.parametrize("B", [1, 7, 40])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_column_by_column(self, B, seed):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        X, T, W, lam, x0, equal = random_columns(rng, B)
        fg = column_problem(X, T, W, lam)
        res = minimize(fg, x0)
        assert res.x.shape == (X.shape[1], B)
        assert res.success == bool(res.converged.all())
        f, G = fg(res.x, np.arange(B))
        gtol = LBFGS_OPTIONS["gtol"]
        for b in range(B):
            def neg(theta):
                value, grad = objective_and_gradient(theta, X, T[:, b], W[:, b], lam[b])
                return -value, -grad
            oracle = optimize.minimize(neg, x0[:, b], jac=True, method="L-BFGS-B",
                                       options={**LBFGS_OPTIONS, "ftol": 0.0})
            if equal[b]:
                # the unpenalized bias runs off to infinity; both solvers stop
                # once its gradient, which is about the gain left, is <= gtol
                assert abs(f[b] - oracle.fun) <= gtol
            else:
                assert abs(f[b] - oracle.fun) <= 1e-8 * max(1.0, abs(oracle.fun))
            if res.converged[b]:
                assert np.abs(G[:, b]).max() <= gtol

    def test_maxiter_exhaustion_is_not_success(self, monkeypatch):
        monkeypatch.setitem(LBFGS_OPTIONS, "maxiter", 2)
        rng = np.random.default_rng(3)
        X, T, W, lam, x0, _ = random_columns(rng, 7)
        res = minimize(column_problem(X, T, W, lam), x0)
        assert not res.success
        assert res.nit <= 2 * 7 and res.nfev >= 7
        assert np.all(np.isfinite(res.x))

    @pytest.mark.parametrize("cap", [1, EM_MSTEP_MAXITER])
    @pytest.mark.parametrize("seed", range(6))
    def test_capped_warm_start_never_rises(self, seed, cap):
        # the EM regime: start from the optimum of the previous weights, with
        # the weights of most columns moved and the rest left where they were
        rng = np.random.default_rng(seed)
        B = 30
        X, T, W, lam, x0, _ = random_columns(rng, B)
        start = minimize(column_problem(X, T, W, lam), x0).x
        moved = rng.random(B) < 0.7
        W = np.where(moved, W * rng.uniform(0.5, 1.5, size=W.shape), W)
        fg = column_problem(X, T, W, lam)
        res = minimize(fg, start, maxiter=cap)
        f0, f1 = fg(start, np.arange(B))[0], fg(res.x, np.arange(B))[0]
        # the solver's own evaluations may round a column's value differently
        # from this all-columns one, so allow a few ulps
        assert np.all(f1 <= f0 + 1e-13 * np.abs(f0))
        assert f1[moved].sum() < f0[moved].sum()
        assert res.nit <= cap * B
        assert np.all(np.isfinite(res.x))

    def test_column_that_ends_above_its_start_returns_it(self):
        # every evaluation adds 9e-7 to a quadratic's value: the full step to
        # the minimum lowers the quadratic by 5e-7, so it raises the value by
        # 4e-7, which the approximate Wolfe test lets through (1e-12 * 1e6)
        calls = []

        def fg(theta, cols):
            calls.append(1)
            return 1e6 + 0.5 * (theta ** 2).sum(axis=0) + 9e-7 * len(calls), theta

        x0 = np.array([[1e-3]])
        res = minimize(fg, x0)
        assert len(calls) == 2
        np.testing.assert_array_equal(res.x, x0)
        assert not res.success

    def test_unregularized_separable_points_converge(self):
        # lam = 0 on separable data has no finite optimum, but the gradient
        # falls below gtol at a finite slope, so no ridge floor is needed
        X = np.array([[1.0, -2.0], [1.0, -1.0], [1.0, 1.0], [1.0, 2.0]])
        t = np.array([0.0, 0.0, 1.0, 1.0])
        model = train_weighted(X, t, np.ones(4), lam=0.0)
        _, grad = objective_and_gradient(model.params, X, t, np.ones(4), 0.0)
        assert np.abs(grad).max() <= LBFGS_OPTIONS["gtol"]
        assert abs(model.params[1] - 15.09) < 0.01

    def test_non_finite_objective_raises(self, monkeypatch):
        monkeypatch.setattr(logreg, "objective_and_gradient",
                            lambda params, *args: (np.full(np.shape(params)[1:], np.nan),
                                                   np.zeros_like(params)))
        with pytest.raises(NumericError, match="non-finite objective"):
            train_weighted(np.ones((3, 2)), np.array([0.0, 1.0, 1.0]), np.ones(3), 1.0)

    def test_non_finite_gate_objective_raises(self, monkeypatch):
        monkeypatch.setattr(mixture, "gate_objective_and_gradient",
                            lambda theta, *args: (np.inf, np.zeros_like(theta)))
        data = Dataset.from_raw(np.zeros((4, 1)), np.zeros((4, 1), dtype=int))
        with pytest.raises(NumericError, match="non-finite gate objective"):
            mixture.m_step_gate(np.full((4, 2), 0.5), data, 1.0)
