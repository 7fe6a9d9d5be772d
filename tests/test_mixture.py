import warnings

import numpy as np
import pytest
import scipy.special

from conftest import (
    expert_dataset,
    random_expert,
    random_mixture,
    random_structure,
    random_x,
    two_regime_dataset,
)
from mlme import logreg, mixture
from mlme.ctbn import TreeStructure, exact_map, joint_log_prob, train_parameters
from mlme.dataset import Dataset
from mlme.errors import ArgumentError
from mlme.inference import all_label_vectors
from mlme.logreg import LinearModel
from mlme.mixture import (
    GatingModel,
    MixtureModel,
    TrainConfig,
    _MixtureScorer,
    e_step,
    em_fit,
    gate_objective_and_gradient,
    gating_log_probs,
    grow_mixture,
    logsumexp,
    m_step_experts,
    m_step_gate,
    mixture_log_prob,
    observed_log_likelihood,
)


def single_node_expert(p1):
    """d=1 expert with P(y=1|x) = p1 regardless of x."""
    return random_expert_with_bias(np.log(p1 / (1 - p1)))


def random_expert_with_bias(bias):
    from mlme.ctbn import CtbnExpert
    return CtbnExpert(
        TreeStructure((None,)),
        ((LinearModel(np.array([bias, 0.0]), 0.0),),))


class TestGating:
    def test_k1_is_one(self):
        gate = GatingModel(np.array([[3.0, -1.0]]))
        np.testing.assert_array_equal(
            np.exp(gating_log_probs(gate, np.array([1.0, 2.0]))), [1.0])

    def test_zero_rows_uniform(self):
        gate = GatingModel(np.zeros((3, 2)))
        np.testing.assert_allclose(
            np.exp(gating_log_probs(gate, np.array([1.0, 5.0]))), [1 / 3] * 3, atol=1e-15)

    def test_closed_form_softmax(self):
        gate = GatingModel(np.array([[np.log(2.0), 0.0], [0.0, 0.0]]))
        probs = np.exp(gating_log_probs(gate, np.array([1.0, 0.0])))
        np.testing.assert_allclose(probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_overflow_safe(self):
        gate = GatingModel(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
        probs = np.exp(gating_log_probs(gate, np.array([1.0, 0.0])))
        assert np.isfinite(probs).all()
        assert abs(probs.sum() - 1.0) < 1e-12


class TestMixtureLogProb:
    def test_k1_equals_expert_exactly(self):
        rng = np.random.default_rng(0)
        expert = random_expert(rng, d=4, m=2)
        model = MixtureModel((expert,), GatingModel(rng.normal(size=(1, 3))))
        x = random_x(rng, 2)
        y = rng.integers(0, 2, size=4)
        assert mixture_log_prob(model, x, y) == joint_log_prob(expert, x, y)

    def test_identical_experts_collapse(self):
        rng = np.random.default_rng(1)
        expert = random_expert(rng, d=3, m=2)
        model = MixtureModel((expert, expert),
                             GatingModel(rng.normal(size=(2, 3))))
        x = random_x(rng, 2)
        y = rng.integers(0, 2, size=3)
        assert abs(mixture_log_prob(model, x, y)
                   - joint_log_prob(expert, x, y)) < 1e-12

    def test_normalization_over_assignments(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            model = random_mixture(rng, k=3, d=8, m=2)
            x = random_x(rng, 2)
            lps = _MixtureScorer(model, x).logp_batch(all_label_vectors(8))
            assert abs(np.exp(lps).sum() - 1.0) < 1e-9

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(3)
        model = random_mixture(rng, k=3, d=4, m=2)
        perm = [2, 0, 1]
        permuted = MixtureModel(
            tuple(model.experts[j] for j in perm),
            GatingModel(model.gating.theta[perm]))
        for _ in range(10):
            x = random_x(rng, 2)
            y = rng.integers(0, 2, size=4)
            assert abs(mixture_log_prob(model, x, y)
                       - mixture_log_prob(permuted, x, y)) < 1e-12


class TestRowChecks:
    """Every entry point that scores one row checks it once, up front."""

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(40)
        model = random_mixture(rng, k=3, d=6, m=4)
        return model, random_x(rng, 4)

    @staticmethod
    def scorers(model, x, y):
        return (lambda: mixture_log_prob(model, x, y),
                lambda: joint_log_prob(model.experts[0], x, y))

    @pytest.mark.parametrize("bad", [
        [2, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0], [0.5] * 6, [np.nan] * 6])
    def test_labels_outside_0_1_rejected(self, case, bad):
        model, x = case
        for call in self.scorers(model, x, bad):
            with pytest.raises(ArgumentError, match="0 or 1"):
                call()

    @pytest.mark.parametrize("length", [0, 5, 7])
    def test_label_length_rejected(self, case, length):
        model, x = case
        for call in self.scorers(model, x, np.zeros(length, dtype=np.int8)):
            with pytest.raises(ArgumentError, match="d = 6"):
                call()
        for call in self.scorers(model, x, np.zeros((1, 6), dtype=np.int8)):
            with pytest.raises(ArgumentError, match="d = 6"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected_without_warnings(self, case, bad):
        model, x = case
        x = x.copy()
        x[2] = bad
        y = np.zeros(6, dtype=np.int8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (*self.scorers(model, x, y),
                         lambda: exact_map(model.experts[0], x)):
                with pytest.raises(ArgumentError, match="finite"):
                    call()

    @pytest.mark.parametrize("width", [4, 6])
    def test_row_width_rejected(self, case, width):
        model, _ = case
        x = np.ones(width)
        y = np.zeros(6, dtype=np.int8)
        for call in (*self.scorers(model, x, y),
                     lambda: exact_map(model.experts[0], x)):
            with pytest.raises(ArgumentError, match=f"m\\+1 = 5.*got {width}"):
                call()

    def test_valid_label_vectors_score_alike(self, case):
        model, x = case
        want = mixture_log_prob(model, x, np.array([1, 0, 1, 1, 0, 0], np.int8))
        for y in ([1, 0, 1, 1, 0, 0], np.array([1, 0, 1, 1, 0, 0]),
                  np.array([True, False, True, True, False, False]),
                  np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])):
            assert mixture_log_prob(model, x, y) == want


class TestEStep:
    def test_k1_all_ones(self):
        rng = np.random.default_rng(4)
        data, expert = expert_dataset(rng, n=15, d=3, m=2)
        model = MixtureModel((expert,), GatingModel(np.zeros((1, 3))))
        h = e_step(model, data)
        np.testing.assert_array_equal(h, np.ones((15, 1)))

    def test_bayes_rule_arithmetic(self):
        # equal gates, expert likelihoods 0.9 vs 0.1 on a single instance
        model = MixtureModel(
            (single_node_expert(0.9), single_node_expert(0.1)),
            GatingModel(np.zeros((2, 2))))
        data = Dataset(np.array([[1.0, 0.0]]), np.array([[1]]))
        h = e_step(model, data)
        np.testing.assert_allclose(h, [[0.9, 0.1]], atol=1e-12)

    def test_identical_experts_give_gating_probs(self):
        rng = np.random.default_rng(5)
        expert = random_expert(rng, d=3, m=2)
        gate = GatingModel(rng.normal(size=(3, 3)))
        model = MixtureModel((expert,) * 3, gate)
        data, _ = expert_dataset(rng, n=10, d=3, m=2)
        h = e_step(model, data)
        for i in range(10):
            np.testing.assert_allclose(
                h[i], np.exp(gating_log_probs(gate, data.features[i])), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        model = random_mixture(rng, k=4, d=5, m=3)
        data, _ = expert_dataset(rng, n=50, d=5, m=3)
        h = e_step(model, data)
        np.testing.assert_allclose(h.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(h >= 0) and np.all(h <= 1)


class TestMStepGate:
    def test_uniform_h_gives_zero_gate(self):
        rng = np.random.default_rng(7)
        data, _ = expert_dataset(rng, n=30, d=2, m=2)
        h = np.full((30, 3), 1 / 3)
        gate = m_step_gate(h, data, lam_gate=0.5)
        np.testing.assert_allclose(gate.theta, 0.0, atol=1e-6)
        np.testing.assert_allclose(
            np.exp(gating_log_probs(gate, data.features[0])), [1 / 3] * 3, atol=1e-6)

    def test_k1_returns_zeros(self):
        rng = np.random.default_rng(8)
        data, _ = expert_dataset(rng, n=10, d=2, m=2)
        gate = m_step_gate(np.ones((10, 1)), data, lam_gate=0.5)
        np.testing.assert_array_equal(gate.theta, np.zeros((1, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(100):
            n, m, K = int(rng.integers(3, 10)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
            X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, m))])
            h = rng.random((n, K))
            h /= h.sum(axis=1, keepdims=True)
            lam_gate = float(rng.random())
            theta = rng.normal(size=K * (m + 1))
            _, grad = gate_objective_and_gradient(theta, X, h, lam_gate)
            fd = np.zeros_like(theta)
            step = 1e-5
            for j in range(len(theta)):
                hi, lo = theta.copy(), theta.copy()
                hi[j] += step
                lo[j] -= step
                fhi, _ = gate_objective_and_gradient(hi, X, h, lam_gate)
                flo, _ = gate_objective_and_gradient(lo, X, h, lam_gate)
                fd[j] = (fhi - flo) / (2 * step)
            denom = max(np.linalg.norm(fd), 1e-8)
            worst = max(worst, np.linalg.norm(grad - fd) / denom)
        assert worst < 1e-4

    def test_stationarity_at_convergence(self, monkeypatch):
        monkeypatch.setitem(logreg.LBFGS_OPTIONS, "gtol", 1e-9)
        monkeypatch.setitem(logreg.LBFGS_OPTIONS, "maxiter", 2000)
        rng = np.random.default_rng(10)
        data, _ = expert_dataset(rng, n=40, d=2, m=2)
        h = rng.random((40, 3))
        h /= h.sum(axis=1, keepdims=True)
        lam_gate = 0.3
        gate = m_step_gate(h, data, lam_gate)
        _, grad = gate_objective_and_gradient(
            gate.theta.ravel(), data.features, h, lam_gate)
        G = grad.reshape(3, 3)
        for j in range(3):
            assert np.linalg.norm(G[j]) <= 1e-6


    @pytest.mark.parametrize("lam_gate", [-1.0, np.nan, np.inf])
    def test_rejects_non_finite_or_negative_lambda(self, lam_gate):
        rng = np.random.default_rng(10)
        data, _ = expert_dataset(rng, n=10, d=2, m=2)
        with pytest.raises(ArgumentError, match="lambda_gate must be finite"):
            m_step_gate(np.full((10, 2), 0.5), data, lam_gate)


class TestMStepExperts:
    def test_k1_reduces_to_uniform_training(self):
        rng = np.random.default_rng(11)
        data, _ = expert_dataset(rng, n=25, d=2, m=2)
        structures = [TreeStructure((None, 0))]
        experts = m_step_experts(np.ones((25, 1)), data, structures, lam=0.5)
        direct = train_parameters(structures[0], data, np.ones(25), lam=0.5)
        for a, b in zip(experts[0].cpds, direct.cpds):
            for ma, mb in zip(a, b):
                np.testing.assert_array_equal(ma.params, mb.params)

    def test_zero_column_penalty_only(self):
        rng = np.random.default_rng(12)
        data, _ = expert_dataset(rng, n=20, d=2, m=2)
        h = np.zeros((20, 2))
        h[:, 0] = 1.0
        structures = [TreeStructure((None, None))] * 2
        experts = m_step_experts(h, data, structures, lam=0.5)
        for models in experts[1].cpds:
            for m in models:
                np.testing.assert_allclose(m.params, 0.0, atol=1e-9)

    def test_column_swap_swaps_experts(self):
        rng = np.random.default_rng(13)
        data, _ = expert_dataset(rng, n=30, d=2, m=2)
        h = rng.random((30, 2))
        h /= h.sum(axis=1, keepdims=True)
        structures = [TreeStructure((None, 0)), TreeStructure((None, 0))]
        a = m_step_experts(h, data, structures, lam=0.5)
        b = m_step_experts(h[:, ::-1], data, structures, lam=0.5)
        for ea, eb in zip(a, reversed(b)):
            for ca, cb in zip(ea.cpds, eb.cpds):
                for ma, mb in zip(ca, cb):
                    np.testing.assert_array_equal(ma.params, mb.params)


class TestEmFit:
    def test_k1_matches_direct_training(self):
        rng = np.random.default_rng(14)
        data, _ = expert_dataset(rng, n=40, d=3, m=2)
        structure = TreeStructure((None, 0, 1))
        result = em_fit([structure], data, TrainConfig(seed=1, lam=0.5))
        direct = train_parameters(structure, data, np.ones(40), lam=0.5)
        for a, b in zip(result.model.experts[0].cpds, direct.cpds):
            for ma, mb in zip(a, b):
                np.testing.assert_array_equal(ma.params, mb.params)
        # one expert owns every row: the initial M-step is the whole fit
        assert len(result.objective_trace) == 1

    def test_trace_monotone_on_random_fits(self):
        rng = np.random.default_rng(15)
        for k in (2, 3, 4):
            for trial in range(10):
                d = int(rng.integers(2, 4))
                data, _ = expert_dataset(rng, n=30, d=d, m=2)
                structures = [TreeStructure(tuple([None] + [0] * (d - 1))),
                              TreeStructure((None,) * d)]
                structures += [random_structure(rng, d) for _ in range(k - 2)]
                result = em_fit(structures, data,
                                TrainConfig(seed=trial, em_max_iters=25, lam=0.3))
                trace = np.array(result.objective_trace)
                assert np.all(np.diff(trace) >= -1e-6)

    def test_mixture_beats_single_expert_on_two_regime_data(self):
        rng = np.random.default_rng(16)
        data = two_regime_dataset(rng, n=300)
        chain = TreeStructure((None, 0, 1, 2))
        forest = TreeStructure((None, None, None, None))
        single = em_fit([chain], data, TrainConfig(seed=0, lam=0.1))
        pair = em_fit([chain, forest], data, TrainConfig(seed=0, lam=0.1))
        assert (observed_log_likelihood(pair.model, data)
                > observed_log_likelihood(single.model, data))

    def test_rejects_empty_structures(self):
        rng = np.random.default_rng(17)
        data, _ = expert_dataset(rng, n=10, d=2, m=2)
        with pytest.raises(ArgumentError):
            em_fit([], data, TrainConfig(lam=0.5))


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("lam", -1.0), ("lam", np.nan), ("lam", np.inf),
        ("lam_gate", -0.5), ("lam_gate", np.nan),
        ("lambda_grid", ()), ("lambda_grid", (0.1, np.inf)),
        ("lambda_grid", (-1.0,)), ("lambda_grid", (np.nan,)),
        ("holdout_ratio", 0.0), ("holdout_ratio", 1.0),
        ("internal_test_ratio", 0.0), ("internal_test_ratio", 1.5),
        ("internal_test_ratio", np.nan),
        ("em_tol", np.nan), ("em_tol", -1e-5), ("em_tol", np.inf),
    ])
    def test_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ArgumentError):
            TrainConfig(**{field: value})

    def test_to_dict_names_and_values(self):
        cfg = TrainConfig(max_experts=3, lam=0.5, lambda_grid=(0.1, 2.0),
                          lam_gate=0.25, holdout_ratio=0.3,
                          internal_test_ratio=0.1, em_tol=1e-4, em_max_iters=7,
                          seed=11)
        assert cfg.to_dict() == {
            "max_experts": 3,
            "lambda": 0.5,
            "lambda_grid": [0.1, 2.0],
            "lambda_gate": 0.25,
            "holdout_ratio": 0.3,
            "internal_test_ratio": 0.1,
            "em_tol": 1e-4,
            "em_max_iters": 7,
            "seed": 11,
        }
        assert TrainConfig().to_dict()["lambda"] is None


class TestGrowMixture:
    def test_max_experts_one_is_single_tree(self):
        rng = np.random.default_rng(18)
        data, _ = expert_dataset(rng, n=80, d=3, m=2)
        model = grow_mixture(data, TrainConfig(max_experts=1, lam=0.5, seed=2))
        assert model.k == 1
        assert model.meta["k"] == 1
        rounds = model.meta["growth"]["rounds"]
        assert len(rounds) == 1 and rounds[0]["accepted"]

    def test_zero_residual_stops_growth(self, monkeypatch):
        # a hugely separable single feature saturates the CPD so the round-1
        # mixture reproduces every training label with probability 1 (up to
        # float underflow) and the margins vanish
        n = 8
        x = np.array([-1e8] * (n // 2) + [1e8] * (n // 2))
        y = (x > 0).astype(int)[:, None]
        data = Dataset.from_raw(x[:, None], y)
        monkeypatch.setitem(logreg.LBFGS_OPTIONS, "gtol", 1e-12)
        monkeypatch.setitem(logreg.LBFGS_OPTIONS, "maxiter", 5000)
        model = grow_mixture(data, TrainConfig(max_experts=3, lam=0.0, seed=0))
        assert model.k == 1
        stops = [r.get("stopped") for r in model.meta["growth"]["rounds"]]
        assert "zero residual weights" in stops

    def test_two_regime_data_grows_past_one(self):
        rng = np.random.default_rng(19)
        data = two_regime_dataset(rng, n=400)
        model = grow_mixture(data, TrainConfig(max_experts=3, lam=0.1, seed=5))
        assert model.k >= 2

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(20)
        data = two_regime_dataset(rng, n=120)
        cfg = TrainConfig(max_experts=2, lam=0.2, seed=9)
        a = grow_mixture(data, cfg)
        b = grow_mixture(data, cfg)
        np.testing.assert_array_equal(a.gating.theta, b.gating.theta)
        for ea, eb in zip(a.experts, b.experts):
            assert ea.structure.parent == eb.structure.parent
            for ca, cb in zip(ea.cpds, eb.cpds):
                for ma, mb in zip(ca, cb):
                    np.testing.assert_array_equal(ma.params, mb.params)
        assert a.meta == b.meta

    def test_weight_mass_of_each_fit(self, monkeypatch):
        # structure scoring gets omega (mass 1); the new-expert fit and EM
        # get mass n; select_lambda fits on unit weights
        masses = {"structure": [], "new_expert": [], "em": [], "lambda": []}
        in_select = []

        def wrap(name, fn, record):
            def wrapped(*args, **kwargs):
                record(*args, **kwargs)
                return fn(*args, **kwargs)
            monkeypatch.setattr(mixture, name, wrapped)

        wrap("learn_structure", mixture.learn_structure,
             lambda data, w, *a, **k: masses["structure"].append(
                 (np.sum(w), 1.0)))
        wrap("train_parameters", mixture.train_parameters,
             lambda s, data, w, *a, **k: masses["new_expert"].append(
                 (np.sum(w), data.n)))
        wrap("m_step_experts", mixture.m_step_experts,
             lambda h, data, *a, **k: masses["em"].append((np.sum(h), data.n)))
        select_lambda, train_columns = mixture.select_lambda, logreg.train_columns

        def selecting(*args, **kwargs):
            in_select.append(True)
            try:
                return select_lambda(*args, **kwargs)
            finally:
                in_select.pop()

        def columns(X, T, W, *args, **kwargs):
            if in_select:
                masses["lambda"].append((np.sum(W), W.size))
            return train_columns(X, T, W, *args, **kwargs)

        monkeypatch.setattr(mixture, "select_lambda", selecting)
        monkeypatch.setattr(logreg, "train_columns", columns)
        data = two_regime_dataset(np.random.default_rng(21), n=120)
        grow_mixture(data, TrainConfig(max_experts=2, lambda_grid=(0.1, 1.0),
                                       em_max_iters=3, seed=4))
        for kind, pairs in masses.items():
            assert pairs, kind
            for got, want in pairs:
                assert got == pytest.approx(want, rel=1e-12), kind

    def test_rejects_tiny_datasets(self):
        data = Dataset.from_raw(np.zeros((3, 1)), np.zeros((3, 1), dtype=int))
        with pytest.raises(ArgumentError):
            grow_mixture(data, TrainConfig(lam=0.5))


class TestLogSumExp:
    """The numpy log-sum-exp must reproduce scipy's bits, not just its value."""

    @staticmethod
    def assert_same_bits(a, **kw):
        got, want = logsumexp(a, **kw), scipy.special.logsumexp(a, **kw)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_vectors_with_ties_and_wide_spreads(self):
        rng = np.random.default_rng(41)
        for trial in range(2000):
            k = int(rng.integers(1, 10))
            a = [rng.normal(size=k),                      # generic
                 rng.integers(-2, 3, size=k).astype(float),  # many ties
                 rng.normal(scale=400.0, size=k),         # terms underflow
                 1e-9 * rng.normal(size=k)][trial % 4]    # near-equal
            self.assert_same_bits(a)
        self.assert_same_bits(np.full(5, -3.25))          # all tied
        self.assert_same_bits(np.array([0.0, -1000.0]))   # one term left

    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_axis_and_keepdims(self, axis, keepdims):
        rng = np.random.default_rng(42)
        for a in (rng.normal(size=(30, 3)), np.round(rng.normal(size=(7, 12))),
                  rng.normal(scale=50.0, size=(4, 130))):
            self.assert_same_bits(a, axis=axis, keepdims=keepdims)
