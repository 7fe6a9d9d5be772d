import itertools

import numpy as np
import pytest

from conftest import random_expert, random_mixture, random_x
from mlme.ctbn import exact_map, joint_log_prob
from mlme.errors import ArgumentError, GuardError
from mlme.inference import (
    AnnealConfig,
    all_label_vectors,
    enumerate_map,
    heuristic_init,
    map_predict,
    predict_dataset,
)
from mlme.logreg import LinearModel
from mlme.mixture import (
    GatingModel,
    MixtureModel,
    _MixtureScorer,
    gating_log_probs,
    logsumexp,
    mixture_log_prob,
)


class TestAnnealConfig:
    def test_defaults(self):
        cfg = AnnealConfig()
        assert cfg.iterations == 150
        assert cfg.cooling_rate == 1e-3 ** (1 / 150)
        final = cfg.cooling_rate ** cfg.iterations
        assert final == pytest.approx(1e-3, rel=1e-6)

    @pytest.mark.parametrize("iterations", [1, 25, 150, 1000])
    def test_schedule_ends_at_final_temperature(self, iterations):
        cfg = AnnealConfig(iterations=iterations)
        temperature = 1.0
        for _ in range(iterations):
            temperature *= cfg.cooling_rate
        assert temperature == pytest.approx(1e-3, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            AnnealConfig(iterations=0)


class TestHeuristicInit:
    def test_k1_equals_exact_map(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            model = random_mixture(rng, k=1, d=5, m=2)
            x = random_x(rng, 2)
            np.testing.assert_array_equal(
                heuristic_init(model, x), exact_map(model.experts[0], x)[0])

    def test_identical_proposals_returned(self):
        rng = np.random.default_rng(1)
        expert = random_expert(rng, d=4, m=2)
        model = MixtureModel((expert, expert),
                             GatingModel(rng.normal(size=(2, 3))))
        x = random_x(rng, 2)
        np.testing.assert_array_equal(
            heuristic_init(model, x), exact_map(expert, x)[0])

    def test_argmax_contract_over_candidates(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            model = random_mixture(rng, k=3, d=5, m=2)
            x = random_x(rng, 2)
            y = heuristic_init(model, x)
            chosen = mixture_log_prob(model, x, y)
            for expert in model.experts:
                cand, _ = exact_map(expert, x)
                assert chosen >= mixture_log_prob(model, x, cand) - 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        rng = np.random.default_rng(15)
        model = random_mixture(rng, k=2, d=4, m=2)
        x = random_x(rng, 2)
        x[1] = bad
        with pytest.raises(ArgumentError):
            heuristic_init(model, x)
        with pytest.raises(ArgumentError):
            map_predict(model, x)


class TestMapPredict:
    def test_k1_exactly_matches_tree_map(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            model = random_mixture(rng, k=1, d=6, m=2)
            x = random_x(rng, 2)
            y, lp = map_predict(model, x, AnnealConfig(seed=7))
            y_ref, lp_ref = exact_map(model.experts[0], x)
            np.testing.assert_array_equal(y, y_ref)
            assert lp == lp_ref

    def test_never_worse_than_init(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            model = random_mixture(rng, k=3, d=6, m=2)
            x = random_x(rng, 2)
            _, lp = map_predict(model, x, AnnealConfig(seed=trial))
            init_lp = mixture_log_prob(model, x, heuristic_init(model, x))
            assert lp >= init_lp

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        model = random_mixture(rng, k=2, d=8, m=2)
        x = random_x(rng, 2)
        cfg = AnnealConfig(seed=123)
        y1, lp1 = map_predict(model, x, cfg)
        y2, lp2 = map_predict(model, x, cfg)
        np.testing.assert_array_equal(y1, y2)
        assert lp1 == lp2

    def test_single_iteration_is_init_or_one_flip(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            model = random_mixture(rng, k=3, d=5, m=2)
            x = random_x(rng, 2)
            init = heuristic_init(model, x)
            init_lp = mixture_log_prob(model, x, init)
            y, lp = map_predict(model, x, AnnealConfig(iterations=1, seed=trial))
            flips = int((y != init).sum())
            assert flips <= 1
            if flips == 1:
                assert lp > init_lp
            else:
                assert lp == pytest.approx(init_lp, abs=0)

    def test_matches_oracle_on_most_trials(self):
        rng = np.random.default_rng(7)
        hits = 0
        trials = 60
        for trial in range(trials):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(2, 11))
            model = random_mixture(rng, k=k, d=d, m=2)
            x = random_x(rng, 2)
            y, lp = map_predict(model, x, AnnealConfig(seed=trial))
            y_ref, lp_ref = enumerate_map(model, x)
            assert lp <= lp_ref + 1e-12
            hits += np.array_equal(y, y_ref)
        assert hits / trials >= 0.95


class TestEnumerateMap:
    def test_d1_argmax(self):
        model = MixtureModel(
            (random_expert(np.random.default_rng(8), d=1, m=1),),
            GatingModel(np.zeros((1, 2))))
        x = np.array([1.0, 0.5])
        y, lp = enumerate_map(model, x)
        other = 1 - y[0]
        assert lp >= mixture_log_prob(model, x, [other])

    def test_uniform_tie_breaks_to_zeros(self):
        from mlme.ctbn import CtbnExpert, TreeStructure
        d = 5
        structure = TreeStructure((None,) * d)
        cpds = tuple((LinearModel(np.zeros(3), 0.0),) for _ in range(d))
        model = MixtureModel(
            (CtbnExpert(structure, cpds),),
            GatingModel(np.ones((1, 3))))
        y, _ = enumerate_map(model, np.array([1.0, -2.0, 3.0]))
        assert y.tolist() == [0] * d

    def test_guard_rejects_large_d(self):
        rng = np.random.default_rng(9)
        model = random_mixture(rng, k=1, d=21, m=1)
        with pytest.raises(GuardError):
            enumerate_map(model, random_x(rng, 1))

    def test_agrees_with_tree_map_for_k1(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            model = random_mixture(rng, k=1, d=6, m=2)
            x = random_x(rng, 2)
            y_enum, lp_enum = enumerate_map(model, x)
            y_tree, lp_tree = exact_map(model.experts[0], x)
            np.testing.assert_array_equal(y_enum, y_tree)
            assert abs(lp_enum - lp_tree) < 1e-12

    def test_lexicographic_order_of_enumeration(self):
        Y = all_label_vectors(3)
        assert Y[0].tolist() == [0, 0, 0]
        assert Y[-1].tolist() == [1, 1, 1]
        as_tuples = [tuple(r) for r in Y]
        assert as_tuples == sorted(as_tuples)


def scorer_logp(scorer, y):
    """Mixture log-probability of one label vector against a one-row scorer."""
    return float(scorer.logp_batch(np.asarray(y)[None])[0])


class TestScorer:
    def test_scorer_matches_mixture_log_prob(self):
        # mixture_log_prob is the scorer's one-row case; both equal a
        # log-sum-exp over the experts' own joint_log_prob sums
        rng = np.random.default_rng(11)
        for _ in range(20):
            model = random_mixture(rng, k=3, d=5, m=3)
            x = random_x(rng, 3)
            scorer = _MixtureScorer(model, x)
            y = rng.integers(0, 2, size=5)
            want = float(logsumexp(gating_log_probs(model.gating, x) + np.array(
                [joint_log_prob(e, x, y) for e in model.experts])))
            assert scorer_logp(scorer, y) == want
            assert mixture_log_prob(model, x, y) == want

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(12)
        model = random_mixture(rng, k=2, d=6, m=2)
        x = random_x(rng, 2)
        scorer = _MixtureScorer(model, x)
        Y = all_label_vectors(6)
        batch = scorer.logp_batch(Y)
        for i in range(0, 64, 7):
            assert batch[i] == pytest.approx(
                mixture_log_prob(model, x, Y[i]), abs=1e-12)


class TestPredictDataset:
    def test_shapes_and_determinism(self):
        rng = np.random.default_rng(13)
        model = random_mixture(rng, k=2, d=4, m=2)
        X = np.hstack([np.ones((9, 1)), rng.normal(size=(9, 2))])
        cfg = AnnealConfig(iterations=20, seed=3)
        p1, l1 = predict_dataset(model, X, cfg)
        p2, l2 = predict_dataset(model, X, cfg)
        assert p1.shape == (9, 4) and l1.shape == (9,)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(l1, l2)

    def test_rows_independent_of_batch(self):
        rng = np.random.default_rng(14)
        model = random_mixture(rng, k=2, d=4, m=2)
        X = np.hstack([np.ones((6, 1)), rng.normal(size=(6, 2))])
        cfg = AnnealConfig(iterations=25, seed=0)
        full, _ = predict_dataset(model, X, cfg)
        # predicting a suffix with the shifted seed yields the same rows
        tail_cfg = AnnealConfig(iterations=25, seed=3)
        tail, _ = predict_dataset(model, X[3:], tail_cfg)
        np.testing.assert_array_equal(full[3:], tail)


def reference_predict(model, X, cfg):
    """One row at a time: heuristic start, then single-bit-flip annealing."""
    preds, logps = np.zeros((len(X), model.d), dtype=np.int8), np.zeros(len(X))
    for i, x in enumerate(X):
        scorer = _MixtureScorer(model, x)
        candidates = [exact_map(expert, x)[0] for expert in model.experts]
        current = candidates[int(np.argmax([scorer_logp(scorer, y)
                                            for y in candidates]))]
        cur_lp = scorer_logp(scorer, current)
        best, best_lp = current.copy(), cur_lp
        rng = np.random.default_rng(cfg.seed + i)
        temperature = 1.0
        for _ in range(cfg.iterations):
            proposal = current.copy()
            proposal[int(rng.integers(model.d))] ^= 1
            lp = scorer_logp(scorer, proposal)
            if lp > best_lp:
                best, best_lp = proposal.copy(), lp
            delta = lp - cur_lp
            if delta > 0 or rng.random() < np.exp(delta / temperature):
                current, cur_lp = proposal, lp
            temperature *= cfg.cooling_rate
        preds[i], logps[i] = best, best_lp
    return preds, logps


class TestStackedProducts:
    """A stack of feature rows gets each row's single-row bits."""

    @pytest.mark.parametrize("n,d,m", itertools.product(
        (1, 2, 20, 600), (1, 6, 20), (1, 72, 294)))
    def test_stack_equals_per_row_calls(self, n, d, m):
        rng = np.random.default_rng(1000 * n + 10 * d + m)
        X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, m))])
        for k in (1, 2, 3):
            model = random_mixture(rng, k=k, d=d, m=m)
            got = gating_log_probs(model.gating, X)
            assert got.shape == (n, k)
            for r, x in enumerate(X):
                z = model.gating.theta @ x
                want = z - logsumexp(z)
                assert gating_log_probs(model.gating, x).tobytes() == want.tobytes()
                assert got[r].tobytes() == want.tobytes()
            for expert in model.experts:
                got = expert.logit_table(X)
                assert got.shape == (n, d, 2)
                for r, x in enumerate(X):
                    want = expert.param_table() @ x
                    assert expert.logit_table(x).tobytes() == want.tobytes()
                    assert got[r].tobytes() == want.tobytes()


class TestLockstepAnnealing:
    # on flat models (small scale) the best visited state depends on the
    # path, so a row whose random stream shifted ends up elsewhere
    @pytest.mark.parametrize("scale", [0.1, 1.5])
    @pytest.mark.parametrize("k,d", itertools.product((1, 2, 3), (1, 6, 20)))
    def test_batch_equals_per_row_reference(self, k, d, scale):
        rng = np.random.default_rng(100 * k + d)
        model = random_mixture(rng, k=k, d=d, m=3, scale=scale)
        for iterations, n in itertools.product((1, 25, 150), (1, 7, 20)):
            X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 3))])
            cfg = AnnealConfig(iterations=iterations, seed=int(rng.integers(1000)))
            preds, logps = predict_dataset(model, X, cfg)
            ref_preds, ref_logps = reference_predict(model, X, cfg)
            assert preds.dtype == np.int8
            np.testing.assert_array_equal(preds, ref_preds)
            assert logps.tobytes() == ref_logps.tobytes()

    def test_map_predict_is_the_one_row_case(self):
        rng = np.random.default_rng(101)
        model = random_mixture(rng, k=3, d=6, m=3)
        X = np.hstack([np.ones((7, 1)), rng.normal(size=(7, 3))])
        preds, logps = predict_dataset(model, X, AnnealConfig(seed=40))
        for r in range(7):
            y, lp = map_predict(model, X[r], AnnealConfig(seed=40 + r))
            np.testing.assert_array_equal(y, preds[r])
            assert np.float64(lp).tobytes() == logps[r].tobytes()


class TestFeatureWidth:
    @pytest.fixture
    def model(self):
        return random_mixture(np.random.default_rng(102), k=2, d=4, m=3)

    @pytest.mark.parametrize("width", [3, 5])
    def test_wrong_width_rejected(self, model, width):
        x = np.ones(width)
        for call in (lambda: predict_dataset(model, np.ones((4, width))),
                     lambda: map_predict(model, x),
                     lambda: heuristic_init(model, x),
                     lambda: enumerate_map(model, x)):
            with pytest.raises(ArgumentError, match=f"m\\+1 = 4.*got {width}"):
                call()

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_predict_dataset_needs_a_matrix(self, model, shape):
        with pytest.raises(ArgumentError, match="matrix"):
            predict_dataset(model, np.ones(shape))

    def test_single_row_functions_need_a_vector(self, model):
        with pytest.raises(ArgumentError, match="vector"):
            map_predict(model, np.ones((1, 4)))

    def test_empty_batch(self, model):
        preds, logps = predict_dataset(model, np.ones((0, 4)))
        assert preds.shape == (0, 4) and preds.dtype == np.int8
        assert logps.shape == (0,)
