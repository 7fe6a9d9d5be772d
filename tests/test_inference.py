import contextlib
import itertools
import warnings

import numpy as np
import pytest

from conftest import random_expert, random_mixture, random_x
from mlme import inference
from mlme.ctbn import (CtbnExpert, TreeStructure, exact_map, joint_log_prob,
                       node_term_table, row_logits)
from mlme.errors import ArgumentError, GuardError, UncertifiedMapWarning
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
from mlme.model_io import load_model, save_model


def uncertified(model, X, budget):
    """How many rows of X the MAP solver leaves uncertified under ``budget``."""
    return int(inference._solve(_MixtureScorer(model, X, batch=True), budget)[2].sum())


@contextlib.contextmanager
def budget_warning(rows):
    """Expect one UncertifiedMapWarning naming ``rows`` rows, or none if 0."""
    if rows:
        with pytest.warns(UncertifiedMapWarning, match=rf"^{rows} row\(s\)") as caught:
            yield
        assert len(caught) == 1
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UncertifiedMapWarning)
            yield


class TestAnnealConfig:
    def test_defaults(self):
        cfg = AnnealConfig()
        assert cfg.iterations == 150
        assert cfg.seed == 0

    def test_validation(self):
        with pytest.raises(ArgumentError):
            AnnealConfig(iterations=0)

    @pytest.mark.parametrize("field, value", [
        ("iterations", 2.5), ("iterations", True),
        ("seed", -1), ("seed", 1.5), ("seed", None),
    ])
    def test_rejects_non_integral_or_negative(self, field, value):
        with pytest.raises(ArgumentError, match=field):
            AnnealConfig(**{field: value})


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
        # a node budget of 1 evaluates the root only: heuristic_init's answer
        rng = np.random.default_rng(6)
        for trial in range(30):
            model = random_mixture(rng, k=3, d=5, m=2)
            x = random_x(rng, 2)
            init = heuristic_init(model, x)
            with budget_warning(uncertified(model, x[None], 1)):
                y, lp = map_predict(model, x, AnnealConfig(iterations=1, seed=trial))
            np.testing.assert_array_equal(y, init)
            assert lp == mixture_log_prob(model, x, init)

    def test_matches_oracle_on_all_trials(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(2, 11))
            model = random_mixture(rng, k=k, d=d, m=2)
            x = random_x(rng, 2)
            y, lp = map_predict(model, x, AnnealConfig(seed=trial))
            y_ref, lp_ref = enumerate_map(model, x)
            np.testing.assert_array_equal(y, y_ref)
            assert lp == lp_ref


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

    @pytest.mark.parametrize("d", [0, 1, 2, 7, 12])
    def test_label_vectors_are_the_product_of_d_bits(self, d):
        Y = all_label_vectors(d)
        want = np.array(list(itertools.product((0, 1), repeat=d)), dtype=np.int8)
        assert Y.dtype == np.int8 and Y.shape == (2 ** d, d)
        assert Y.tobytes() == want.tobytes()


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
        full, _ = predict_dataset(model, X, AnnealConfig(iterations=25, seed=0))
        # a suffix of the batch, under any seed, gets the same rows
        tail, _ = predict_dataset(model, X[3:], AnnealConfig(iterations=25, seed=3))
        np.testing.assert_array_equal(full[3:], tail)


def test_batch_longer_than_one_search_frontier():
    # rows are searched SEARCH_ROWS at a time; each still gets its own answer
    rng = np.random.default_rng(103)
    model = random_mixture(rng, k=3, d=6, m=3, scale=0.3)
    n = 2 * inference.SEARCH_ROWS + 5
    X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 3))])
    preds, logps = predict_dataset(model, X)
    for r, x in enumerate(X):
        y, lp = map_predict(model, x)
        assert y.tobytes() == preds[r].tobytes()
        assert np.float64(lp).tobytes() == logps[r].tobytes()


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
                got = row_logits(expert.param_table(), X)
                assert got.shape == (n, d, 2)
                for r, x in enumerate(X):
                    want = expert.param_table() @ x
                    one = row_logits(expert.param_table(), x[None])[0]
                    assert one.tobytes() == want.tobytes()
                    assert got[r].tobytes() == want.tobytes()
            # the scorer's one product over the model's param_stack gives
            # every expert's node terms, for any memory layout of the batch
            table = _MixtureScorer(model, X, batch=True).table
            assert table.shape == (n, k, d, 2, 2)
            for j, expert in enumerate(model.experts):
                for r, x in enumerate(X):
                    want = node_term_table(expert.param_table() @ x)
                    assert table[r, j].tobytes() == want.tobytes()
            wide = np.zeros((2 * n, m + 1))
            wide[::2] = X
            for layout in (np.asfortranarray(X), wide[::2]):
                assert _MixtureScorer(model, layout, batch=True).table.tobytes() \
                    == table.tobytes()


def tie_prone_mixture(rng, k, d, m):
    """A flat mixture with exact ties between label vectors.

    About half the CPDs are all zero (P = 1/2 whatever x), the last expert
    repeats the first, and the gate is zero.
    """
    model = random_mixture(rng, k=k, d=d, m=m, scale=0.1)
    experts = [CtbnExpert(e.structure, tuple(
        tuple(LinearModel(np.zeros(m + 1), 0.0) if rng.random() < 0.5 else c
              for c in cpds) for cpds in e.cpds)) for e in model.experts]
    experts[-1] = experts[0]
    return MixtureModel(tuple(experts), GatingModel(np.zeros((k, m + 1))))


MODEL_FAMILIES = {
    "sharp": lambda rng, k, d, m: random_mixture(rng, k=k, d=d, m=m, scale=1.5),
    "flat": lambda rng, k, d, m: random_mixture(rng, k=k, d=d, m=m, scale=0.1),
    "tie-prone": tie_prone_mixture,
}


def random_cases(family, seed, trials=30, rows=3, ks=(1, 5), ds=(1, 13)):
    """(model, X) pairs with K in range(*ks) experts and d in range(*ds) labels."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        k, d = int(rng.integers(*ks)), int(rng.integers(*ds))
        model = MODEL_FAMILIES[family](rng, k, d, 3)
        X = np.hstack([np.ones((rows, 1)), rng.normal(size=(rows, 3))])
        if rng.random() < 0.2:
            X[:, 1:] = 0.0          # every expert and gate at its bias
        yield model, X


def root_bound(model, x, fixed=None):
    """The search's bound of one node of row x (the root when fixed is None)."""
    fixed = np.full((1, model.d), -1, np.int8) if fixed is None else fixed[None]
    scorer = _MixtureScorer(model, x)
    return float(inference._evaluate(scorer, np.zeros(1, np.intp), fixed)[2][0])


@pytest.mark.parametrize("family", sorted(MODEL_FAMILIES))
class TestBranchAndBound:
    def test_equals_enumerate_map_byte_for_byte(self, family):
        # the search itself too: public calls enumerate the small label spaces
        budget = AnnealConfig().iterations
        for model, X in random_cases(family, 200):
            with budget_warning(uncertified(model, X, budget)):
                preds, logps = predict_dataset(model, X)
            searched, searched_lps, _ = inference._search(
                _MixtureScorer(model, X, batch=True), budget)
            for r, x in enumerate(X):
                y_ref, lp_ref = enumerate_map(model, x)
                for y, lp in ((preds[r], logps[r]), (searched[r], searched_lps[r])):
                    assert y.tobytes() == y_ref.tobytes()
                    assert lp.tobytes() == np.float64(lp_ref).tobytes()

    def test_root_bound_not_below_true_maximum(self, family):
        for model, X in random_cases(family, 201):
            for x in X:
                assert root_bound(model, x) >= enumerate_map(model, x)[1]

    def test_node_bound_covers_its_completions(self, family):
        # a node fixing random labels bounds every vector that agrees with it
        rng = np.random.default_rng(202)
        for model, X in random_cases(family, 203, trials=20, rows=2):
            Y = all_label_vectors(model.d)
            for x in X:
                fixed = np.where(rng.random(model.d) < 0.4,
                                 rng.integers(0, 2, model.d), -1).astype(np.int8)
                agree = np.all((fixed < 0) | (Y == fixed), axis=1)
                best = _MixtureScorer(model, x).logp_batch(Y[agree]).max()
                assert root_bound(model, x, fixed) >= best

    def test_batch_equals_single_row(self, family):
        for model, X in random_cases(family, 204):
            for cfg in (AnnealConfig(), AnnealConfig(iterations=3)):
                with budget_warning(uncertified(model, X, cfg.iterations)):
                    preds, logps = predict_dataset(model, X, cfg)
                for r, x in enumerate(X):
                    with budget_warning(uncertified(model, x[None], cfg.iterations)):
                        y, lp = map_predict(model, x, cfg)
                    assert y.tobytes() == preds[r].tobytes()
                    assert np.float64(lp).tobytes() == logps[r].tobytes()

    def test_k1_equals_exact_map(self, family):
        rng = np.random.default_rng(205)
        for _ in range(30):
            model = MODEL_FAMILIES[family](rng, 1, int(rng.integers(1, 13)), 3)
            x = random_x(rng, 3)
            y, lp = map_predict(model, x)
            y_ref, lp_ref = exact_map(model.experts[0], x)
            assert y.tobytes() == y_ref.tobytes()
            assert lp == lp_ref

    def test_budget_of_one_returns_heuristic_init(self, family):
        for model, X in random_cases(family, 206):
            with budget_warning(uncertified(model, X, 1)):
                preds, logps = predict_dataset(model, X, AnnealConfig(iterations=1))
            for r, x in enumerate(X):
                init = heuristic_init(model, x)
                assert preds[r].tobytes() == init.tobytes()
                assert logps[r] == mixture_log_prob(model, x, init)

    def test_small_budget_between_init_and_oracle(self, family):
        for model, X in random_cases(family, 207):
            for budget in (2, 5, 9):
                with budget_warning(uncertified(model, X, budget)):
                    _, logps = predict_dataset(model, X, AnnealConfig(iterations=budget))
                for r, x in enumerate(X):
                    init = mixture_log_prob(model, x, heuristic_init(model, x))
                    assert init <= logps[r] <= enumerate_map(model, x)[1]

    def test_seed_changes_no_answer(self, family):
        for model, X in random_cases(family, 208, trials=10):
            rows = uncertified(model, X, AnnealConfig().iterations)
            runs = set()
            for s in (0, 1, 99):
                with budget_warning(rows):
                    runs.add(predict_dataset(model, X, AnnealConfig(seed=s))[1].tobytes())
            assert len(runs) == 1

    def test_node_budget_caps_evaluated_nodes(self, family, monkeypatch):
        # an enumerated row counts its 2^d label vectors as 2^d nodes
        evaluated = []

        def counting(scorer, rows, fixed):
            evaluated.append(rows)
            return evaluate(scorer, rows, fixed)

        def counting_enumerate(scorer):
            n, _, d = scorer.table.shape[:3]
            evaluated.append(np.repeat(np.arange(n), 2 ** d))
            return enumerate_(scorer)

        evaluate, enumerate_ = inference._evaluate, inference._enumerate
        monkeypatch.setattr(inference, "_evaluate", counting)
        monkeypatch.setattr(inference, "_enumerate", counting_enumerate)
        for model, X in random_cases(family, 209, trials=15):
            for budget in (1, 2, 5, 9):
                rows = uncertified(model, X, budget)
                evaluated.clear()
                with budget_warning(rows):
                    predict_dataset(model, X, AnnealConfig(iterations=budget))
                per_row = np.bincount(np.concatenate(evaluated), minlength=len(X))
                assert per_row.max() <= budget and per_row.min() >= 1


def forbid(monkeypatch, name):
    """Fail the test if inference.<name> is called."""
    def called(*args):
        pytest.fail(f"inference.{name} was called")

    monkeypatch.setattr(inference, name, called)


@pytest.mark.parametrize("family", sorted(MODEL_FAMILIES))
class TestEnumeration:
    """K >= 2 mixtures with d <= ENUMERATE_LABELS labels score all 2^d vectors."""

    SMALL = dict(ks=(2, 5), ds=(1, inference.ENUMERATE_LABELS + 1))

    def test_equals_enumerate_map_without_search(self, family, monkeypatch):
        forbid(monkeypatch, "_evaluate")
        for model, X in random_cases(family, 210, **self.SMALL):
            with budget_warning(0):
                preds, logps = predict_dataset(model, X)
            # the answers came from the cached gather; the oracle reads none
            # of it (TestCachedPredictionState)
            assert "label_space" in model.__dict__
            for r, x in enumerate(X):
                y_ref, lp_ref = enumerate_map(model, x)
                for y, lp in ((preds[r], logps[r]), map_predict(model, x)):
                    assert y.tobytes() == y_ref.tobytes()
                    assert np.float64(lp).tobytes() == np.float64(lp_ref).tobytes()

    def test_batch_longer_than_search_rows_equals_single_row(self, family):
        n = 2 * inference.SEARCH_ROWS + 5
        for model, X in random_cases(family, 211, trials=4, rows=n, **self.SMALL):
            preds, logps = predict_dataset(model, X)
            for r, x in enumerate(X):
                y, lp = map_predict(model, x)
                assert y.tobytes() == preds[r].tobytes()
                assert np.float64(lp).tobytes() == logps[r].tobytes()

    def test_budget_of_two_to_the_d_enumerates(self, family, monkeypatch):
        for model, X in random_cases(family, 212, **self.SMALL):
            budget = 2 ** model.d
            with monkeypatch.context() as patch:
                forbid(patch, "_evaluate")
                preds, _ = predict_dataset(model, X, AnnealConfig(iterations=budget))
            with monkeypatch.context() as patch:
                forbid(patch, "_enumerate")
                with budget_warning(uncertified(model, X, budget - 1)):
                    _, logps = predict_dataset(model, X, AnnealConfig(iterations=budget - 1))
            for r, x in enumerate(X):
                y_ref, lp_ref = enumerate_map(model, x)
                assert preds[r].tobytes() == y_ref.tobytes()
                init = mixture_log_prob(model, x, heuristic_init(model, x))
                assert init <= logps[r] <= lp_ref

    def test_eight_labels_search(self, family, monkeypatch):
        forbid(monkeypatch, "_enumerate")
        # a budget far above 2^8 still searches: d alone rules enumeration out
        for model, X in random_cases(family, 213, trials=10, ks=(2, 5), ds=(8, 9)):
            preds, _ = predict_dataset(model, X, AnnealConfig(iterations=10 ** 6))
            for r, x in enumerate(X):
                assert preds[r].tobytes() == enumerate_map(model, x)[0].tobytes()

    def test_k1_never_enumerates(self, family, monkeypatch):
        forbid(monkeypatch, "_enumerate")
        for model, X in random_cases(family, 214, ks=(1, 2), ds=self.SMALL["ds"]):
            preds, logps = predict_dataset(model, X, AnnealConfig(iterations=10 ** 6))
            for r, x in enumerate(X):
                y_ref, lp_ref = exact_map(model.experts[0], x)
                assert preds[r].tobytes() == y_ref.tobytes()
                assert logps[r] == lp_ref


class TestCachedPredictionState:
    """The model-only operands of prediction, built once per MixtureModel."""

    def test_contents_and_read_only(self):
        model = random_mixture(np.random.default_rng(15), k=3, d=4, m=2)
        Y, index = model.label_space
        assert Y.tobytes() == all_label_vectors(4).tobytes()
        assert index.shape == (16, 3, 4)
        for k, e in enumerate(model.experts):
            assert model.param_stack[k].tobytes() == e.param_table().tobytes()
            assert model.parent_stack[k].tobytes() == e.structure.parent_index.tobytes()
            for j, y in enumerate(Y):
                for i, p in enumerate(e.structure.parent):
                    branch = 0 if p is None else y[p]
                    assert index[j, k, i] == 4 * (4 * k + i) + 2 * branch + y[i]
        for a in (model.param_stack, model.parent_stack, Y, index):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    @pytest.mark.parametrize("k,d,budget", [(1, 8, 150), (1, 20, 150),
                                            (2, 8, 150), (2, 6, 63)])
    def test_only_enumeration_builds_the_label_space(self, k, d, budget):
        rng = np.random.default_rng(16)
        model = random_mixture(rng, k=k, d=d, m=3)
        X = np.hstack([np.ones((4, 1)), rng.normal(size=(4, 3))])
        cfg = AnnealConfig(iterations=budget)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UncertifiedMapWarning)
            predict_dataset(model, X, cfg)
            map_predict(model, X[0], cfg)
        assert "label_space" not in model.__dict__
        assert {"param_stack", "parent_stack"} <= set(model.__dict__)
        enumerated = random_mixture(rng, k=2, d=6, m=3)
        map_predict(enumerated, X[0])
        assert "label_space" in enumerated.__dict__

    def test_load_model_builds_none(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(random_mixture(np.random.default_rng(17), k=3, d=6, m=3), path)
        loaded, _ = load_model(path)
        assert not {"param_stack", "parent_stack", "label_space"} & set(loaded.__dict__)

    def test_enumerate_map_reads_no_label_space(self, monkeypatch):
        rng = np.random.default_rng(18)
        model = random_mixture(rng, k=3, d=5, m=3)
        X = np.hstack([np.ones((6, 1)), rng.normal(size=(6, 3))])
        preds, logps = predict_dataset(model, X)  # enumerated

        def refuse(self):
            raise AssertionError("MixtureModel.label_space was read")

        monkeypatch.setattr(MixtureModel, "label_space", property(refuse))
        with pytest.raises(AssertionError, match="label_space"):
            predict_dataset(model, X)
        for r, x in enumerate(X):
            y, lp = enumerate_map(model, x)
            assert y.tobytes() == preds[r].tobytes()
            assert np.float64(lp).tobytes() == logps[r].tobytes()


def test_two_label_tie_goes_to_the_smaller_vector():
    # expert 0's MAP is (1, 0) and expert 1's is (0, 1), with the same
    # score under an equal gate: both search and oracle answer (0, 1)
    def expert(b0, b1):
        return CtbnExpert(TreeStructure((None, None)), (
            (LinearModel(np.array([b0]), 0.0),), (LinearModel(np.array([b1]), 0.0),)))

    model = MixtureModel((expert(2.0, -2.0), expert(-2.0, 2.0)),
                         GatingModel(np.zeros((2, 1))))
    x = np.array([1.0])
    scores = _MixtureScorer(model, x).logp_batch(all_label_vectors(2))
    assert scores[1] == scores[2] == scores.max()
    for y in (heuristic_init(model, x), map_predict(model, x)[0],
              predict_dataset(model, x[None])[0][0], enumerate_map(model, x)[0]):
        assert y.tolist() == [0, 1]


class TestLockstepAnnealing:
    """Rows of a batch go through the search together, in lockstep rounds.

    Each must get its single-row answer, and the exact answer where an
    oracle can check it.
    """

    @pytest.mark.parametrize("scale", [0.1, 1.5])
    @pytest.mark.parametrize("k,d", itertools.product((1, 2, 3), (1, 6, 20)))
    def test_batch_equals_per_row_reference(self, k, d, scale):
        rng = np.random.default_rng(100 * k + d)
        model = random_mixture(rng, k=k, d=d, m=3, scale=scale)
        for iterations, n in itertools.product((1, 25, 150), (1, 7, 20)):
            X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 3))])
            cfg = AnnealConfig(iterations=iterations, seed=int(rng.integers(1000)))
            with budget_warning(uncertified(model, X, iterations)):
                preds, logps = predict_dataset(model, X, cfg)
            assert preds.dtype == np.int8
            for r, x in enumerate(X):
                with budget_warning(uncertified(model, x[None], iterations)):
                    y, lp = map_predict(model, x, cfg)
                assert y.tobytes() == preds[r].tobytes()
                assert np.float64(lp).tobytes() == logps[r].tobytes()
                init = heuristic_init(model, x)
                if k == 1:
                    ref = exact_map(model.experts[0], x)
                elif iterations == 1:
                    ref = init, mixture_log_prob(model, x, init)
                elif d <= 6 and iterations == 150:  # 2^6 leaves fit the budget
                    ref = enumerate_map(model, x)
                else:
                    assert lp >= mixture_log_prob(model, x, init)
                    continue
                assert y.tobytes() == ref[0].tobytes() and lp == ref[1]

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


class TestUncertifiedRows:
    """A row whose search runs out of the node budget is flagged by a warning."""

    @staticmethod
    def nodes_per_row(model, X, monkeypatch):
        """Nodes each row's unbounded search evaluates (frontier sizes at _evaluate)."""
        evaluated = []

        def counting(scorer, rows, fixed):
            evaluated.append(rows)
            return evaluate(scorer, rows, fixed)

        evaluate = inference._evaluate
        monkeypatch.setattr(inference, "_evaluate", counting)
        predict_dataset(model, X, AnnealConfig(iterations=10 ** 9))
        monkeypatch.undo()
        return np.bincount(np.concatenate(evaluated), minlength=len(X))

    # the seeds give inputs with none and with some rows over the budget
    @pytest.mark.parametrize("seed, n_over", [(0, 3), (1, 1), (2, 0), (3, 2)])
    def test_warned_count_is_the_rows_over_budget(self, seed, n_over, monkeypatch):
        rng = np.random.default_rng(seed)
        model = random_mixture(rng, k=3, d=20, m=10, scale=0.3)
        X = np.hstack([np.ones((100, 1)), rng.normal(size=(100, 10))])
        budget = AnnealConfig().iterations
        over = self.nodes_per_row(model, X, monkeypatch) > budget
        assert over.sum() == n_over
        with budget_warning(n_over):
            predict_dataset(model, X)
        for r in np.flatnonzero(over)[:2]:
            with pytest.warns(UncertifiedMapWarning,
                              match=rf"^1 row\(s\) .* node budget of {budget};"):
                map_predict(model, X[r])
        for r in np.flatnonzero(~over)[:5]:
            with budget_warning(0):
                map_predict(model, X[r])
        with budget_warning(0):
            for x in X[over]:
                heuristic_init(model, x)       # a budget of 1 by design

    @pytest.mark.parametrize("scale", [0.1, 0.3, 1.5])
    def test_bench_shaped_mixtures_do_not_warn(self, scale):
        rng = np.random.default_rng(17)
        model = random_mixture(rng, k=3, d=6, m=72, scale=scale)
        X = np.hstack([np.ones((200, 1)), rng.normal(size=(200, 72))])
        with budget_warning(0):
            predict_dataset(model, X)
            for x in X[:20]:
                map_predict(model, x)
