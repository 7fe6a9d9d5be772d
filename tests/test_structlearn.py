import itertools
from functools import lru_cache

import numpy as np
import pytest

import mlme.logreg as logreg
from conftest import expert_dataset
from mlme.ctbn import CtbnExpert, TreeStructure, node_log_probs
from mlme.dataset import Dataset, as_weight_array, holdout_split
from mlme.errors import ArgumentError
from mlme.logreg import LinearModel, log_sigmoid, train_columns, train_weighted
from mlme.structlearn import build_graph, learn_structure, maximum_branching


@lru_cache(maxsize=None)
def all_parent_maps(d):
    """(M, d) array of every acyclic single-parent assignment; row entries
    are the parent index or d for 'no parent'."""
    options = [[j for j in range(d) if j != i] + [d] for i in range(d)]
    valid = []
    for combo in itertools.product(*options):
        # follow parent links; every walk must terminate at the virtual root
        ok = True
        for start in range(d):
            seen = set()
            node = start
            while node != d:
                if node in seen:
                    ok = False
                    break
                seen.add(node)
                node = combo[node]
            if not ok:
                break
        if ok:
            valid.append(combo)
    return np.asarray(valid, dtype=np.intp)


def score_matrix(E, S):
    """Edge scores E (E[j, i] scores j -> i) and no-parent scores S packed
    as maximum_branching's (d+1, d+1) matrix: row d holds S, and the
    diagonal and column d are -inf."""
    d = len(S)
    W = np.full((d + 1, d + 1), -np.inf)
    W[:d, :d] = E
    W[d, :d] = S
    np.fill_diagonal(W, -np.inf)
    return W


def structure_score(W, structure: TreeStructure) -> float:
    """Sum of the chosen parent-option scores of a forest; roots read row d."""
    d = len(W) - 1
    total = 0.0
    for i, p in enumerate(structure.parent):
        total += W[d if p is None else p, i]
    return float(total)


def brute_force_best_score(W) -> float:
    d = len(W) - 1
    maps = all_parent_maps(d)
    scores = W[maps, np.arange(d)].sum(axis=1)
    return float(scores.max())


def random_graph(rng, d, integer=False):
    if integer:
        E = rng.integers(-3, 3, size=(d, d)).astype(float)
        S = rng.integers(-3, 3, size=d).astype(float)
    else:
        E = rng.normal(size=(d, d))
        S = rng.normal(size=d)
    np.fill_diagonal(E, 0.0)
    return score_matrix(E, S)


class TestMaximumBranching:
    def test_single_node(self):
        g = score_matrix(np.zeros((1, 1)), np.array([-1.0]))
        assert maximum_branching(g).parent == (None,)

    def test_dominant_self_weights_give_all_roots(self):
        rng = np.random.default_rng(0)
        E = rng.normal(size=(4, 4)) - 10.0
        S = np.zeros(4)
        g = score_matrix(E, S)
        assert maximum_branching(g).parent == (None,) * 4

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(1)
        for trial in range(300):
            d = int(rng.integers(2, 7))
            g = random_graph(rng, d)
            structure = maximum_branching(g)
            assert structure_score(g, structure) == pytest.approx(
                brute_force_best_score(g), abs=1e-9)

    def test_ties_with_integer_weights_still_optimal_and_deterministic(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            d = int(rng.integers(2, 6))
            g = random_graph(rng, d, integer=True)
            s1 = maximum_branching(g)
            s2 = maximum_branching(g)
            assert s1.parent == s2.parent
            assert structure_score(g, s1) == pytest.approx(
                brute_force_best_score(g), abs=1e-9)

    def test_optimal_up_to_d20_by_networkx_oracle(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(12)
        for trial in range(200):
            d = int(rng.integers(7, 21))
            g = random_graph(rng, d, integer=trial % 2 == 1)
            full = nx.DiGraph()
            for i in range(d):
                full.add_edge(d, i, weight=g[d, i])
                full.add_edges_from((j, i, {"weight": g[j, i]})
                                    for j in range(d) if j != i)
            tree = nx.maximum_spanning_arborescence(full, preserve_attrs=True)
            oracle = sum(w for _, _, w in tree.edges(data="weight"))
            assert structure_score(g, maximum_branching(g)) == pytest.approx(
                oracle, abs=1e-9)

    def test_no_parent_preferred_at_exact_tie(self):
        E = np.zeros((2, 2))
        S = np.zeros(2)
        g = score_matrix(E, S)
        assert maximum_branching(g).parent == (None, None)

    def test_output_always_acyclic(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            structure = maximum_branching(random_graph(rng, d))
            # TreeStructure construction validates acyclicity; also re-check
            for start in range(d):
                seen = set()
                node = start
                while node is not None:
                    assert node not in seen
                    seen.add(node)
                    node = structure.parent[node]

    def test_beats_random_forests(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 5)
        best = maximum_branching(g)
        best_score = structure_score(g, best)
        maps = all_parent_maps(5)
        for _ in range(1000):
            row = maps[rng.integers(maps.shape[0])]
            forest = TreeStructure(tuple(
                None if p == 5 else int(p) for p in row))
            assert best_score >= structure_score(g, forest) - 1e-12

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2), (1, 1), (0, 0)])
    def test_rejects_matrix_of_wrong_shape(self, shape):
        with pytest.raises(ArgumentError, match="score matrix"):
            maximum_branching(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(0, 1), (2, 0), (3, 2)])
    def test_rejects_non_finite_edge_or_no_parent_score(self, bad, cell):
        # (0, 1) and (2, 0) are edges, (3, 2) is node 2's no-parent score
        W = score_matrix(np.zeros((3, 3)), np.zeros(3))
        W[cell] = bad
        with pytest.raises(ArgumentError, match="finite"):
            maximum_branching(W)

    def test_ignores_diagonal_and_column_d(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            d = int(rng.integers(1, 7))
            W = random_graph(rng, d, integer=trial % 2 == 1)
            want = maximum_branching(W).parent
            junk = W.copy()
            fill = rng.choice([np.nan, np.inf, -np.inf, 1e9, 0.0],
                              size=(d + 1, 2))
            junk[np.arange(d + 1), np.arange(d + 1)] = fill[:, 0]
            junk[:, d] = fill[:, 1]
            before = junk.copy()
            assert maximum_branching(junk).parent == want
            assert np.array_equal(junk, before, equal_nan=True)   # not mutated


class TestBuildGraph:
    def test_untrainable_models_score_log_half(self):
        # zero training weight everywhere -> all models are penalty-only
        # -> every holdout point scores exactly log(0.5)
        rng = np.random.default_rng(5)
        train, _ = expert_dataset(rng, n=10, d=3, m=2)
        holdout = train.subset([0])
        g = build_graph(train, np.zeros(10), holdout, np.ones(1), lam=1.0)
        off_diag = g[:3, :3][~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off_diag, np.log(0.5), atol=1e-12)
        np.testing.assert_allclose(g[3, :3], np.log(0.5), atol=1e-12)

    def test_zero_holdout_weights_zero_graph(self):
        rng = np.random.default_rng(6)
        train, _ = expert_dataset(rng, n=12, d=3, m=2)
        g = build_graph(train, np.ones(12), train, np.zeros(12), lam=0.5)
        assert np.array_equal(g, score_matrix(np.zeros((3, 3)), np.zeros(3)))

    def test_pair_model_count_d3(self, monkeypatch):
        calls = [0]
        original = logreg.minimize

        def counting(fg, x0, *args, **kwargs):
            calls[0] += x0.shape[1]      # one solver column per model
            return original(fg, x0, *args, **kwargs)

        monkeypatch.setattr(logreg, "minimize", counting)
        rng = np.random.default_rng(7)
        train, _ = expert_dataset(rng, n=20, d=3, m=2)
        g = build_graph(train, np.ones(20), train, np.ones(20), lam=0.5)
        # d unconditional fits + 2 fits per ordered pair
        assert calls[0] == 3 + 2 * 3 * 2
        assert g.shape == (4, 4)
        assert np.all(np.isneginf(g.diagonal())) and np.all(np.isneginf(g[:, 3]))


def reference_build_graph(train, train_w, holdout, holdout_w, lam):
    """build_graph with each star built as a CtbnExpert and scored node by node."""
    d = train.d
    X, Y = train.features, train.labels
    w = as_weight_array(train_w, train.n)
    wh = as_weight_array(holdout_w, holdout.n)
    roots = train_columns(X, Y, np.repeat(w[:, None], d, axis=1), lam).T
    self_weight = np.zeros(d)
    edge_weight = np.zeros((d, d))
    for j in range(d):
        others = [i for i in range(d) if i != j]
        branches = np.zeros((d, 2, X.shape[1]))
        branches[j] = roots[j]
        for v in (0, 1):
            rows = Y[:, j] == v
            branches[others, v] = train_columns(
                X[rows], Y[rows][:, others],
                np.repeat(w[rows, None], len(others), axis=1), lam).T
        star = TreeStructure(tuple(None if i == j else j for i in range(d)))
        cpds = tuple(tuple(LinearModel(b, lam)
                           for b in branches[i, :1 if i == j else 2])
                     for i in range(d))
        expert = CtbnExpert(star, cpds)
        scores = wh @ node_log_probs(expert.param_table(),
                                     expert.structure.parent_index, holdout)
        self_weight[j] = scores[j]
        edge_weight[j] = scores
        edge_weight[j, j] = 0.0
    return edge_weight, self_weight


class TestBuildGraphReference:
    @pytest.mark.parametrize("n,d,m,zero_holdout", [
        (40, 1, 2, False), (60, 3, 2, False), (80, 4, 5, False),
        (200, 6, 8, False), (50, 3, 2, True)])
    def test_weights_equal_expert_reference(self, n, d, m, zero_holdout):
        rng = np.random.default_rng(n + d + m)
        data, _ = expert_dataset(rng, n=n, d=d, m=m)
        w = rng.random(n) + 0.1
        (train, wtr), (hold, who) = holdout_split(data, w, 0.3, seed=4)
        if zero_holdout:
            who = np.zeros_like(who)
        g = build_graph(train, wtr, hold, who, lam=0.5)
        want = score_matrix(*reference_build_graph(train, wtr, hold, who, 0.5))
        assert np.array_equal(g, want)
        assert np.array_equal(np.signbit(g), np.signbit(want))


class TestDecompositionIdentity:
    def test_direct_score_equals_edge_weight_sum(self):
        rng = np.random.default_rng(8)
        data, _ = expert_dataset(rng, n=50, d=4, m=2)
        w = rng.random(50) + 0.1
        (train, wtr), (hold, who) = holdout_split(data, w, 0.3, seed=11)
        g = build_graph(train, wtr, hold, who, lam=0.5)
        for parent in [(None, 0, 1, 2), (None, None, 0, 1), (3, None, 1, None)]:
            structure = TreeStructure(parent)
            # direct weighted conditional log-likelihood on the holdout,
            # retraining the same per-node conditional models
            direct = 0.0
            for i, p in enumerate(parent):
                if p is None:
                    model = train_weighted(train.features, train.labels[:, i],
                                           wtr, 0.5)
                    z = hold.features @ model.params
                else:
                    m0 = train_weighted(train.features[train.labels[:, p] == 0],
                                        train.labels[train.labels[:, p] == 0, i],
                                        wtr[train.labels[:, p] == 0], 0.5)
                    m1 = train_weighted(train.features[train.labels[:, p] == 1],
                                        train.labels[train.labels[:, p] == 1, i],
                                        wtr[train.labels[:, p] == 1], 0.5)
                    z = np.where(hold.labels[:, p] == 1,
                                 hold.features @ m1.params,
                                 hold.features @ m0.params)
                lp = np.where(hold.labels[:, i] == 1, log_sigmoid(z),
                              log_sigmoid(-z))
                direct += float(who @ lp)
            assert abs(direct - structure_score(g, structure)) < 1e-9


class TestLearnStructure:
    def test_single_label_trivial(self):
        rng = np.random.default_rng(9)
        data, _ = expert_dataset(rng, n=20, d=1, m=2)
        s = learn_structure(data, np.ones(20), lam=0.5, seed=0)
        assert s.parent == (None,)

    def test_recovers_deterministic_dependency(self):
        # Y2 copies Y1; Y1 depends on x. The learned forest must couple them
        # and beat the empty forest's holdout score.
        rng = np.random.default_rng(10)
        n = 400
        X = rng.normal(size=(n, 2))
        y1 = (X[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(int)
        data = Dataset.from_raw(X, np.column_stack([y1, y1]))
        w = np.full(n, 1.0 / n)
        (train, wtr), (hold, who) = holdout_split(data, w, 0.25, seed=3)
        g = build_graph(train, wtr, hold, who, lam=0.1)
        structure = maximum_branching(g)
        assert structure.parent in ((None, 0), (1, None))
        empty = TreeStructure((None, None))
        assert structure_score(g, structure) > structure_score(g, empty)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        data, _ = expert_dataset(rng, n=60, d=4, m=2)
        w = np.random.default_rng(0).random(60)
        a = learn_structure(data, w, lam=0.5, holdout_ratio=0.25, seed=21)
        b = learn_structure(data, w, lam=0.5, holdout_ratio=0.25, seed=21)
        assert a.parent == b.parent
