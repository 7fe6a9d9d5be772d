import time

import numpy as np
import pytest

from conftest import expert_dataset, random_expert, random_structure, random_x
from mlme.ctbn import (
    CtbnExpert,
    TreeStructure,
    exact_map,
    joint_log_prob,
    max_sum,
    node_log_probs,
    node_order_sum,
    node_term_table,
    train_parameters,
    tree_log_prob,
)
from mlme.dataset import Dataset
from mlme.errors import ArgumentError
from mlme.inference import all_label_vectors
from mlme.logreg import LinearModel, log_sigmoid, objective_and_gradient, train_weighted


def logit(p):
    return np.log(p / (1 - p))


def brute_force_map(expert, x):
    Y = all_label_vectors(expert.d)
    scores = np.array([joint_log_prob(expert, x, y) for y in Y])
    idx = int(np.argmax(scores))
    return Y[idx], scores[idx]


def loop_tree_log_prob(z, parent, y):
    """Reference: log P(y | x) as a plain loop over nodes in node order."""
    total = 0.0
    for i, p in enumerate(parent):
        zi = z[i, 0 if p is None else y[p]]
        total += float(log_sigmoid(zi if y[i] == 1 else -zi))
    return total


def loop_tree_terms(z, parent, y):
    """Reference: each node's term log P(y_i | x, y_parent(i)), one at a time."""
    terms = []
    for i, p in enumerate(parent):
        zi = z[i, 0 if p is None else y[p]]
        terms.append(float(log_sigmoid(zi if y[i] == 1 else -zi)))
    return terms


def assert_same_bits(got, want):
    # == alone treats -0.0 and 0.0 as equal; the sign shows in printed output
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestTreeLogProb:
    @pytest.mark.parametrize("d", [1, 6, 20])
    @pytest.mark.parametrize("shape", ["roots", "chain", "mixed"])
    def test_matches_node_loop_exactly(self, d, shape):
        rng = np.random.default_rng(d)
        K, N = 3, 40
        make = {"roots": lambda: TreeStructure((None,) * d),
                "chain": lambda: TreeStructure((None, *range(d - 1))),
                "mixed": lambda: random_structure(rng, d)}[shape]
        structures = [make() for _ in range(K)]
        parents = np.stack([s.parent_index for s in structures])
        logits = rng.normal(size=(K, d, 2)) * rng.choice([1.0, 30.0], size=(K, d, 2))
        # expert 0 saturates: every term is -0.0 or about -800
        logits[0] = rng.choice([-800.0, 800.0], size=(d, 2))
        Y = rng.integers(0, 2, size=(N, d)).astype(np.int8)
        want = np.array([[loop_tree_log_prob(logits[k], structures[k].parent, y)
                          for k in range(K)] for y in Y])

        # N label vectors against K stacked experts' node-term tables
        table = node_term_table(logits)
        got = tree_log_prob(table, parents, Y)
        assert got.shape == (N, K)
        assert_same_bits(got, want)
        # float 0.0/1.0 labels index like integer ones
        assert_same_bits(tree_log_prob(table, parents, Y.astype(float)), want)
        for n in range(N):  # one label vector against K experts
            assert_same_bits(tree_log_prob(table, parents, Y[n]), want[n])
        for k, s in enumerate(structures):  # per-row tables, one expert
            rows = np.broadcast_to(table[k], (N, d, 2, 2))
            assert_same_bits(tree_log_prob(rows, s.parent_index, Y), want[:, k])
            assert_same_bits(tree_log_prob(table[k], s.parent_index, Y[0]),
                             want[0, k])

        # the dataset kernel's per-node terms, (N, d) per expert; with one
        # constant feature its logits are exactly these
        data = Dataset(np.ones((N, 1)), Y)
        for k, s in enumerate(structures):
            want_terms = np.array([loop_tree_terms(logits[k], s.parent, y)
                                   for y in Y])
            got_terms = node_log_probs(logits[k][..., None], s.parent_index, data)
            assert_same_bits(got_terms, want_terms)
            assert_same_bits(node_order_sum(got_terms), want[:, k])


class TestTreeStructure:
    def test_rejects_cycles(self):
        with pytest.raises(ArgumentError):
            TreeStructure((1, 0))
        with pytest.raises(ArgumentError):
            TreeStructure((2, 0, 1))

    def test_rejects_self_parent_and_range(self):
        with pytest.raises(ArgumentError):
            TreeStructure((0,))
        with pytest.raises(ArgumentError):
            TreeStructure((None, 5))

    def test_topological_order_parents_first(self):
        s = TreeStructure((None, 0, 1, 1, None, 4))
        order = s.topological_order()
        pos = {node: i for i, node in enumerate(order)}
        for i, p in enumerate(s.parent):
            if p is not None:
                assert pos[p] < pos[i]
        assert sorted(order) == list(range(6))


class TestJointLogProb:
    def test_single_node(self):
        # P(y=1|x) = 0.8 via the bias term
        expert = CtbnExpert(
            TreeStructure((None,)),
            ((LinearModel(np.array([logit(0.8), 0.0]), 0.0),),))
        x = np.array([1.0, 0.0])
        assert abs(joint_log_prob(expert, x, [1]) - np.log(0.8)) < 1e-12

    def test_chain_product(self):
        # P(y1=1|x)=0.6, P(y2=1|x,y1=1)=0.5 -> P(1,1) = 0.3
        expert = CtbnExpert(
            TreeStructure((None, 0)),
            ((LinearModel(np.array([logit(0.6), 0.0]), 0.0),),
             (LinearModel(np.array([5.0, 0.0]), 0.0),
              LinearModel(np.array([0.0, 0.0]), 0.0))))
        x = np.array([1.0, 0.0])
        assert abs(joint_log_prob(expert, x, [1, 1]) - np.log(0.3)) < 1e-12

    def test_normalizes_over_all_assignments(self):
        rng = np.random.default_rng(0)
        for d in (3, 8, 8, 8, 12):
            expert = random_expert(rng, d=d, m=3)
            x = random_x(rng, 3)
            total = sum(np.exp(joint_log_prob(expert, x, y))
                        for y in all_label_vectors(d))
            assert abs(total - 1.0) < 1e-9

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        expert = random_expert(rng, d=5, m=2)
        X = np.hstack([np.ones((20, 1)), rng.normal(size=(20, 2))])
        Y = rng.integers(0, 2, size=(20, 5))
        data = Dataset(X, Y)
        vec = node_order_sum(node_log_probs(
            expert.param_table(), expert.structure.parent_index, data))
        for i in range(20):
            assert abs(vec[i] - joint_log_prob(expert, X[i], Y[i])) < 1e-12

    @pytest.mark.parametrize("K, d", [(1, 1), (3, 6), (2, 20)])
    def test_stack_gives_each_experts_bits(self, K, d):
        # one call over stacked tables is the E-step's kernel; one call per
        # expert is the reference
        rng = np.random.default_rng(K * d)
        experts = [random_expert(rng, d=d, m=5) for _ in range(K)]
        X = np.hstack([np.ones((50, 1)), rng.normal(size=(50, 5))])
        data = Dataset(X, rng.integers(0, 2, size=(50, d)))
        got = node_log_probs(np.stack([e.param_table() for e in experts]),
                             np.stack([e.structure.parent_index for e in experts]),
                             data)
        assert got.shape == (50, K, d)
        for k, e in enumerate(experts):
            assert_same_bits(got[:, k], node_log_probs(
                e.param_table(), e.structure.parent_index, data))


class TestExactMap:
    def test_single_node_argmax(self):
        expert = CtbnExpert(
            TreeStructure((None,)),
            ((LinearModel(np.array([logit(0.8), 0.0]), 0.0),),))
        y, lp = exact_map(expert, np.array([1.0, 0.0]))
        assert y.tolist() == [1]
        assert abs(lp - np.log(0.8)) < 1e-12

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            d = int(rng.integers(2, 11))
            expert = random_expert(rng, d=d, m=2)
            x = random_x(rng, 2)
            y, lp = exact_map(expert, x)
            y_ref, lp_ref = brute_force_map(expert, x)
            assert np.array_equal(y, y_ref)
            assert abs(lp - lp_ref) < 1e-12

    def test_all_ties_prefer_zero(self):
        # every CPD outputs 0.5 regardless of input
        d = 4
        structure = TreeStructure((None, 0, 1, 0))
        cpds = []
        for p in structure.parent:
            n_models = 1 if p is None else 2
            cpds.append(tuple(LinearModel(np.zeros(3), 0.0)
                              for _ in range(n_models)))
        expert = CtbnExpert(structure, tuple(cpds))
        y, _ = exact_map(expert, np.array([1.0, 0.4, -0.2]))
        assert y.tolist() == [0, 0, 0, 0]

    def test_runtime_roughly_linear_in_d(self):
        rng = np.random.default_rng(2)
        m = 3

        cases = []
        for d in (40, 80):
            expert = random_expert(rng, d=d, m=m)
            x = random_x(rng, m)
            exact_map(expert, x)  # warm up (builds the parameter table)
            cases.append((expert, x))
        # the two sizes' repetitions alternate, so a slow spell of the
        # machine hits both sizes rather than only the later one
        times = ([], [])
        for _ in range(9):
            for (expert, x), record in zip(cases, times):
                start = time.perf_counter()
                for _ in range(10):
                    exact_map(expert, x)
                record.append(time.perf_counter() - start)
        t_small, t_big = min(times[0]), min(times[1])
        assert t_big / t_small < 2.5


def scalar_max_sum(table, structure):
    """Node-by-node max-sum over one (d, 2, 2) node-term table, ties to 0."""
    order = structure.topological_order()
    child_sum = np.zeros((structure.d, 2))
    choice = np.zeros((structure.d, 2), dtype=np.int8)
    for i in reversed(order):
        best = np.zeros(2)
        for v in (0, 1):
            s0 = table[i, v, 0] + child_sum[i, 0]
            s1 = table[i, v, 1] + child_sum[i, 1]
            choice[i, v] = s1 > s0
            best[v] = s1 if s1 > s0 else s0
        p = structure.parent[i]
        if p is not None:
            child_sum[p] += best
    y = np.zeros(structure.d, dtype=np.int8)
    for i in order:
        p = structure.parent[i]
        y[i] = choice[i, 0 if p is None else y[p]]
    return y


class TestMaxSum:
    def test_rows_equal_scalar_reference(self):
        # terms from a small set make sums tie up to the last bit, so the
        # order in which a parent adds its children's messages shows
        rng = np.random.default_rng(30)
        for d in (1, 3, 8, 20):
            for _ in range(20):
                structure = random_structure(rng, d)
                table = -rng.choice([0.1, 0.2, 0.3, 0.7], size=(50, d, 2, 2))
                Y = max_sum(table, structure)
                for t, y in zip(table, Y):
                    np.testing.assert_array_equal(y, scalar_max_sum(t, structure))
        star = TreeStructure((None,) + (0,) * 7)
        table = -rng.choice([0.1, 0.2, 0.3, 0.7], size=(200, 8, 2, 2))
        for t, y in zip(table, max_sum(table, star)):
            np.testing.assert_array_equal(y, scalar_max_sum(t, star))

    def test_rows_equal_exact_map(self):
        rng = np.random.default_rng(31)
        for d in (1, 2, 6, 20):
            for _ in range(10):
                expert = random_expert(rng, d=d, m=3)
                X = np.stack([random_x(rng, 3) for _ in range(9)])
                table = node_term_table(
                    np.stack([expert.param_table() @ x for x in X]))
                Y = max_sum(table, expert.structure)
                assert Y.shape == (9, d) and Y.dtype == np.int8
                for x, y in zip(X, Y):
                    np.testing.assert_array_equal(y, exact_map(expert, x)[0])

    def test_all_ties_prefer_zero(self):
        structure = TreeStructure((None, 0, 1, 0, None))
        cpds = tuple(
            tuple(LinearModel(np.zeros(3), 0.0)
                  for _ in range(1 if p is None else 2))
            for p in structure.parent)
        expert = CtbnExpert(structure, cpds)
        X = np.random.default_rng(32).normal(size=(6, 3))
        table = node_term_table(np.stack([expert.param_table() @ x for x in X]))
        assert max_sum(table, structure).tolist() == [[0] * 5] * 6

    def test_table_entries_equal_tree_terms(self):
        # the dataset kernel's terms are the entries the row kernel gathers
        rng = np.random.default_rng(33)
        expert = random_expert(rng, d=6, m=2, scale=400.0)
        logits = expert.param_table() @ random_x(rng, 2)
        table = node_term_table(logits)
        Y = all_label_vectors(6)
        # one constant feature: the dataset kernel's logits are exactly these
        terms = node_log_probs(logits[..., None], expert.structure.parent_index,
                               Dataset(np.ones((len(Y), 1)), Y))
        for y, row in zip(Y, terms):
            padded = np.append(y, 0)
            for i, p in enumerate(expert.structure.parent_index):
                got = table[i, padded[p], y[i]]
                assert got.tobytes() == row[i].tobytes()


def assert_same_objective(model, direct, X, t, w):
    """A batched fit and a one-column fit agree in penalised objective.

    They run different matrix products, so their parameters need not agree
    bit for bit; both must reach the same optimum to 1e-9 relative.
    """
    got = objective_and_gradient(model.params, X, t, w, model.lam)[0]
    want = objective_and_gradient(direct.params, X, t, w, direct.lam)[0]
    assert abs(got - want) <= 1e-9 * abs(want)


class TestTrainParameters:
    def test_single_root_reduces_to_train_weighted(self):
        rng = np.random.default_rng(3)
        X = np.hstack([np.ones((30, 1)), rng.normal(size=(30, 2))])
        Y = rng.integers(0, 2, size=(30, 1))
        data = Dataset(X, Y)
        w = np.ones(30)
        expert = train_parameters(TreeStructure((None,)), data, w, lam=0.5)
        direct = train_weighted(X, Y[:, 0], w, lam=0.5)
        assert_same_objective(expert.cpds[0][0], direct, X, Y[:, 0], w)

    def test_never_seen_parent_value_gives_zero_params(self):
        X = np.hstack([np.ones((20, 1)), np.random.default_rng(4).normal(size=(20, 1))])
        Y = np.ones((20, 2), dtype=int)  # parent label always 1
        data = Dataset(X, Y)
        expert = train_parameters(TreeStructure((None, 0)), data, np.ones(20), lam=0.5)
        np.testing.assert_allclose(expert.cpds[1][0].params, 0.0, atol=1e-9)

    def test_weight_and_lambda_scaling_invariance(self):
        rng = np.random.default_rng(5)
        data, _ = expert_dataset(rng, n=60, d=3, m=2)
        w = rng.random(60) + 0.2
        a = train_parameters(TreeStructure((None, 0, 1)), data, w, lam=0.4)
        b = train_parameters(TreeStructure((None, 0, 1)), data, 3 * w, lam=1.2)
        for ca, cb in zip(a.cpds, b.cpds):
            for ma, mb in zip(ca, cb):
                np.testing.assert_allclose(ma.params, mb.params, atol=1e-6)

    @pytest.mark.parametrize("parent", [(None, 0, 0, 0), (3, 3, 3, None)])
    @pytest.mark.parametrize("warm", [False, True])
    def test_shared_parent_children_equal_masked_fits(self, parent, warm):
        # every child of one parent is fit on that parent's shared row slice
        rng = np.random.default_rng(7)
        data, _ = expert_dataset(rng, n=80, d=4, m=3)
        X, Y = data.features, data.labels
        w = rng.random(80) + 0.1
        structure = TreeStructure(parent)
        init = random_expert(rng, 4, 3, structure=structure) if warm else None
        expert = train_parameters(structure, data, w, lam=0.4, init=init)
        for i, p in enumerate(parent):
            for v, model in enumerate(expert.cpds[i]):
                rows = np.ones(80, dtype=bool) if p is None else Y[:, p] == v
                x0 = init.cpds[i][v].params if warm else None
                direct = train_weighted(X[rows], Y[rows, i], w[rows], 0.4, x0=x0)
                assert_same_objective(model, direct, X[rows], Y[rows, i], w[rows])

    def test_traversal_order_does_not_change_joint(self):
        # two structures identical up to node relabeling of evaluation order
        rng = np.random.default_rng(6)
        data, _ = expert_dataset(rng, n=40, d=4, m=2)
        expert = train_parameters(TreeStructure((None, 0, 0, 2)), data,
                                  np.ones(40), lam=0.3)
        x = random_x(rng, 2)
        y = rng.integers(0, 2, size=4)
        # joint must equal the explicit factor product in any order
        lp = joint_log_prob(expert, x, y)
        factors = []
        for i, p in enumerate(expert.structure.parent):
            z = (expert.param_table() @ x)[i, 0 if p is None else y[p]]
            factors.append(float(-np.logaddexp(0, -z if y[i] == 1 else z)))
        for perm in ([3, 2, 1, 0], [1, 3, 0, 2]):
            assert abs(lp - sum(factors[j] for j in perm)) < 1e-12
