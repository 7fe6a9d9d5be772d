import json

import numpy as np
import pytest

from conftest import expert_dataset, random_mixture
from mlme.ctbn import CtbnExpert, TreeStructure, train_parameters
from mlme.dataset import Dataset
from mlme.errors import ArgumentError
from mlme.evaluation import (
    EvalReport,
    FoldResult,
    binary_relevance_baseline,
    cll_loss,
    cross_validate,
    exact_match_accuracy,
    macro_f1,
    micro_f1,
)
from mlme.logreg import LinearModel, train_weighted
from mlme.mixture import GatingModel, MixtureModel, TrainConfig


def hamming_accuracy(preds, truth) -> float:
    """Per-label accuracy averaged over all cells; upper-bounds exact match."""
    return float((np.asarray(preds) == np.asarray(truth)).mean())


class TestExactMatch:
    def test_perfect(self):
        Y = np.array([[0, 1], [1, 1]])
        assert exact_match_accuracy(Y, Y) == 1.0

    def test_one_bit_off(self):
        truth = np.zeros((5, 3), dtype=int)
        preds = truth.copy()
        preds[2, 1] = 1
        assert exact_match_accuracy(preds, truth) == pytest.approx(4 / 5)

    def test_shape_mismatch(self):
        with pytest.raises(ArgumentError):
            exact_match_accuracy(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_bounded_by_hamming(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            preds = rng.integers(0, 2, size=(20, 4))
            truth = rng.integers(0, 2, size=(20, 4))
            assert exact_match_accuracy(preds, truth) <= hamming_accuracy(preds, truth)


class TestF1:
    def test_perfect_both_one(self):
        Y = np.array([[0, 1], [1, 0], [1, 1]])
        assert micro_f1(Y, Y) == 1.0
        assert macro_f1(Y, Y) == 1.0

    def test_all_zero_predictions(self):
        truth = np.array([[1, 0], [1, 0]])
        preds = np.zeros_like(truth)
        assert micro_f1(preds, truth) == 0.0
        # class 0 has positives and none predicted -> 0; class 1 empty-empty -> 1
        assert macro_f1(preds, truth) == pytest.approx(0.5)

    def test_hand_computed_confusion(self):
        # class 1: TP=1 FP=1 FN=0 ; class 2: TP=0 FP=0 FN=1
        truth = np.array([[1, 1], [0, 0]])
        preds = np.array([[1, 0], [1, 0]])
        assert micro_f1(preds, truth) == pytest.approx(0.5)
        assert macro_f1(preds, truth) == pytest.approx((2 / 3 + 0) / 2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        preds = rng.integers(0, 2, size=(30, 3))
        truth = rng.integers(0, 2, size=(30, 3))
        perm = rng.permutation(30)
        for fn in (exact_match_accuracy, micro_f1, macro_f1, hamming_accuracy):
            assert fn(preds, truth) == pytest.approx(fn(preds[perm], truth[perm]))


def saturated_expert(d):
    """Expert assigning probability ~1 to the all-ones vector."""
    structure = TreeStructure((None,) * d)
    cpds = tuple((LinearModel(np.array([800.0, 0.0]), 0.0),) for _ in range(d))
    return CtbnExpert(structure, cpds)


class TestCllLoss:
    def test_perfect_model_zero_loss(self):
        d = 3
        model = MixtureModel((saturated_expert(d),), GatingModel(np.zeros((1, 2))))
        data = Dataset(np.ones((4, 2)), np.ones((4, d), dtype=int))
        assert cll_loss(model, data) == 0.0

    def test_uniform_model_nd_log2(self):
        d, n = 4, 7
        structure = TreeStructure((None,) * d)
        cpds = tuple((LinearModel(np.zeros(2), 0.0),) for _ in range(d))
        model = MixtureModel((CtbnExpert(structure, cpds),),
                             GatingModel(np.zeros((1, 2))))
        rng = np.random.default_rng(2)
        data = Dataset(np.ones((n, 2)), rng.integers(0, 2, size=(n, d)))
        assert cll_loss(model, data) == pytest.approx(n * d * np.log(2), abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        model = random_mixture(rng, k=2, d=3, m=2)
        data, _ = expert_dataset(rng, n=20, d=3, m=2)
        assert cll_loss(model, data) >= 0.0

    def test_training_labels_beat_shuffled_labels(self):
        rng = np.random.default_rng(4)
        data, _ = expert_dataset(rng, n=80, d=3, m=2, scale=2.0)
        structure = TreeStructure((None, 0, 1))
        expert = train_parameters(structure, data, np.ones(80), lam=0.1)
        model = MixtureModel((expert,), GatingModel(np.zeros((1, 3))))
        base = cll_loss(model, data)
        for seed in range(20):
            perm = np.random.default_rng(seed).permutation(80)
            shuffled = Dataset(data.features, data.labels[perm])
            assert base <= cll_loss(model, shuffled) + 1e-9


class TestBinaryRelevance:
    def test_d1_equals_thresholded_logreg(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(int)[:, None]
        train = Dataset.from_raw(X, y)
        test = Dataset.from_raw(rng.normal(size=(15, 2)),
                                rng.integers(0, 2, size=(15, 1)))
        preds = binary_relevance_baseline(train, test, lam=0.5)
        model = train_weighted(train.features, train.labels[:, 0],
                               np.ones(40), lam=0.5)
        expected = (test.features @ model.params > 0).astype(int)
        np.testing.assert_array_equal(preds[:, 0], expected)

    def test_close_to_mixture_on_independent_labels(self):
        # labels generated independently given x: BR and the mixture should
        # land in the same accuracy neighborhood
        from mlme.mixture import grow_mixture
        from mlme.inference import predict_dataset
        rng = np.random.default_rng(6)
        n, m, d = 350, 2, 3
        X = rng.normal(size=(n + 150, m))
        W = rng.normal(scale=2.0, size=(m, d))
        P = 1 / (1 + np.exp(-(X @ W)))
        Y = (rng.random((n + 150, d)) < P).astype(int)
        train = Dataset.from_raw(X[:n], Y[:n])
        test = Dataset.from_raw(X[n:], Y[n:])
        br_preds = binary_relevance_baseline(train, test, lam=0.1)
        model = grow_mixture(train, TrainConfig(max_experts=2, lam=0.1, seed=0))
        mix_preds, _ = predict_dataset(model, test.features)
        br_ema = exact_match_accuracy(br_preds, test.labels)
        mix_ema = exact_match_accuracy(mix_preds, test.labels)
        assert abs(br_ema - mix_ema) < 0.08


    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_equals_thresholded_all_roots_expert(self, d):
        rng = np.random.default_rng(20 + d)
        train, _ = expert_dataset(rng, n=120, d=d, m=4)
        test, _ = expert_dataset(rng, n=60, d=d, m=4)
        expert = train_parameters(TreeStructure((None,) * d), train,
                                  np.ones(train.n), 0.3)
        want = np.zeros((test.n, d), dtype=np.int8)
        for i, (model,) in enumerate(expert.cpds):
            want[:, i] = (test.features @ model.params > 0).astype(np.int8)
        got = binary_relevance_baseline(train, test, lam=0.3)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, want)


class TestStructureExploitation:
    def test_mixture_beats_baseline_on_chained_labels(self):
        # labels form a tight chain (each tracks its predecessor); exploiting
        # the learned structure must clearly beat per-label independent models
        from conftest import sample_labels
        from mlme.ctbn import CtbnExpert, TreeStructure
        rng = np.random.default_rng(8)
        n, m, d = 500, 4, 5
        structure = TreeStructure((None, 0, 1, 2, 3))
        cpds = [(LinearModel(np.concatenate([[0.0], rng.normal(scale=1.5, size=m)]), 0.0),)]
        for _ in range(1, d):
            w0 = np.concatenate([[-3.0], rng.normal(scale=0.3, size=m)])
            w1 = np.concatenate([[+3.0], rng.normal(scale=0.3, size=m)])
            cpds.append((LinearModel(w0, 0.0), LinearModel(w1, 0.0)))
        gen = CtbnExpert(structure, tuple(cpds))
        X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, m))])
        data = Dataset(X, sample_labels(rng, gen, X))
        report = cross_validate(data, TrainConfig(max_experts=2, seed=1), k=3,
                                standardize=True)
        agg = report.aggregate
        assert agg["ema"]["mean"] > agg["br_ema"]["mean"] + 0.03


class TestCrossValidate:
    def make_toy(self, n=30):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(n, 2))
        y0 = (X[:, 0] > 0).astype(int)
        return Dataset.from_raw(X, np.column_stack([y0, y0]))

    def test_toy_two_folds_populates_report(self):
        data = self.make_toy()
        report = cross_validate(
            data, TrainConfig(max_experts=1, lam=0.5, seed=1), k=2)
        assert len(report.per_fold) == 2
        for fold in report.per_fold:
            assert 0.0 <= fold.ema <= 1.0
            assert fold.cll_loss >= 0.0
            assert 0.0 <= fold.micro_f1 <= 1.0
            assert 0.0 <= fold.macro_f1 <= 1.0
            assert fold.wall_time > 0.0
        assert set(report.aggregate) >= {"ema", "cll_loss", "micro_f1",
                                         "macro_f1", "wall_time"}

    def test_deterministic_up_to_wall_time(self):
        data = self.make_toy()
        kwargs = dict(trainer=TrainConfig(max_experts=1, lam=0.5, seed=4),
                      k=2)
        a = cross_validate(data, **kwargs).to_dict()
        b = cross_validate(data, **kwargs).to_dict()
        for doc in (a, b):
            for fold in doc["per_fold"]:
                fold.pop("wall_time")
            doc["aggregate"].pop("wall_time")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_serialization_round_trip(self):
        data = self.make_toy()
        report = cross_validate(
            data, TrainConfig(max_experts=1, lam=0.5, seed=2), k=2)
        doc = json.loads(report.to_json())
        assert doc["config"]["folds"] == 2
        table = report.to_text_table()
        assert "ema" in table and "mean" in table

    def test_aggregate_is_derived_from_folds(self):
        folds = tuple(
            FoldResult(ema=0.5, cll_loss=loss, cll_per_instance=loss / 10,
                       micro_f1=0.6, macro_f1=0.4, wall_time=1.0, accepted_k=k)
            for k, loss in ((1, 3.0), (2, 4.5), (2, 7.25)))
        agg = EvalReport(folds, {}).aggregate
        ks = np.array([1.0, 2.0, 2.0])
        assert agg["accepted_k"] == {"mean": ks.mean(), "sd": ks.std(ddof=1)}
        assert agg["cll_loss"] == {"mean": np.mean([3.0, 4.5, 7.25]),
                                   "sd": np.std([3.0, 4.5, 7.25], ddof=1)}
        assert agg["cll_loss_total"] == 14.75
        assert "br_ema" not in agg
        one = EvalReport(folds[1:2], {}).aggregate
        assert one["accepted_k"] == {"mean": 2.0, "sd": 0.0}

    def test_rejects_single_fold(self):
        with pytest.raises(ArgumentError):
            cross_validate(self.make_toy(), TrainConfig(lam=0.5), k=1)

    @pytest.mark.parametrize("k", [2.5, True, np.float64(2), "2"])
    def test_rejects_non_integral_fold_count(self, k):
        with pytest.raises(ArgumentError, match="fold count k must be an integer"):
            cross_validate(self.make_toy(), TrainConfig(lam=0.5), k=k)
