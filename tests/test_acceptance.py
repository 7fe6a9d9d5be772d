"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The two benchmark-dataset criteria look for files under
``$MLME_DATA_DIR`` (default ``./data``) and skip when the files are absent.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_mixture, random_x, two_regime_dataset
from mlme.cli import main as cli_main
from mlme.ctbn import TreeStructure, exact_map
from mlme.dataset import load_arff, load_csv
from mlme.evaluation import cross_validate
from mlme.inference import (
    AnnealConfig,
    all_label_vectors,
    enumerate_map,
    map_predict,
)
from mlme.logreg import objective_and_gradient
from mlme.mixture import (
    TrainConfig,
    _MixtureScorer,
    em_fit,
    gate_objective_and_gradient,
    grow_mixture,
    observed_log_likelihood,
)
from mlme.model_io import model_to_dict
from mlme.structlearn import maximum_branching

from test_structlearn import brute_force_best_score, score_matrix, structure_score
from test_logreg import finite_difference_gradient

DATA_DIR = Path(os.environ.get("MLME_DATA_DIR", "data"))


def dataset_file(stem):
    for suffix in (".arff", ".csv"):
        path = DATA_DIR / f"{stem}{suffix}"
        if path.exists():
            return path
    return None


def load_benchmark(stem, d, label_names):
    path = dataset_file(stem)
    if path is None:
        pytest.skip(
            f"{stem} dataset not available; place {stem}.arff or {stem}.csv "
            f"under {DATA_DIR}/ (or set MLME_DATA_DIR) to run this criterion")
    if path.suffix == ".arff":
        return load_arff(path, label_names)
    return load_csv(path, d)


def report_pass(text):
    print(f"\nPASS {text}")


def test_criterion_1_map_predict_agrees_with_oracle():
    """map_predict matches enumerate_map on >= 95% of 200 random mixtures
    (100% when K=1) within a 60 s budget."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    hits = 0
    k1_total = k1_hits = 0
    trials = 200
    for trial in range(trials):
        k = int(rng.integers(1, 4))
        d = int(rng.integers(2, 11))
        model = random_mixture(rng, k=k, d=d, m=2)
        x = random_x(rng, 2)
        y, lp = map_predict(model, x, AnnealConfig(seed=trial))
        y_ref, lp_ref = enumerate_map(model, x)
        assert lp <= lp_ref + 1e-12
        match = bool(np.array_equal(y, y_ref))
        hits += match
        if k == 1:
            k1_total += 1
            k1_hits += match
    elapsed = time.perf_counter() - start
    rate = hits / trials
    assert rate >= 0.95, f"oracle agreement {rate:.3f} < 0.95"
    assert k1_total > 0 and k1_hits == k1_total, "K=1 must be exact"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report_pass(f"criterion 1: MAP oracle agreement {rate:.3f} "
                f"(K=1: {k1_hits}/{k1_total}) in {elapsed:.1f}s")


def test_criterion_2_mixture_normalization():
    """Sum over all label vectors of exp(mixture log-probability) is 1."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        d = int(rng.integers(2, 11))
        model = random_mixture(rng, k=k, d=d, m=2)
        x = random_x(rng, 2)
        total = float(np.exp(
            _MixtureScorer(model, x).logp_batch(all_label_vectors(d))).sum())
        worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-9
    report_pass(f"criterion 2: normalization max |sum-1| = {worst:.2e}")


def test_criterion_3_em_monotone_objective():
    """Regularized observed log-likelihood never decreases across EM."""
    rng = np.random.default_rng(11)
    checked = 0
    for run in range(50):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(25, 45))
        data = two_regime_dataset(rng, n=n, d=d)
        structures = [
            TreeStructure(tuple([None] + [0] * (d - 1))),
            TreeStructure((None,) * d),
        ]
        k = 1 + run % 2
        result = em_fit(structures[:k], data,
                        TrainConfig(seed=run, em_max_iters=20, lam=0.2))
        trace = np.asarray(result.objective_trace)
        assert np.all(np.diff(trace) >= -1e-6), f"run {run}: {trace}"
        checked += len(trace) - 1
    report_pass(f"criterion 3: EM objective non-decreasing over 50 fits "
                f"({checked} iterations checked)")


def test_criterion_4_analytic_gradients_match_finite_differences():
    """Weighted-LR and gate objectives: max relative gradient error < 1e-4."""
    rng = np.random.default_rng(13)
    worst_lr = 0.0
    for _ in range(100):
        n, m = int(rng.integers(3, 12)), int(rng.integers(1, 5))
        X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, m))])
        t = rng.integers(0, 2, size=n).astype(float)
        w = rng.random(n)
        lam = float(rng.random() * 2)
        params = rng.normal(size=m + 1)
        _, grad = objective_and_gradient(params, X, t, w, lam)
        fd = finite_difference_gradient(params, X, t, w, lam)
        worst_lr = max(worst_lr,
                       np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8))

    worst_gate = 0.0
    for _ in range(100):
        n, m, K = (int(rng.integers(3, 10)), int(rng.integers(1, 4)),
                   int(rng.integers(2, 5)))
        X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, m))])
        h = rng.random((n, K))
        h /= h.sum(axis=1, keepdims=True)
        lam_gate = float(rng.random())
        theta = rng.normal(size=K * (m + 1))
        _, grad = gate_objective_and_gradient(theta, X, h, lam_gate)
        fd = np.zeros_like(theta)
        for j in range(len(theta)):
            hi, lo = theta.copy(), theta.copy()
            hi[j] += 1e-5
            lo[j] -= 1e-5
            fhi, _ = gate_objective_and_gradient(hi, X, h, lam_gate)
            flo, _ = gate_objective_and_gradient(lo, X, h, lam_gate)
            fd[j] = (fhi - flo) / 2e-5
        worst_gate = max(worst_gate,
                         np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8))
    assert worst_lr < 1e-4 and worst_gate < 1e-4
    report_pass(f"criterion 4: gradient rel. errors LR={worst_lr:.2e}, "
                f"gate={worst_gate:.2e}")


def test_criterion_5_maximum_branching_is_optimal():
    """Branching score equals brute force over all forests, 1000 graphs."""
    rng = np.random.default_rng(17)
    for trial in range(1000):
        d = int(rng.integers(2, 7))
        E = rng.normal(size=(d, d))
        np.fill_diagonal(E, 0.0)
        S = rng.normal(size=d)
        g = score_matrix(E, S)
        structure = maximum_branching(g)
        score = structure_score(g, structure)
        best = brute_force_best_score(g)
        assert score == pytest.approx(best, abs=1e-12), f"trial {trial}"
    report_pass("criterion 5: maximum branching optimal on 1000/1000 graphs")


def test_criterion_6_exact_tree_map_matches_enumeration():
    """exact_map equals exhaustive enumeration on 500 random trees, d <= 12."""
    rng = np.random.default_rng(19)
    from conftest import random_expert
    for trial in range(500):
        d = int(rng.integers(2, 13))
        expert = random_expert(rng, d=d, m=2)
        x = random_x(rng, 2)
        y, lp = exact_map(expert, x)
        Y = all_label_vectors(d)
        sign = 2.0 * Y - 1.0
        z = expert.logit_table(x)
        total = np.zeros(Y.shape[0])
        for i, p in enumerate(expert.structure.parent):
            v = np.zeros(Y.shape[0], dtype=np.intp) if p is None \
                else Y[:, p].astype(np.intp)
            total += -np.logaddexp(0.0, -sign[:, i] * z[i, v])
        best = int(np.argmax(total))
        assert np.array_equal(y, Y[best]), f"trial {trial}"
        assert abs(lp - total[best]) < 1e-9
    report_pass("criterion 6: exact tree MAP matched enumeration 500/500")


@pytest.mark.slow
def test_criterion_7_emotions_benchmark():
    """Ten-fold CV on emotions: EMA in [0.28, 0.42], CLL fold-sum mean in
    [100, 180], mixture EMA >= single-tree EMA - 0.02, all under 15 min."""
    label_names = ["amazed-suprised", "happy-pleased", "relaxing-calm",
                   "quiet-still", "sad-lonely", "angry-aggresive"]
    data = load_benchmark("emotions", d=6, label_names=label_names)
    assert (data.n, data.m, data.d) == (593, 72, 6)

    start = time.perf_counter()
    mixture_report = cross_validate(
        data, TrainConfig(max_experts=5, seed=42), k=10, standardize=True)
    elapsed = time.perf_counter() - start
    single_report = cross_validate(
        data, TrainConfig(max_experts=1, seed=42), k=10, standardize=True)

    ema = mixture_report.aggregate["ema"]["mean"]
    cll = mixture_report.aggregate["cll_loss"]["mean"]
    single_ema = single_report.aggregate["ema"]["mean"]
    assert elapsed < 900.0, f"mixture CV took {elapsed:.0f}s"
    assert 0.28 <= ema <= 0.42, f"EMA {ema:.3f} outside [0.28, 0.42]"
    assert 100.0 <= cll <= 180.0, f"CLL fold-sum mean {cll:.1f} outside [100, 180]"
    assert ema >= single_ema - 0.02, (
        f"mixture EMA {ema:.3f} < single-tree EMA {single_ema:.3f} - 0.02")
    report_pass(f"criterion 7: emotions EMA={ema:.3f} (single {single_ema:.3f}), "
                f"CLL={cll:.1f}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_scene_soft_target():
    """Scene is a soft target: the EMA is logged, never gated."""
    if not os.environ.get("MLME_RUN_SCENE"):
        pytest.skip("scene benchmark is optional and long; "
                    "set MLME_RUN_SCENE=1 (and provide data/scene.arff) to run")
    label_names = ["Beach", "Sunset", "FallFoliage", "Field", "Mountain", "Urban"]
    data = load_benchmark("scene", d=6, label_names=label_names)
    assert (data.n, data.m, data.d) == (2407, 294, 6)
    report = cross_validate(data, TrainConfig(max_experts=5, seed=42), k=10,
                            standardize=True)
    ema = report.aggregate["ema"]["mean"]
    status = "meets" if ema >= 0.63 else "below"
    report_pass(f"criterion 8 (soft): scene EMA={ema:.3f} {status} the 0.63 target")


def test_criterion_9_synthetic_mixture_recovery():
    """Two-regime data: K >= 2 accepted in >= 80% of 20 runs and the mixture
    beats the best single tree's test log-likelihood in >= 90%."""
    grew = 0
    wins = 0
    runs = 20
    for seed in range(runs):
        rng = np.random.default_rng(500 + seed)
        train = two_regime_dataset(rng, n=400)
        test = two_regime_dataset(rng, n=400)
        mixture = grow_mixture(train, TrainConfig(max_experts=3, lam=0.1,
                                                  seed=seed))
        single = grow_mixture(train, TrainConfig(max_experts=1, lam=0.1,
                                                 seed=seed))
        grew += mixture.k >= 2
        wins += (observed_log_likelihood(mixture, test)
                 > observed_log_likelihood(single, test))
    assert grew >= 0.8 * runs, f"grew K>=2 in only {grew}/{runs} runs"
    assert wins >= 0.9 * runs, f"beat single tree in only {wins}/{runs} runs"
    report_pass(f"criterion 9: K>=2 in {grew}/{runs}, "
                f"test-LL wins in {wins}/{runs}")


def test_criterion_10_bit_reproducibility(tmp_path):
    """Identical seeds give byte-identical serialized models and predictions;
    report JSON is byte-identical after dropping wall-clock fields."""
    rng = np.random.default_rng(33)
    data = two_regime_dataset(rng, n=120)
    csv_path = tmp_path / "data.csv"
    data.save_csv(csv_path)

    # library level: two growth runs serialize identically
    docs = []
    for _ in range(2):
        model = grow_mixture(data, TrainConfig(max_experts=2, lam=0.3, seed=4))
        docs.append(json.dumps(model_to_dict(model), sort_keys=True))
    assert docs[0] == docs[1]

    # CLI level: train and predict twice, byte-for-byte equal artifacts
    models, preds, reports = [], [], []
    for tag in ("a", "b"):
        model_path = tmp_path / f"model_{tag}.json"
        pred_path = tmp_path / f"preds_{tag}.csv"
        report_path = tmp_path / f"cv_{tag}.json"
        assert cli_main(["train", "--data", str(csv_path), "--labels", "4",
                         "--out", str(model_path), "--max-experts", "2",
                         "--lambda", "0.3", "--seed", "4"]) == 0
        assert cli_main(["predict", "--model", str(model_path),
                         "--data", str(csv_path), "--out", str(pred_path)]) == 0
        assert cli_main(["cv", "--data", str(csv_path), "--labels", "4",
                         "--folds", "2", "--out", str(report_path),
                         "--max-experts", "1", "--lambda", "0.3",
                         "--seed", "1"]) == 0
        models.append(model_path.read_bytes())
        preds.append(pred_path.read_bytes())
        doc = json.loads(report_path.read_text())
        for fold in doc["per_fold"]:
            fold.pop("wall_time")
        doc["aggregate"].pop("wall_time")
        reports.append(json.dumps(doc, sort_keys=True))
    assert models[0] == models[1]
    assert preds[0] == preds[1]
    assert reports[0] == reports[1]
    report_pass("criterion 10: training, prediction and reports reproduce "
                "byte-for-byte under fixed seeds")
