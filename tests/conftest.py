"""Shared random-model builders and synthetic data generators."""

import numpy as np

from mlme.ctbn import CtbnExpert, TreeStructure
from mlme.dataset import Dataset
from mlme.logreg import LinearModel, sigmoid
from mlme.mixture import GatingModel, MixtureModel


def random_structure(rng, d):
    """Random forest: each node may attach to any earlier node in a random order."""
    parent = [None] * d
    order = rng.permutation(d)
    for pos in range(1, d):
        if rng.random() < 0.25:
            continue  # extra root
        parent[order[pos]] = int(order[rng.integers(pos)])
    return TreeStructure(tuple(parent))


def random_expert(rng, d, m, scale=1.5, structure=None):
    structure = structure if structure is not None else random_structure(rng, d)
    cpds = []
    for p in structure.parent:
        n_models = 1 if p is None else 2
        cpds.append(tuple(
            LinearModel(rng.normal(scale=scale, size=m + 1), 0.0)
            for _ in range(n_models)))
    return CtbnExpert(structure, tuple(cpds))


def random_mixture(rng, k, d, m, scale=1.5):
    experts = tuple(random_expert(rng, d, m, scale) for _ in range(k))
    gate = GatingModel(rng.normal(scale=1.0, size=(k, m + 1)))
    return MixtureModel(experts, gate)


def random_x(rng, m):
    return np.concatenate([[1.0], rng.normal(size=m)])


def sample_labels(rng, expert, X):
    """Ancestral sampling of label vectors for each (biased) feature row."""
    n = X.shape[0]
    Y = np.zeros((n, expert.d), dtype=np.int8)
    table = expert.param_table()
    for i in expert.structure.topological_order():
        p = expert.structure.parent[i]
        if p is None:
            z = X @ table[i, 0]
        else:
            z = np.where(Y[:, p] == 1, X @ table[i, 1], X @ table[i, 0])
        Y[:, i] = rng.random(n) < sigmoid(z)
    return Y


def near_uniform_responsibilities(rng, n, k):
    """(n, k) EM start: uniform rows, slightly perturbed, each summing to 1."""
    h = 1.0 + 0.01 * rng.random((n, k))
    return h / h.sum(axis=1, keepdims=True)


def expert_dataset(rng, n, d, m, scale=1.5):
    """Features ~ N(0,1) with labels sampled from one random expert."""
    expert = random_expert(rng, d, m, scale)
    X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, m))])
    Y = sample_labels(rng, expert, X)
    return Dataset(X, Y), expert


def two_regime_dataset(rng, n, d=4):
    """Two gated regimes: labels chained to label 0 for x1 > 0, coin flips below.

    A lone tree with logistic CPDs cannot sit at probability 0.5 on one half
    of the input space while saturating on the other, so a gated pair of
    experts genuinely fits this better.
    """
    x1 = rng.uniform(-2, 2, n)
    x2 = rng.uniform(-2, 2, n)
    Y = np.zeros((n, d), dtype=np.int8)
    y0 = (rng.random(n) < sigmoid(2 * x2)).astype(np.int8)
    Y[:, 0] = y0
    coupled = x1 > 0
    n_noise = int((~coupled).sum())
    for j in range(1, d):
        Y[coupled, j] = y0[coupled]
        Y[~coupled, j] = rng.random(n_noise) < 0.5
    return Dataset.from_raw(np.column_stack([x1, x2]), Y)
