"""Seeded synthetic inputs for the benchmark workloads.

Every generator draws only from the ``numpy.random.Generator`` it is given,
so one seed always yields the same arrays.  The library receives nothing
but the generated arrays (through the files the workloads write).
"""

from __future__ import annotations

import numpy as np

from mlme.ctbn import CtbnExpert, TreeStructure
from mlme.dataset import Dataset
from mlme.logreg import LinearModel, sigmoid
from mlme.mixture import GatingModel, MixtureModel

# emotions shape: features and labels
EMOTIONS_M, EMOTIONS_D = 72, 6
# scene-sized features, wide labels, features the labels read
SCENE_M, SCENE_D, SCENE_INFORMATIVE = 294, 20, 16
REGIME_FLIP = 0.02          # chance a regime label copy is flipped
REGIME_SHARPNESS = 4.0      # slope of the regime roots' sigmoids
MIXTURE_K = 3               # experts of the fixed mixture


def regime_dataset(rng, n):
    """Emotions-shaped data: two coupled regimes and a coin-flip band.

    A widened version of the two-regime generator in the test suite.  x1 ~
    U(-3, 3) picks the regime: below -1 every label copies y_a ~
    Bernoulli(sigmoid(REGIME_SHARPNESS * x2)), above +1 every label copies
    y_b ~ Bernoulli(sigmoid(REGIME_SHARPNESS * x3)), each copy flipped with
    probability REGIME_FLIP; in between the labels are fair coins.  A single
    tree with logistic CPDs cannot sit at probability 1/2 in the middle band
    and saturate outside it, so mixture growth accepts a second expert.  The
    other EMOTIONS_M-3 features
    are N(0, 1) distractors, which make the largest lambda of the default
    grid win its cross-validation.
    """
    x1 = rng.uniform(-3, 3, n)
    x2 = rng.uniform(-2, 2, n)
    x3 = rng.uniform(-2, 2, n)
    rest = rng.normal(size=(n, EMOTIONS_M - 3))
    Y = (rng.random((n, EMOTIONS_D)) < 0.5).astype(np.int8)
    band = np.searchsorted([-1.0, 1.0], x1)
    ya = (rng.random(n) < sigmoid(REGIME_SHARPNESS * x2)).astype(np.int8)
    yb = (rng.random(n) < sigmoid(REGIME_SHARPNESS * x3)).astype(np.int8)
    noisy = rng.random((n, EMOTIONS_D)) < REGIME_FLIP
    for rows, root in ((band == 0, ya), (band == 2, yb)):
        Y[rows] = np.where(noisy[rows], 1 - root[rows, None], root[rows, None])
    return Dataset.from_raw(np.column_stack([x1, x2, x3, rest]), Y)


def random_forest(rng, d, extra_root=0.25):
    """Random forest over d nodes: each joins an earlier node or stays a root."""
    parent = [None] * d
    order = rng.permutation(d)
    for pos in range(1, d):
        if rng.random() < extra_root:
            continue
        parent[order[pos]] = int(order[rng.integers(pos)])
    return TreeStructure(tuple(parent))


def fixed_norm(rng, size, scale):
    """Random direction whose norm equals that of `size` N(0, scale^2) draws."""
    v = rng.normal(size=size)
    return v * (scale * np.sqrt(size) / np.linalg.norm(v))


def random_expert(rng, m, structure, informative, weight=2.5,
                  child_weight=None, coupling=5.0, noise=0.1):
    """Logistic CPDs that read `informative` leading features.

    Roots weigh those features with a random direction of norm
    weight * sqrt(informative), children likewise with child_weight
    (default: the same), so the logit spread is the same for every seed.  Child nodes get one
    weight vector per parent value; the two branches differ by a bias of
    +-`coupling`, so labels follow their parents.  The remaining features
    carry small weights.
    """
    child_weight = weight if child_weight is None else child_weight
    cpds = []
    for p in structure.parent:
        base = np.zeros(m + 1)
        scale = weight if p is None else child_weight
        base[1:1 + informative] = fixed_norm(rng, informative, scale)
        base[1 + informative:] = rng.normal(scale=noise, size=m - informative)
        if p is None:
            cpds.append((LinearModel(base, 0.0),))
            continue
        sign = rng.choice((-1.0, 1.0))
        branches = []
        for v in (0, 1):
            params = base.copy()
            params[0] = sign * coupling * (2 * v - 1)
            branches.append(LinearModel(params, 0.0))
        cpds.append(tuple(branches))
    return CtbnExpert(structure, tuple(cpds))


def sample_labels(rng, expert, X):
    """Ancestral sampling of one label vector per biased feature row."""
    n = X.shape[0]
    Y = np.zeros((n, expert.d), dtype=np.int8)
    table = expert.param_table()
    for i in expert.structure.topological_order():
        p = expert.structure.parent[i]
        z = X @ table[i, 0] if p is None else np.where(
            Y[:, p] == 1, X @ table[i, 1], X @ table[i, 0])
        Y[:, i] = rng.random(n) < sigmoid(z)
    return Y


def biased_normal_rows(rng, n, m):
    return np.hstack([np.ones((n, 1)), rng.normal(size=(n, m))])


class WideTreeSource:
    """Scene-sized features with wide labels drawn from one random tree.

    The tree is a single connected one, so every label carries its
    parent's signal, and its CPDs read SCENE_INFORMATIVE of the features;
    the held-out rows come from the same tree as the training rows.
    """

    def __init__(self, rng):
        structure = random_forest(rng, SCENE_D, extra_root=0.0)
        # coupling 5.5 keeps held-out EMA near 0.8; at 6 the held-out CLL
        # varied by 20% between seeds, at 4 the EMA fell to 0.3
        self.expert = random_expert(rng, SCENE_M, structure, SCENE_INFORMATIVE,
                                    weight=3.0, child_weight=0.3, coupling=5.5,
                                    noise=0.02)

    def sample(self, rng, n):
        X = biased_normal_rows(rng, n, SCENE_M)
        return Dataset(X, sample_labels(rng, self.expert, X))


def fixed_mixture(rng):
    """A MIXTURE_K-expert emotions-shaped mixture built from the seed, never trained.

    The gate splits the input space along feature 1 (experts own low,
    middle and high x1), and each expert has its own random forest whose
    CPDs read the first EMOTIONS_D features.
    """
    k, m = MIXTURE_K, EMOTIONS_M
    experts = tuple(random_expert(rng, m, random_forest(rng, EMOTIONS_D), EMOTIONS_D)
                    for _ in range(k))
    theta = rng.normal(scale=0.1, size=(k, m + 1))
    theta[:, 1] += 3.0 * np.linspace(-1.0, 1.0, k)
    theta[:, 0] += np.where(np.arange(k) == k // 2, 1.5, 0.0)
    return MixtureModel(experts, GatingModel(theta))


def sample_mixture(rng, model, n):
    """Rows whose labels come from the expert the gate draws for them."""
    X = biased_normal_rows(rng, n, model.n_features - 1)
    Z = X @ model.gating.theta.T
    G = np.exp(Z - Z.max(axis=1, keepdims=True))
    G /= G.sum(axis=1, keepdims=True)
    owner = (rng.random(n)[:, None] > np.cumsum(G, axis=1)).sum(axis=1)
    owner = np.minimum(owner, model.k - 1)
    Y = np.zeros((n, model.d), dtype=np.int8)
    for j, expert in enumerate(model.experts):
        Yj = sample_labels(rng, expert, X)
        Y[owner == j] = Yj[owner == j]
    return Dataset(X, Y)
