"""Tree structure learning from instance-weighted data.

The class-dependency digraph has one node per class, an edge j -> i scored
by the weighted hold-out log-likelihood of predicting Y_i from (X, Y_j),
and a per-node "no class parent" score from the unconditional model
P(Y_i | X).  The best forest is the maximum branching of that graph, found
by Chu-Liu/Edmonds after folding the no-parent scores into edges from a
virtual root.
"""

from __future__ import annotations

import numpy as np

from .ctbn import TreeStructure, node_log_probs
from .dataset import Dataset, as_weight_array, holdout_split
from .errors import ArgumentError
from .logreg import train_columns

HOLDOUT_RATIO = 0.25  # share of the data that scores the parent options


def build_graph(
    train: Dataset,
    train_w,
    holdout: Dataset,
    holdout_w,
    lam: float,
) -> np.ndarray:
    """Score every parent option by weighted hold-out log-likelihood.

    Returns the (d+1, d+1) score matrix W of maximum_branching: W[j, i]
    scores the edge j -> i and W[d, i] the "no class parent" option of i;
    the diagonal and column d are -inf.

    For each label j a star expert (j a root and the parent of every other
    label) is trained on the training part.  Its root CPD is the
    unconditional model of Y_j and each child CPD is the two-branch model of
    Y_i given (X, Y_j), so the weighted holdout sums of its per-node terms
    are the no-parent score of j and the scores of every edge j -> i.  Each
    star is scored as its (d, 2, m+1) CPD table; no expert is built.

    The d root models share the whole training matrix and are fit in one
    lockstep solve; the children of star j given y_j = v share that row
    slice and are fit in one solve each, so 2d + 1 solves cover all
    d(2d - 1) models.
    """
    if (train.m, train.d) != (holdout.m, holdout.d):
        raise ArgumentError("train and holdout must share feature/label dims")
    d = train.d
    X, Y = train.features, train.labels
    w = as_weight_array(train_w, train.n)
    wh = as_weight_array(holdout_w, holdout.n)

    roots = train_columns(X, Y, np.repeat(w[:, None], d, axis=1), lam).T
    W = np.full((d + 1, d + 1), -np.inf)
    for j in range(d):
        others = [i for i in range(d) if i != j]
        branches = np.zeros((d, 2, X.shape[1]))
        branches[j] = roots[j]
        for v in (0, 1):
            rows = Y[:, j] == v
            branches[others, v] = train_columns(
                X[rows], Y[rows][:, others],
                np.repeat(w[rows, None], len(others), axis=1), lam).T
        star = np.where(np.arange(d) == j, d, j)      # parent index; j is root
        W[j, :d] = wh @ node_log_probs(branches, star, holdout)
        W[d, j] = W[j, j]                              # j's root term
    np.fill_diagonal(W, -np.inf)
    return W


def maximum_branching(W) -> TreeStructure:
    """Best forest under a (d+1, d+1) score matrix via Chu-Liu/Edmonds.

    W[j, i] scores the edge j -> i and row d the "no parent" option, an edge
    from a virtual root, so the problem is a maximum spanning arborescence
    of the (d+1)-node matrix.  The diagonal and column d are ignored; every
    other entry must be finite.  Tie rule, which makes the result a pure
    function of the weights:

    - each node's best parent is the first maximum in the order root, 0,
      1, ... (contracted nodes come after every original node);
    - the cycle contracted is the first one met walking best-parent
      pointers from node 0, 1, ... in turn;
    - an edge leaving a contracted cycle comes from its lowest tying cycle
      node, and an edge entering it goes to its lowest tying cycle node.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1] or W.shape[0] < 2:
        raise ArgumentError("score matrix must be (d+1, d+1) with d >= 1")
    d = W.shape[0] - 1
    ignored = np.eye(d + 1, dtype=bool)
    ignored[:, d] = True
    if not np.isfinite(W[~ignored]).all():
        raise ArgumentError("edge and no-parent scores must be finite")
    parent = _arborescence(np.where(ignored, -np.inf, W), root=d)
    return TreeStructure(tuple(None if p == d else int(p) for p in parent[:d]))


def _arborescence(W: np.ndarray, root: int) -> np.ndarray:
    """Parent of each node in a maximum arborescence of W, by recursion.

    A cycle of best parents becomes a new last node; its nodes' rows and
    columns go to -inf, so they point at the root until the expansion
    resets them.  The root's own entry is the root.
    """
    n = W.shape[0]
    order = np.r_[root, np.delete(np.arange(n), root)]
    best = order[np.argmax(W[order], axis=0)]
    cycle = _first_cycle(best, root)
    if cycle is None:
        return best
    cycle = np.sort(cycle)
    c = n
    src = cycle[np.argmax(W[cycle], axis=0)]       # leaving: v -> cycle source
    entering = W[:, cycle] - W[best[cycle], cycle]
    dst = cycle[np.argmax(entering, axis=1)]       # entering: u -> cycle target
    sub = np.full((n + 1, n + 1), -np.inf)
    sub[:n, :n] = W
    sub[c, :n] = W[cycle].max(axis=0)
    sub[:n, c] = entering.max(axis=1)
    sub[cycle, :] = -np.inf
    sub[:, cycle] = -np.inf
    parent = _arborescence(sub, root)
    u = parent[c]
    parent = np.where(parent[:n] == c, src, parent[:n])
    parent[cycle] = best[cycle]
    parent[dst[u]] = u
    return parent


def _first_cycle(best: np.ndarray, root: int) -> list[int] | None:
    """Nodes of the first cycle met walking best parents from 0, 1, ..."""
    for start in range(len(best)):
        path: list[int] = []
        v = start
        while v != root and v not in path:
            path.append(v)
            v = int(best[v])
        if v != root:
            return path[path.index(v):]
    return None


def learn_structure(
    data: Dataset,
    w,
    lam: float,
    seed: int = 0,
) -> TreeStructure:
    """Split, score every parent option on the holdout, take the best forest.

    A seeded HOLDOUT_RATIO share of the rows is the holdout; build_graph
    fits on the rest.

    ``lam``'s strength depends on the mass of ``w``: grow_mixture passes
    omega (mass 1), while select_lambda and EM see mass n, so structure
    scoring penalizes about n times harder.  Its fits stop at the absolute
    gtol, the floor of logreg.minimize's rule of gtol per unit of weight
    mass, since omega's parts never weigh more than 1.
    """
    (train, train_w), (hold, hold_w) = holdout_split(data, w, HOLDOUT_RATIO, seed)
    return maximum_branching(build_graph(train, train_w, hold, hold_w, lam))
