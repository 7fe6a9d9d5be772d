"""Conditional tree-structured Bayesian network experts.

An expert is a forest over the d class variables (each node has at most one
class parent) plus per-node logistic CPDs: children carry two models keyed
by the parent's label value, roots carry one.  The joint conditional
probability factorizes over nodes, and the exact MAP assignment is found by
one upward max-sum pass and one downward backtracking pass per tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, as_weight_array
from .errors import ArgumentError, check_width
from .logreg import LinearModel, logistic_log_prob, train_columns


@dataclass(frozen=True)
class TreeStructure:
    """Parent map over class nodes; None marks a root. Must be a forest."""

    parent: tuple[Optional[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "parent", tuple(
            None if p is None else int(p) for p in self.parent))
        d = len(self.parent)
        if d < 1:
            raise ArgumentError("structure needs at least one node")
        for i, p in enumerate(self.parent):
            if p is None:
                continue
            if not 0 <= p < d:
                raise ArgumentError(f"parent[{i}]={p} out of range")
            if p == i:
                raise ArgumentError(f"node {i} cannot be its own parent")
        # a node whose walk up never reaches a root is on or below a cycle
        stuck = sorted(set(range(d)) - set(self.topological_order()))
        if stuck:
            raise ArgumentError(f"cycle detected through node {stuck[0]}")

    @property
    def d(self) -> int:
        return len(self.parent)

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.parent) if p is None)

    @cached_property
    def parent_index(self) -> np.ndarray:
        """(d,) parent of each node for tree_log_prob; roots point at d."""
        index = np.array([self.d if p is None else p for p in self.parent],
                         dtype=np.intp)
        index.flags.writeable = False
        return index

    @cached_property
    def levels(self) -> tuple[np.ndarray, ...]:
        """Nodes grouped by depth, roots first, for max_sum.

        Within a depth, nodes are in reverse topological order, so max_sum
        adds each parent's child messages in the order of a node-by-node
        pass over reversed(topological_order()).
        """
        depth = [0] * self.d
        levels: list[list[int]] = [[] for _ in range(self.d)]
        order = self.topological_order()
        for i in order:
            p = self.parent[i]
            depth[i] = 0 if p is None else depth[p] + 1
        for i in reversed(order):
            levels[depth[i]].append(i)
        return tuple(np.array(nodes, dtype=np.intp) for nodes in levels if nodes)

    def children(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in range(self.d)]
        for i, p in enumerate(self.parent):
            if p is not None:
                ch[p].append(i)
        return ch

    def topological_order(self) -> list[int]:
        """Node order with every parent before its children."""
        ch = self.children()
        order: list[int] = []
        stack = list(reversed(self.roots))
        while stack:
            i = stack.pop()
            order.append(i)
            stack.extend(reversed(ch[i]))
        return order


@dataclass(frozen=True)
class CtbnExpert:
    """A tree structure plus logistic CPDs for each class node."""

    structure: TreeStructure
    cpds: tuple[tuple[LinearModel, ...], ...]

    def __post_init__(self):
        d = self.structure.d
        if len(self.cpds) != d:
            raise ArgumentError("cpds length must equal node count")
        for i, models in enumerate(self.cpds):
            want = 1 if self.structure.parent[i] is None else 2
            if len(models) != want:
                raise ArgumentError(
                    f"node {i} expects {want} CPD model(s), got {len(models)}")
        dims = {m.params.shape[0] for models in self.cpds for m in models}
        if len(dims) != 1:
            raise ArgumentError("all CPD parameter vectors must share one length")

    @property
    def d(self) -> int:
        return self.structure.d

    @property
    def n_features(self) -> int:
        """Parameter vector length m+1 (bias included)."""
        return self.cpds[0][0].params.shape[0]

    def param_table(self) -> np.ndarray:
        """(d, 2, m+1) stacked CPD weights; the root row is duplicated."""
        table = getattr(self, "_param_table", None)
        if table is None:
            table = np.array([[ms[0].params, ms[-1].params] for ms in self.cpds])
            table.flags.writeable = False
            object.__setattr__(self, "_param_table", table)
        return table


def check_feature_rows(x, width: int, batch: bool = False) -> np.ndarray:
    """``x`` as float64, checked: one finite row of ``width``, or N when batch."""
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != (2 if batch else 1):
        want = "an (N, m+1) feature matrix" if batch else "one feature vector"
        raise ArgumentError(f"expected {want}, got shape {X.shape}")
    if X.shape[-1] != width:
        raise ArgumentError(
            f"feature rows must have m+1 = {width} entries, got {X.shape[-1]}")
    if not np.all(np.isfinite(X)):
        raise ArgumentError("feature vector must be finite")
    return X


def check_label_vector(y, d: int) -> np.ndarray:
    """``y`` as an array, checked to be one vector of d labels, each 0 or 1."""
    y = np.asarray(y)
    if y.shape != (d,):
        raise ArgumentError(
            f"label vector must have d = {d} entries, got shape {y.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise ArgumentError("label values must be 0 or 1")
    return y


def all_label_vectors(d: int) -> np.ndarray:
    """(2^d, d) int8 matrix of label vectors in lexicographic order."""
    return (np.arange(2 ** d)[:, None] >> np.arange(d - 1, -1, -1) & 1).astype(np.int8)


def row_logits(params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(n, ..., d, 2) logits z[r, ..., i, v] = theta_{i|parent=v} . X[r].

    ``params`` is a (d, 2, m+1) param_table or a (..., d, 2, m+1) stack of
    them, ``X`` an (n, m+1) matrix.  Each row's product is taken on its
    own, so a batch equals its single-row calls bit for bit.
    """
    n, width = X.shape
    return (params @ X.reshape(n, *(1,) * (params.ndim - 2), width, 1))[..., 0]


def node_term_table(logits: np.ndarray) -> np.ndarray:
    """(..., d, 2, 2) t[..., i, v, u] = log P(y_i = u | x, parent = v)."""
    return logistic_log_prob(logits[..., None], np.array([0, 1]))


def _parent_labels(parent_index: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Y[..., parent_index]: each node's parent label, 0 for a root (index d)."""
    padded = np.zeros(Y.shape[:-1] + (Y.shape[-1] + 1,), dtype=Y.dtype)
    padded[..., :-1] = Y
    return padded[..., parent_index]


def term_index(parent_index: np.ndarray, Y: np.ndarray,
               grid: tuple[int, ...]) -> np.ndarray:
    """Flat index of t[..., i, y_parent(i), y_i] in a node-term table for label rows Y.

    Node g of the table's node ``grid`` (its shape[:-2], in C order) holds
    t[g, v, u] at 4 * g + 2 * v + u.  Y (0/1, integer or float) and
    parent_index are as in tree_log_prob.
    """
    Y = np.asarray(Y).astype(np.intp)
    own = Y if parent_index.ndim == 1 else Y[..., None, :]
    offsets = 4 * np.arange(math.prod(grid)).reshape(grid)
    return offsets + 2 * _parent_labels(parent_index, Y) + own


def tree_log_prob(table: np.ndarray, parent_index: np.ndarray,
                  Y: np.ndarray) -> np.ndarray:
    """log P(y | x) = sum_i t[i, y_parent(i), y_i] for every (y, expert).

    The row kernel: it gathers each node's term from a node_term_table t and
    sums the terms in node order, so a row's table, built once, scores many
    label vectors with no log-sigmoid.  ``Y`` is (..., d) binary and
    ``parent_index`` (d,) or (K, d) as TreeStructure.parent_index (roots
    take branch 0); table.shape[:-2] broadcasts with Y.shape[:-1] +
    parent_index.shape.
    """
    return node_order_sum(table.take(
        term_index(parent_index, Y, table.shape[:-2])))


def node_order_sum(terms: np.ndarray) -> np.ndarray:
    """Sum per-node terms over the last axis in node order, starting from 0.0.

    Bit-identical to a scalar loop over nodes, including the sign of an
    all-zero sum.
    """
    return 0.0 + np.cumsum(terms, axis=-1)[..., -1]


def joint_log_prob(expert: CtbnExpert, x: np.ndarray, y: Sequence[int]) -> float:
    """log P(y | x) = sum_i log P(y_i | x, y_parent(i)); always <= 0."""
    x = check_feature_rows(x, expert.n_features)
    y = check_label_vector(y, expert.d)
    table = node_term_table(row_logits(expert.param_table(), x[None]))[0]
    return float(tree_log_prob(table, expert.structure.parent_index, y))


def node_log_probs(params: np.ndarray, parent_index: np.ndarray,
                   data: Dataset) -> np.ndarray:
    """(N, ..., d) per-node terms log P(y_i | x, y_parent(i)) of every instance.

    ``params`` is (d, 2, m+1) as from CtbnExpert.param_table with
    ``parent_index`` (d,), or a (K, d, 2, m+1) stack of such tables
    (MixtureModel.param_stack) with (K, d) parent indices, giving (N, K, d)
    terms with each expert's bits.  The dataset kernel: each row is scored
    once, so it selects each node's logit by its parent's label before one
    log-sigmoid (a table takes four), and gives tree_log_prob's terms.
    """
    if params.shape[-3] != data.d:
        raise ArgumentError("expert and dataset label counts differ")
    Z = np.einsum("...ivp,np->n...iv", params, data.features)
    z = np.where(_parent_labels(parent_index, data.labels) == 1,
                 Z[..., 1], Z[..., 0])
    labels = data.labels.reshape(data.n, *(1,) * (parent_index.ndim - 1), data.d)
    return logistic_log_prob(z, labels)


def max_sum(table: np.ndarray, structure: TreeStructure) -> np.ndarray:
    """(N, d) int8 exact MAP label rows of one tree for N node-term tables.

    ``table`` is (N, d, 2, 2) as from node_term_table.  One upward pass
    (children before parents) computes, for each node and each possible
    parent value, the best achievable subtree score and the arg-max label;
    one downward pass reads the assignment off.  Both passes take all nodes
    of one depth at a time.  Ties prefer label 0, so each row is a pure
    function of its table.
    """
    n, d = table.shape[0], structure.d
    parent = structure.parent_index            # roots point at d
    levels = structure.levels
    # child_sum[:, i, u] = sum of children's best-score messages given y_i = u;
    # row d collects the roots' messages and is never read
    child_sum = np.zeros((n, d + 1, 2))
    choice = np.zeros((n, d, 2), dtype=bool)  # arg-max label of i given v
    for nodes in reversed(levels):
        s = table[:, nodes] + child_sum[:, nodes, None, :]   # s[:, node, v, u]
        pick = s[..., 1] > s[..., 0]
        choice[:, nodes] = pick
        np.add.at(child_sum, (slice(None), parent[nodes]),
                  np.where(pick, s[..., 1], s[..., 0]))

    y = np.zeros((n, d + 1), dtype=np.int8)    # column d: roots' parent value 0
    for nodes in levels:
        y[:, nodes] = np.where(y[:, parent[nodes]] == 1,
                               choice[:, nodes, 1], choice[:, nodes, 0])
    return y[:, :d]


def exact_map(expert: CtbnExpert, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact MAP assignment of one tree via max-sum, with its log-probability."""
    x = check_feature_rows(x, expert.n_features)
    table = node_term_table(row_logits(expert.param_table(), x[None]))
    y = max_sum(table, expert.structure)[0]
    return y, float(tree_log_prob(table[0], expert.structure.parent_index, y))


def train_parameters(
    structure: TreeStructure,
    data: Dataset,
    w,
    lam: float,
    init: CtbnExpert | None = None,
) -> CtbnExpert:
    """Fit all CPDs of a fixed structure on instance-weighted data.

    The one-structure case of train_experts; ``init`` warm-starts each fit
    from the same node's previous parameters.
    """
    w = as_weight_array(w, data.n)
    return train_experts([structure], data, w[:, None], lam,
                         None if init is None else [init])[0]


def train_experts(
    structures: Sequence[TreeStructure],
    data: Dataset,
    W: np.ndarray,
    lam: float,
    init: Sequence[CtbnExpert] | None = None,
    maxiter: int | None = None,
) -> tuple[CtbnExpert, ...]:
    """Fit every CPD of every structure in one lockstep solve on the full X.

    Column k of ``W`` (N, K) weights structure k.  Roots train on those
    weights; child i's model for parent value v trains on them times
    [y_parent(i) = v], so a branch whose parent value never occurs ends up
    penalty-only (params stay 0 from a cold start).  ``init`` warm-starts
    each fit from the same CPD of the k-th previous expert; ``maxiter`` caps
    the solve's L-BFGS iterations (logreg.minimize).
    """
    if init is not None and len(init) != len(structures):
        raise ArgumentError("need one warm-start expert per structure")
    X, Y = data.features, data.labels
    nodes, weights, starts = [], [], []
    for k, structure in enumerate(structures):
        if structure.d != data.d:
            raise ArgumentError("structure size does not match dataset labels")
        if init is not None:
            if init[k].structure.parent != structure.parent:
                raise ArgumentError("warm-start expert has a different structure")
            check_width("warm-start expert", init[k].n_features, X.shape[1])
        w = as_weight_array(W[:, k], data.n)
        for i, p in enumerate(structure.parent):
            for v in _branch_values(p):
                nodes.append(i)
                weights.append(w if p is None else w * (Y[:, p] == v))
                starts.append(np.zeros(X.shape[1]) if init is None
                              else init[k].cpds[i][v].params)
    params = iter(train_columns(X, Y[:, nodes], np.column_stack(weights), lam,
                                np.column_stack(starts), maxiter).T)
    return tuple(
        CtbnExpert(s, tuple(tuple(LinearModel(next(params), lam)
                                  for _ in _branch_values(p)) for p in s.parent))
        for s in structures)


def _branch_values(parent: Optional[int]) -> tuple[int, ...]:
    """Parent values v with a CPD of their own: a root has one model (v=0)."""
    return (0,) if parent is None else (0, 1)
