"""Tree structure learning from instance-weighted data.

The class-dependency digraph has one node per class, an edge j -> i scored
by the weighted hold-out log-likelihood of predicting Y_i from (X, Y_j),
and a per-node "no class parent" score from the unconditional model
P(Y_i | X).  The best forest is the maximum branching of that graph, found
by Chu-Liu/Edmonds after folding the no-parent scores into edges from a
virtual root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctbn import TreeStructure, train_parameters, tree_terms
from .dataset import Dataset, as_weight_array, holdout_split
from .errors import ArgumentError
from .logreg import DEFAULT_OPTIMIZER, OptimizerConfig


@dataclass(frozen=True)
class WeightedDigraph:
    """Dense class-dependency graph; diagonal of edge_weight is unused."""

    edge_weight: np.ndarray  # (d, d), [j, i] scores the edge j -> i
    self_weight: np.ndarray  # (d,)   scores "no class parent" per node

    def __post_init__(self):
        E = np.asarray(self.edge_weight, dtype=np.float64)
        S = np.asarray(self.self_weight, dtype=np.float64)
        if E.ndim != 2 or E.shape[0] != E.shape[1]:
            raise ArgumentError("edge_weight must be square")
        if S.shape != (E.shape[0],):
            raise ArgumentError("self_weight length must match edge_weight")
        if not (np.all(np.isfinite(S)) and np.all(np.isfinite(
                E[~np.eye(E.shape[0], dtype=bool)] if E.shape[0] > 1 else E[:0]))):
            raise ArgumentError("graph weights must be finite")
        object.__setattr__(self, "edge_weight", E)
        object.__setattr__(self, "self_weight", S)

    @property
    def d(self) -> int:
        return self.self_weight.shape[0]

    def structure_score(self, structure: TreeStructure) -> float:
        """Sum of the chosen parent-option weights for a given forest."""
        total = 0.0
        for i, p in enumerate(structure.parent):
            total += self.self_weight[i] if p is None else self.edge_weight[p, i]
        return float(total)


def build_graph(
    train: Dataset,
    train_w,
    holdout: Dataset,
    holdout_w,
    lam: float,
    cfg: OptimizerConfig = DEFAULT_OPTIMIZER,
) -> WeightedDigraph:
    """Score every parent option by weighted hold-out log-likelihood.

    For each label j a star expert (j a root and the parent of every other
    label) is trained on the training part.  Its root CPD is the
    unconditional model of Y_j and each child CPD is the two-branch model of
    Y_i given (X, Y_j), so the weighted holdout sums of its per-node terms
    are the self weight of j and the weights of every edge j -> i.  The
    star experts are scoring devices only and are discarded.
    """
    if (train.m, train.d) != (holdout.m, holdout.d):
        raise ArgumentError("train and holdout must share feature/label dims")
    d = train.d
    wh = as_weight_array(holdout_w, holdout.n)
    Xh, Yh = holdout.features, holdout.labels

    self_weight = np.zeros(d)
    edge_weight = np.zeros((d, d))
    for j in range(d):
        star = TreeStructure(tuple(None if i == j else j for i in range(d)))
        expert = train_parameters(star, train, train_w, lam, cfg)
        # One matrix-vector product per CPD and one dot product per node:
        # batched products sum in another order and move the last bits.
        logits = np.stack([np.stack([Xh @ models[0].params,
                                     Xh @ models[-1].params], axis=-1)
                           for models in expert.cpds], axis=1)
        terms = tree_terms(logits, star.parent_index, Yh)
        scores = np.array([wh @ t for t in np.ascontiguousarray(terms.T)])
        self_weight[j] = scores[j]
        edge_weight[j] = scores
        edge_weight[j, j] = 0.0
    return WeightedDigraph(edge_weight, self_weight)


def maximum_branching(g: WeightedDigraph) -> TreeStructure:
    """Best forest under the graph's weights via Chu-Liu/Edmonds.

    The "no parent" option becomes an edge from a virtual root, so the
    problem is a maximum spanning arborescence on d+1 nodes.  Ties prefer
    the virtual root, then the smaller parent index, making the result
    deterministic.
    """
    d = g.d
    root = d
    edges: dict[tuple[int, int], float] = {}
    for i in range(d):
        edges[(root, i)] = float(g.self_weight[i])
        for j in range(d):
            if j != i:
                edges[(j, i)] = float(g.edge_weight[j, i])
    nodes = set(range(d + 1))
    parent_of = _max_arborescence(nodes, edges, root, next_id=d + 1)
    return TreeStructure(tuple(
        None if parent_of[i] == root else parent_of[i] for i in range(d)))


def _pick_best_incoming(nodes, edges, root):
    """Best incoming edge per non-root node; prefers root then low index."""
    best: dict[int, tuple[int, float]] = {}
    for v in nodes:
        if v == root:
            continue
        chosen = None
        for u in sorted(nodes, key=lambda u: (u != root, u)):
            w = edges.get((u, v))
            if w is None:
                continue
            if chosen is None or w > chosen[1]:
                chosen = (u, w)
        if chosen is None:
            raise ArgumentError(f"node {v} has no incoming edge")
        best[v] = chosen
    return best


def _find_cycle(best, root):
    """A cycle in the chosen-parent graph, or None."""
    for start in best:
        seen = []
        seen_set = set()
        v = start
        while v != root and v in best:
            if v in seen_set:
                return seen[seen.index(v):]
            seen.append(v)
            seen_set.add(v)
            v = best[v][0]
    return None


def _max_arborescence(nodes, edges, root, next_id):
    """Recursive Chu-Liu/Edmonds on a dense edge dict (maximization)."""
    best = _pick_best_incoming(nodes, edges, root)
    cycle = _find_cycle(best, root)
    if cycle is None:
        return {v: u for v, (u, _) in best.items()}

    cyc_set = set(cycle)
    c = next_id
    new_edges: dict[tuple[int, int], float] = {}
    out_src: dict[int, int] = {}          # target v -> real source u for (c, v)
    in_dst: dict[int, tuple[int, int]] = {}  # source u -> real (u, v in cycle)
    for (u, v), w in sorted(edges.items()):
        if u in cyc_set and v in cyc_set:
            continue
        if u in cyc_set:
            key = (c, v)
            if key not in new_edges or w > new_edges[key]:
                new_edges[key] = w
                out_src[v] = u
        elif v in cyc_set:
            adj = w - best[v][1]
            key = (u, c)
            if key not in new_edges or adj > new_edges[key]:
                new_edges[key] = adj
                in_dst[u] = (u, v)
        else:
            new_edges[(u, v)] = w

    sub_nodes = (nodes - cyc_set) | {c}
    sub = _max_arborescence(sub_nodes, new_edges, root, next_id + 1)

    parent: dict[int, int] = {}
    broken_entry = None
    for v, u in sub.items():
        if v == c:
            broken_entry = in_dst[u]
        elif u == c:
            parent[v] = out_src[v]
        else:
            parent[v] = u
    enter_u, enter_v = broken_entry
    parent[enter_v] = enter_u
    for v in cycle:
        if v != enter_v:
            parent[v] = best[v][0]
    return parent


def learn_structure(
    data: Dataset,
    w,
    lam: float,
    holdout_ratio: float = 0.25,
    seed: int = 0,
    cfg: OptimizerConfig = DEFAULT_OPTIMIZER,
) -> TreeStructure:
    """Split, score every parent option on the holdout, take the best forest."""
    (train, train_w), (hold, hold_w) = holdout_split(data, w, holdout_ratio, seed)
    graph = build_graph(train, train_w, hold, hold_w, lam, cfg)
    return maximum_branching(graph)
