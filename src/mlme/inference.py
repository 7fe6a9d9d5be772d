"""MAP prediction for the mixture.

Exact MAP on one tree is a max-sum pass; the gate couples the experts, so
the mixture's MAP is found by branch and bound over partial label
assignments (as AND/OR branch and bound, Marinescu & Dechter, 2009).  Each
expert's max-sum under a node's fixed labels gives a candidate, and since
log sum_k g_k P_k(y) <= log sum_k g_k max_y P_k(y) their maxima bound the
node.  A node is solved when the arg-maxes agree, pruned when its bound
does not beat the row's best candidate, and else branches on the first
labels where they disagree.  A small label space (K >= 2, d <= ENUMERATE_LABELS
and 2^d within the node budget) skips the search: every label vector is
scored in one gather, which costs less than a few search rounds there.
enumerate_map, the same scoring one row at a time, is the test oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import ctbn
from .ctbn import all_label_vectors
from .errors import GuardError, UncertifiedMapWarning, check_count
from .mixture import MixtureModel, _MixtureScorer, logsumexp

ENUMERATION_GUARD = 20  # enumerate_map refuses label spaces beyond 2^20
BRANCH_LABELS = 3       # labels fixed per branching: up to 8 children a node
SEARCH_ROWS = 64        # rows searched together; bounds the frontier's memory
ENUMERATE_LABELS = 7    # up to 2^7 label vectors are scored, not searched


@dataclass(frozen=True)
class AnnealConfig:
    """Settings of the MAP search.

    ``iterations`` is each row's node budget.  A row whose search would
    evaluate more nodes keeps its best candidate so far, which is never
    below heuristic_init's, and is uncertified: map_predict and
    predict_dataset raise one UncertifiedMapWarning per call that has such
    rows.  A budget of 1 returns heuristic_init's answer.  A row whose
    2^d label vectors are enumerated spends 2^d of the budget.
    ``seed`` changes no answer, since the search draws no random numbers;
    it is kept, and checked, for callers that set it.
    """

    iterations: int = 150
    seed: int = 0

    def __post_init__(self):
        check_count(self.iterations, "iterations", 1)
        check_count(self.seed, "seed", 0)


def _evaluate(scorer: _MixtureScorer, rows: np.ndarray, fixed: np.ndarray):
    """Per-expert arg-maxes Y (F, K, d), their mixture scores (F, K) and bounds (F,).

    Node f is row rows[f] with labels fixed[f] (-1 where free).  A copy of
    the rows' tables sets excluded label values to -inf; one max-sum over
    the experts' forest on it gives expert k's arg-max Y[f, k], and one
    gather from it scores every arg-max under every expert, S[f, c, k] =
    log P_k(Y[f, c] | x).  That is exact: every arg-max honours its node's
    fixings.  The bound is logsumexp_k(log g_k + S[f, k, k]).
    """
    excluded = (fixed[..., None] >= 0) & (fixed[..., None] != np.arange(2))
    table = np.where(excluded[:, None, :, None, :], -np.inf, scorer.table[rows])
    F, K, d = table.shape[:3]
    model = scorer.model
    Y = ctbn.max_sum(table.reshape(F, K * d, 2, 2), model.forest).reshape(F, K, d)
    S = ctbn.tree_log_prob(table[:, None], model.parent_stack, Y)
    log_gate = scorer.log_gate[rows]
    return (Y, logsumexp(log_gate[:, None] + S, axis=-1),
            logsumexp(log_gate + np.diagonal(S, axis1=1, axis2=2), axis=-1))


def _improve(best, best_lp, rows, Y, scores) -> None:
    """Set each row's incumbent to the best of it and its new candidates.

    The higher score wins; equal scores go to the smaller label vector, as
    in enumerate_map.
    """
    r = np.concatenate([np.repeat(rows, Y.shape[1]), rows])
    y = np.concatenate([Y.reshape(-1, Y.shape[2]), best[rows]])
    s = np.concatenate([scores.ravel(), best_lp[rows]])
    order = np.lexsort((*y.T[::-1], -s, r))
    top = order[np.flatnonzero(np.diff(r[order], prepend=-1))]  # each row's first
    best[r[top]], best_lp[r[top]] = y[top], s[top]


def _branch(rows, fixed, split):
    """Children of each node: every value of its first BRANCH_LABELS split labels."""
    labels = np.argsort(~split, axis=1, kind="stable")[:, :BRANCH_LABELS]
    width = np.minimum(split.sum(axis=1), BRANCH_LABELS)
    node, code = np.nonzero(np.arange(2 ** BRANCH_LABELS) < (1 << width)[:, None])
    child = fixed[node]
    for t in range(labels.shape[1]):
        on = t < width[node]
        child[on, labels[node[on], t]] = (code[on] >> t) & 1
    return rows[node], child


def _search(scorer: _MixtureScorer,
            budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Branch and bound for every row of the scorer's batch.

    Returns each row's labels (n, d), log-prob (n,) and whether the budget
    dropped any of its nodes (n,), which leaves the row uncertified.
    One frontier of (row, fixed labels) nodes, kept in row order, serves up
    to SEARCH_ROWS rows; each round evaluates all of it at once.  A row's
    nodes, incumbent and budget depend on that row alone, so each row gets
    its single-row answer.  The root round's incumbent is heuristic_init's.
    """
    n, _, d = scorer.table.shape[:3]
    best, best_lp = np.zeros((n, d), dtype=np.int8), np.full(n, -np.inf)
    spent = np.zeros(n, dtype=np.intp)
    dropped = np.zeros(n, dtype=bool)
    for start in range(0, n, SEARCH_ROWS):
        rows = np.arange(start, min(start + SEARCH_ROWS, n))
        fixed = np.full((len(rows), d), -1, dtype=np.int8)
        while len(rows):
            np.add.at(spent, rows, 1)
            Y, scores, bound = _evaluate(scorer, rows, fixed)
            _improve(best, best_lp, rows, Y, scores)
            split = (Y != Y[:, :1]).any(axis=1)  # labels where arg-maxes disagree
            open_ = split.any(axis=1) & (bound > best_lp[rows])
            if not open_.any():
                break
            rows, fixed = _branch(rows[open_], fixed[open_], split[open_])
            rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
            keep = rank < budget - spent[rows]
            dropped[rows[~keep]] = True
            rows, fixed = rows[keep], fixed[keep]
    return best, best_lp, dropped


def _enumerate(scorer: _MixtureScorer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact MAP of every row of the scorer's batch by scoring all 2^d vectors.

    Returns _search's triple; no row is dropped.  Rows go SEARCH_ROWS at a
    time, so a chunk holds at most SEARCH_ROWS * 2^ENUMERATE_LABELS vectors.
    A chunk's terms are one take of the model's cached gather index
    (MixtureModel.label_space) on each row's flat table, summed in node
    order.  Each score is enumerate_map's, bit for bit, and the first
    arg-max is the smallest label vector, enumerate_map's tie rule.
    """
    n, K, d = scorer.table.shape[:3]
    Y, index = scorer.model.label_space
    flat = scorer.table.reshape(n, K * d * 4)
    best, best_lp = np.zeros((n, d), dtype=np.int8), np.zeros(n)
    for start in range(0, n, SEARCH_ROWS):
        rows = slice(start, start + SEARCH_ROWS)
        S = ctbn.node_order_sum(flat[rows].take(index, axis=1))  # (r, 2^d, K)
        scores = logsumexp(scorer.log_gate[rows, None] + S, axis=-1)
        top = np.argmax(scores, axis=1)
        best[rows], best_lp[rows] = Y[top], scores[np.arange(len(top)), top]
    return best, best_lp, np.zeros(n, dtype=bool)


def _solve(scorer: _MixtureScorer,
           budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row's MAP labels, log-prob and dropped flag under a node budget.

    A mixture (K >= 2) with d <= ENUMERATE_LABELS labels, whose 2^d vectors
    fit the budget, is enumerated; every other call, K = 1 (one max-sum at
    the search's root) included, is branch and bound.
    """
    _, K, d = scorer.table.shape[:3]
    if K >= 2 and d <= ENUMERATE_LABELS and 2 ** d <= budget:
        return _enumerate(scorer)
    return _search(scorer, budget)


def _certified_solve(scorer: _MixtureScorer,
                     budget: int) -> tuple[np.ndarray, np.ndarray]:
    """_solve's labels and log-probs; warns once if the budget cut any row."""
    best, best_lp, dropped = _solve(scorer, budget)
    if dropped.any():
        warnings.warn(f"{int(dropped.sum())} row(s) ran out of the node budget of "
                      f"{budget}; their labels may not be the exact MAP",
                      UncertifiedMapWarning, stacklevel=3)
    return best, best_lp


def heuristic_init(model: MixtureModel, x: np.ndarray) -> np.ndarray:
    """Best of the per-expert exact MAP assignments by mixture score.

    Equal scores go to the smaller label vector.
    """
    return _search(_MixtureScorer(model, x), 1)[0][0]


def map_predict(
    model: MixtureModel,
    x: np.ndarray,
    cfg: AnnealConfig = AnnealConfig(),
) -> tuple[np.ndarray, float]:
    """Exact MAP label vector of one row, with its log-prob.

    The row is enumerated or searched as _solve decides.  Equal to
    enumerate_map's answer within the node budget cfg.iterations;
    never below heuristic_init's, and exact_map's for a single expert.  A
    row that runs out of the budget raises an UncertifiedMapWarning.
    """
    best, best_lp = _certified_solve(_MixtureScorer(model, x), cfg.iterations)
    return best[0], float(best_lp[0])


def predict_dataset(
    model: MixtureModel,
    features: np.ndarray,
    cfg: AnnealConfig = AnnealConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """MAP-predict every row of an (N, m+1) feature matrix.

    Rows are solved together; each row gets exactly map_predict's answer,
    so results do not depend on batch order.  One UncertifiedMapWarning
    counts the rows that ran out of the node budget, if any did.
    """
    return _certified_solve(_MixtureScorer(model, features, batch=True),
                            cfg.iterations)


def enumerate_map(model: MixtureModel, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact MAP by scoring all 2^d assignments; ties pick the smallest vector."""
    d = model.d
    if d > ENUMERATION_GUARD:
        raise GuardError(f"enumerate_map guard: d={d} exceeds {ENUMERATION_GUARD}")
    Y = all_label_vectors(d)
    scores = _MixtureScorer(model, x).logp_batch(Y)
    idx = int(np.argmax(scores))  # first max = lexicographically smallest
    return Y[idx].copy(), float(scores[idx])
