"""MAP prediction for the mixture.

Exact MAP on a single tree is cheap, but the mixture couples all labels, so
prediction uses simulated annealing over single-bit flips, started from the
best of the per-expert exact MAP assignments.  The best state ever visited
is returned, so the result can never be worse than its initialization and
is exact for single-expert models.  An exhaustive enumerator doubles as the
test oracle for small label counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import ctbn
from .errors import ArgumentError, GuardError
from .mixture import MixtureModel, gating_log_probs, logsumexp

ENUMERATION_GUARD = 20  # enumerate_map refuses label spaces beyond 2^20


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing schedule: geometric cooling from T=1 to T=1e-3."""

    iterations: int = 150
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ArgumentError("iterations must be >= 1")
        if self.seed < 0:
            raise ArgumentError("seed must be >= 0")

    @property
    def cooling_rate(self) -> float:
        """Per-step temperature factor: ``iterations`` steps multiply to 1e-3."""
        return 1e-3 ** (1 / self.iterations)


class _MixtureScorer:
    """Node-term tables and log-gates of one feature row or a batch of rows.

    Built once per call; after that, the mixture log-probability of one
    label vector per row is one gather, a node-order sum and a log-sum-exp.
    """

    def __init__(self, model: MixtureModel, x: np.ndarray, batch: bool = False):
        X = np.asarray(x, dtype=np.float64)
        width = model.n_features
        if X.ndim != (2 if batch else 1):
            want = "an (N, m+1) feature matrix" if batch else "one feature vector"
            raise ArgumentError(f"expected {want}, got shape {X.shape}")
        if X.shape[-1] != width:
            raise ArgumentError(
                f"feature rows must have m+1 = {width} entries, got {X.shape[-1]}")
        if not np.all(np.isfinite(X)):
            raise ArgumentError("feature vector must be finite")
        X = X.reshape(-1, width)
        self.structures = [e.structure for e in model.experts]
        self.parent_index = np.stack([s.parent_index for s in self.structures])
        # stacked products keep each row's bits; a plain X @ theta.T does not
        self.log_gate = gating_log_probs(model.gating, X)   # (n, k)
        self.table = ctbn.node_term_table(np.stack(
            [e.logit_table(X) for e in model.experts], axis=1))  # (n, k, d, 2, 2)
        self._flat = self.table.reshape(-1)
        self._base = 4 * np.arange(self._flat.size // 4).reshape(self.table.shape[:3])

    def logp_batch(self, Y: np.ndarray) -> np.ndarray:
        """Mixture log-probability of the label rows of an (M, d) matrix.

        Row r is scored against feature row r; a single-vector scorer
        scores every row against its one feature vector.
        """
        Y = np.asarray(Y)
        padded = np.zeros(Y.shape[:-1] + (Y.shape[-1] + 1,), dtype=np.intp)
        padded[..., :-1] = Y
        branch = padded[..., self.parent_index]           # (M, k, d); roots 0
        terms = self._flat.take(self._base + 2 * branch + padded[..., None, :-1])
        return logsumexp(self.log_gate + ctbn.node_order_sum(terms), axis=-1)

    def logp(self, y: np.ndarray) -> float:
        return float(self.logp_batch(np.asarray(y)[None])[0])

    def start(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's best per-expert exact MAP assignment and its log-prob.

        Candidates are scored by the mixture; ties go to the first expert.
        """
        candidates = [ctbn.max_sum(self.table[:, j], s)
                      for j, s in enumerate(self.structures)]
        scores = np.stack([self.logp_batch(y) for y in candidates], axis=1)
        pick = np.argmax(scores, axis=1)   # first max, as a strict > scan
        rows = np.arange(len(pick))
        return np.stack(candidates, axis=1)[rows, pick], scores[rows, pick]


def _anneal(scorer: _MixtureScorer, cfg: AnnealConfig) -> tuple[np.ndarray, np.ndarray]:
    """Anneal every row of the scorer's batch in lockstep from its start state.

    Row r draws from its own default_rng(cfg.seed + r) in the order a lone
    row would: one integers(d) per step, and random() only when the
    proposal is no better than the current state.  Scores are a pure
    function of the state, so each row's stream, and its result, do not
    depend on the rest of the batch.
    """
    current, cur_lp = scorer.start()
    n, d = current.shape
    best, best_lp = current.copy(), cur_lp.copy()
    rngs = [np.random.default_rng(cfg.seed + r) for r in range(n)]
    rows = np.arange(n)
    temperature, rate = 1.0, cfg.cooling_rate
    for _ in range(cfg.iterations):
        proposal = current.copy()
        proposal[rows, [rng.integers(d) for rng in rngs]] ^= 1
        lp = scorer.logp_batch(proposal)
        better = lp > best_lp
        best[better], best_lp[better] = proposal[better], lp[better]
        accept = np.array(
            [delta > 0 or rng.random() < np.exp(delta / temperature)
             for delta, rng in zip((lp - cur_lp).tolist(), rngs)], dtype=bool)
        current[accept], cur_lp[accept] = proposal[accept], lp[accept]
        temperature *= rate
    return best, best_lp


def heuristic_init(model: MixtureModel, x: np.ndarray) -> np.ndarray:
    """Best of the per-expert exact MAP assignments, scored by the mixture."""
    return _MixtureScorer(model, x).start()[0][0]


def map_predict(
    model: MixtureModel,
    x: np.ndarray,
    cfg: AnnealConfig = AnnealConfig(),
) -> tuple[np.ndarray, float]:
    """Approximate MAP label vector by annealed single-bit-flip search.

    Starts at heuristic_init; improving flips are always accepted, worsening
    ones with probability exp(delta / temperature) under geometric cooling.
    Returns the best state visited, so the answer is never worse than the
    initialization and is deterministic for a fixed seed.
    """
    best, best_lp = _anneal(_MixtureScorer(model, x), cfg)
    return best[0], float(best_lp[0])


def predict_dataset(
    model: MixtureModel,
    features: np.ndarray,
    cfg: AnnealConfig = AnnealConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """MAP-predict every row of an (N, m+1) feature matrix.

    Rows are annealed together; row i gets exactly map_predict's answer
    for seed cfg.seed + i, so results are reproducible and independent of
    batch order.
    """
    return _anneal(_MixtureScorer(model, features, batch=True), cfg)


def all_label_vectors(d: int) -> np.ndarray:
    """(2^d, d) int8 matrix of label vectors in lexicographic order."""
    return np.array(list(itertools.product((0, 1), repeat=d)), dtype=np.int8)


def enumerate_map(model: MixtureModel, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact MAP by scoring all 2^d assignments; ties pick the smallest vector."""
    d = model.d
    if d > ENUMERATION_GUARD:
        raise GuardError(f"enumerate_map guard: d={d} exceeds {ENUMERATION_GUARD}")
    Y = all_label_vectors(d)
    scores = _MixtureScorer(model, x).logp_batch(Y)
    idx = int(np.argmax(scores))  # first max = lexicographically smallest
    return Y[idx].copy(), float(scores[idx])
