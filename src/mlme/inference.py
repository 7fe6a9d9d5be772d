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
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from . import ctbn
from .errors import ArgumentError, GuardError
from .mixture import MixtureModel, gating_log_probs

ENUMERATION_GUARD = 20  # enumerate_map refuses label spaces beyond 2^20


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing schedule; geometric cooling from initial_temperature."""

    iterations: int = 150
    initial_temperature: float = 1.0
    cooling_rate: float = 0.9549925860214359  # reaches ~1e-3 after 150 steps
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ArgumentError("iterations must be >= 1")
        if self.initial_temperature <= 0:
            raise ArgumentError("initial_temperature must be > 0")
        if not 0.0 < self.cooling_rate < 1.0:
            raise ArgumentError("cooling_rate must be in (0, 1)")

    @classmethod
    def for_iterations(cls, iterations: int, seed: int = 0,
                       initial_temperature: float = 1.0,
                       final_temperature: float = 1e-3) -> "AnnealConfig":
        """Schedule whose temperature decays to ~final_temperature at the end."""
        rate = (final_temperature / initial_temperature) ** (1.0 / max(iterations, 1))
        return cls(iterations=iterations, initial_temperature=initial_temperature,
                   cooling_rate=rate, seed=seed)


class _MixtureScorer:
    """Per-input scoring tables: O(K d) label-vector evaluations after setup."""

    def __init__(self, model: MixtureModel, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            raise ArgumentError("feature vector must be finite")
        self.parent_index = np.stack(
            [e.structure.parent_index for e in model.experts])  # (K, d)
        self.logits = np.stack([e.logit_table(x) for e in model.experts])
        self.log_gate = gating_log_probs(model.gating, x)

    def expert_scores(self, y: np.ndarray) -> np.ndarray:
        return ctbn.tree_log_prob(self.logits, self.parent_index, y)

    def logp(self, y: np.ndarray) -> float:
        return float(logsumexp(self.log_gate + self.expert_scores(y)))

    def logp_batch(self, Y: np.ndarray) -> np.ndarray:
        """Mixture log-probability of every row of an (M, d) label matrix."""
        comp = ctbn.tree_log_prob(self.logits, self.parent_index, Y)
        return logsumexp(comp + self.log_gate, axis=1)


def heuristic_init(model: MixtureModel, x: np.ndarray) -> np.ndarray:
    """Best of the per-expert exact MAP assignments, scored by the mixture."""
    scorer = _MixtureScorer(model, x)
    candidates = [ctbn.exact_map(expert, x)[0] for expert in model.experts]
    scores = [scorer.logp(y) for y in candidates]
    return candidates[int(np.argmax(scores))]  # first max, as a strict > scan


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
    scorer = _MixtureScorer(model, x)
    rng = np.random.default_rng(cfg.seed)
    d = model.d

    current = heuristic_init(model, x)
    cur_lp = scorer.logp(current)
    best, best_lp = current.copy(), cur_lp

    temperature = cfg.initial_temperature
    for _ in range(cfg.iterations):
        flip = int(rng.integers(d))
        proposal = current.copy()
        proposal[flip] ^= 1
        lp = scorer.logp(proposal)
        if lp > best_lp:
            best, best_lp = proposal.copy(), lp
        delta = lp - cur_lp
        if delta > 0 or rng.random() < np.exp(delta / temperature):
            current, cur_lp = proposal, lp
        temperature *= cfg.cooling_rate
    return best, best_lp


def predict_dataset(
    model: MixtureModel,
    features: np.ndarray,
    cfg: AnnealConfig = AnnealConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """MAP-predict every row of an (N, m+1) feature matrix.

    Row i is annealed with seed cfg.seed + i, so results are reproducible
    and independent of batch order.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    preds = np.empty((n, model.d), dtype=np.int8)
    logps = np.empty(n)
    for i in range(n):
        y, lp = map_predict(model, features[i], replace(cfg, seed=cfg.seed + i))
        preds[i] = y
        logps[i] = lp
    return preds, logps


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
