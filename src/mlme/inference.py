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
from .mixture import MixtureModel, _MixtureScorer

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


def _start(scorer: _MixtureScorer) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best per-expert exact MAP assignment and its log-prob.

    Candidates are scored by the mixture; ties go to the first expert.
    """
    candidates = [ctbn.max_sum(scorer.table[:, j], s)
                  for j, s in enumerate(scorer.structures)]
    scores = np.stack([scorer.logp_batch(y) for y in candidates], axis=1)
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
    current, cur_lp = _start(scorer)
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
    return _start(_MixtureScorer(model, x))[0][0]


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
