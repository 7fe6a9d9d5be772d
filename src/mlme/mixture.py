"""Mixtures of CTBN experts: softmax gating, EM fitting, and boosted growth.

The mixture distribution is P(y|x) = sum_k g_k(x) P(y|x, expert_k) with a
softmax gate over linear scores.  Parameters are fit by EM on fixed
structures; the number of experts grows one tree at a time on reweighted
data, with an internal validation split deciding when to stop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import ctbn
from .ctbn import CtbnExpert, TreeStructure, train_experts
from .dataset import Dataset, holdout_split
from .errors import (ArgumentError, EmMonotonicityError, check_count,
                     check_finite_nonnegative, check_width)
from .logreg import DEFAULT_LAMBDA_GRID, EM_MSTEP_MAXITER, minimize, select_lambda
from .structlearn import learn_structure

INTERNAL_TEST_RATIO = 0.2  # share of the data that decides when growth stops
EM_TOL = 1e-5              # EM stops below this relative objective improvement


@dataclass(frozen=True)
class GatingModel:
    """Softmax gate parameters, one (m+1)-vector per expert."""

    theta: np.ndarray  # (K, m+1)

    def __post_init__(self):
        t = np.array(self.theta, dtype=np.float64, order="C")
        if t.ndim != 2 or t.shape[0] < 1:
            raise ArgumentError("gate parameters must be a (K, m+1) matrix, K >= 1")
        if not np.all(np.isfinite(t)):
            raise ArgumentError("gate parameters must be finite")
        t.flags.writeable = False
        object.__setattr__(self, "theta", t)

    @property
    def k(self) -> int:
        return self.theta.shape[0]


def logsumexp(a, axis=None, keepdims=False):
    """log(sum(exp(a))) over ``axis`` (all axes when None) of finite ``a``.

    The maxima are taken out of the sum for precision:
    log1p(sum_{a != max} exp(a - max) / m) + log(m) + max, where m counts
    the entries equal to the maximum.  This is scipy.special.logsumexp's
    formula for finite input, term for term, so results are bit-identical
    to it.
    """
    a = np.asarray(a, dtype=np.float64)
    a_max = a.max(axis=axis, keepdims=True)
    at_max = a == a_max
    m = at_max.sum(axis=axis, keepdims=True, dtype=np.float64)
    rest = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=axis, keepdims=True)
    out = np.log1p(rest / m) + np.log(m) + a_max
    return out if keepdims else out.squeeze(axis)[()]


def gating_log_probs(gate: GatingModel, x: np.ndarray) -> np.ndarray:
    """(..., K) log-softmax of the gate scores of rows x; sums to 1 in prob space.

    ``x`` is one (m+1) row or a (..., m+1) stack; each row's product is
    taken on its own, so a stack equals its single-row calls bit for bit.
    """
    z = (gate.theta @ np.asarray(x, dtype=np.float64)[..., None])[..., 0]
    return z - logsumexp(z, axis=-1, keepdims=True)


@dataclass(frozen=True)
class MixtureModel:
    """K CTBN experts plus their gate; immutable once assembled."""

    experts: tuple[CtbnExpert, ...]
    gating: GatingModel
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "experts", tuple(self.experts))
        if not self.experts:
            raise ArgumentError("mixture needs at least one expert")
        if self.gating.k != len(self.experts):
            raise ArgumentError("gate row count must equal expert count")
        dims = {(e.d, e.n_features) for e in self.experts}
        if len(dims) != 1:
            raise ArgumentError("experts must share label and feature dimensions")
        if self.gating.theta.shape[1] != self.experts[0].n_features:
            raise ArgumentError("gate and expert feature dimensions differ")

    @property
    def k(self) -> int:
        return len(self.experts)

    @property
    def d(self) -> int:
        return self.experts[0].d

    @property
    def n_features(self) -> int:
        return self.experts[0].n_features

    @cached_property
    def forest(self) -> TreeStructure:
        """Every expert's tree in one forest: node i of expert k is node k*d + i.

        ctbn.max_sum on it gives each expert's own arg-max bits, since the
        children of a node keep their order within each depth.
        """
        return TreeStructure(tuple(None if p is None else k * self.d + p
                                   for k, e in enumerate(self.experts)
                                   for p in e.structure.parent))


def component_log_prob_matrix(model: MixtureModel, data: Dataset) -> np.ndarray:
    """(N, K) of log g_k(x_n) + log P(y_n | x_n, expert_k)."""
    check_width("model", model.n_features, data.features.shape[1])
    Z = data.features @ model.gating.theta.T
    log_g = Z - logsumexp(Z, axis=1, keepdims=True)
    return log_g + np.column_stack([ctbn.node_order_sum(ctbn.node_log_probs(
        e.param_table(), e.structure.parent_index, data)) for e in model.experts])


class _MixtureScorer:
    """Node-term tables and log-gates of one checked feature row or a batch.

    Built once per call; then a row's mixture log-probability is one
    ctbn.tree_log_prob gather and a log-sum-exp.
    """

    def __init__(self, model: MixtureModel, x: np.ndarray, batch: bool = False):
        X = ctbn.check_feature_rows(x, model.n_features, batch).reshape(
            -1, model.n_features)
        self.forest = model.forest
        self.parent_index = np.stack([e.structure.parent_index for e in model.experts])
        # stacked products keep each row's bits; a plain X @ theta.T does not
        self.log_gate = gating_log_probs(model.gating, X)   # (n, k)
        self.table = ctbn.node_term_table(np.stack(
            [e.logit_table(X) for e in model.experts], axis=1))  # (n, k, d, 2, 2)
        self.offsets = ctbn.term_offsets(self.table)

    def logp_batch(self, Y: np.ndarray) -> np.ndarray:
        """Mixture log-probability of the label rows of an (M, d) matrix.

        Row r is scored against feature row r; a single-vector scorer
        scores every row against its one feature vector.  ``Y`` is unchecked.
        """
        return logsumexp(self.log_gate + ctbn.tree_log_prob(
            self.table, self.parent_index, Y, self.offsets), axis=-1)


def mixture_log_prob(model: MixtureModel, x: np.ndarray, y) -> float:
    """log sum_k g_k(x) P(y | x, expert_k): the scorer's one-row case."""
    y = ctbn.check_label_vector(y, model.d)
    return float(_MixtureScorer(model, x).logp_batch(y[None])[0])


def instance_log_probs(model: MixtureModel, data: Dataset) -> np.ndarray:
    """(N,) mixture log-probability of every instance's label vector."""
    return logsumexp(component_log_prob_matrix(model, data), axis=1)


def observed_log_likelihood(model: MixtureModel, data: Dataset) -> float:
    return float(instance_log_probs(model, data).sum())


def model_penalty(model: MixtureModel, lam_gate: float) -> float:
    """L2 penalties of all CPDs (bias-free) plus the gate."""
    pen = 0.5 * lam_gate * float((model.gating.theta ** 2).sum())
    for expert in model.experts:
        for models in expert.cpds:
            for m in models:
                pen += 0.5 * m.lam * float(m.params[1:] @ m.params[1:])
    return pen


def penalized_objective(model: MixtureModel, data: Dataset, lam_gate: float) -> float:
    """Observed log-likelihood minus all regularization penalties."""
    return _objective(component_log_prob_matrix(model, data), model, lam_gate)


def _objective(L: np.ndarray, model: MixtureModel, lam_gate: float) -> float:
    """penalized_objective from the model's component_log_prob_matrix L."""
    return float(logsumexp(L, axis=1).sum()) - model_penalty(model, lam_gate)


def e_step(model: MixtureModel, data: Dataset) -> np.ndarray:
    """Posterior responsibility of each expert for each instance (rows sum to 1)."""
    return _posteriors(component_log_prob_matrix(model, data))


def _posteriors(L: np.ndarray) -> np.ndarray:
    """e_step from the model's component_log_prob_matrix L."""
    return np.exp(L - logsumexp(L, axis=1, keepdims=True))


def gate_objective_and_gradient(theta_flat, X, h, lam_gate):
    """Expected gate log-likelihood minus L2 penalty, with exact gradient.

    value = sum_{n,k} h[n,k] log g_k(x_n) - lam_gate/2 * ||theta||^2
    The gradient row for expert j is X^T (h_j - g_j) - lam_gate * theta_j.
    """
    n, p = X.shape
    K = h.shape[1]
    theta = np.asarray(theta_flat, dtype=np.float64).reshape(K, p)
    Z = X @ theta.T
    lse = logsumexp(Z, axis=1)
    value = float((h * Z).sum() - lse.sum())
    value -= 0.5 * lam_gate * float((theta ** 2).sum())
    P = np.exp(Z - lse[:, None])
    grad = (h - P).T @ X - lam_gate * theta
    return value, grad.ravel()


def m_step_gate(
    h: np.ndarray,
    data: Dataset,
    lam_gate: float,
    x0: Optional[GatingModel] = None,
    maxiter: Optional[int] = None,
) -> GatingModel:
    """Maximize the (concave) expected gate log-likelihood with L2 penalty.

    ``x0`` warm-starts the solve; ``maxiter`` caps its L-BFGS iterations.
    The responsibilities of a row sum to 1, so the objective's weight mass
    is n, and the solve converges at gtol * n (logreg.minimize).
    """
    check_finite_nonnegative(lam_gate, "lambda_gate")
    h = np.asarray(h, dtype=np.float64)
    K = h.shape[1]
    p = data.features.shape[1]
    if h.shape[0] != data.n:
        raise ArgumentError("responsibility rows must match instance count")
    if x0 is not None:
        check_width("warm-start gate", x0.theta.shape[1], p)
        if x0.k != K:
            raise ArgumentError(f"warm-start gate has {x0.k} experts, "
                                f"responsibilities have {K} columns")
    if K == 1:
        # a single expert always gets gate probability 1; zeros by convention
        return GatingModel(np.zeros((1, p)))
    start = np.zeros(K * p) if x0 is None else x0.theta.ravel()

    def fg(theta, cols):
        value, grad = gate_objective_and_gradient(theta[:, 0], data.features,
                                                  h, lam_gate)
        return np.array([-value]), -grad[:, None]

    res = minimize(fg, start[:, None], "gate objective", maxiter, mass=data.n)
    return GatingModel(res.x.reshape(K, p))


def m_step_experts(
    h: np.ndarray,
    data: Dataset,
    structures: Sequence[TreeStructure],
    lam: float,
    init: Optional[Sequence[CtbnExpert]] = None,
    maxiter: Optional[int] = None,
) -> tuple[CtbnExpert, ...]:
    """Refit every expert's CPDs with its responsibility column as weights.

    All CPDs of all experts share the full feature matrix and are fit in
    one lockstep solve (ctbn.train_experts), warm-started from ``init`` and
    capped at ``maxiter`` L-BFGS iterations when those are given.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.shape[1] != len(structures):
        raise ArgumentError("responsibility columns must match structure count")
    return train_experts(structures, data, h, lam, init=init, maxiter=maxiter)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for EM fitting and mixture growth."""

    max_experts: int = 5
    lam: Optional[float] = None              # CPD, edge and gate L2; None -> grid
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    em_max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        check_count(self.max_experts, "max_experts", 1)
        check_count(self.em_max_iters, "em_max_iters", 1)
        check_count(self.seed, "seed", 0)
        if self.lam is not None:
            check_finite_nonnegative(self.lam, "lam")
        if not self.lambda_grid:
            raise ArgumentError("lambda_grid must be nonempty")
        for lam in self.lambda_grid:
            check_finite_nonnegative(lam, "every lambda_grid value")
        # numpy scalars become equal Python ones, so the config serializes
        for name in ("max_experts", "lam", "em_max_iters", "seed"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)).item())
        object.__setattr__(self, "lambda_grid",
                           tuple(np.asarray(v).item() for v in self.lambda_grid))

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["lambda"] = doc.pop("lam")
        doc["lambda_grid"] = list(self.lambda_grid)
        return doc


@dataclass(frozen=True)
class EmResult:
    model: MixtureModel
    objective_trace: tuple[float, ...]


def _tagged_seed(base: int, *tags: int) -> int:
    """Independent deterministic child seed for a named sub-computation."""
    return int(np.random.SeedSequence(base, spawn_key=tags).generate_state(1)[0])


def em_fit(
    structures: Sequence[TreeStructure],
    data: Dataset,
    config: TrainConfig,
    init_model: Optional[MixtureModel] = None,
    init_responsibilities: Optional[np.ndarray] = None,
) -> EmResult:
    """Generalised EM on fixed structures: alternate E- and M-steps.

    ``config.lam``, which must be set, is the one L2 strength of every CPD
    and the gate.  The trace records the regularized observed
    log-likelihood after the initialization and after every EM iteration;
    it must never decrease by more than 1e-6 (anything larger is an
    internal-consistency failure).  Initialization: ``init_model`` as-is,
    else a cold first M-step from ``init_responsibilities`` (give at most
    one of the two), else from seeded, slightly perturbed uniform ones.
    That M-step solves to gtol per unit of weight mass (logreg.minimize):
    the gate to gtol * n, each CPD to gtol times its weight sum.

    Each later M-step is a generalised one (Neal & Hinton, 1998): it
    warm-starts the gate and every CPD from the previous iterate and stops
    after at most logreg.EM_MSTEP_MAXITER L-BFGS iterations.  It only has to
    raise the expected complete-data objective, and since no column of a
    solve ends above its start (logreg.minimize), the trace cannot fall.
    The loop stops when an iteration improves the objective by less than
    EM_TOL relative, or after ``config.em_max_iters`` iterations.

    With K=1 every responsibility is 1 (any ``init_responsibilities`` are
    replaced by ones), so one converged M-step is the whole fit: from
    responsibilities the trace holds the initialization alone, and from an
    ``init_model`` one uncapped M-step follows it.
    """
    structures = list(structures)
    if not structures:
        raise ArgumentError("need at least one structure")
    if config.lam is None:
        raise ArgumentError("em_fit needs a fixed lambda, got config.lam=None")
    if init_model is not None and init_responsibilities is not None:
        raise ArgumentError("give init_model or init_responsibilities, not both")
    K = len(structures)
    lam = float(config.lam)
    if init_model is not None and init_model.k != K:
        raise ArgumentError("init_model expert count must match structures")

    def m_step(h, warm=None, maxiter=None):
        gate = m_step_gate(h, data, lam,
                           None if warm is None else warm.gating, maxiter)
        experts = m_step_experts(h, data, structures, lam,
                                 None if warm is None else warm.experts, maxiter)
        return MixtureModel(experts, gate)

    if init_model is not None:
        model = init_model
    else:
        if init_responsibilities is not None:
            h0 = np.asarray(init_responsibilities, dtype=np.float64)
            if h0.shape != (data.n, K):
                raise ArgumentError("init responsibilities must be (N, K)")
        else:
            rng = np.random.default_rng(_tagged_seed(config.seed, 1))
            h0 = 1.0 + 0.01 * rng.random((data.n, K))
            h0 /= h0.sum(axis=1, keepdims=True)
        if K == 1:
            h0 = np.ones((data.n, 1))
        model = m_step(h0)

    if K == 1:
        # the lone expert's responsibilities are all 1, so one converged
        # M-step is the whole fit: the initial one, else one uncapped step
        n_iters, cap = (0 if init_model is None else 1), None
    else:
        n_iters, cap = config.em_max_iters, EM_MSTEP_MAXITER
    # each iterate is scored once: L gives its objective and the next E-step
    L = component_log_prob_matrix(model, data)
    obj = _objective(L, model, lam)
    trace = [obj]
    for _ in range(n_iters):
        model = m_step(_posteriors(L), model, cap)
        L = component_log_prob_matrix(model, data)
        new_obj = _objective(L, model, lam)
        if new_obj < obj - 1e-6:
            raise EmMonotonicityError(
                f"EM objective decreased from {obj:.9f} to {new_obj:.9f}")
        trace.append(new_obj)
        improved = new_obj - obj
        obj = new_obj
        if improved < EM_TOL * max(1.0, abs(obj)):
            break
    return EmResult(model, tuple(trace))


def grow_mixture(data: Dataset, config: TrainConfig = TrainConfig()) -> MixtureModel:
    """Grow a mixture one tree at a time on residual-weighted data.

    ``config.lam``, or select_lambda's pick from ``config.lambda_grid``,
    serves every fit.  Instances start uniformly weighted; each round learns
    a structure on the current weights, refits the enlarged mixture by EM
    on an internal train split, and keeps it only while the internal test
    log-likelihood does not get worse.  Weights for the next round are the
    renormalized prediction error margins 1 - P(y|x, mixture), and EM on
    the next mixture starts from responsibilities alone.  Finally the
    accepted structures are refit on the full data, warm-started from the
    last accepted mixture; the returned model's meta carries the growth log.
    """
    if data.n < 5:
        raise ArgumentError("mixture growth needs at least 5 instances")
    lam = float(config.lam if config.lam is not None else select_lambda(
        data, config.lambda_grid, seed=_tagged_seed(config.seed, 0)))
    em_config = replace(config, lam=lam)
    (itr, _), (ite, _) = holdout_split(
        data, np.ones(data.n), INTERNAL_TEST_RATIO, _tagged_seed(config.seed, 2))

    omega = np.full(itr.n, 1.0 / itr.n)
    init_h: Optional[np.ndarray] = None  # round 1: seeded responsibilities
    accepted: list[TreeStructure] = []
    current: Optional[MixtureModel] = None
    current_test_ll = -np.inf
    rounds = []

    for k in range(1, config.max_experts + 1):
        structure = learn_structure(itr, omega, lam,
                                    seed=_tagged_seed(config.seed, 3, k))
        fit = em_fit(accepted + [structure], itr, em_config,
                     init_responsibilities=init_h)
        test_ll = observed_log_likelihood(fit.model, ite)
        entry = {
            "k": k,
            "parent": [None if p is None else int(p) for p in structure.parent],
            "internal_test_ll": float(test_ll),
            "em_trace": [float(v) for v in fit.objective_trace],
        }
        if current is not None and test_ll < current_test_ll:
            entry["accepted"] = False
            rounds.append(entry)
            break
        entry["accepted"] = True
        rounds.append(entry)
        accepted.append(structure)
        current = fit.model
        current_test_ll = test_ll
        if k == config.max_experts:
            break
        L = component_log_prob_matrix(current, itr)
        margins = np.clip(1.0 - np.exp(logsumexp(L, axis=1)), 0.0, 1.0)
        total = margins.sum()
        if total <= 1e-12:
            rounds.append({"k": k + 1, "stopped": "zero residual weights"})
            break
        omega = margins / total
        # the new expert starts out owning the margins; the accepted experts
        # share the rest in their posterior ratios
        init_h = np.hstack([(1.0 - margins)[:, None] * _posteriors(L),
                            margins[:, None]])

    final = em_fit(accepted, data, em_config, init_model=current)
    meta = {
        "m": data.m,
        "d": data.d,
        "k": len(accepted),
        "lambda": lam,
        "config": config.to_dict(),
        "growth": {
            "rounds": rounds,
            "final_em_trace": [float(v) for v in final.objective_trace],
        },
    }
    return MixtureModel(final.model.experts, final.model.gating, meta)
