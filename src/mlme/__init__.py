"""Multi-label classification with mixtures of tree-structured BN experts."""

from .ctbn import CtbnExpert, TreeStructure, exact_map, joint_log_prob, train_parameters
from .dataset import (
    Dataset,
    Standardizer,
    holdout_split,
    load_arff,
    load_csv,
    split_folds,
)
from .evaluation import (
    EvalReport,
    binary_relevance_baseline,
    cll_loss,
    cross_validate,
    exact_match_accuracy,
    macro_f1,
    micro_f1,
)
from .inference import AnnealConfig, enumerate_map, heuristic_init, map_predict
from .logreg import LinearModel, objective_and_gradient, predict_prob, train_weighted
from .mixture import (
    GatingModel,
    MixtureModel,
    TrainConfig,
    e_step,
    em_fit,
    gating_probs,
    grow_mixture,
    m_step_experts,
    m_step_gate,
    mixture_log_prob,
)
from .model_io import load_model, save_model
from .structlearn import WeightedDigraph, build_graph, learn_structure, maximum_branching

__version__ = "0.1.0"

__all__ = [
    "AnnealConfig",
    "CtbnExpert",
    "Dataset",
    "EvalReport",
    "GatingModel",
    "LinearModel",
    "MixtureModel",
    "Standardizer",
    "TrainConfig",
    "TreeStructure",
    "WeightedDigraph",
    "binary_relevance_baseline",
    "build_graph",
    "cll_loss",
    "cross_validate",
    "e_step",
    "em_fit",
    "enumerate_map",
    "exact_map",
    "exact_match_accuracy",
    "gating_probs",
    "grow_mixture",
    "heuristic_init",
    "holdout_split",
    "joint_log_prob",
    "learn_structure",
    "load_arff",
    "load_csv",
    "load_model",
    "m_step_experts",
    "m_step_gate",
    "macro_f1",
    "map_predict",
    "maximum_branching",
    "micro_f1",
    "mixture_log_prob",
    "objective_and_gradient",
    "predict_prob",
    "save_model",
    "split_folds",
    "train_parameters",
    "train_weighted",
]
