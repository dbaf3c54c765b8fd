"""Redundancy-based factoid question answering with budgeted querying.

The pipeline: a question becomes a weighted set of query rewrites, a search
backend returns snippets per rewrite, n-gram mining/filtering/tiling
composes ranked answers, and learned models decide how many rewrites are
worth submitting, or whether to abstain.
"""

from .compose import NGramCandidate, compose_answers, filter_ngrams, mine_ngrams, tile_ngrams
from .control import (
    AllRewrites,
    BudgetDecision,
    ConjunctiveOnly,
    CostBenefit,
    LikelihoodN,
    Preferences,
    QuestionResult,
    RandomN,
    choose_n,
    net_expected_value,
    run_policy,
)
from .evaluation import Judgment, QAItem, Report, evaluate, judge, load_dataset
from .models import (
    ModelSet,
    RunFeatures,
    ThresholdEnsemble,
    extract_run_features,
    order_rewrites,
    score_rewrite,
    train_threshold_ensemble,
)
from .rewrite import (
    AnswerSlot,
    Question,
    QuestionType,
    Rewrite,
    RewriteKind,
    conjunctive_features,
    generate_rewrites,
    phrasal_features,
)
from .search import Document, Index, OfflineProvider, Snippet, build_index, query_conjunctive, query_phrase
from .text import tokenize
from .tree import DecisionTree, TrainingCase, TreeConfig, train_tree

__version__ = "0.1.0"

__all__ = [
    "AllRewrites", "AnswerSlot", "BudgetDecision", "ConjunctiveOnly", "CostBenefit",
    "DecisionTree", "Document", "Index", "Judgment", "LikelihoodN", "ModelSet",
    "NGramCandidate", "OfflineProvider", "Preferences", "QAItem", "Question",
    "QuestionResult", "QuestionType", "RandomN", "Report", "Rewrite", "RewriteKind",
    "RunFeatures", "Snippet", "ThresholdEnsemble", "TrainingCase", "TreeConfig",
    "build_index", "choose_n", "compose_answers",
    "conjunctive_features", "evaluate", "extract_run_features", "filter_ngrams",
    "generate_rewrites", "judge", "load_dataset", "mine_ngrams", "net_expected_value",
    "order_rewrites", "phrasal_features", "query_conjunctive",
    "query_phrase", "run_policy", "score_rewrite", "tile_ngrams", "tokenize",
    "train_threshold_ensemble", "train_tree",
]
