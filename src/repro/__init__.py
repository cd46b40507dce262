"""repro — reproduction of "Challenging the Long Tail Recommendation"
(Yin, Cui, Li, Yao & Chen, VLDB 2012).

The package implements the paper's graph-based long-tail recommenders —
Hitting Time (HT), Absorbing Time (AT) and the entropy-biased Absorbing
Cost variants (AC1/AC2) — together with every substrate they need (the
bipartite user-item graph, absorbing Markov-chain solvers, a rating-data
LDA), the paper's baselines (LDA, PureSVD, PPR/DPPR), extended references,
the full evaluation harness regenerating each table and figure of the
paper's experimental section, and a serving layer for cohort-scale traffic:
vectorised multi-user scoring, versioned model artifacts (fit once, save,
load, serve — no refitting), and a stateful ``ServingEngine`` with warm
transition/result caches.

Quickstart
----------
>>> from repro import movielens_like, generate_dataset, AbsorbingCostRecommender
>>> data = generate_dataset(movielens_like(0.3), seed=7)
>>> ac2 = AbsorbingCostRecommender.topic_based(n_topics=8).fit(data.dataset)
>>> [r.label for r in ac2.recommend(user=0, k=5)]  # doctest: +SKIP
['item12', 'item88', ...]

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.baselines import (
    AssociationRuleRecommender,
    CommuteTimeRecommender,
    KatzRecommender,
    RandomWalkWithRestartRecommender,
    DiscountedPageRankRecommender,
    ItemKNNRecommender,
    LDARecommender,
    MostPopularRecommender,
    PersonalizedPageRankRecommender,
    PureSVDRecommender,
    RandomRecommender,
    UserKNNRecommender,
)
from repro.core import (
    AbsorbingCostRecommender,
    explain_recommendation,
    AbsorbingTimeRecommender,
    EntropyCostModel,
    HittingTimeRecommender,
    PartialFitReport,
    Recommendation,
    Recommender,
    UnitCostModel,
    item_entropy,
    topic_entropy,
)
from repro.data import (
    DatasetDelta,
    RatingDataset,
    SyntheticConfig,
    SyntheticData,
    douban_like,
    figure2_dataset,
    generate_dataset,
    load_movielens_1m,
    load_movielens_100k,
    load_rating_csv,
    long_tail_split,
    long_tail_stats,
    make_recall_split,
    movielens_like,
    sample_test_users,
)
from repro.eval import (
    RecallProtocol,
    bootstrap_recall,
    bootstrap_recall_difference,
    SimulatedPanel,
    TopNExperiment,
    recall_curve,
)
from repro.exceptions import (
    ConfigError,
    ConvergenceError,
    DataError,
    DataFormatError,
    DeadlineExceededError,
    DisconnectedGraphError,
    GraphError,
    NotFittedError,
    OverloadedError,
    ReproError,
    UnknownItemError,
    UnknownUserError,
)
from repro.core import load_artifact, save_artifact
from repro.exceptions import ArtifactError
from repro.graph import TransitionCache, UserItemGraph
from repro.solver import WalkOperator
from repro.service import (
    BatchingServer,
    HttpFrontend,
    ServerReport,
    ServingEngine,
    ShardedEngine,
    ShardPlan,
)
from repro.topics import LatentTopicModel, fit_lda, fit_lda_cvb0, fit_lda_gibbs

__version__ = "1.0.0"

__all__ = [
    # core algorithms
    "HittingTimeRecommender",
    "AbsorbingTimeRecommender",
    "AbsorbingCostRecommender",
    "Recommender",
    "Recommendation",
    "PartialFitReport",
    "EntropyCostModel",
    "UnitCostModel",
    "item_entropy",
    "topic_entropy",
    "explain_recommendation",
    # baselines
    "AssociationRuleRecommender",
    "CommuteTimeRecommender",
    "KatzRecommender",
    "RandomWalkWithRestartRecommender",
    "DiscountedPageRankRecommender",
    "ItemKNNRecommender",
    "LDARecommender",
    "MostPopularRecommender",
    "PersonalizedPageRankRecommender",
    "PureSVDRecommender",
    "RandomRecommender",
    "UserKNNRecommender",
    # data
    "RatingDataset",
    "DatasetDelta",
    "SyntheticConfig",
    "SyntheticData",
    "douban_like",
    "figure2_dataset",
    "generate_dataset",
    "load_movielens_1m",
    "load_movielens_100k",
    "load_rating_csv",
    "long_tail_split",
    "long_tail_stats",
    "make_recall_split",
    "movielens_like",
    "sample_test_users",
    # graph / topics
    "UserItemGraph",
    "LatentTopicModel",
    "fit_lda",
    "fit_lda_cvb0",
    "fit_lda_gibbs",
    # graph serving caches & solver core
    "TransitionCache",
    "WalkOperator",
    # serving & artifacts
    "BatchingServer",
    "HttpFrontend",
    "ServerReport",
    "ServingEngine",
    "ShardPlan",
    "ShardedEngine",
    "save_artifact",
    "load_artifact",
    # evaluation
    "RecallProtocol",
    "SimulatedPanel",
    "TopNExperiment",
    "recall_curve",
    "bootstrap_recall",
    "bootstrap_recall_difference",
    # errors
    "OverloadedError",
    "DeadlineExceededError",
    "ReproError",
    "ArtifactError",
    "ConfigError",
    "ConvergenceError",
    "DataError",
    "DataFormatError",
    "DisconnectedGraphError",
    "GraphError",
    "NotFittedError",
    "UnknownItemError",
    "UnknownUserError",
]
