"""Hierarchical word-class induction from class-bigram mutual information.

The pipeline: tokenize text (corpus), pool rare words under pseudo-word
banners and encode everything as dense ids (corpus), count word bigrams
(bigram), then split classes level by level, greedily moving words between
sibling classes to maximize average class mutual information (objective,
splitter).  Each word ends up with a bit-string tag describing its path
down the class tree.  The elman module provides a synthetic grammar and a
purity metric for end-to-end checks; cli wires it all to the shell.
"""

__version__ = "0.1.0"

from .bigram import BigramStore, ClassMatrix, class_matrix, count_bigrams
from .corpus import (
    TokenizerOptions,
    TokenStream,
    Vocabulary,
    build_vocabulary,
    classify_rare,
    tokenize,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    CoverageError,
    IngestionError,
    TagsplitError,
    UndefinedObjectiveError,
)
from .objective import EPSILON, acmi
from .splitter import (
    MAX_LEVELS,
    STRATEGIES,
    ClusterConfig,
    LevelStats,
    TagRow,
    TagTable,
    cluster,
    oracle_min_moves,
)

__all__ = [
    "BigramStore",
    "ClassMatrix",
    "ClusterConfig",
    "ConfigError",
    "ConsistencyError",
    "CoverageError",
    "EPSILON",
    "IngestionError",
    "LevelStats",
    "MAX_LEVELS",
    "STRATEGIES",
    "TagRow",
    "TagTable",
    "TagsplitError",
    "TokenStream",
    "TokenizerOptions",
    "UndefinedObjectiveError",
    "Vocabulary",
    "acmi",
    "build_vocabulary",
    "class_matrix",
    "classify_rare",
    "cluster",
    "count_bigrams",
    "oracle_min_moves",
    "tokenize",
]
