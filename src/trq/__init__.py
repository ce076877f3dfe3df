"""trq: approximate SPARQL basic-graph-pattern answering over RDF graphs.

Exact evaluation when solutions exist; otherwise ranked approximate
solutions found through subquery trees, scored by combining structural
edit distance with translation-embedding plausibility.
"""

from .embedding import (
    BoundEmbeddings,
    EmbeddingConfig,
    EmbeddingSet,
    NonFiniteEmbeddingError,
    load_embeddings,
    save_embeddings,
    train,
)
from .evalkit import (
    BenchCase,
    BenchReport,
    corrupt_graph,
    exact_solutions,
    mean_rank,
    reciprocal_rank,
    run_benchmark,
)
from .ntriples import NTriplesError, parse_term
from .qgraph import (
    BudgetExceededError,
    DisconnectedQueryError,
    NoVariableError,
    SubqueryTree,
    enumerate_subquery_trees,
)
from .recommend import (
    QueryUnmatchableError,
    Recommendation,
    RecommendRequest,
    VariablePredicateError,
    recommend,
)
from .scoring import ScoredSolution, delta, score_graph
from .sparql import (
    Const,
    Query,
    QueryForm,
    QuerySyntaxError,
    SolutionMapping,
    TriplePattern,
    UnsupportedFeatureError,
    Var,
    ask,
    evaluate_bgp,
    parse_query,
    resolve_patterns,
)
from .store import (
    Graph,
    GraphTooLargeError,
    SnapshotError,
    load_snapshot,
    parse_ntriples,
    save_snapshot,
)
from .terms import RDF_TYPE_IRI, Term, TermId, TermKind, Triple

__version__ = "0.1.0"
