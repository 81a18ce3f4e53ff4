"""Core of the reproduction: the Planar index for scalar product queries."""

from .collection import PlanarIndexCollection, dedupe_parallel_normals
from .constraints import (
    ConjunctiveQuery,
    ConstraintAnswer,
    DisjunctiveQuery,
    answer_conjunction,
    answer_disjunction,
)
from .domains import ParameterDomain, QueryModel
from .persistence import PersistenceError, load_index, save_index
from .feature_store import FeatureStore
from .function_index import FunctionIndex, QueryAnswer
from .phi import FeatureMap, identity_map, polynomial_map, product_map
from .planar import PlanarIndex, QueryResult, QueryStats, WorkingQuery
from .query import Comparison, ScalarProductQuery, TopKQuery
from .selection import SelectionStrategy
from .sorted_keys import SortedKeyStore
from .topk import SharedCutoff, TopKBuffer, TopKResult

__all__ = [
    "Comparison",
    "ConjunctiveQuery",
    "ConstraintAnswer",
    "DisjunctiveQuery",
    "FeatureMap",
    "FeatureStore",
    "FunctionIndex",
    "ParameterDomain",
    "PersistenceError",
    "PlanarIndex",
    "PlanarIndexCollection",
    "QueryAnswer",
    "QueryModel",
    "QueryResult",
    "QueryStats",
    "ScalarProductQuery",
    "SelectionStrategy",
    "SharedCutoff",
    "SortedKeyStore",
    "TopKBuffer",
    "TopKQuery",
    "TopKResult",
    "WorkingQuery",
    "answer_conjunction",
    "answer_disjunction",
    "dedupe_parallel_normals",
    "identity_map",
    "load_index",
    "save_index",
    "polynomial_map",
    "product_map",
]
