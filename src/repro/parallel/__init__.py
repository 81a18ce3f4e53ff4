"""Sharded parallel query execution (see ``docs/parallel.md``).

The engine partitions the indexed points into ``S`` shards — membership a
pure function of the point id — and runs each query over the per-shard
:class:`~repro.core.collection.PlanarIndexCollection` instances in turn,
with one choice of index per query for all of them, merging exact
per-shard answers into results bit-identical to the monolithic
:class:`~repro.core.function_index.FunctionIndex`.
"""

from .engine import ShardedFunctionIndex
from .sharding import assign_shards
from .view import FeatureStoreView

__all__ = [
    "ShardedFunctionIndex",
    "FeatureStoreView",
    "assign_shards",
]
