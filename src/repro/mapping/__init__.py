"""Topology-aware rank-reordering mappers — the paper's core contribution.

The four fine-tuned heuristics (RDMH, RMH, BBMH, BGMH), the Bruck
extension (BruckMH), the general-purpose baselines (Scotch-like recursive
bipartitioning, Hoefler-Snir greedy), initial layouts, pattern graphs,
quality metrics and the :func:`reorder_ranks` entry point.
"""

from repro.mapping.analysis import StageLocality, locality_table, stage_locality
from repro.mapping.base import (
    CorePool,
    GreedyPlacementMapper,
    HierarchicalFreePool,
    Mapper,
    PoolExhaustedError,
    as_distance_lookup,
    map_batch,
)
from repro.mapping.cache import (
    MappingCache,
    global_mapping_cache,
    mapping_cache_key,
)
from repro.mapping.rdmh import RDMH
from repro.mapping.rmh import RMH
from repro.mapping.bbmh import BBMH
from repro.mapping.bgmh import BGMH
from repro.mapping.bruckmh import BruckMH
from repro.mapping.scotch import ScotchLikeMapper
from repro.mapping.greedy import GreedyGraphMapper
from repro.mapping.patterns import PATTERN_BUILDERS, PatternGraph, build_pattern
from repro.mapping.initial import (
    INITIAL_LAYOUTS,
    block_bunch,
    block_scatter,
    cyclic_bunch,
    cyclic_scatter,
    make_layout,
)
from repro.mapping.metrics import (
    MappingQuality,
    dilation_stats,
    hop_bytes,
    quality,
    schedule_max_congestion,
)
from repro.mapping.optimal import MAX_OPTIMAL_P, OptimalMapper
from repro.mapping.refine import RefinementResult, SwapRefiner
from repro.mapping.reorder import (
    HEURISTICS,
    MAPPER_KINDS,
    ReorderResult,
    reorder_all,
    reorder_ranks,
)

__all__ = [
    "StageLocality",
    "stage_locality",
    "locality_table",
    "CorePool",
    "HierarchicalFreePool",
    "map_batch",
    "PoolExhaustedError",
    "Mapper",
    "GreedyPlacementMapper",
    "as_distance_lookup",
    "MappingCache",
    "global_mapping_cache",
    "mapping_cache_key",
    "RDMH",
    "RMH",
    "BBMH",
    "BGMH",
    "BruckMH",
    "ScotchLikeMapper",
    "GreedyGraphMapper",
    "PatternGraph",
    "PATTERN_BUILDERS",
    "build_pattern",
    "INITIAL_LAYOUTS",
    "block_bunch",
    "block_scatter",
    "cyclic_bunch",
    "cyclic_scatter",
    "make_layout",
    "MappingQuality",
    "hop_bytes",
    "dilation_stats",
    "quality",
    "schedule_max_congestion",
    "OptimalMapper",
    "MAX_OPTIMAL_P",
    "SwapRefiner",
    "RefinementResult",
    "HEURISTICS",
    "MAPPER_KINDS",
    "ReorderResult",
    "reorder_ranks",
    "reorder_all",
]
