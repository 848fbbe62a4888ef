"""Rounding half-integral subtour-elimination LP solutions to TSP tours.

The pipeline: discover the min-cut hierarchy of the 4-regular support
graph, sample a rooted spanning structure piece by piece (matroid
intersection or max-entropy trees on degree pieces, partner picks on
cycle pieces), then build a fractional odd-join whose expected cost beats
half the LP value by a fixed constant.  A Monte Carlo harness and an
exact oracle verify every probability bound the construction relies on.
"""

from .graph import (
    HalfIntegralInstance,
    MultiGraph,
    parse_instance,
    serialize_instance,
)
from .hierarchy import CutHierarchy, build_cactus, build_hierarchy, min_cuts_via_hierarchy
from .join import ReductionParams, classify
from .pipeline import SamplerParams, build_piece_samplers
from .params import optimize
from .engine import BatchEngine, CompiledInstance
from .stats import ExperimentConfig, run_suite

__all__ = [
    "BatchEngine",
    "CompiledInstance",
    "CutHierarchy",
    "ExperimentConfig",
    "HalfIntegralInstance",
    "MultiGraph",
    "ReductionParams",
    "SamplerParams",
    "build_cactus",
    "build_hierarchy",
    "build_piece_samplers",
    "classify",
    "min_cuts_via_hierarchy",
    "optimize",
    "parse_instance",
    "run_suite",
    "serialize_instance",
]
