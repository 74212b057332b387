"""RPM core: the paper's primary contribution.

Public entry point: :class:`RPMClassifier`. The building blocks
(Algorithms 1-3 and the feature transform) are exported for
exploratory use and for the benchmark harness.
"""

from .candidates import find_candidates, find_class_candidates
from .explain import (
    PatternCoverage,
    PatternLocation,
    class_profile,
    explain_prediction,
    locate_pattern,
    pattern_coverage,
)
from .io import load_model, save_model
from .params import ParamRanges, ParamSelector, default_ranges
from .patterns import PatternCandidate, RepresentativePattern
from .rpm import RPMClassifier
from .selection import SelectionResult, compute_tau, find_distinct, remove_similar
from .transform import pattern_features

__all__ = [
    "ParamRanges",
    "PatternCoverage",
    "PatternLocation",
    "class_profile",
    "explain_prediction",
    "load_model",
    "locate_pattern",
    "pattern_coverage",
    "save_model",
    "ParamSelector",
    "PatternCandidate",
    "RPMClassifier",
    "RepresentativePattern",
    "SelectionResult",
    "compute_tau",
    "default_ranges",
    "find_candidates",
    "find_class_candidates",
    "find_distinct",
    "pattern_features",
    "remove_similar",
]
