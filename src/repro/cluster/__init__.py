"""Hierarchical clustering substrate used to refine grammar-rule motifs."""

from .refine import (
    MIN_SPLIT_FRACTION,
    AlignedGroups,
    RefinedCluster,
    align_groups,
    bisect_refine,
    centroid_of,
    medoid_of,
)

__all__ = [
    "AlignedGroups",
    "MIN_SPLIT_FRACTION",
    "RefinedCluster",
    "align_groups",
    "bisect_refine",
    "centroid_of",
    "medoid_of",
]
