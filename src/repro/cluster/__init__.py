"""Hierarchical clustering substrate used to refine grammar-rule motifs."""

from .linkage import Linkage, Merge, agglomerate, cut_k
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
    "Linkage",
    "MIN_SPLIT_FRACTION",
    "Merge",
    "RefinedCluster",
    "agglomerate",
    "align_groups",
    "bisect_refine",
    "centroid_of",
    "cut_k",
    "medoid_of",
]
