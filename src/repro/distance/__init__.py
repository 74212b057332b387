"""Distance functions: Euclidean family, closest-match search, DTW."""

from .best_match import (
    Match,
    batch_best_distances,
    batch_distance_profiles,
    best_match,
    distance_profile,
)
from .dtw import dtw_distance, envelope, lb_keogh
from .euclidean import (
    euclidean,
    euclidean_early_abandon,
    pairwise_euclidean,
    squared_euclidean,
    znormed_euclidean,
)

__all__ = [
    "Match",
    "batch_best_distances",
    "batch_distance_profiles",
    "best_match",
    "distance_profile",
    "dtw_distance",
    "envelope",
    "euclidean",
    "euclidean_early_abandon",
    "lb_keogh",
    "pairwise_euclidean",
    "squared_euclidean",
    "znormed_euclidean",
]
