"""Symbolic Aggregate approXimation (SAX) substrate.

Implements the discretization pipeline RPM builds on: z-normalization,
Piecewise Aggregate Approximation, equiprobable Gaussian breakpoints,
word conversion, the MINDIST lower bound, and sliding-window
discretization with numerosity reduction.
"""

from .alphabet import (
    MAX_ALPHABET,
    MIN_ALPHABET,
    breakpoints,
    indices_to_letters,
    letters_to_indices,
    symbol_distance_table,
    symbols_for,
)
from .discretize import (
    REDUCTIONS,
    SaxParams,
    SaxRecord,
    discretize,
    sliding_windows,
)
from .paa import paa, paa_rows
from .sax import mindist, sax_word, sax_words_for_rows
from .znorm import NORM_THRESHOLD, znorm, znorm_rows

__all__ = [
    "MAX_ALPHABET",
    "MIN_ALPHABET",
    "NORM_THRESHOLD",
    "REDUCTIONS",
    "SaxParams",
    "SaxRecord",
    "breakpoints",
    "discretize",
    "indices_to_letters",
    "letters_to_indices",
    "mindist",
    "paa",
    "paa_rows",
    "sax_word",
    "sax_words_for_rows",
    "sliding_windows",
    "symbol_distance_table",
    "symbols_for",
    "znorm",
    "znorm_rows",
]
