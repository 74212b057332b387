"""Grammar-induction substrate: Sequitur and junction-aware inference."""

from .inference import (
    Occurrence,
    RuleMotif,
    concatenate_with_junctions,
    discretize_class,
    find_word_occurrences,
    induce_motifs,
)
from .sequitur import Rule, Sequitur, induce_grammar

__all__ = [
    "Occurrence",
    "Rule",
    "RuleMotif",
    "Sequitur",
    "concatenate_with_junctions",
    "discretize_class",
    "find_word_occurrences",
    "induce_grammar",
    "induce_motifs",
]
