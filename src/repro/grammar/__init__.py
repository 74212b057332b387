"""Grammar-induction substrate: Sequitur and junction-aware inference."""

from .inference import (
    MotifTable,
    Occurrence,
    RuleMotif,
    concatenate_with_junctions,
    discretize_class,
    induce_motifs,
)
from .sequitur import Rule, Sequitur, induce_grammar

__all__ = [
    "MotifTable",
    "Occurrence",
    "Rule",
    "RuleMotif",
    "Sequitur",
    "concatenate_with_junctions",
    "discretize_class",
    "induce_grammar",
    "induce_motifs",
]
