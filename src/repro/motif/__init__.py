"""Grammar-based motif and discord discovery (the GrammarViz substrate).

RPM's exploratory side: recurrent variable-length pattern discovery in
a single series (:func:`find_motifs`), rule-density curves, and
rare-rule discord (anomaly) detection (:func:`find_discords_density`).
"""

from .discord import Discord, find_discord_brute_force, find_discords_density
from .discovery import find_motifs, rule_density

__all__ = [
    "Discord",
    "find_discord_brute_force",
    "find_discords_density",
    "find_motifs",
    "rule_density",
]
