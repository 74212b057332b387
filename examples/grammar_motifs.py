"""Paper Figure 4: variable-length grammar-rule motifs.

Concatenate one class's training series, discretize, induce a Sequitur
grammar and show how a single rule maps back to raw subsequences of
*different lengths* across different training instances — the effect
of numerosity reduction. Run with ``python examples/grammar_motifs.py``.
"""

from __future__ import annotations

import numpy as np

from example_utils import heading, sparkline

from repro.data import load
from repro.grammar.inference import discretize_class, induce_motifs
from repro.sax.discretize import SaxParams


def main() -> None:
    dataset = load("SwedishLeafSim")
    label = dataset.classes()[3]  # the paper's Figure 4 uses class 4
    instances = [row for row in dataset.class_instances(label)]
    params = SaxParams(30, 5, 5)

    print(heading(f"Grammar motifs in {dataset.name}, class {label} (Figure 4)"))
    print(f"{len(instances)} training instances of length {dataset.series_length}, "
          f"SAX params {params.as_tuple()}")

    record, starts, lengths = discretize_class(instances, params)
    print(f"discretized to {len(record)} SAX words "
          f"({record.dropped} junction-spanning windows dropped)")

    motifs = sorted(
        induce_motifs(record, starts, lengths),
        key=lambda m: (m.support, m.frequency),
        reverse=True,
    )
    print(f"grammar produced {len(motifs)} candidate motifs\n")

    best = motifs[0]
    series = np.concatenate(instances)
    print(f"best motif: rule R{best.rule_id}, words = {' '.join(best.words)}")
    print(f"  {best.frequency} occurrences across {best.support} instances")
    span_lengths = sorted({occ.length for occ in best.occurrences})
    print(f"  occurrence lengths: {span_lengths} "
          "(variable-length, as in the paper's Figure 4)\n")
    for occ in best.occurrences[:8]:
        offset_in_instance = occ.start - starts[occ.instance]
        print(
            f"  instance {occ.instance:>2d}  offset {offset_in_instance:>4d}"
            f"  len {occ.length:>3d}  " + sparkline(series[occ.start : occ.end], width=40)
        )
    uncovered = set(range(len(instances))) - {o.instance for o in best.occurrences}
    if uncovered:
        print(f"\ninstances without this motif: {sorted(uncovered)} "
              "(the paper notes not every instance contains every motif)")


if __name__ == "__main__":
    main()
