"""Paper Figure 4: variable-length grammar-rule subsequences.

Verifies and reports the phenomenon Figure 4 illustrates on (a stand-in
for) SwedishLeaf class 4: one Sequitur rule maps to raw subsequences of
*different* lengths thanks to numerosity reduction, occurrences never
span concatenation junctions, and some instances may lack the motif
while others contain it more than once.
"""

from __future__ import annotations

import numpy as np

import harness
from repro.data import load
from repro.grammar.inference import discretize_class, induce_motifs
from repro.sax.discretize import SaxParams


def _grammar_experiment():
    dataset = load("SwedishLeafSim")
    label = dataset.classes()[3]
    instances = [row for row in dataset.class_instances(label)]
    params = SaxParams(30, 5, 5)
    record, starts, lengths = discretize_class(instances, params)
    motifs = sorted(
        induce_motifs(record, starts, lengths),
        key=lambda m: (m.support, m.frequency),
        reverse=True,
    )
    return dataset, instances, params, record, starts, lengths, motifs


def test_fig4_variable_length_motifs(benchmark):
    dataset, instances, params, record, starts, lengths, motifs = benchmark.pedantic(
        _grammar_experiment, rounds=1, iterations=1
    )
    assert motifs, "grammar induction found no repeated patterns"
    best = max(motifs, key=lambda m: len({o.length for o in m.occurrences}))

    span_lengths = sorted({occ.length for occ in best.occurrences})
    per_instance = np.bincount(
        [occ.instance for occ in best.occurrences], minlength=len(instances)
    )
    rows = [
        [f"R{m.rule_id}", " ".join(m.words[:4]), m.frequency, m.support,
         f"{min(o.length for o in m.occurrences)}-{max(o.length for o in m.occurrences)}"]
        for m in motifs[:10]
    ]
    report = "\n".join(
        [
            "Figure 4 — grammar motifs on SwedishLeafSim class 4",
            f"SAX words kept: {len(record)}  junction windows dropped: {record.dropped}",
            harness.format_table(["rule", "words", "freq", "support", "len range"], rows),
            "",
            f"most length-diverse rule R{best.rule_id}: lengths {span_lengths}, "
            f"occurrences per instance {per_instance.tolist()}",
        ]
    )
    harness.write_report("fig4_grammar_motifs", report)

    # Figure 4's observations:
    # (1) variable-length mapping exists somewhere in the rule set;
    lengths_per_rule = [{o.length for o in m.occurrences} for m in motifs]
    assert any(len(s) > 1 for s in lengths_per_rule)
    # (2) no occurrence crosses an instance junction;
    ends = np.asarray(starts) + np.asarray(lengths)
    for motif in motifs:
        for occ in motif.occurrences:
            assert starts[occ.instance] <= occ.start
            assert occ.end <= ends[occ.instance]
    # (3) a motif can be missing from some instances or repeat within one.
    assert (per_instance == 0).any() or (per_instance > 1).any()
