"""Regenerate EXPERIMENTS.md from the latest benchmark reports.

Run after a benchmark pass::

    RPM_BENCH_SUITE=small pytest benchmarks/ --benchmark-only
    python benchmarks/update_experiments.py

The script stitches the paper-reported values (static text below) with
the measured tables found in ``benchmarks/results/*.txt``.
"""

from __future__ import annotations

import datetime
import os
import platform
from pathlib import Path

RESULTS = Path(__file__).parent / "results"
TARGET = Path(__file__).parent.parent / "EXPERIMENTS.md"

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (§5-§6), what the
paper reports, and what this reproduction measures. Regenerate with::

    RPM_BENCH_SUITE=small pytest benchmarks/ --benchmark-only   # or full
    python benchmarks/update_experiments.py

**Reading the numbers.** The paper ran on the real UCR archive with the
authors' Java implementations; this build is offline and runs every
method in one Python process on synthetic UCR-like stand-ins
(DESIGN.md §4). Absolute error rates and seconds are therefore not
comparable — what must (and does) reproduce is the *shape* of each
result: who wins, the significance relationships, the robustness and
sensitivity patterns. Each section lists the paper's claim first, then
the measured table, then the verdict. Shape assertions are also
enforced programmatically inside the bench modules.
"""

SECTIONS = [
    (
        "Table 1 + Figure 7 — classification accuracy",
        "table1_accuracy",
        """RPM is second-best overall (most wins go to Learning
Shapelets) but the RPM-vs-LS difference is *not* significant (Wilcoxon
p = 0.1834 > 0.05), while RPM is significantly more accurate than Fast
Shapelets (p = 0.001) and competitive with NN-DTWB and SAX-VSM.""",
        """Verdict: shape holds — RPM sits at/near the top of the mean-error
ranking, is statistically indistinguishable from the best rival, and
does not lose to FS (assertions in ``bench_table1_accuracy.py``).""",
    ),
    (
        "Table 2 + Figure 8 — running time",
        "table2_runtime",
        """RPM's total time (including DIRECT parameter selection) is
comparable to Fast Shapelets and much faster than Learning Shapelets —
average 78× speedup over LS, maximum 587× (Adiac).""",
        """Verdict: half of the ordering holds. LS is the slowest method and
RPM's summed time is below LS's — the one runtime claim
``bench_table2_runtime.py`` asserts. "Comparable to FS" does not hold
on every row: FS is the fastest method on most datasets, and on the
long-series rows (CoffeeSim, ECGFiveDaysSim) RPM takes more than ten
times FS's time in the table above; no bound against FS is asserted.
The LS ratio is smaller than the paper's 78× because our LS is a
vectorized NumPy reimplementation while the paper timed the authors'
original (much slower) release; see DESIGN.md §4.""",
    ),
    (
        "Table 3 + Figure 9 — τ sensitivity",
        "table3_tau",
        """sweeping the similarity threshold τ over the 10th-90th
percentile changes the average classification accuracy by less than
1 % while larger τ shortens the selection stage; 30 % is chosen as the
best accuracy/speed trade-off.""",
        """Verdict: same pattern — error is flat for τ ≤ 50th percentile and
only drifts at the aggressive 90th percentile, while selection time
falls monotonically as τ grows.""",
    ),
    (
        "Table 4 / Figure 10 — rotated test data",
        "table4_rotation",
        """with test series rotated at random cut points, NN-ED and
NN-DTWB degrade drastically; SAX-VSM and RPM barely move, and RPM takes
the most wins (4 of 5 datasets).""",
        """Verdict: shape holds — both global-distance baselines collapse
toward chance, rotation-invariant RPM stays near its unrotated error
and takes the most wins.""",
    ),
    (
        "Figure 2 — CBF patterns",
        "fig2_cbf_patterns",
        """the best patterns are the class signatures — plateau/drop
for Cylinder, rising ramp + sudden drop for Bell, sudden rise +
decreasing ramp for Funnel.""",
        """Verdict: reproduced (run ``python examples/quickstart.py`` to see
the sparkline renderings; the mined shapes match the description).""",
    ),
    (
        "Figure 3 — Coffee patterns",
        "fig3_coffee_patterns",
        """the discovered patterns cover the discriminative caffeine
and chlorogenic-acid spectral bands plus other constituent regions.""",
        """Verdict: reproduced — the bench verifies at least one pattern spans
the caffeine/chlorogenic bands of the synthetic spectra.""",
    ),
    (
        "Figures 5 & 6 — ECGFiveDays feature space",
        "fig5_fig6_ecg_feature_space",
        """the two classes look alike in raw space, but the transform
onto the top-2 patterns makes the training data linearly separable.""",
        """Verdict: reproduced — a linear SVM separates the transformed
training data (separability ≥ 0.95 asserted).""",
    ),
    (
        "Figure 4 — variable-length grammar motifs",
        "fig4_grammar_motifs",
        """one grammar rule maps to subsequences of different lengths
(27-28 in their SwedishLeaf example); some instances lack the motif,
others contain it twice; junction-spanning artifacts are excluded.""",
        """Verdict: reproduced — the bench asserts variable-length spans,
junction safety, and missing/repeated per-instance occurrences.""",
    ),
    (
        "Figure 1 — pattern structure on Cricket (motivation)",
        "fig1_cricket",
        """the three rival philosophies find very different patterns on
the Cricket gesture data: SAX-VSM keeps a large fixed-length
vocabulary, Fast Shapelets one/few shared branching shapelets, and RPM
a small class-specific variable-length set per gesture.""",
        """Verdict: reproduced structurally — RPM's set is small,
variable-length, class-specific; FS uses few shared shapelets; SAX-VSM
holds a vocabulary two orders of magnitude larger.""",
    ),
    (
        "Robustness sweep (extension of the §1 noise claim)",
        "robustness",
        """"the classification procedure based on a set of highly
class-characteristic short patterns will provide high generalization
performance under noise" — evidenced qualitatively on the noisy ICU
data of §6.2.""",
        """Verdict: with corruption present in both splits (the medical-data
regime) RPM stays more accurate than the global distance under every
corruption type; the appendix documents that test-only corruption
(distribution shift) hurts any learned feature space, RPM included.""",
    ),
    (
        "§5.3 — DIRECT evaluation count R",
        "direct_evals",
        """the average number of unique SAX-parameter combinations
DIRECT evaluates is below 200 — smaller than the average series length
(363) and far below the exhaustive grid.""",
        """Verdict: holds with margin (R ≈ 30-60 per dataset here; both the
R < 200 bound and the ≪ grid-size bound are asserted).""",
    ),
    (
        "§6.2 — medical alarm case study",
        "case_medical_alarm",
        """on ICU arterial-blood-pressure alarm data (MIMIC II), RPM
handles the noisy physiological series well relative to the rivals.""",
        """Verdict: on the synthetic ABP stand-in RPM clearly beats the
global-distance baseline and is competitive with SAX-VSM; the
multiclass regime extension also trains cleanly.""",
    ),
    (
        "Ablations (DESIGN.md §7 — not in the paper)",
        None,
        """Design choices the paper makes in passing, each isolated by a
sweep: cluster prototype (centroid vs medoid), numerosity reduction
on/off, downstream classifier, and the two readings of the γ-support
rule.""",
        None,
    ),
]

ABLATIONS = [
    "ablation_prototype",
    "ablation_numerosity",
    "ablation_classifier",
    "ablation_support_mode",
]


def _load(name: str) -> str:
    path = RESULTS / f"{name}.txt"
    if not path.exists():
        return f"(no report found — run the benchmarks to generate {path.name})"
    return path.read_text().rstrip()


def build() -> str:
    parts = [HEADER]
    scale = os.environ.get("RPM_BENCH_SUITE", "small")
    parts.append(
        f"_Last regenerated {datetime.date.today().isoformat()} on "
        f"{platform.machine()}/{platform.system()}, Python "
        f"{platform.python_version()}, suite scale `{scale}`._\n"
    )
    for title, report, paper_text, verdict in SECTIONS:
        parts.append(f"\n## {title}\n")
        parts.append(f"**Paper.** {paper_text}\n")
        if report is not None:
            parts.append("**Measured.**\n\n```\n" + _load(report) + "\n```\n")
            parts.append(f"{verdict}\n")
        else:
            for name in ABLATIONS:
                parts.append("```\n" + _load(name) + "\n```\n")
    return "\n".join(parts)


if __name__ == "__main__":
    TARGET.write_text(build())
    print(f"wrote {TARGET}")
