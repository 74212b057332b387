import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from repro.sax.alphabet import (
    breakpoints,
    indices_to_letters,
    letters_to_indices,
    symbol_distance_table,
    symbols_for,
)


class TestBreakpoints:
    def test_binary_alphabet_cuts_at_zero(self):
        np.testing.assert_allclose(breakpoints(2), [0.0], atol=1e-12)

    def test_known_values_alpha_4(self):
        # Classic SAX table: -0.6745, 0, 0.6745 for alpha=4.
        np.testing.assert_allclose(breakpoints(4), [-0.6745, 0.0, 0.6745], atol=1e-3)

    def test_equiprobable_regions(self):
        cuts = breakpoints(5)
        probs = np.diff(np.concatenate([[0.0], norm.cdf(cuts), [1.0]]))
        np.testing.assert_allclose(probs, np.full(5, 0.2), atol=1e-12)

    def test_sorted_and_symmetric(self):
        cuts = breakpoints(7)
        assert np.all(np.diff(cuts) > 0)
        np.testing.assert_allclose(cuts, -cuts[::-1], atol=1e-12)

    def test_count(self):
        for alpha in range(2, 13):
            assert breakpoints(alpha).size == alpha - 1

    @pytest.mark.parametrize("alpha", range(2, 27))
    def test_literal_rows_equal_scipy_bit_for_bit(self, alpha):
        # A breakpoint one ulp off can flip the SAX code of a PAA mean
        # that sits on it, so the literals must be scipy's exact values.
        expected = norm.ppf(np.arange(1, alpha) / alpha)
        assert breakpoints(alpha).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha", [0, 1, 27, -3])
    def test_rejects_bad_sizes(self, alpha):
        with pytest.raises(ValueError):
            breakpoints(alpha)


class TestLetters:
    def test_symbols_for(self):
        assert symbols_for(4) == "abcd"

    def test_roundtrip(self):
        word = "acdba"
        assert indices_to_letters(letters_to_indices(word)) == word

    def test_indices_to_letters(self):
        assert indices_to_letters(np.array([0, 2, 1])) == "acb"


class TestDistanceTable:
    def test_adjacent_letters_are_free(self):
        table = symbol_distance_table(5)
        for i in range(5):
            for j in range(5):
                if abs(i - j) <= 1:
                    assert table[i, j] == 0.0

    def test_symmetric_nonnegative(self):
        table = symbol_distance_table(6)
        np.testing.assert_allclose(table, table.T, atol=1e-12)
        assert (table >= 0).all()

    def test_gap_values(self):
        cuts = breakpoints(4)
        table = symbol_distance_table(4)
        assert abs(table[0, 2] - (cuts[1] - cuts[0])) < 1e-12
        assert abs(table[0, 3] - (cuts[2] - cuts[0])) < 1e-12

    def test_monotone_in_letter_gap(self):
        table = symbol_distance_table(8)
        row = table[0]
        assert np.all(np.diff(row[1:]) >= 0)


_LOADED_SCIPY_MODULES = (
    "import sys, repro; "
    "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
)


def test_import_repro_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = os.environ.copy()
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_SCIPY_MODULES],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
