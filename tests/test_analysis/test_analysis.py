"""Tests for table rendering, statistics, and exhibit regeneration."""

import math

import pytest

from repro.analysis.exhibits import (
    PAPER_TABLE2,
    all_exhibits_text,
    build_figure1_demo,
    derive_lock_compatibility,
    figure1_text,
    table1_text,
    table2_text,
)
from repro.analysis.stats import monotone_increasing
from repro.analysis.tables import render_dict_table, render_table
from repro.core.cost_based import figure1_trace
from repro.core.locks import LockMode


class TestTables:
    def test_render_basic(self):
        text = render_table(["a", "b"], [[1, 2], [3, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_float_formatting(self):
        text = render_table(["x"], [[1.5], [math.inf], [2.0]])
        assert "1.5" in text
        assert "inf" in text
        assert "2" in text

    def test_dict_table(self):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        text = render_dict_table(rows)
        assert "3" in text

    def test_dict_table_empty(self):
        assert render_dict_table([], title="none") == "none"

    def test_empty_rows_ok(self):
        text = render_table(["col"], [])
        assert "col" in text


class TestStats:
    def test_monotone_helpers(self):
        assert not monotone_increasing([2.0, 1.0])
        assert monotone_increasing([1.0, 1.5, 2.0])
        assert monotone_increasing([1.0, 0.95, 2.0], slack=0.1)


class TestExhibits:
    def test_table1_mentions_all_classes(self):
        text = table1_text()
        for token in ("compensatable", "pivot", "retriable",
                      "compensating"):
            assert token in text

    def test_derived_table2_matches_paper(self):
        assert derive_lock_compatibility() == PAPER_TABLE2

    def test_table2_text_renders_modes(self):
        text = table2_text()
        assert text.count("ordered-shared") == 2
        assert text.count("exclusive") == 2

    def test_figure1_demo_crosses_threshold(self):
        registry, names, threshold = build_figure1_demo()
        steps = figure1_trace(registry, names, threshold)
        assert any(step.pseudo_pivot for step in steps)
        assert steps[-1].real_pivot
        assert math.isinf(steps[-1].wcc_after)

    def test_figure1_text(self):
        text = figure1_text()
        assert "pseudo-pivot" in text
        assert "Wcc" in text

    def test_all_exhibits_concatenates(self):
        text = all_exhibits_text()
        assert "Table 1" in text
        assert "Table 2" in text
        assert "Figure 1" in text

    def test_paper_table2_content(self):
        assert PAPER_TABLE2[(LockMode.C, LockMode.C)] is True
        assert PAPER_TABLE2[(LockMode.C, LockMode.P)] is False
        assert PAPER_TABLE2[(LockMode.P, LockMode.C)] is True
        assert PAPER_TABLE2[(LockMode.P, LockMode.P)] is False
