"""Analysis: text tables, statistics, and paper-exhibit regeneration."""

from repro.analysis.exhibits import (
    PAPER_TABLE2,
    all_exhibits_text,
    build_figure1_demo,
    derive_lock_compatibility,
    figure1_text,
    table1_text,
    table2_text,
)
from repro.analysis.export import rows_to_json
from repro.analysis.stats import monotone_increasing
from repro.analysis.tables import render_dict_table, render_table
from repro.analysis.timeline import render_timeline

__all__ = [
    "PAPER_TABLE2",
    "all_exhibits_text",
    "build_figure1_demo",
    "derive_lock_compatibility",
    "figure1_text",
    "monotone_increasing",
    "render_dict_table",
    "render_table",
    "render_timeline",
    "rows_to_json",
    "table1_text",
    "table2_text",
]
