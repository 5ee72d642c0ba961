"""Plain-text reporting of experiment results.

Benchmarks print the same rows/series each paper figure plots; these
helpers render them as aligned ASCII tables and labelled series so the
EXPERIMENTS.md comparisons can be regenerated verbatim.
"""

from repro.reporting.figures import (
    format_detection_table,
    format_fig4_series,
    format_link_series,
    format_success_bins,
)
from repro.reporting.tables import format_kv, format_sweep_summary, format_table

__all__ = [
    "format_table",
    "format_kv",
    "format_sweep_summary",
    "format_fig4_series",
    "format_detection_table",
    "format_success_bins",
    "format_link_series",
]
