"""Table formatting for the benchmark harness."""

from repro.analysis.tables import format_table

__all__ = ["format_table"]
