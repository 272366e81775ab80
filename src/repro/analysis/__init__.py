"""Experiment harness: result tables and program profiling."""

from repro.analysis.report import format_table, ratio, series_text
from repro.analysis.profiler import Profile, ProfileEntry, profile_program

__all__ = [
    "Profile",
    "ProfileEntry",
    "format_table",
    "profile_program",
    "ratio",
    "series_text",
]
