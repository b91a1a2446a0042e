"""Analysis: CDFs, aggregation, and text reports."""

from repro.analysis.aggregate import HourlyStats, hourly_averages, summarize_by_label
from repro.analysis.cdf import EmpiricalCDF, empirical_cdf
from repro.analysis.fairness import driver_income_report, gini, jain_index
from repro.analysis.report import format_cdf_table, format_summary_table, format_table
from repro.analysis.stats import MetricSummary, ordering_consistency, summarize_samples
from repro.analysis.timeline import downsample_frames, load_profile, timeline_table

__all__ = [
    "EmpiricalCDF",
    "empirical_cdf",
    "hourly_averages",
    "HourlyStats",
    "summarize_by_label",
    "format_table",
    "format_cdf_table",
    "format_summary_table",
    "MetricSummary",
    "summarize_samples",
    "ordering_consistency",
    "gini",
    "jain_index",
    "driver_income_report",
    "downsample_frames",
    "timeline_table",
    "load_profile",
]
