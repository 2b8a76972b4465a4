"""Experiment support: workloads, metrics, tables, timelines, profiles."""

from .metrics import DeltaTrial, TrialSummary, measure_delta_star, summarize_trials
from .profiling import (
    SpanStats,
    metrics_record,
    render_flame,
    render_hot_phases,
    render_phase_flame,
    render_summary,
    summarize_spans,
)
from .tables import format_table, print_table
from .timeline import (
    CausalGraph,
    causal_records,
    cone_json,
    render_dot,
    render_explanation,
    render_timeline,
)
from .transcripts import TranscriptSummary, render_transcript, summarize_transcript
from .workloads import (
    WORKLOADS,
    clustered_inputs,
    collinear_inputs,
    degenerate_inputs,
    duplicated_inputs,
    gaussian_inputs,
    make_workload,
    simplex_inputs,
    sphere_inputs,
)

__all__ = [
    "CausalGraph",
    "DeltaTrial",
    "causal_records",
    "cone_json",
    "render_dot",
    "render_explanation",
    "render_timeline",
    "TranscriptSummary",
    "TrialSummary",
    "WORKLOADS",
    "SpanStats",
    "metrics_record",
    "render_flame",
    "render_hot_phases",
    "render_phase_flame",
    "render_summary",
    "render_transcript",
    "summarize_spans",
    "summarize_transcript",
    "clustered_inputs",
    "collinear_inputs",
    "degenerate_inputs",
    "duplicated_inputs",
    "format_table",
    "gaussian_inputs",
    "make_workload",
    "measure_delta_star",
    "print_table",
    "simplex_inputs",
    "sphere_inputs",
    "summarize_trials",
]
