"""Analytic models and result-table utilities.

- :func:`aggregation_time_model` / :func:`optimal_providers` — the
  Sec. III-E merge-and-download trade-off in closed form.
- :func:`aggregator_download_bytes` / :func:`naive_aggregation_time` —
  non-merge delay predictions.
- :func:`format_table` / :func:`series_shape` — benchmark output helpers.
- :func:`run_scale_sweep` / :func:`scale_manifest` — the population
  scaling trajectory and its CI regression gate (docs/SCALING.md).
- :func:`run_dirshard_sweep` / :func:`dirshard_manifest` — the
  directory-sharding trajectory (registrations/sec vs shard count) and
  its gate against ``benchmarks/BENCH_dirshard.json``.
- :func:`profile_manifest` — a host profile as a RunManifest, recorded
  and gated by ``python -m repro.cli profile`` against
  ``benchmarks/BENCH_profile_{fig1,p1000}.json``.
- :func:`diagnose_runs` / :class:`DiagnosisReport` — differential run
  diagnosis over manifest + profile pairs
  (``python -m repro.cli explain``).
"""

from .diagnose import (
    Attribution,
    DiagnosisReport,
    SubsystemShift,
    diagnose_runs,
    load_run_artifact,
)
from .delays import (
    aggregator_download_bytes,
    naive_aggregation_time,
    naive_collection_time,
    upload_time,
)
from .providers import (
    aggregation_time_model,
    optimal_providers,
    sweep_provider_model,
)
from .results import format_row, format_table, series_shape
from .scale import (
    DEFAULT_DIRSHARD_POPULATIONS,
    DEFAULT_POPULATIONS,
    DEFAULT_SHARD_COUNTS,
    DirshardPoint,
    DirshardScenario,
    MIN_GATED_SHARE,
    SHARE_THRESHOLD,
    ScalePoint,
    ScaleScenario,
    dirshard_manifest,
    format_dirshard_table,
    format_scale_table,
    profile_manifest,
    run_dirshard_point,
    run_dirshard_sweep,
    run_scale_point,
    run_scale_sweep,
    scale_manifest,
)
from .stats import Summary, bootstrap_ci, percentile, summarize
from .sweeps import Sweep, SweepResults, grid

__all__ = [
    "Attribution",
    "DEFAULT_DIRSHARD_POPULATIONS",
    "DEFAULT_POPULATIONS",
    "DEFAULT_SHARD_COUNTS",
    "DiagnosisReport",
    "DirshardPoint",
    "DirshardScenario",
    "MIN_GATED_SHARE",
    "SHARE_THRESHOLD",
    "ScalePoint",
    "ScaleScenario",
    "SubsystemShift",
    "aggregation_time_model",
    "aggregator_download_bytes",
    "format_row",
    "format_scale_table",
    "format_table",
    "naive_aggregation_time",
    "naive_collection_time",
    "optimal_providers",
    "profile_manifest",
    "Summary",
    "Sweep",
    "SweepResults",
    "bootstrap_ci",
    "diagnose_runs",
    "dirshard_manifest",
    "format_dirshard_table",
    "grid",
    "load_run_artifact",
    "percentile",
    "run_dirshard_point",
    "run_dirshard_sweep",
    "run_scale_point",
    "run_scale_sweep",
    "scale_manifest",
    "summarize",
    "series_shape",
    "sweep_provider_model",
    "upload_time",
]
