"""Experiment harness, metrics, tables and Gantt rendering (Section VII).

Every name below loads its submodule on first access (PEP 562), so a
process that needs only :func:`resolve_jobs` or :func:`parallel_map`
does not pay for the experiment runner, the benchmark generator or the
report renderer.
"""

import importlib

__all__ = [
    "render_gantt",
    "convergence_csv",
    "export_all",
    "improvement_csv",
    "quality_records_csv",
    "Improvement",
    "group_improvement",
    "improvement_percent",
    "OnlineMetrics",
    "OnlineSweepPoint",
    "TenantMetrics",
    "online_metrics",
    "online_sweep",
    "render_online_metrics",
    "render_online_sweep",
    "parallel_map",
    "resolve_jobs",
    "RobustnessMetrics",
    "SweepPoint",
    "fault_sweep",
    "render_fault_sweep",
    "robustness_metrics",
    "ConvergenceResults",
    "ExperimentConfig",
    "QualityResults",
    "run_convergence",
    "run_quality",
    "ScheduleStats",
    "schedule_stats",
    "render_html_report",
    "write_html_report",
    "render_series",
    "render_table",
]

# Exported names by the submodule that defines them.
_EXPORTED_FROM = {
    "export": ("convergence_csv", "export_all", "improvement_csv",
               "quality_records_csv"),
    "gantt": ("render_gantt",),
    "metrics": ("Improvement", "group_improvement", "improvement_percent"),
    "online": ("OnlineMetrics", "OnlineSweepPoint", "TenantMetrics",
               "online_metrics", "online_sweep", "render_online_metrics",
               "render_online_sweep"),
    "parallel": ("parallel_map", "resolve_jobs"),
    "robustness": ("RobustnessMetrics", "SweepPoint", "fault_sweep",
                   "render_fault_sweep", "robustness_metrics"),
    "report": ("render_html_report", "write_html_report"),
    "stats": ("ScheduleStats", "schedule_stats"),
    "runner": ("ConvergenceResults", "ExperimentConfig", "QualityResults",
               "run_convergence", "run_quality"),
    "tables": ("render_series", "render_table"),
}
_OWNER = {name: module for module, names in _EXPORTED_FROM.items() for name in names}


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
