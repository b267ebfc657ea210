"""The five scheduler backends behind the registry.

Each adapter translates the uniform :class:`ScheduleRequest` into the
legacy entry point's native signature and the native result type into a
:class:`ScheduleOutcome` — the legacy functions remain the single
source of algorithmic truth, so an engine run is bit-identical to a
direct call (asserted by ``tests/unit/test_engine.py``).

Request options recognised per backend:

========== =====================================================
``pa``      ``floorplan`` (bool, default True) + any
            :class:`~repro.core.options.PAOptions` field
``pa-r``    as ``pa``, plus ``iterations`` (int restart cap) and
            ``jobs`` (restart worker processes; >1 or a set
            ``iterations`` routes through the parallel entry point)
``is-<k>``  ``node_limit``, ``branch_cap``, ``enable_module_reuse``,
            ``communication_overhead``, plus the search knobs ``memo``
            and ``incumbent_seed``
``list``    ``enable_module_reuse``, ``communication_overhead``
``exhaustive`` as ``is-<k>`` minus ``branch_cap``/``memo``/
            ``incumbent_seed``, plus ``task_limit`` (default 12) —
            the guard against exponential blow-up
========== =====================================================

Unknown option keys raise :class:`EngineError` — silent typos in a
cache key would poison the store with wrong addresses.
"""

from __future__ import annotations

import re
from dataclasses import fields as _dataclass_fields
from typing import Mapping

from ..baselines import ISKOptions, ISKScheduler, exhaustive_schedule, list_schedule
from ..core import (
    PAOptions,
    pa_r_schedule,
    pa_r_schedule_parallel,
    pa_schedule,
)
from .backend import (
    EngineError,
    ScheduleOutcome,
    ScheduleRequest,
    SchedulerBackend,
    register_backend,
    serialize_floorplan,
)

__all__ = [
    "PABackend",
    "PARBackend",
    "ISKBackend",
    "ListBackend",
    "ExhaustiveBackend",
    "pa_options_dict",
    "DEFAULT_EXHAUSTIVE_TASK_LIMIT",
    "DEFAULT_EXHAUSTIVE_NODE_LIMIT",
]

DEFAULT_EXHAUSTIVE_TASK_LIMIT = 12
DEFAULT_EXHAUSTIVE_NODE_LIMIT = 500_000

_PA_OPTION_FIELDS = frozenset(f.name for f in _dataclass_fields(PAOptions))


def pa_options_dict(options: PAOptions | None) -> dict:
    """JSON-safe request options equivalent to a :class:`PAOptions`.

    Only non-default fields are emitted, so the canonical hash of a
    request built from ``PAOptions()`` equals one built from ``{}``.
    """
    if options is None:
        return {}
    defaults = PAOptions()
    out: dict = {}
    for f in _dataclass_fields(PAOptions):
        value = getattr(options, f.name)
        if value != getattr(defaults, f.name):
            out[f.name] = value.value if hasattr(value, "value") else value
    return out


def _split_pa_options(
    options: Mapping, extra_keys: frozenset[str]
) -> tuple[PAOptions, dict]:
    """Build PAOptions from a request options dict; return the leftover
    backend-level keys.  Raises on anything unrecognised."""
    pa_kwargs = {}
    extras = {}
    for key, value in options.items():
        if key in _PA_OPTION_FIELDS:
            pa_kwargs[key] = value
        elif key in extra_keys:
            extras[key] = value
        else:
            raise EngineError(
                f"unknown option {key!r}; valid: "
                f"{sorted(_PA_OPTION_FIELDS | extra_keys)}"
            )
    return PAOptions(**pa_kwargs), extras


def _make_floorplanner(request: ScheduleRequest, floorplanner, want: bool):
    """The planner to use: the caller's, a fresh one, or None."""
    if not want:
        return None
    if floorplanner is not None:
        return floorplanner
    from ..floorplan import Floorplanner

    return Floorplanner.for_architecture(request.instance.architecture)


def _planner_stats(floorplanner) -> dict:
    stats = getattr(floorplanner, "stats", None)
    return dict(stats) if isinstance(stats, dict) else {}


def _history_payload(history) -> list:
    return [[float(t), float(m)] for t, m in history]


@register_backend
class PABackend(SchedulerBackend):
    """The deterministic PA algorithm with the Section V-H loop."""

    name = "pa"

    def run(self, request: ScheduleRequest, floorplanner=None) -> ScheduleOutcome:
        options, extras = _split_pa_options(request.options, frozenset({"floorplan"}))
        planner = _make_floorplanner(
            request, floorplanner, extras.get("floorplan", True)
        )
        result = pa_schedule(request.instance, options, floorplanner=planner)
        return ScheduleOutcome(
            schedule=result.schedule,
            feasible=result.feasible,
            makespan=result.schedule.makespan,
            scheduling_time=result.scheduling_time,
            floorplanning_time=result.floorplanning_time,
            backend=self.name,
            iterations=result.iterations,
            floorplan=serialize_floorplan(result.floorplan),
            metadata={
                "shrink_iterations": result.shrink_iterations,
                "floorplan_stats": _planner_stats(planner),
            },
        )


@register_backend
class PARBackend(SchedulerBackend):
    """PA-R (Algorithm 1) — serial, or restart-parallel when the
    request sets ``jobs`` > 1 or pins an ``iterations`` cap."""

    name = "pa-r"

    def check_request(self, request: ScheduleRequest) -> None:
        if request.budget is None and request.options.get("iterations") is None:
            raise EngineError(
                "pa-r needs a budget (seconds) and/or an 'iterations' option"
            )

    def run(self, request: ScheduleRequest, floorplanner=None) -> ScheduleOutcome:
        self.check_request(request)
        options, extras = _split_pa_options(
            request.options, frozenset({"floorplan", "iterations", "jobs"})
        )
        planner = _make_floorplanner(
            request, floorplanner, extras.get("floorplan", True)
        )
        iterations = extras.get("iterations")
        jobs = extras.get("jobs", 1)
        if jobs > 1 or iterations is not None:
            result = pa_r_schedule_parallel(
                request.instance,
                time_budget=None if iterations is not None else request.budget,
                iterations=iterations,
                options=options,
                floorplanner=planner,
                seed=request.seed,
                jobs=jobs,
            )
        else:
            result = pa_r_schedule(
                request.instance,
                time_budget=request.budget,
                options=options,
                floorplanner=planner,
                seed=request.seed,
            )
        return ScheduleOutcome(
            schedule=result.schedule,
            feasible=result.feasible,
            makespan=result.schedule.makespan,
            scheduling_time=result.scheduling_time,
            floorplanning_time=result.floorplanning_time,
            backend=self.name,
            iterations=result.iterations,
            floorplan=serialize_floorplan(result.floorplan),
            metadata={
                "history": _history_payload(result.history),
                "floorplan_stats": _planner_stats(planner),
            },
        )


_ISK_PATTERN = re.compile(r"^is-([1-9]\d*)$")


@register_backend
class ISKBackend(SchedulerBackend):
    """The IS-k family: ``is-1``, ``is-5``, any ``is-<k>``."""

    name = "is-<k>"
    # Version 2: the trail search engine reports provenance (node
    # counts, search stats) the version-1 copy engine did not; stored
    # version-1 outcomes are schedule-identical but carry stale
    # metadata, so they must not be replayed as current.
    provenance_version = 2
    _OPTION_KEYS = frozenset(
        {
            "node_limit",
            "branch_cap",
            "enable_module_reuse",
            "communication_overhead",
            "memo",
            "incumbent_seed",
        }
    )

    def __init__(self, k: int = 1) -> None:
        self.k = k

    @classmethod
    def matches(cls, algorithm: str) -> bool:
        return _ISK_PATTERN.match(algorithm) is not None

    @classmethod
    def create(cls, algorithm: str) -> "ISKBackend":
        return cls(k=int(_ISK_PATTERN.match(algorithm).group(1)))

    def run(self, request: ScheduleRequest, floorplanner=None) -> ScheduleOutcome:
        unknown = set(request.options) - self._OPTION_KEYS
        if unknown:
            raise EngineError(
                f"unknown option(s) {sorted(unknown)}; valid: "
                f"{sorted(self._OPTION_KEYS)}"
            )
        result = ISKScheduler(
            ISKOptions(k=self.k, **request.options)
        ).schedule(request.instance)
        return ScheduleOutcome(
            schedule=result.schedule,
            feasible=result.feasible,
            makespan=result.schedule.makespan,
            scheduling_time=result.elapsed,
            floorplanning_time=0.0,
            backend=f"is-{self.k}",
            iterations=result.iterations,
            metadata={"nodes": result.nodes, "stats": dict(result.stats)},
        )


@register_backend
class ListBackend(SchedulerBackend):
    """The HEFT-priority greedy list scheduler."""

    name = "list"
    _OPTION_KEYS = frozenset({"enable_module_reuse", "communication_overhead"})

    def run(self, request: ScheduleRequest, floorplanner=None) -> ScheduleOutcome:
        unknown = set(request.options) - self._OPTION_KEYS
        if unknown:
            raise EngineError(
                f"unknown option(s) {sorted(unknown)}; valid: "
                f"{sorted(self._OPTION_KEYS)}"
            )
        result = list_schedule(request.instance, **request.options)
        return ScheduleOutcome(
            schedule=result.schedule,
            feasible=result.feasible,
            makespan=result.schedule.makespan,
            scheduling_time=result.elapsed,
            floorplanning_time=0.0,
            backend=self.name,
        )


@register_backend
class ExhaustiveBackend(SchedulerBackend):
    """Exact constructive search — guarded, exponential, tiny inputs only."""

    name = "exhaustive"
    provenance_version = 2  # runs on the IS-k engine; see ISKBackend
    _OPTION_KEYS = frozenset(
        {
            "node_limit",
            "task_limit",
            "enable_module_reuse",
            "communication_overhead",
        }
    )

    def check_request(self, request: ScheduleRequest) -> None:
        limit = request.options.get("task_limit", DEFAULT_EXHAUSTIVE_TASK_LIMIT)
        n = len(request.instance.taskgraph)
        if n > limit:
            raise EngineError(
                f"exhaustive search over {n} tasks exceeds the task limit "
                f"of {limit}: the constructive decision tree is exponential "
                f"in the task count. Use is-<k>/pa/pa-r for instances this "
                f"size, or raise the limit explicitly (option 'task_limit', "
                f"CLI --exhaustive-task-limit) if you really mean it."
            )

    def run(self, request: ScheduleRequest, floorplanner=None) -> ScheduleOutcome:
        unknown = set(request.options) - self._OPTION_KEYS
        if unknown:
            raise EngineError(
                f"unknown option(s) {sorted(unknown)}; valid: "
                f"{sorted(self._OPTION_KEYS)}"
            )
        self.check_request(request)
        kwargs = {
            k: v for k, v in request.options.items() if k != "task_limit"
        }
        kwargs.setdefault("node_limit", DEFAULT_EXHAUSTIVE_NODE_LIMIT)
        result = exhaustive_schedule(request.instance, **kwargs)
        return ScheduleOutcome(
            schedule=result.schedule,
            feasible=result.feasible,
            makespan=result.schedule.makespan,
            scheduling_time=result.elapsed,
            floorplanning_time=0.0,
            backend=self.name,
            iterations=result.iterations,
            metadata={"nodes": result.nodes, "stats": dict(result.stats)},
        )
