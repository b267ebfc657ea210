"""repro — reproduction of "Resource-Efficient Scheduling for
Partially-Reconfigurable FPGA-based Systems" (Purgato et al., 2016).

Public API tour
---------------
* :mod:`repro.model` — problem description (Section III): architecture,
  tasks with HW/SW implementations, task graphs, schedules.
* :mod:`repro.core` — the paper's contribution: the deterministic PA
  scheduler (Section V) and the randomized PA-R variant (Section VI).
* :mod:`repro.floorplan` — the floorplanning substrate of reference [3]
  used by the Section V-H feasibility check.
* :mod:`repro.baselines` — the IS-k iterative scheduler of reference [6]
  and a list-based greedy scheduler.
* :mod:`repro.engine` — unified scheduler engine: backend registry
  (every algorithm behind one request/outcome contract), canonical
  request hashing, the content-addressed result store and the batch
  service.
* :mod:`repro.benchgen` — synthetic task-graph suites (Section VII-A).
* :mod:`repro.validate` — independent schedule invariant checker.
* :mod:`repro.sim` — discrete-event executor: exact plan replay and
  runtime-jitter robustness studies.
* :mod:`repro.analysis` — experiment harness regenerating the paper's
  Table I and Figures 2-6, plus statistics, CSV export and Gantt
  rendering.

Quickstart::

    from repro import benchgen, core, floorplan, validate

    instance = benchgen.paper_instance(tasks=30, seed=7)
    planner = floorplan.Floorplanner.for_architecture(instance.architecture)
    result = core.pa_schedule(instance, floorplanner=planner)
    validate.check_schedule(instance, result.schedule).raise_if_invalid()
    print(result.schedule.makespan)

Every name below loads on first access (PEP 562), so ``import repro``
or ``import repro.cli`` pays only for the subpackages a command uses.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "baselines",
    "benchgen",
    "core",
    "engine",
    "floorplan",
    "sim",
    "model",
    "validate",
    "ScheduleOutcome",
    "ScheduleRequest",
    "get_backend",
    "PAOptions",
    "PAResult",
    "pa_r_schedule",
    "pa_schedule",
    "Architecture",
    "Implementation",
    "Instance",
    "ResourceVector",
    "Schedule",
    "Task",
    "TaskGraph",
    "zedboard",
    "__version__",
]

# Re-exported names by the subpackage that defines them; every other
# name in ``__all__`` is a subpackage.
_EXPORTED_FROM = {
    "core": ("PAOptions", "PAResult", "pa_r_schedule", "pa_schedule"),
    "engine": ("ScheduleOutcome", "ScheduleRequest", "get_backend"),
    "model": ("Architecture", "Implementation", "Instance", "ResourceVector",
              "Schedule", "Task", "TaskGraph", "zedboard"),
}
_OWNER = {name: package for package, names in _EXPORTED_FROM.items() for name in names}


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
        globals()[name] = value
        return value
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
