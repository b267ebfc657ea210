"""The unified scheduler engine (DESIGN.md §9 / S19).

One request/outcome contract over every scheduler in the repository,
a backend registry as the single dispatch point, and a
content-addressed result store for cross-run reuse::

    from repro.engine import ScheduleRequest, get_backend

    outcome = get_backend("pa-r").run(
        ScheduleRequest(instance, "pa-r", options={"iterations": 16}, seed=7)
    )

Importing this package registers the five built-in backends: ``pa``,
``pa-r``, ``is-<k>``, ``list``, ``exhaustive``.  The HTTP service
(:mod:`repro.engine.service`, which needs asyncio) loads on first use
of one of its names.
"""

from .backend import (
    EngineError,
    ScheduleOutcome,
    ScheduleRequest,
    SchedulerBackend,
    get_backend,
    list_backends,
    register_backend,
)
from .backends import (  # noqa: F401  (import registers the backends)
    DEFAULT_EXHAUSTIVE_NODE_LIMIT,
    DEFAULT_EXHAUSTIVE_TASK_LIMIT,
    ExhaustiveBackend,
    ISKBackend,
    ListBackend,
    PABackend,
    PARBackend,
    pa_options_dict,
)
from .batch import BatchRecord, BatchReport, load_manifest, run_batch
from .fleet_backend import FleetBackend  # noqa: F401  (import registers fleet-*)
from .store import DEFAULT_STORE_ROOT, STALE_TMP_AGE, ResultStore

# Defined in repro.engine.service and loaded lazily by __getattr__.
_SERVICE_NAMES = (
    "SchedulerService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceThread",
    "run_batch_remote",
)

__all__ = [
    "EngineError",
    "ScheduleOutcome",
    "ScheduleRequest",
    "SchedulerBackend",
    "get_backend",
    "list_backends",
    "register_backend",
    "PABackend",
    "PARBackend",
    "ISKBackend",
    "ListBackend",
    "ExhaustiveBackend",
    "pa_options_dict",
    "DEFAULT_EXHAUSTIVE_NODE_LIMIT",
    "DEFAULT_EXHAUSTIVE_TASK_LIMIT",
    "BatchRecord",
    "BatchReport",
    "load_manifest",
    "run_batch",
    "ResultStore",
    "DEFAULT_STORE_ROOT",
    "STALE_TMP_AGE",
    *_SERVICE_NAMES,
]


def __getattr__(name: str):
    if name in _SERVICE_NAMES:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
