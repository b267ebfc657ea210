"""The unified scheduler contract: request, outcome, backend registry.

Every scheduler in the repository — PA, PA-R, IS-k, the list scheduler
and the exhaustive baseline — is reachable through one uniform shape::

    backend = get_backend("pa-r")
    outcome = backend.run(ScheduleRequest(instance, "pa-r", seed=7, budget=2.0))

:class:`ScheduleRequest` is pure content: instance, algorithm name,
JSON-safe options, seed and budget.  Its :meth:`ScheduleRequest.cache_key`
is a canonical content hash (``repro.model.canonical``), which is what
makes outcomes addressable in the on-disk result store — the same
request hashes to the same key in any process, on any machine.

:class:`ScheduleOutcome` is the uniform result: the schedule itself,
feasibility, makespan, the Table I timing splits, an optional
serialized floorplan witness and backend metadata.  It round-trips
through JSON bit-identically (``from_dict(to_dict()) . to_dict()`` is
the identity), which the store's warm-hit contract relies on.

Backends register themselves by name pattern; parameterized families
(``is-1``, ``is-5``, ``is-<k>``) match by prefix.  The registry is the
single dispatch point for the CLI, the experiment harness, the
fault-recovery repair path and the batch service.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping

from ..model import Instance, Schedule, content_hash

__all__ = [
    "EngineError",
    "ScheduleRequest",
    "ScheduleOutcome",
    "SchedulerBackend",
    "register_backend",
    "get_backend",
    "list_backends",
    "request_to_payload",
    "request_from_payload",
]


class EngineError(ValueError):
    """Raised for unknown algorithms and malformed requests."""


@dataclass
class ScheduleRequest:
    """One scheduling job: pure, hashable content.

    Attributes
    ----------
    instance:
        The problem to schedule.
    algorithm:
        Registry name — ``pa``, ``pa-r``, ``is-<k>``, ``list``,
        ``exhaustive``.
    options:
        JSON-safe backend options (e.g. ``{"floorplan": False}``,
        ``{"node_limit": 2000}``).  Part of the cache key, so only
        result-affecting knobs belong here; execution context such as a
        shared floorplanner is passed to :meth:`SchedulerBackend.run`
        instead.
    seed:
        RNG seed for randomized backends (PA-R).
    budget:
        Wall-clock budget in seconds (PA-R's ``timeToRun``).
    """

    instance: Instance
    algorithm: str = "pa"
    options: dict = field(default_factory=dict)
    seed: int | None = None
    budget: float | None = None

    def key_payload(self) -> dict:
        """The canonical content the cache key is computed over.

        Includes the backend's ``provenance_version`` when it is above
        the initial 1 — bumping the version retires stored outcomes
        whose provenance metadata (node counts, engine counters) no
        longer describes what the current engine would produce.
        Version-1 backends emit no marker, so their historical cache
        keys stay valid.
        """
        payload = {
            "instance": self.instance.to_dict(),
            "algorithm": self.algorithm,
            "options": dict(self.options),
            "seed": self.seed,
            "budget": self.budget,
        }
        try:
            version = get_backend(self.algorithm).provenance_version
        except EngineError:
            version = 1
        if version > 1:
            payload["engine_version"] = version
        return payload

    def cache_key(self) -> str:
        """Content address of this request (SHA-256 hex digest)."""
        return content_hash(self.key_payload())


def request_to_payload(request: ScheduleRequest) -> dict:
    """JSON-safe wire form of a request (the service's ``/schedule``
    body).  Inverse of :func:`request_from_payload`."""
    return {
        "instance": request.instance.to_dict(),
        "algorithm": request.algorithm,
        "options": dict(request.options),
        "seed": request.seed,
        "budget": request.budget,
    }


def request_from_payload(payload: Mapping) -> ScheduleRequest:
    """Parse a ``/schedule`` body into a request.

    The instance must be inline (a dict) — the service never reads
    caller-named paths off its own filesystem.  Unknown fields are
    rejected so client typos surface as 400s instead of silently
    changing the cache key semantics.
    """
    if not isinstance(payload, Mapping):
        raise EngineError("request body must be a JSON object")
    unknown = set(payload) - {"instance", "algorithm", "options", "seed", "budget"}
    if unknown:
        raise EngineError(f"unknown request field(s) {sorted(unknown)}")
    source = payload.get("instance")
    if not isinstance(source, Mapping):
        raise EngineError("request 'instance' must be an inline instance object")
    instance = Instance.from_dict(source)
    options = payload.get("options") or {}
    if not isinstance(options, Mapping):
        raise EngineError("request 'options' must be an object")
    seed = payload.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise EngineError("request 'seed' must be an integer or null")
    budget = payload.get("budget")
    if budget is not None and not isinstance(budget, (int, float)):
        raise EngineError("request 'budget' must be a number or null")
    return ScheduleRequest(
        instance=instance,
        algorithm=payload.get("algorithm", "pa"),
        options=dict(options),
        seed=seed,
        budget=float(budget) if budget is not None else None,
    )


@dataclass
class ScheduleOutcome:
    """Uniform result contract of every backend.

    ``scheduling_time`` / ``floorplanning_time`` are the Table I
    splits; backends without a floorplanning phase report 0.0.
    ``floorplan`` is the serialized witness placement (when the backend
    consulted a floorplanner and got one): ``{"engine": ..., "proven":
    ..., "placements": {region_id: {col,row,width,height}}}``.
    ``metadata`` carries backend-specific extras (PA-R history, IS-k
    node counts, floorplanner cache stats...) — JSON-safe only.
    """

    schedule: Schedule
    feasible: bool
    makespan: float
    scheduling_time: float
    floorplanning_time: float
    backend: str
    iterations: int = 1
    floorplan: dict | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return self.scheduling_time + self.floorplanning_time

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule.to_dict(),
            "feasible": self.feasible,
            "makespan": self.makespan,
            "scheduling_time": self.scheduling_time,
            "floorplanning_time": self.floorplanning_time,
            "backend": self.backend,
            "iterations": self.iterations,
            "floorplan": self.floorplan,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScheduleOutcome":
        return cls(
            schedule=Schedule.from_dict(data["schedule"]),
            feasible=data["feasible"],
            makespan=data["makespan"],
            scheduling_time=data["scheduling_time"],
            floorplanning_time=data["floorplanning_time"],
            backend=data["backend"],
            iterations=data.get("iterations", 1),
            floorplan=data.get("floorplan"),
            metadata=dict(data.get("metadata", {})),
        )


def serialize_floorplan(result) -> dict | None:
    """JSON-safe form of a :class:`~repro.floorplan.FloorplanResult`."""
    if result is None:
        return None
    placements = None
    if result.placements:
        placements = {
            region_id: {
                "col": p.col,
                "row": p.row,
                "width": p.width,
                "height": p.height,
            }
            for region_id, p in sorted(result.placements.items())
        }
    return {
        "feasible": bool(result.feasible),
        "proven": bool(result.proven),
        "engine": result.engine,
        "placements": placements,
    }


class SchedulerBackend(ABC):
    """One scheduling algorithm behind the uniform contract.

    Subclasses set ``name`` (the registry pattern shown by
    :func:`list_backends`) and implement :meth:`run`.  Parameterized
    families override :meth:`matches` / :meth:`create` — e.g. the IS-k
    backend matches every ``is-<k>``.

    ``provenance_version`` feeds the request cache key (see
    :meth:`ScheduleRequest.key_payload`): bump it when a backend's
    *reported provenance* changes (metadata semantics, counters) even
    though the schedules themselves are unchanged, so stale store
    entries are re-executed rather than replayed.
    """

    name: str = ""
    provenance_version: int = 1

    @classmethod
    def matches(cls, algorithm: str) -> bool:
        return algorithm == cls.name

    @classmethod
    def create(cls, algorithm: str) -> "SchedulerBackend":
        return cls()

    @abstractmethod
    def run(self, request: ScheduleRequest, floorplanner=None) -> ScheduleOutcome:
        """Execute the request.

        ``floorplanner`` is optional execution context: when given, the
        backend uses it (sharing its caches with the caller's other
        runs) instead of building its own.  It never contributes to the
        request's cache key — placements are deterministic functions of
        the region demands, so a shared planner changes wall-clock, not
        results.
        """

    def check_request(self, request: ScheduleRequest) -> None:
        """Validate ``request`` for this backend; raise EngineError."""


_REGISTRY: list[type[SchedulerBackend]] = []


def register_backend(backend_cls: type[SchedulerBackend]) -> type[SchedulerBackend]:
    """Register a backend class (usable as a class decorator)."""
    if not backend_cls.name:
        raise EngineError("backend class must define a non-empty name")
    if any(existing.name == backend_cls.name for existing in _REGISTRY):
        raise EngineError(f"backend {backend_cls.name!r} already registered")
    _REGISTRY.append(backend_cls)
    return backend_cls


def get_backend(algorithm: str) -> SchedulerBackend:
    """Resolve an algorithm name to a ready-to-run backend instance."""
    for backend_cls in _REGISTRY:
        if backend_cls.matches(algorithm):
            return backend_cls.create(algorithm)
    raise EngineError(
        f"unknown algorithm {algorithm!r}; registered backends: "
        f"{', '.join(list_backends())}"
    )


def list_backends() -> list[str]:
    """Sorted registry name patterns (``is-<k>`` stands for the family)."""
    return sorted(backend_cls.name for backend_cls in _REGISTRY)
