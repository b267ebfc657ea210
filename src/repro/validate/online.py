"""Independent validator for online (arrival-driven) executions.

Replays the executed timeline of an
:class:`~repro.online.runtime.OnlineResult` against the invariants the
online runtime must uphold, sharing no code path with the runtime
itself:

1. every activity sits on a known resource, and activities sharing a
   resource (tasks, failed attempts, checkpoints, reconfigurations)
   never overlap — including across preemption boundaries;
2. activities in a region fall inside the region's lifetime
   (allocation to reclaim/death), and the set of simultaneously alive
   regions never exceeds the fabric (``sum res <= maxRes``);
3. job structure is respected: no activity before the job's arrival,
   and no task attempt starts before every predecessor's completion
   (plus communication cost);
4. completed work is never lost or double-executed: for a completed
   HW task, successful execution time equals the implementation time
   plus every restore actually charged (preempted progress is banked,
   not re-run); a SW fallback re-runs from scratch, so its final
   successful segment equals the SW implementation time; a task's own
   segments never overlap in time;
5. every checkpoint activity lasts exactly the checkpoint model's save
   cost for its region;
6. deadline accounting is consistent: a non-departed job is marked
   missed iff it did not complete by its deadline.

Reuses :class:`~repro.validate.checker.ValidationReport`, so callers
get the same accumulate-then-``raise_if_invalid`` workflow as the
static schedule checker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..model import ResourceVector
from .checker import TOL, ValidationReport, _overlap

if TYPE_CHECKING:  # repro.online loads the runtime and sim; `repro validate` needs neither
    from ..online.checkpoint import CheckpointModel
    from ..online.runtime import OnlineResult
    from ..online.workload import ArrivalTrace

__all__ = ["check_online_trace"]


def check_online_trace(
    trace: ArrivalTrace,
    result: OnlineResult,
    checkpoint: CheckpointModel | None = None,
) -> ValidationReport:
    """Run the full online invariant suite; returns an accumulating
    report (``report.raise_if_invalid()`` to assert)."""
    report = ValidationReport()
    if checkpoint is None:
        from ..online.checkpoint import CheckpointModel

        checkpoint = CheckpointModel()
    regions = {r.region_id: r for r in result.regions}

    _check_resource_overlap(report, result)
    _check_region_lifetimes(report, result, regions)
    _check_fabric_capacity(report, trace, result)
    _check_job_structure(report, trace, result)
    _check_work_conservation(report, result)
    _check_checkpoints(report, trace, result, regions, checkpoint)
    _check_deadlines(report, result)
    return report


def _check_resource_overlap(
    report: ValidationReport, result: OnlineResult
) -> None:
    by_resource: dict[str, list] = {}
    for act in result.activities:
        by_resource.setdefault(act.resource, []).append(act)
    for resource, acts in sorted(by_resource.items()):
        acts.sort(key=lambda a: (a.start, a.end))
        for a, b in zip(acts, acts[1:]):
            if _overlap(a.start, a.end, b.start, b.end):
                report.add(
                    "resource-overlap",
                    f"{a.kind} {a.name!r} ({a.start:.6f}-{a.end:.6f}) and "
                    f"{b.kind} {b.name!r} ({b.start:.6f}-{b.end:.6f}) "
                    f"overlap on {resource}",
                )


def _check_region_lifetimes(
    report: ValidationReport, result: OnlineResult, regions: dict
) -> None:
    for act in result.activities:
        log = regions.get(act.resource)
        if log is None:
            continue  # processors / controllers have no lifetime log
        if act.start < log.alloc_time - TOL:
            report.add(
                "region-lifetime",
                f"{act.kind} {act.name!r} starts at {act.start:.6f} before "
                f"region {log.region_id} was allocated at "
                f"{log.alloc_time:.6f}",
            )
        if log.freed_time is not None and act.end > log.freed_time + TOL:
            report.add(
                "region-lifetime",
                f"{act.kind} {act.name!r} ends at {act.end:.6f} after "
                f"region {log.region_id} was freed ({log.cause}) at "
                f"{log.freed_time:.6f}",
            )


def _check_fabric_capacity(
    report: ValidationReport, trace: ArrivalTrace, result: OnlineResult
) -> None:
    max_res = trace.architecture.max_res
    deltas: list[tuple[float, int, ResourceVector]] = []
    for log in result.regions:
        deltas.append((log.alloc_time, 1, log.resources))
        if log.freed_time is not None:
            deltas.append((log.freed_time, 0, log.resources))
    # at equal instants, process frees (0) before allocations (1)
    deltas.sort(key=lambda d: (d[0], d[1]))
    used = ResourceVector.zero()
    for when, kind, res in deltas:
        if kind == 1:
            used = used + res
            for rtype in max_res:
                if used[rtype] > max_res[rtype]:
                    report.add(
                        "capacity",
                        f"at t={when:.6f} alive regions demand "
                        f"{used[rtype]} {rtype} > available "
                        f"{max_res[rtype]}",
                    )
        else:
            used = used - res


def _check_job_structure(
    report: ValidationReport, trace: ArrivalTrace, result: OnlineResult
) -> None:
    task_acts: dict[str, list] = {}
    for act in result.activities:
        if act.kind == "task":
            task_acts.setdefault(act.name, []).append(act)
    for acts in task_acts.values():
        acts.sort(key=lambda a: (a.start, a.end))

    for job in trace.jobs:
        for tid in job.taskgraph.task_ids:
            uid = f"{job.job_id}:{tid}"
            for act in task_acts.get(uid, []):
                if act.start < job.arrival - TOL:
                    report.add(
                        "arrival",
                        f"task {uid!r} has an attempt at {act.start:.6f} "
                        f"before job arrival {job.arrival:.6f}",
                    )
        for src, dst in job.taskgraph.edges():
            src_uid = f"{job.job_id}:{src}"
            dst_uid = f"{job.job_id}:{dst}"
            dst_acts = task_acts.get(dst_uid)
            if not dst_acts:
                continue
            src_out = result.tasks.get(src_uid)
            if src_out is None or src_out.completed_at is None:
                report.add(
                    "precedence",
                    f"task {dst_uid!r} ran but predecessor {src_uid!r} "
                    f"never completed",
                )
                continue
            bound = src_out.completed_at + job.taskgraph.comm_cost(src, dst)
            first = dst_acts[0].start
            if first < bound - TOL:
                report.add(
                    "precedence",
                    f"task {dst_uid!r} starts at {first:.6f} before "
                    f"predecessor {src_uid!r} finishes at {bound:.6f}",
                )


def _check_work_conservation(
    report: ValidationReport, result: OnlineResult
) -> None:
    segments: dict[str, list] = {}
    for act in result.activities:
        if act.kind == "task":
            segments.setdefault(act.name, []).append(act)
    for uid, acts in sorted(segments.items()):
        acts.sort(key=lambda a: (a.start, a.end))
        for a, b in zip(acts, acts[1:]):
            if _overlap(a.start, a.end, b.start, b.end):
                report.add(
                    "double-execution",
                    f"task {uid!r} has overlapping attempts "
                    f"({a.start:.6f}-{a.end:.6f} and "
                    f"{b.start:.6f}-{b.end:.6f})",
                )
    for uid, outcome in result.tasks.items():
        if outcome.completed_at is None:
            continue
        ok_acts = [a for a in segments.get(uid, []) if a.ok]
        if not ok_acts:
            report.add(
                "work-lost",
                f"task {uid!r} reports completion at "
                f"{outcome.completed_at:.6f} but has no successful "
                f"execution",
            )
            continue
        if outcome.fallback:
            # a SW fallback re-runs from scratch: its final successful
            # segment must be one full SW execution
            final = ok_acts[-1]
            if abs(final.duration - outcome.impl_time) > TOL:
                report.add(
                    "work-conservation",
                    f"fallback task {uid!r} final run lasts "
                    f"{final.duration:.6f} != SW implementation time "
                    f"{outcome.impl_time:.6f}",
                )
            continue
        expected = outcome.impl_time + sum(outcome.restore_charged)
        executed = sum(a.duration for a in ok_acts)
        if abs(executed - expected) > TOL:
            report.add(
                "work-conservation",
                f"task {uid!r} executed {executed:.6f} successful time, "
                f"expected implementation {outcome.impl_time:.6f} + "
                f"restores {sum(outcome.restore_charged):.6f}",
            )


def _check_checkpoints(
    report: ValidationReport,
    trace: ArrivalTrace,
    result: OnlineResult,
    regions: dict,
    checkpoint: CheckpointModel,
) -> None:
    for act in result.activities:
        if act.kind != "checkpoint":
            continue
        log = regions.get(act.resource)
        if log is None:
            report.add(
                "checkpoint",
                f"checkpoint {act.name!r} on unknown region "
                f"{act.resource!r}",
            )
            continue
        expected = checkpoint.save_cost(trace.architecture, log.resources)
        if abs(act.duration - expected) > max(TOL, 1e-9 * expected):
            report.add(
                "checkpoint",
                f"checkpoint {act.name!r} lasts {act.duration:.6f}, "
                f"model gives {expected:.6f}",
            )


def _check_deadlines(report: ValidationReport, result: OnlineResult) -> None:
    for job in result.jobs.values():
        if job.departed or job.deadline is None:
            continue
        late = (
            job.completed_at is None
            or job.completed_at > job.deadline + TOL
        )
        if late and not job.missed:
            report.add(
                "deadline-accounting",
                f"job {job.job_id!r} finished late "
                f"({job.completed_at}) but is not marked missed",
            )
        if not late and job.missed:
            report.add(
                "deadline-accounting",
                f"job {job.job_id!r} met its deadline but is marked "
                f"missed",
            )
