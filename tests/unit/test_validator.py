"""Unit tests for the independent schedule validator."""

from dataclasses import replace

import pytest

from repro.core import do_schedule
from repro.model import (
    Implementation,
    ProcessorPlacement,
    Reconfiguration,
    Region,
    RegionPlacement,
    ResourceVector,
    Schedule,
    ScheduledTask,
)
from repro.validate import ScheduleInvalidError, check_schedule


@pytest.fixture
def valid(chain_instance):
    return do_schedule(chain_instance)


def mutate_task(schedule: Schedule, task_id: str, **changes) -> Schedule:
    tasks = dict(schedule.tasks)
    tasks[task_id] = replace(tasks[task_id], **changes)
    return Schedule(
        tasks=tasks,
        regions=dict(schedule.regions),
        reconfigurations=list(schedule.reconfigurations),
        scheduler=schedule.scheduler,
    )


class TestAccepts:
    def test_valid_schedule_passes(self, chain_instance, valid):
        report = check_schedule(chain_instance, valid)
        assert report.ok
        report.raise_if_invalid()  # no exception

    def test_shifted_schedule_still_valid(self, chain_instance, valid):
        report = check_schedule(chain_instance, valid.shifted(10.0))
        assert report.ok


class TestCoverage:
    def test_missing_task(self, chain_instance, valid):
        broken = Schedule(
            tasks={k: v for k, v in valid.tasks.items() if k != "b"},
            regions=dict(valid.regions),
            reconfigurations=list(valid.reconfigurations),
        )
        report = check_schedule(chain_instance, broken)
        assert "coverage" in report.codes()

    def test_unknown_task(self, chain_instance, valid):
        extra = ScheduledTask(
            task_id="ghost",
            implementation=Implementation.sw("g_sw", 5.0),
            placement=ProcessorPlacement(0),
            start=0.0,
            end=5.0,
        )
        broken = Schedule(
            tasks={**valid.tasks, "ghost": extra},
            regions=dict(valid.regions),
            reconfigurations=list(valid.reconfigurations),
        )
        assert "coverage" in check_schedule(chain_instance, broken).codes()

    def test_foreign_implementation(self, chain_instance, valid):
        broken = mutate_task(
            valid, "a",
            implementation=Implementation.hw("alien", 10.0, {"CLB": 1}),
        )
        assert "implementation" in check_schedule(chain_instance, broken).codes()

    def test_negative_start(self, chain_instance, valid):
        broken = mutate_task(valid, "a", start=-5.0, end=5.0)
        assert "time" in check_schedule(chain_instance, broken).codes()

    def test_wrong_duration(self, chain_instance, valid):
        task = valid.tasks["a"]
        broken = mutate_task(valid, "a", end=task.end + 3.0)
        assert "time" in check_schedule(chain_instance, broken).codes()


class TestPrecedence:
    def test_violated_dependency(self, chain_instance, valid):
        # Pull c to time 0, before b finishes.
        task = valid.tasks["c"]
        broken = mutate_task(valid, "c", start=0.0, end=task.duration)
        assert "precedence" in check_schedule(chain_instance, broken).codes()

    def test_communication_extension(self, chain_instance, valid):
        # With comm costs enabled, back-to-back execution violates.
        # Re-adding the existing edge overwrites its comm cost.
        chain_instance.taskgraph.add_dependency("a", "b", comm=5.0)
        report = check_schedule(chain_instance, valid, communication_overhead=True)
        assert "precedence" in report.codes()
        # Without the extension the same schedule is fine.
        assert check_schedule(chain_instance, valid).ok


class TestRegions:
    def test_unknown_region(self, chain_instance, valid):
        hw_tasks = [t for t in valid.tasks.values() if t.is_hw]
        broken = mutate_task(
            valid, hw_tasks[0].task_id,
            placement=RegionPlacement("nope"),
        )
        assert "region" in check_schedule(chain_instance, broken).codes()

    def test_region_too_small(self, chain_instance, valid):
        regions = {
            rid: Region(id=rid, resources=ResourceVector({"CLB": 1}))
            for rid in valid.regions
        }
        broken = Schedule(
            tasks=dict(valid.tasks),
            regions=regions,
            reconfigurations=list(valid.reconfigurations),
        )
        assert "region-fit" in check_schedule(chain_instance, broken).codes()

    def test_overlap_in_region(self, chain_instance, valid):
        hw = [t for t in valid.tasks.values() if t.is_hw]
        a, rest = hw[0], hw[1:]
        region_id = a.placement.region_id
        # Move another HW task into a's region at the same time.
        other = rest[0]
        broken = mutate_task(
            valid, other.task_id,
            placement=RegionPlacement(region_id),
            start=a.start, end=a.start + other.duration,
        )
        report = check_schedule(chain_instance, broken)
        assert {"region-overlap", "precedence"} & report.codes()

    def test_missing_reconfiguration(self, chain_instance):
        # Build a two-task region without the reconfiguration.
        arch = chain_instance.architecture
        impl_a = chain_instance.taskgraph.task("a").implementation("a_hw")
        impl_b = chain_instance.taskgraph.task("b").implementation("b_hw")
        impl_c = chain_instance.taskgraph.task("c").implementation("c_sw")
        region = Region(id="R", resources=ResourceVector({"CLB": 20}))
        schedule = Schedule(
            tasks={
                "a": ScheduledTask("a", impl_a, RegionPlacement("R"), 0.0, 10.0),
                "b": ScheduledTask("b", impl_b, RegionPlacement("R"), 100.0, 110.0),
                "c": ScheduledTask("c", impl_c, ProcessorPlacement(0), 110.0, 210.0),
            },
            regions={"R": region},
        )
        report = check_schedule(chain_instance, schedule)
        assert "reconfiguration-missing" in report.codes()
        # Module reuse does not excuse different implementations.
        report = check_schedule(chain_instance, schedule, allow_module_reuse=True)
        assert "reconfiguration-missing" in report.codes()

    def test_reconfiguration_checks(self, chain_instance):
        impl_a = chain_instance.taskgraph.task("a").implementation("a_hw")
        impl_b = chain_instance.taskgraph.task("b").implementation("b_hw")
        impl_c = chain_instance.taskgraph.task("c").implementation("c_sw")
        region = Region(id="R", resources=ResourceVector({"CLB": 20}))
        # Correct reconf duration is 20 CLB * 10 bits / 10 = 20 us.
        def schedule_with(rc: Reconfiguration) -> Schedule:
            return Schedule(
                tasks={
                    "a": ScheduledTask("a", impl_a, RegionPlacement("R"), 0.0, 10.0),
                    "b": ScheduledTask("b", impl_b, RegionPlacement("R"), 100.0, 110.0),
                    "c": ScheduledTask("c", impl_c, ProcessorPlacement(0), 110.0, 210.0),
                },
                regions={"R": region},
                reconfigurations=[rc],
            )

        good = Reconfiguration("R", "a", "b", 20.0, 40.0)
        assert check_schedule(chain_instance, schedule_with(good)).ok

        wrong_duration = Reconfiguration("R", "a", "b", 20.0, 25.0)
        assert "reconfiguration-duration" in check_schedule(
            chain_instance, schedule_with(wrong_duration)
        ).codes()

        too_early = Reconfiguration("R", "a", "b", 5.0, 25.0)
        assert "reconfiguration-window" in check_schedule(
            chain_instance, schedule_with(too_early)
        ).codes()

        too_late = Reconfiguration("R", "a", "b", 95.0, 115.0)
        assert "reconfiguration-window" in check_schedule(
            chain_instance, schedule_with(too_late)
        ).codes()

        orphan = Reconfiguration("R", "b", "a", 20.0, 40.0)
        report = check_schedule(chain_instance, schedule_with(orphan))
        assert "reconfiguration-orphan" in report.codes()
        assert "reconfiguration-missing" in report.codes()


class TestResourcesAndProcessors:
    def test_capacity_violation(self, chain_instance, valid):
        regions = dict(valid.regions)
        regions["huge"] = Region(id="huge", resources=ResourceVector({"CLB": 1000}))
        broken = Schedule(
            tasks=dict(valid.tasks),
            regions=regions,
            reconfigurations=list(valid.reconfigurations),
        )
        assert "capacity" in check_schedule(chain_instance, broken).codes()

    def test_unknown_resource_type(self, chain_instance, valid):
        regions = dict(valid.regions)
        regions["odd"] = Region(id="odd", resources=ResourceVector({"LUTRAM": 1}))
        broken = Schedule(
            tasks=dict(valid.tasks),
            regions=regions,
            reconfigurations=list(valid.reconfigurations),
        )
        assert "capacity" in check_schedule(chain_instance, broken).codes()

    def test_processor_out_of_range(self, chain_instance, valid):
        sw = [t for t in valid.tasks.values() if not t.is_hw]
        if not sw:
            pytest.skip("no SW task in this schedule")
        broken = mutate_task(valid, sw[0].task_id, placement=ProcessorPlacement(99))
        assert "processor" in check_schedule(chain_instance, broken).codes()

    def test_processor_overlap(self, dual_arch, diamond_instance):
        impl_l = diamond_instance.taskgraph.task("l").implementation("l_sw")
        impl_r = diamond_instance.taskgraph.task("r").implementation("r_sw")
        impl_s = diamond_instance.taskgraph.task("s").implementation("s_sw")
        impl_t = diamond_instance.taskgraph.task("t").implementation("t_sw")
        schedule = Schedule(
            tasks={
                "s": ScheduledTask("s", impl_s, ProcessorPlacement(0), 0.0, 40.0),
                "l": ScheduledTask("l", impl_l, ProcessorPlacement(1), 40.0, 160.0),
                "r": ScheduledTask("r", impl_r, ProcessorPlacement(1), 50.0, 160.0),
                "t": ScheduledTask("t", impl_t, ProcessorPlacement(0), 160.0, 220.0),
            },
            regions={},
        )
        assert "processor-overlap" in check_schedule(
            diamond_instance, schedule
        ).codes()


class TestReport:
    def test_raise_if_invalid(self, chain_instance, valid):
        broken = mutate_task(valid, "a", start=-1.0, end=9.0)
        report = check_schedule(chain_instance, broken)
        with pytest.raises(ScheduleInvalidError):
            report.raise_if_invalid()

    def test_violation_str(self, chain_instance, valid):
        broken = mutate_task(valid, "a", start=-1.0, end=9.0)
        report = check_schedule(chain_instance, broken)
        assert all(str(v).startswith("[") for v in report.violations)
