"""Integration tests for the Section VIII future-work extensions:
module reuse and explicit communication overhead."""

import pytest

from repro.benchgen import paper_instance
from repro.benchgen.implementations import ModuleLibraryConfig
from repro.core import PAOptions, do_schedule
from repro.model import Implementation, Instance, Task, TaskGraph
from repro.validate import check_schedule


class TestModuleReuseExtension:
    @pytest.fixture(scope="class")
    def shared_instance(self):
        # Force heavy module sharing so reuse opportunities exist.
        cfg = ModuleLibraryConfig(share_probability=0.8)
        return paper_instance(30, seed=13, config=cfg)

    def test_reuse_schedule_valid(self, shared_instance):
        schedule = do_schedule(
            shared_instance, PAOptions(enable_module_reuse=True)
        )
        check_schedule(
            shared_instance, schedule, allow_module_reuse=True
        ).raise_if_invalid()

    def test_reuse_reduces_reconfigurations(self, shared_instance):
        base = do_schedule(shared_instance, PAOptions(enable_module_reuse=False))
        reuse = do_schedule(shared_instance, PAOptions(enable_module_reuse=True))
        # With 80% sharing, at least as few (usually fewer) reconfs.
        assert len(reuse.reconfigurations) <= len(base.reconfigurations)

    def test_reuse_never_needed_without_sharing(self):
        cfg = ModuleLibraryConfig(share_probability=0.0)
        instance = paper_instance(20, seed=3, config=cfg)
        base = do_schedule(instance, PAOptions(enable_module_reuse=False))
        reuse = do_schedule(instance, PAOptions(enable_module_reuse=True))
        # Without shared modules both runs make identical decisions...
        assert reuse.makespan == pytest.approx(base.makespan)
        # ...except the reconf-gap may differ; reconf count must match.
        assert len(reuse.reconfigurations) == len(base.reconfigurations)


class TestCommunicationOverhead:
    @pytest.fixture()
    def comm_instance(self, dual_arch):
        graph = TaskGraph("comm")
        graph.add_task(Task.of("a", [Implementation.sw("a_sw", 10.0)]))
        graph.add_task(Task.of("b", [Implementation.sw("b_sw", 10.0)]))
        graph.add_dependency("a", "b", comm=25.0)
        return Instance(architecture=dual_arch, taskgraph=graph)

    def test_ignored_by_default(self, comm_instance):
        schedule = do_schedule(comm_instance)
        assert schedule.tasks["b"].start == pytest.approx(10.0)

    def test_honoured_when_enabled(self, comm_instance):
        schedule = do_schedule(
            comm_instance, PAOptions(communication_overhead=True)
        )
        assert schedule.tasks["b"].start == pytest.approx(35.0)
        check_schedule(
            comm_instance, schedule, communication_overhead=True
        ).raise_if_invalid()

    def test_validator_flags_comm_violation(self, comm_instance):
        schedule = do_schedule(comm_instance)  # comm-oblivious schedule
        report = check_schedule(
            comm_instance, schedule, communication_overhead=True
        )
        assert "precedence" in report.codes()

    def test_generated_instance_with_comm(self):
        # Attach communication costs to a generated instance and
        # schedule with the extension on end to end.
        instance = paper_instance(15, seed=21)
        graph = instance.taskgraph
        for index, (src, dst) in enumerate(list(graph.edges())):
            graph.add_dependency(src, dst, comm=float(index % 4) * 5.0)
        schedule = do_schedule(instance, PAOptions(communication_overhead=True))
        check_schedule(
            instance, schedule, communication_overhead=True
        ).raise_if_invalid()


class TestLegacyUnitGap:
    def test_legacy_gap_schedule_valid(self):
        instance = paper_instance(25, seed=17)
        schedule = do_schedule(instance, PAOptions(legacy_unit_gap=True))
        check_schedule(instance, schedule).raise_if_invalid()

    def test_legacy_gap_never_faster(self):
        instance = paper_instance(25, seed=17)
        modern = do_schedule(instance)
        legacy = do_schedule(instance, PAOptions(legacy_unit_gap=True))
        assert legacy.makespan >= modern.makespan - 1e-9
