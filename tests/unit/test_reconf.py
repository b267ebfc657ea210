"""Unit tests for reconfiguration scheduling (Section V-G, Eqs. 10/11)."""

import pytest

from repro.core import (
    PAOptions,
    PAState,
    schedule_reconfigurations,
    select_implementations,
)
from repro.model import Implementation, Instance, ResourceVector, Task, TaskGraph


def hw(name, time, clb):
    return Implementation.hw(name, time, {"CLB": clb})


def sw(name, time):
    return Implementation.sw(name, time)


def two_chain_state(simple_arch, gap_time=100.0, reuse_same_module=False):
    """a -> gap(SW) -> b with a and b sharing one region."""
    graph = TaskGraph("g")
    a_impl = hw("shared" if reuse_same_module else "a_hw", 10.0, 50)
    b_impl = hw("shared" if reuse_same_module else "b_hw", 10.0, 50)
    graph.add_task(Task.of("a", [a_impl, sw("a_sw", 500.0)]))
    graph.add_task(Task.of("gap", [sw("gap_sw", gap_time)]))
    graph.add_task(Task.of("b", [b_impl, sw("b_sw", 500.0)]))
    graph.add_dependency("a", "gap")
    graph.add_dependency("gap", "b")
    instance = Instance(architecture=simple_arch, taskgraph=graph)
    state = PAState(
        instance,
        PAOptions(enable_module_reuse=reuse_same_module),
    )
    select_implementations(state)
    rid = state.new_region(ResourceVector({"CLB": 50}))
    state.assign_region("a", rid, 0)
    state.assign_region("b", rid, 1)
    state.assign_processor("gap", 0)
    return state, rid


class TestBasic:
    def test_reconf_between_subsequent_tasks(self, simple_arch):
        state, rid = two_chain_state(simple_arch)
        plan = schedule_reconfigurations(state)
        assert len(plan.reconf_tasks) == 1
        rc = plan.reconf_tasks[0]
        assert (rc.ingoing_task, rc.outgoing_task, rc.region_id) == ("a", "b", rid)
        # Eq. 11: duration = region reconf time = 50 CLB * 10 / 10.
        assert rc.exe == pytest.approx(50.0)

    def test_reconf_window_eq10(self, simple_arch):
        state, _ = two_chain_state(simple_arch)
        plan = schedule_reconfigurations(state)
        rc = plan.reconf_tasks[0]
        start = plan.starts[rc.id]
        # Gap is 100 us (SW task); reconf starts right after a ends.
        assert start == pytest.approx(10.0)
        assert plan.starts["b"] == pytest.approx(110.0)  # no delay

    def test_reconf_delay_propagates(self, simple_arch):
        # Gap of 20 us < 50 us reconfiguration: b slips to 10+50 = 60.
        state, _ = two_chain_state(simple_arch, gap_time=20.0)
        plan = schedule_reconfigurations(state)
        assert plan.starts["b"] == pytest.approx(60.0)
        assert plan.makespan == pytest.approx(70.0)

    def test_first_task_needs_no_reconf(self, simple_arch):
        state, _ = two_chain_state(simple_arch)
        plan = schedule_reconfigurations(state)
        # Only one reconfiguration despite two hosted tasks (Eq. 6).
        assert len(plan.reconf_tasks) == 1

    def test_no_regions_no_reconfs(self, chain_instance):
        state = PAState(chain_instance)
        select_implementations(state)
        plan = schedule_reconfigurations(state)
        assert plan.reconf_tasks == []
        assert plan.makespan == pytest.approx(30.0)


class TestModuleReuse:
    def test_same_module_skips_reconf(self, simple_arch):
        state, _ = two_chain_state(simple_arch, reuse_same_module=True)
        plan = schedule_reconfigurations(state)
        assert plan.reconf_tasks == []

    def test_different_modules_still_reconfigure(self, simple_arch):
        state, _ = two_chain_state(simple_arch, reuse_same_module=False)
        state.options.enable_module_reuse = True
        plan = schedule_reconfigurations(state)
        assert len(plan.reconf_tasks) == 1


class TestControllerContention:
    def _contention_state(self, gap=100.0, legacy=False):
        """Two regions, each with a back-to-back pair -> two
        reconfigurations competing for the controller."""
        arch_res = ResourceVector({"CLB": 200})
        from repro.model import Architecture

        arch = Architecture(
            name="big", processors=2,
            max_res=arch_res, bit_per_resource={"CLB": 10.0}, rec_freq=10.0,
        )
        graph = TaskGraph("cont")
        for prefix in ("x", "y"):
            graph.add_task(Task.of(f"{prefix}1", [hw(f"{prefix}1_hw", 10.0, 50), sw(f"{prefix}1_sw", 900.0)]))
            graph.add_task(Task.of(f"{prefix}g", [sw(f"{prefix}g_sw", gap)]))
            graph.add_task(Task.of(f"{prefix}2", [hw(f"{prefix}2_hw", 10.0, 50), sw(f"{prefix}2_sw", 900.0)]))
            graph.add_dependency(f"{prefix}1", f"{prefix}g")
            graph.add_dependency(f"{prefix}g", f"{prefix}2")
        instance = Instance(architecture=arch, taskgraph=graph)
        state = PAState(instance, PAOptions(legacy_unit_gap=legacy))
        select_implementations(state)
        for prefix, proc in (("x", 0), ("y", 1)):
            rid = state.new_region(ResourceVector({"CLB": 50}))
            state.assign_region(f"{prefix}1", rid, 0)
            state.assign_region(f"{prefix}2", rid, 1)
            state.assign_processor(f"{prefix}g", proc)
        return state

    def test_reconfigurations_serialized(self):
        state = self._contention_state()
        plan = schedule_reconfigurations(state)
        assert len(plan.reconf_tasks) == 2
        intervals = sorted(
            (plan.starts[rc.id], plan.starts[rc.id] + rc.exe)
            for rc in plan.reconf_tasks
        )
        # Both become ready at t=10 with 50 us durations; the second
        # must wait for the first (single controller).
        assert intervals[0] == (10.0, 60.0)
        assert intervals[1][0] >= intervals[0][1]

    def test_legacy_unit_gap(self):
        state = self._contention_state(legacy=True)
        plan = schedule_reconfigurations(state)
        intervals = sorted(
            (plan.starts[rc.id], plan.starts[rc.id] + rc.exe)
            for rc in plan.reconf_tasks
        )
        # Paper-literal "+1" between controller activities.
        assert intervals[1][0] == pytest.approx(intervals[0][1] + 1.0)

    def test_contention_delay_propagates(self):
        # With a tight gap, the second pair's task slips by the
        # serialized reconfiguration time.
        state = self._contention_state(gap=10.0)
        plan = schedule_reconfigurations(state)
        ends = sorted(plan.starts[t] + state.exe[t] for t in ("x2", "y2"))
        # First outgoing task: reconf [10,60) -> end 70.
        assert ends[0] == pytest.approx(70.0)
        # Second: reconf [60,110) -> end 120.
        assert ends[1] == pytest.approx(120.0)


class TestIncrementalStarts:
    """The phase reads starts from the incremental view only; every
    snapshot it takes must equal one full CPM pass on the same graph."""

    @pytest.mark.parametrize("tasks", [30, 60, 100])
    def test_every_snapshot_matches_the_full_pass(self, monkeypatch, tasks):
        from repro.benchgen import paper_instance
        from repro.core import do_schedule
        from repro.core.timing import IncrementalStarts

        snapshot = IncrementalStarts.snapshot
        checked = []

        def checked_snapshot(self):
            starts = snapshot(self)
            full = self._graph.earliest_starts(self.exe, self.lower_bounds)
            assert starts == full  # exact: the view's invariant
            checked.append(len(starts))
            return starts

        monkeypatch.setattr(IncrementalStarts, "snapshot", checked_snapshot)
        do_schedule(paper_instance(tasks, seed=7), PAOptions())
        assert checked and max(checked) > tasks  # reconfiguration nodes seen
