"""Unit tests for :mod:`repro.model.taskgraph`."""

import pytest

from repro.model import Implementation, Task, TaskGraph, TaskGraphError


def t(task_id: str) -> Task:
    return Task.of(task_id, [Implementation.sw(f"{task_id}_sw", 10.0)])


def hw_only(task_id: str) -> Task:
    return Task.of(task_id, [Implementation.hw(f"{task_id}_hw", 10.0, {"CLB": 1})])


class TestConstruction:
    def test_add_and_lookup(self):
        g = TaskGraph()
        g.add_task(t("a"))
        assert "a" in g and g.task("a").id == "a"
        assert len(g) == 1

    def test_duplicate_id_rejected(self):
        g = TaskGraph()
        g.add_task(t("a"))
        with pytest.raises(TaskGraphError):
            g.add_task(t("a"))

    def test_dependency_unknown_task(self):
        g = TaskGraph()
        g.add_task(t("a"))
        with pytest.raises(TaskGraphError):
            g.add_dependency("a", "b")

    def test_self_dependency_rejected(self):
        g = TaskGraph()
        g.add_task(t("a"))
        with pytest.raises(TaskGraphError):
            g.add_dependency("a", "a")

    def test_cycle_rejected_and_rolled_back(self):
        g = TaskGraph.from_edges([t("a"), t("b")], [("a", "b")])
        with pytest.raises(TaskGraphError):
            g.add_dependency("b", "a")
        assert g.edge_count == 1  # rollback left the graph intact

    def test_negative_comm_rejected(self):
        g = TaskGraph.from_edges([t("a"), t("b")], [])
        with pytest.raises(TaskGraphError):
            g.add_dependency("a", "b", comm=-1.0)


class TestQueries:
    def _diamond(self) -> TaskGraph:
        return TaskGraph.from_edges(
            [t("s"), t("l"), t("r"), t("e")],
            [("s", "l"), ("s", "r"), ("l", "e"), ("r", "e")],
        )

    def test_sources_sinks(self):
        g = self._diamond()
        assert g.sources() == ["s"]
        assert g.sinks() == ["e"]

    def test_preds_succs(self):
        g = self._diamond()
        assert set(g.predecessors("e")) == {"l", "r"}
        assert set(g.successors("s")) == {"l", "r"}

    def test_topological_order_is_valid_and_deterministic(self):
        g = self._diamond()
        order = g.topological_order()
        pos = {n: i for i, n in enumerate(order)}
        for src, dst in g.edges():
            assert pos[src] < pos[dst]
        assert order == g.topological_order()

    def test_depth_and_width(self):
        g = self._diamond()
        assert g.depth() == 3  # s -> l -> e
        assert g.width() == 2  # l parallel to r

    def test_width_of_chain_is_one(self):
        g = TaskGraph.from_edges([t("a"), t("b"), t("c")], [("a", "b"), ("b", "c")])
        assert g.width() == 1

    def test_width_of_independent_set(self):
        g = TaskGraph.from_edges([t("a"), t("b"), t("c")], [])
        assert g.width() == 3

    def test_ancestors_descendants(self):
        g = self._diamond()
        assert g.ancestors("e") == {"s", "l", "r"}
        assert g.descendants("s") == {"l", "r", "e"}

    def test_comm_cost_default_zero(self):
        g = self._diamond()
        assert g.comm_cost("s", "l") == 0.0


class TestValidation:
    def test_empty_graph_invalid(self):
        with pytest.raises(TaskGraphError):
            TaskGraph().validate()

    def test_missing_sw_rejected_by_default(self):
        g = TaskGraph.from_edges([hw_only("a")], [])
        with pytest.raises(TaskGraphError):
            g.validate()
        g.validate(require_sw=False)  # relaxed mode accepts it


class TestSerialization:
    def test_dict_roundtrip_preserves_structure(self):
        g = TaskGraph.from_edges(
            [t("a"), t("b")], [("a", "b")], name="app"
        )
        g.add_task(t("c"))
        g.add_dependency("b", "c", comm=3.5)
        clone = TaskGraph.from_dict(g.to_dict())
        assert clone.name == "app"
        assert set(clone.task_ids) == {"a", "b", "c"}
        assert clone.comm_cost("b", "c") == 3.5
        assert clone.edge_count == 2
