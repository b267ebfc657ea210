"""The application task graph — a DAG of :class:`~repro.model.task.Task`.

Section III: the application is a directed acyclic graph ``G = (T, E)``
where an arc ``(t1, t2)`` is a data dependency.  Communication overhead
is not modelled explicitly by the paper (it is folded into execution
times), but Section VIII lists it as future work; the graph therefore
carries an optional per-edge communication cost that the timing engine
can honour when the ``communication_overhead`` option is enabled.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Mapping

from .task import Task

__all__ = ["TaskGraph", "TaskGraphError"]


class TaskGraphError(ValueError):
    """Raised for structurally invalid task graphs."""


class TaskGraph:
    """A DAG of tasks with optional communication costs on edges.

    Tasks live in an insertion-ordered dict; ``_succ``/``_pred`` map
    each task id to ``{neighbour id: comm}``, also in insertion order.
    Every mutation keeps the graph acyclic, so acyclicity is an
    invariant of the class rather than something callers check.
    """

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self._tasks: dict[str, Task] = {}
        self._succ: dict[str, dict[str, float]] = {}
        self._pred: dict[str, dict[str, float]] = {}

    # -- construction ------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        if task.id in self._tasks:
            raise TaskGraphError(f"duplicate task id {task.id!r}")
        self._tasks[task.id] = task
        self._succ[task.id] = {}
        self._pred[task.id] = {}
        return task

    def add_dependency(self, src: str | Task, dst: str | Task, comm: float = 0.0) -> None:
        """Add the data dependency ``src -> dst``.

        ``comm`` is the optional communication cost charged between the
        end of ``src`` and the start of ``dst`` when the communication
        extension is enabled.  Re-adding an existing edge overwrites its
        ``comm``.
        """
        src_id = src.id if isinstance(src, Task) else src
        dst_id = dst.id if isinstance(dst, Task) else dst
        for tid in (src_id, dst_id):
            if tid not in self._tasks:
                raise TaskGraphError(f"unknown task id {tid!r}")
        if src_id == dst_id:
            raise TaskGraphError(f"self-dependency on {src_id!r}")
        if comm < 0:
            raise TaskGraphError("communication cost must be >= 0")
        if src_id in self._reachable(dst_id, self._succ):
            raise TaskGraphError(
                f"dependency {src_id!r} -> {dst_id!r} would create a cycle"
            )
        self._succ[src_id][dst_id] = self._pred[dst_id][src_id] = float(comm)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    @property
    def task_ids(self) -> list[str]:
        return list(self._tasks)

    @property
    def tasks(self) -> list[Task]:
        return list(self._tasks.values())

    @property
    def edge_count(self) -> int:
        return sum(len(succ) for succ in self._succ.values())

    def task(self, task_id: str) -> Task:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise TaskGraphError(f"unknown task id {task_id!r}") from None

    def edges(self) -> Iterator[tuple[str, str]]:
        return ((src, dst) for src, succ in self._succ.items() for dst in succ)

    def comm_cost(self, src: str, dst: str) -> float:
        return self._succ[src][dst]

    def predecessors(self, task_id: str) -> list[str]:
        return list(self._pred[task_id])

    def successors(self, task_id: str) -> list[str]:
        return list(self._succ[task_id])

    def sources(self) -> list[str]:
        return [n for n, pred in self._pred.items() if not pred]

    def sinks(self) -> list[str]:
        return [n for n, succ in self._succ.items() if not succ]

    def topological_order(self) -> list[str]:
        """The lexicographically smallest topological order (Kahn's
        algorithm with a heap), so ties always break the same way."""
        indegree = {n: len(pred) for n, pred in self._pred.items()}
        ready = [n for n, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for child in self._succ[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        return order

    def descendants(self, task_id: str) -> set[str]:
        return self._reachable(task_id, self._succ)

    def ancestors(self, task_id: str) -> set[str]:
        return self._reachable(task_id, self._pred)

    @staticmethod
    def _reachable(start: str, adjacency: dict[str, dict[str, float]]) -> set[str]:
        """Ids reachable from ``start`` along ``adjacency`` (DFS), not
        counting ``start`` itself."""
        seen: set[str] = set()
        stack = list(adjacency[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(adjacency[node])
        return seen

    # -- structural metrics (used by benchgen / analysis) ---------------------

    def width(self) -> int:
        """Maximum antichain size — available task parallelism.

        Computed exactly via Dilworth's theorem: the width is the task
        count minus a maximum matching of the split-node bipartite graph
        of the transitive closure, found here by augmenting paths over
        each task's descendant set.
        """
        reach: dict[str, set[str]] = {}
        for node in reversed(self.topological_order()):
            reach[node] = set(self._succ[node])
            for child in self._succ[node]:
                reach[node] |= reach[child]
        owner: dict[str, str] = {}  # matched descendant -> its ancestor
        for root in reach:
            stack = [(root, iter(reach[root]))]
            via: list[str] = []  # the descendant each deeper level came through
            seen: set[str] = set()
            while stack:
                node, candidates = stack[-1]
                target = next((v for v in candidates if v not in seen), None)
                if target is None:
                    stack.pop()
                    if via:
                        via.pop()
                    continue
                seen.add(target)
                if target in owner:
                    via.append(target)
                    stack.append((owner[target], iter(reach[owner[target]])))
                    continue
                owner[target] = node
                for (ancestor, _), matched in zip(stack, via):
                    owner[matched] = ancestor
                break
        return len(self) - len(owner)

    def depth(self) -> int:
        """Number of tasks on the longest chain."""
        chain: dict[str, int] = {}
        for node in self.topological_order():
            chain[node] = 1 + max((chain[p] for p in self._pred[node]), default=0)
        return max(chain.values(), default=0)

    # -- validation -----------------------------------------------------------

    def validate(self, require_sw: bool = True) -> None:
        """Check the Section III structural assumptions.

        ``require_sw`` enforces the paper's "at least one SW
        implementation per task" assumption.
        """
        if len(self) == 0:
            raise TaskGraphError("task graph is empty")
        if require_sw:
            for task in self:
                if not task.has_sw:
                    raise TaskGraphError(
                        f"task {task.id!r} has no SW implementation "
                        "(Section III assumes at least one)"
                    )

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        # Tasks and edges are emitted in sorted order, not insertion
        # order, so two logically-equal graphs serialize to the same
        # bytes — the invariant the engine's content hashing relies on.
        return {
            "name": self.name,
            "tasks": [t.to_dict() for t in sorted(self, key=lambda t: t.id)],
            "edges": [
                {"src": u, "dst": v, "comm": self.comm_cost(u, v)}
                for u, v in sorted(self.edges())
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TaskGraph":
        graph = cls(name=data.get("name", "app"))
        for task_data in data["tasks"]:
            graph.add_task(Task.from_dict(task_data))
        for edge in data.get("edges", []):
            graph.add_dependency(edge["src"], edge["dst"], comm=edge.get("comm", 0.0))
        return graph

    @classmethod
    def from_edges(
        cls,
        tasks: Iterable[Task],
        edges: Iterable[tuple[str, str]],
        name: str = "app",
    ) -> "TaskGraph":
        graph = cls(name=name)
        for task in tasks:
            graph.add_task(task)
        for src, dst in edges:
            graph.add_dependency(src, dst)
        return graph

    def __repr__(self) -> str:
        return f"TaskGraph({self.name!r}, tasks={len(self)}, edges={self.edge_count})"

