"""Reference IS-k search: the seed fork-per-option DFS.

Every ranked option forks a full copy of the ``PartialSchedule``, the
window DFS recurses on the forks, and the first leaf with the best
``(partial makespan, Σ end)`` score wins.  It shares the decision space
(``_task_options``/``_apply``) with :class:`repro.baselines.ISKScheduler`
but none of its search machinery, which makes it the oracle for the
production in-place DFS: with the memo off, both walk the same tree
node for node (``tests/unit/test_isk.py::TestEngineEquivalence``), and
``benchmarks/bench_isk_search.py`` times the production search against
it.
"""

from __future__ import annotations

import time as _time

from repro.baselines.isk import ISKOptions, ISKResult, ISKScheduler
from repro.baselines.partial import PartialSchedule
from repro.model import Instance

__all__ = ["CopyISKScheduler", "copy_isk_schedule"]


def _score(state: PartialSchedule) -> tuple[float, float]:
    """Myopic window objective: (partial makespan, sum of ends)."""
    return (state.makespan, sum(state.end.values()))


class CopyISKScheduler(ISKScheduler):
    """IS-k driven by the fork-per-option window search.

    Honours ``k``, ``branch_cap``, ``node_limit``,
    ``enable_module_reuse`` and ``communication_overhead``; ``memo``
    and ``incumbent_seed`` belong to the production search and are
    ignored here.
    """

    def schedule(self, instance: Instance) -> ISKResult:
        t0 = _time.perf_counter()
        opts = self.options
        topo = instance.taskgraph.topological_order()
        state = PartialSchedule(
            instance,
            communication_overhead=opts.communication_overhead,
            enable_module_reuse=opts.enable_module_reuse,
        )
        total_nodes = 0
        iterations = 0
        for chunk_start in range(0, len(topo), opts.k):
            window = topo[chunk_start : chunk_start + opts.k]
            state, nodes = self._solve_window_copy(state, window)
            total_nodes += nodes
            iterations += 1
        schedule = state.to_schedule(
            scheduler=f"IS-{opts.k}",
            metadata={"nodes": total_nodes, "iterations": iterations},
        )
        return ISKResult(
            schedule=schedule,
            elapsed=_time.perf_counter() - t0,
            iterations=iterations,
            nodes=total_nodes,
            stats={"nodes_expanded": total_nodes},
        )

    def _ranked_forks(
        self, state: PartialSchedule, task_id: str
    ) -> list[tuple[tuple[float, float], PartialSchedule]]:
        """Fork the state per option, ranked by the myopic objective."""
        ranked: list[tuple[tuple[float, float, float, str], PartialSchedule]] = []
        for option in self._task_options(state, task_id):
            fork = state.copy()
            try:
                self._apply(fork, task_id, option)
            except ValueError:
                continue
            makespan, end_sum = _score(fork)
            ranked.append(
                ((makespan, end_sum, fork.end[task_id], option.impl.name), fork)
            )
        ranked.sort(key=lambda item: item[0])
        return [((key[0], key[1]), fork) for key, fork in ranked]

    def _solve_window_copy(
        self, state: PartialSchedule, window: list[str]
    ) -> tuple[PartialSchedule, int]:
        """Exact (budget-bounded) DFS over the window's decision space —
        the seed fork-per-option engine, byte-for-byte semantics."""
        opts = self.options
        best_state: PartialSchedule | None = None
        best_score: tuple[float, float] = (float("inf"), float("inf"))
        nodes = 0

        def dfs(current: PartialSchedule, depth: int) -> None:
            nonlocal best_state, best_score, nodes
            if depth == len(window):
                score = _score(current)
                if score < best_score:
                    best_score = score
                    best_state = current
                return
            if nodes > opts.node_limit:
                return
            ranked = self._ranked_forks(current, window[depth])
            cap = opts.branch_cap if len(window) > 1 else len(ranked)
            for (makespan, _end_sum), fork in ranked[:cap]:
                nodes += 1
                # The partial makespan only grows as tasks are added, so
                # it is an admissible bound for pruning.
                if makespan > best_score[0]:
                    continue
                dfs(fork, depth + 1)

        dfs(state, 0)
        if best_state is None:
            # Node budget exhausted before any leaf: greedy completion.
            best_state = state
            for task_id in window:
                ranked = self._ranked_forks(best_state, task_id)
                if not ranked:
                    raise RuntimeError(f"task {task_id!r} has no feasible option")
                best_state = ranked[0][1]
        return best_state, nodes


def copy_isk_schedule(instance: Instance, k: int = 1, **kwargs) -> ISKResult:
    """``isk_schedule`` with the reference search."""
    return CopyISKScheduler(ISKOptions(k=k, **kwargs)).schedule(instance)
