"""IS-k — the iterative MILP scheduler of reference [6] (substitute).

The original IS-k optimally schedules the next ``k`` tasks at each
iteration with a Gurobi MILP (mapping + implementation + start times),
keeping earlier discrete decisions fixed.  This reproduction replaces
the MILP with an **exact branch-and-bound over the same discrete
decision space** — per task: software implementation x core, or
hardware implementation x (compatible existing region | new region) —
with timing evaluated constructively (:mod:`repro.baselines.partial`).
On the window subproblem this explores the identical solution set the
MILP would, so solution quality matches; wall-clock constants differ
(see DESIGN.md, substitutions).

The window objective is the *partial-schedule makespan* (ties broken by
the sum of task end times) — the myopic criterion that makes IS-1
exhibit exactly the Figure 1 pathology the paper builds on: with an
empty fabric, the locally-fastest, resource-hungry implementation wins,
the fabric fills with large regions, and later tasks pay for it.
IS-5's five-task lookahead partially corrects this, at an exponential
search cost — matching the paper's Table I runtimes qualitatively.

IS-k *does* exploit module reuse (Section VII-A notes it as an
IS-k-only feature) and reconfiguration prefetching, both inherited from
:class:`~repro.baselines.partial.PartialSchedule`.

Window search
-------------

Each window is solved by an in-place DFS over the apply/undo trail of
:class:`~repro.baselines.partial.PartialSchedule` (do → recurse →
undo), with a window-state dominance memo and a greedy incumbent seed
(the rank-first descent, i.e. exactly the plain DFS's first path).
Options are ranked by the key ``(partial makespan, Σ end, task end,
impl name)`` and the incumbent is updated with strict ``<`` (first
found wins ties).  The seed fork-per-option search lives on in the
test suite as the oracle this search matches node for node with the
memo off (see DESIGN.md § IS-k for the dominance / incumbent-seeding
arguments).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from ..model import Implementation, Instance, Schedule
from .partial import PartialSchedule

__all__ = ["ISKOptions", "ISKResult", "ISKScheduler", "isk_schedule"]

_INF_SCORE = (float("inf"), float("inf"))


@dataclass
class ISKOptions:
    """IS-k tuning knobs.

    ``branch_cap`` bounds the placement options explored per task in
    windows with k > 1 (options are pre-ranked by the myopic objective,
    so the cap drops only unpromising branches); ``node_limit`` bounds
    the branch-and-bound tree per iteration — both model how the
    authors bound Gurobi to keep IS-k "acceptable" on large graphs.

    ``memo`` and ``incumbent_seed`` toggle the search's dominance memo
    and greedy incumbent bound.
    """

    k: int = 1
    branch_cap: int = 8
    node_limit: int = 50_000
    enable_module_reuse: bool = True
    communication_overhead: bool = False
    memo: bool = True
    incumbent_seed: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.branch_cap < 1 or self.node_limit < 1:
            raise ValueError("branch_cap/node_limit must be >= 1")


@dataclass
class ISKResult:
    """Outcome of an IS-k (or exhaustive) run.

    Mirrors :class:`~repro.core.scheduler.PAResult`'s ``makespan`` /
    ``total_time`` / ``feasible`` surface so report code can treat all
    scheduler results uniformly.  ``stats`` carries search-engine
    counters (nodes expanded, bound/memo prunes, incumbent seeds,
    fallback completions, undo-trail high-water mark).
    """

    schedule: Schedule
    elapsed: float
    iterations: int
    nodes: int
    stats: dict = field(default_factory=dict)
    feasible: bool = True

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def total_time(self) -> float:
        return self.elapsed


_PROC, _REGION, _NEW = 0, 1, 2


@dataclass(frozen=True)
class _Option:
    """One discrete decision for a task.

    ``kind``/``ref`` pre-resolve the target (processor index or region
    id) so the hot preview/apply paths never re-parse the string.
    """

    impl: Implementation
    target: str  # "proc:<i>", "region:<id>" or "new"
    kind: int = _NEW
    ref: int | str | None = None


def _init_stats() -> dict:
    return {
        "nodes_expanded": 0,
        "bound_pruned": 0,
        "memo_hits": 0,
        "memo_entries": 0,
        "incumbent_seeds": 0,
        "fallback_completions": 0,
        "max_undo_depth": 0,
    }


class ISKScheduler:
    """Iterative window scheduler (see module docstring)."""

    def __init__(self, options: ISKOptions | None = None) -> None:
        self.options = options or ISKOptions()

    # -- public API --------------------------------------------------------

    def schedule(self, instance: Instance) -> ISKResult:
        """Run the iterative window scheduler."""
        t0 = _time.perf_counter()
        opts = self.options
        topo = instance.taskgraph.topological_order()
        stats = _init_stats()

        state = PartialSchedule(
            instance,
            communication_overhead=opts.communication_overhead,
            enable_module_reuse=opts.enable_module_reuse,
        )
        total_nodes = 0
        iterations = 0
        for chunk_start in range(0, len(topo), opts.k):
            window = topo[chunk_start : chunk_start + opts.k]
            total_nodes += self._solve_window(state, window, stats)
            iterations += 1
        stats["nodes_expanded"] = total_nodes

        schedule = state.to_schedule(
            scheduler=f"IS-{opts.k}",
            metadata={"nodes": total_nodes, "iterations": iterations},
        )
        return ISKResult(
            schedule=schedule,
            elapsed=_time.perf_counter() - t0,
            iterations=iterations,
            nodes=total_nodes,
            stats=stats,
        )

    # -- shared decision space ---------------------------------------------

    def _task_options(self, state: PartialSchedule, task_id: str) -> list[_Option]:
        """The discrete decision space for one task in the window."""
        task = state.instance.taskgraph.task(task_id)
        options: list[_Option] = []
        for impl in task.sw_implementations:
            for proc in range(state.arch.processors):
                options.append(
                    _Option(impl=impl, target=f"proc:{proc}", kind=_PROC, ref=proc)
                )
        for impl in task.hw_implementations:
            for region in state.regions.values():
                if impl.resources.fits_in(region.resources):
                    options.append(
                        _Option(
                            impl=impl,
                            target=f"region:{region.id}",
                            kind=_REGION,
                            ref=region.id,
                        )
                    )
            if state.can_create_region(impl.resources):
                options.append(_Option(impl=impl, target="new"))
        return options

    @staticmethod
    def _apply(state: PartialSchedule, task_id: str, option: _Option) -> None:
        if option.kind == _PROC:
            state.place_sw(task_id, option.impl, option.ref)
        elif option.kind == _REGION:
            state.place_hw(task_id, option.impl, option.ref)
        else:  # "new"
            region = state.create_region(option.impl.resources)
            state.place_hw(task_id, option.impl, region.id)

    # -- window search -----------------------------------------------------

    def _preview_key(
        self, state: PartialSchedule, option: _Option, ready: float
    ) -> tuple[float, float, float, str]:
        """The ranking key ``(makespan, Σ end, task end, impl name)``
        this option *would* produce, computed read-only.

        Mirrors the timing arithmetic of
        :meth:`~repro.baselines.partial.PartialSchedule.place_sw` /
        ``place_hw`` operation-for-operation (same ``max`` argument
        order, same addition order), so the previewed key is
        bit-identical to applying the option and reading the
        incremental objective (the fork-and-score key of the reference
        search in the test suite).
        """
        impl = option.impl
        makespan = state.makespan
        if option.kind == _PROC:
            start = max(ready, state.proc_free[option.ref])
        elif option.kind == _REGION:
            region = state.regions[option.ref]
            if region.sequence and not (
                state.module_reuse and region.loaded == impl.name
            ):
                duration = state.arch.reconf_time(region.resources)
                _ctrl, rc_start = state._controller_slot(
                    region.free_time, duration
                )
                rc_end = rc_start + duration
                if rc_end > makespan:
                    makespan = rc_end
                start = max(ready, rc_end)
            else:
                start = max(ready, region.free_time)
        else:  # "new" — a fresh region is idle at t=0 and needs no reconf
            start = max(ready, 0.0)
        end = start + impl.time
        if end > makespan:
            makespan = end
        return (makespan, state.end_sum + end, end, impl.name)

    def _ranked_options(
        self, state: PartialSchedule, task_id: str
    ) -> list[tuple[tuple[float, float, float, str], _Option]]:
        """Rank options by read-only preview — no state mutation, so
        only the branches the DFS actually explores pay for an
        apply/undo.  Ordering is exactly the fork-and-score order
        (``end_sum`` accumulates task ends in placement order, which is
        the summation order of ``sum(end.values())``)."""
        try:
            ready = state.ready_time(task_id)
        except ValueError:
            return []
        ranked = [
            (self._preview_key(state, option, ready), option)
            for option in self._task_options(state, task_id)
        ]
        ranked.sort(key=lambda item: item[0])
        return ranked

    def _relevant_prefixes(self, state: PartialSchedule, window: list[str]) -> list[list[str]]:
        """For each depth d: the window-prefix tasks whose end times can
        still influence the remaining window (successor in it) — the
        only prefix timing the dominance signature must pin down."""
        graph = state.instance.taskgraph
        relevant: list[list[str]] = []
        for d in range(len(window)):
            rest = set(window[d:])
            relevant.append(
                [t for t in window[:d]
                 if any(s in rest for s in graph.successors(t))]
            )
        return relevant

    @staticmethod
    def _signature(state: PartialSchedule, depth: int, relevant: list[str]) -> tuple:
        """Canonical window-state frontier at ``depth``.

        Two states with equal signatures offer identical completion
        sets with identical rank orderings (their end-sums differ by a
        constant, which shifts every completion's tie-break equally),
        so the one with the larger running end-sum is dominated.
        """
        return (
            depth,
            state.makespan,
            tuple(state.proc_free),
            tuple(
                (r.id, r.resources, r.free_time, r.loaded, bool(r.sequence))
                for r in state.regions.values()
            ),
            tuple(tuple(c) for c in state.controllers),
            tuple(state.end[t] for t in relevant),
        )

    def _greedy_completion(
        self, state: PartialSchedule, window: list[str]
    ) -> tuple[tuple[float, float], list[_Option]] | None:
        """Rank-first descent through the window — exactly the first
        path the DFS would walk.  Returns (score, options) and restores
        the state; ``None`` on a dead end (then no incumbent is seeded
        and the search starts from an infinite bound, as the unseeded
        reference search does)."""
        mark = state.trail_mark()
        taken: list[_Option] = []
        for task_id in window:
            ranked = self._ranked_options(state, task_id)
            if not ranked:
                state.undo_to(mark)
                return None
            option = ranked[0][1]
            self._apply(state, task_id, option)
            taken.append(option)
        score = (state.makespan, state.end_sum)
        state.undo_to(mark)
        return score, taken

    def _dfs_search(
        self,
        state: PartialSchedule,
        window: list[str],
        seed_score: tuple[float, float] | None,
        stats: dict,
    ) -> tuple[list[_Option] | None, int, tuple[int, list[_Option]]]:
        """Bounded DFS over the window.  Returns ``(best_path, nodes,
        deepest)`` where ``best_path`` is ``None`` when no leaf beat
        the seed (the caller then keeps the seed path) and ``deepest``
        is the deepest partial reached (for the budget fallback)."""
        opts = self.options
        n = len(window)
        relevant = self._relevant_prefixes(state, window)
        best_score = seed_score if seed_score is not None else _INF_SCORE
        best_path: list[_Option] | None = None
        nodes = 0
        memo: dict[tuple, float] = {}
        path: list[_Option] = []
        deepest: tuple[int, list[_Option]] = (0, [])

        def dfs(depth: int) -> None:
            nonlocal best_score, best_path, nodes, deepest
            if depth == n:
                score = (state.makespan, state.end_sum)
                if score < best_score:
                    best_score = score
                    best_path = list(path)
                return
            if nodes > opts.node_limit:
                return
            if opts.memo:
                sig = self._signature(state, depth, relevant[depth])
                prev = memo.get(sig)
                if prev is not None and prev <= state.end_sum:
                    stats["memo_hits"] += 1
                    return
                memo[sig] = state.end_sum
            ranked = self._ranked_options(state, window[depth])
            cap = opts.branch_cap if n > 1 else len(ranked)
            for key, option in ranked[:cap]:
                nodes += 1
                # The partial makespan only grows as tasks are added, so
                # it is an admissible bound for pruning.
                if key[0] > best_score[0]:
                    stats["bound_pruned"] += 1
                    continue
                mark = state.trail_mark()
                self._apply(state, window[depth], option)
                depth_now = state.trail_depth()
                if depth_now > stats["max_undo_depth"]:
                    stats["max_undo_depth"] = depth_now
                path.append(option)
                if depth + 1 > deepest[0]:
                    deepest = (depth + 1, list(path))
                dfs(depth + 1)
                path.pop()
                state.undo_to(mark)

        dfs(0)
        stats["memo_entries"] += len(memo)
        return best_path, nodes, deepest

    def _backtrack_complete(
        self, state: PartialSchedule, window: list[str], depth: int
    ) -> list[_Option] | None:
        """First feasible completion from ``depth`` (rank-first with
        backtracking, no cap); ``None`` iff the subtree is infeasible."""
        if depth == len(window):
            return []
        for _key, option in self._ranked_options(state, window[depth]):
            mark = state.trail_mark()
            self._apply(state, window[depth], option)
            tail = self._backtrack_complete(state, window, depth + 1)
            state.undo_to(mark)
            if tail is not None:
                return [option, *tail]
        return None

    def _fallback_completion(
        self,
        state: PartialSchedule,
        window: list[str],
        deepest: tuple[int, list[_Option]],
        stats: dict,
    ) -> list[_Option]:
        """Node budget exhausted before any leaf (and no seed): complete
        from the deepest best partial the search reached, falling back
        to the window root only if that subtree is infeasible.  Raises
        only when the *whole* window has no feasible completion."""
        stats["fallback_completions"] += 1
        depth, prefix = deepest
        if depth > 0:
            mark = state.trail_mark()
            for i, option in enumerate(prefix):
                self._apply(state, window[i], option)
            tail = self._backtrack_complete(state, window, depth)
            state.undo_to(mark)
            if tail is not None:
                return [*prefix, *tail]
        tail = self._backtrack_complete(state, window, 0)
        if tail is None:
            raise RuntimeError(f"no feasible completion for window {window}")
        return tail

    def _solve_window(
        self, state: PartialSchedule, window: list[str], stats: dict
    ) -> int:
        """In-place window solve: seed the incumbent, search, then
        commit the winning path onto ``state``; returns the nodes
        expanded."""
        seed = (
            self._greedy_completion(state, window)
            if self.options.incumbent_seed
            else None
        )
        if seed is not None:
            stats["incumbent_seeds"] += 1
        best_path, nodes, deepest = self._dfs_search(
            state, window, seed[0] if seed is not None else None, stats
        )
        if best_path is None:
            if seed is not None:
                best_path = seed[1]
            else:
                best_path = self._fallback_completion(
                    state, window, deepest, stats
                )

        state.trail_clear()
        for i, option in enumerate(best_path):
            self._apply(state, window[i], option)
        return nodes


def isk_schedule(instance: Instance, k: int = 1, **kwargs) -> ISKResult:
    """Convenience wrapper: ``isk_schedule(instance, k=5)``."""
    return ISKScheduler(ISKOptions(k=k, **kwargs)).schedule(instance)
