"""Unit tests for the IS-k baseline."""

import pytest

from repro.baselines import ISKOptions, ISKScheduler, isk_schedule
from repro.benchgen import paper_instance
from repro.validate import check_schedule

from ..isk_reference import copy_isk_schedule


def schedule_key(schedule) -> dict:
    """to_dict() minus metadata — node counts differ across searches."""
    payload = schedule.to_dict()
    payload.pop("metadata", None)
    return payload


class TestOptions:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            ISKOptions(k=0)

    def test_limits_positive(self):
        with pytest.raises(ValueError):
            ISKOptions(branch_cap=0)
        with pytest.raises(ValueError):
            ISKOptions(node_limit=0)


class TestIS1:
    def test_valid_schedule(self, medium_instance):
        result = isk_schedule(medium_instance, k=1)
        check_schedule(
            medium_instance, result.schedule, allow_module_reuse=True
        ).raise_if_invalid()
        assert result.schedule.scheduler == "IS-1"
        assert result.iterations == len(medium_instance.taskgraph)

    def test_deterministic(self, medium_instance):
        a = isk_schedule(medium_instance, k=1)
        b = isk_schedule(medium_instance, k=1)
        assert a.makespan == b.makespan

    def test_figure1_pathology(self, fig1_instance):
        """IS-1 greedily picks the fast/large implementation for t1 —
        the exact behaviour Section IV uses to motivate PA."""
        result = isk_schedule(fig1_instance, k=1)
        assert result.schedule.tasks["t1"].implementation.name == "t1_1"

    def test_chain(self, chain_instance):
        result = isk_schedule(chain_instance, k=1)
        check_schedule(
            chain_instance, result.schedule, allow_module_reuse=True
        ).raise_if_invalid()
        # All-HW chain, own regions: pure critical path.
        assert result.makespan == pytest.approx(30.0)


class TestIS5:
    def test_valid_schedule(self, medium_instance):
        result = isk_schedule(medium_instance, k=5, node_limit=2000)
        check_schedule(
            medium_instance, result.schedule, allow_module_reuse=True
        ).raise_if_invalid()
        assert result.schedule.scheduler == "IS-5"

    def test_window_count(self, medium_instance):
        result = isk_schedule(medium_instance, k=5, node_limit=500)
        expected = -(-len(medium_instance.taskgraph) // 5)
        assert result.iterations == expected

    def test_lookahead_beats_or_matches_greedy(self, fig1_instance):
        """IS-5 sees all three tasks at once and avoids (or at least
        does not worsen) the Figure 1 trap."""
        is1 = isk_schedule(fig1_instance, k=1)
        is5 = isk_schedule(fig1_instance, k=3)
        assert is5.makespan <= is1.makespan

    def test_node_budget_fallback_still_valid(self, medium_instance):
        result = isk_schedule(medium_instance, k=5, node_limit=1)
        check_schedule(
            medium_instance, result.schedule, allow_module_reuse=True
        ).raise_if_invalid()

    def test_branch_cap_still_valid(self, medium_instance):
        result = isk_schedule(medium_instance, k=5, branch_cap=2, node_limit=2000)
        check_schedule(
            medium_instance, result.schedule, allow_module_reuse=True
        ).raise_if_invalid()


class TestEngineOptions:
    """IS-k has one window search; the removed ``engine``/``jobs``
    knobs are rejected rather than silently ignored."""

    def test_engine_validated(self):
        with pytest.raises(TypeError):
            ISKOptions(engine="copy")

    def test_jobs_validated(self):
        with pytest.raises(TypeError):
            ISKOptions(jobs=2)


class TestEngineEquivalence:
    """The in-place trail search must reproduce the fork-per-option
    reference search (``tests/isk_reference.py``) decision for
    decision."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_copy_vs_trail_across_seeds(self, k):
        for seed in range(20):
            instance = paper_instance(10, seed=seed)
            copy = copy_isk_schedule(instance, k=k)
            # memo off: the trees must match node-for-node.
            bare = isk_schedule(instance, k=k, memo=False)
            assert schedule_key(bare.schedule) == schedule_key(copy.schedule), (
                f"trail diverged from copy at k={k} seed={seed}"
            )
            assert bare.nodes == copy.nodes, f"k={k} seed={seed}"
            # memo/bounds on (the defaults): fewer nodes, same decisions.
            full = isk_schedule(instance, k=k)
            assert schedule_key(full.schedule) == schedule_key(copy.schedule), (
                f"memoized trail diverged from copy at k={k} seed={seed}"
            )
            assert full.nodes <= copy.nodes

    def test_exhausted_budget_completes_from_deepest_partial(
        self, medium_instance
    ):
        # node_limit=1 exhausts the budget immediately; without the
        # incumbent seed the old code re-ranked from the window root and
        # could die on windows whose root-best branch was a dead end.
        result = isk_schedule(
            medium_instance, k=5, node_limit=1, incumbent_seed=False
        )
        check_schedule(
            medium_instance, result.schedule, allow_module_reuse=True
        ).raise_if_invalid()
        assert result.stats["fallback_completions"] > 0


class TestSearchStats:
    def test_stats_populated(self, medium_instance):
        result = isk_schedule(medium_instance, k=5)
        stats = result.stats
        assert set(stats) == {
            "nodes_expanded", "bound_pruned", "memo_hits", "memo_entries",
            "incumbent_seeds", "fallback_completions", "max_undo_depth",
        }
        assert stats["nodes_expanded"] == result.nodes > 0
        assert stats["incumbent_seeds"] == result.iterations
        assert stats["max_undo_depth"] > 0
        for key in ("bound_pruned", "memo_hits", "memo_entries",
                    "fallback_completions"):
            assert stats[key] >= 0

    def test_copy_engine_stats_minimal(self, medium_instance):
        result = copy_isk_schedule(medium_instance, k=3)
        assert result.stats == {"nodes_expanded": result.nodes}


class TestModuleReuseKnob:
    def test_disabled_reuse_creates_more_reconfs(self, medium_instance):
        with_reuse = isk_schedule(medium_instance, k=1, enable_module_reuse=True)
        without = isk_schedule(medium_instance, k=1, enable_module_reuse=False)
        check_schedule(medium_instance, without.schedule).raise_if_invalid()
        assert len(without.schedule.reconfigurations) >= len(
            with_reuse.schedule.reconfigurations
        )
