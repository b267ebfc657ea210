"""Sweep engine: dedup, store-first re-sweeps, deterministic parallel
reduction, warm-start result identity, energy caps, CSV/HTML output."""

import csv
import dataclasses
import json

import pytest

from repro.benchgen import paper_instance
from repro.engine import ResultStore, get_backend
from repro.explore import GridSpec, expand_grid, run_sweep
from repro.model.power import zedboard_power


@pytest.fixture
def instance():
    return paper_instance(tasks=8, seed=3)


@pytest.fixture
def powered_instance(instance):
    arch = dataclasses.replace(instance.architecture, power=zedboard_power())
    return dataclasses.replace(instance, architecture=arch)


SPEC = dict(
    algorithms=["pa", "is-1", "is-2"],
    fabric_scales=[1.0, 0.8],
    seeds=[0, 1],
)


def _decisions(outcome):
    """Schedule identity modulo search-provenance metadata (node
    counts differ under hints/reruns; the decisions must not)."""
    payload = outcome.schedule.to_dict()
    payload.pop("metadata", None)
    return payload


class TestSweepBasics:
    def test_cold_sweep_counts(self, tmp_path, instance):
        report = run_sweep(
            instance, GridSpec(**SPEC), store=ResultStore(tmp_path / "s")
        )
        assert report.total_points == 12
        # seeds collapse for pa/is-k -> 6 unique requests
        assert report.unique_requests == 6
        assert report.dedup_collapsed == 6
        assert report.executed == 6
        assert report.store_hits == 0
        assert report.store_stats == {
            "hits": 0,
            "misses": 6,
            "writes": 6,
            "evictions": 0,
        }

    def test_warm_resweep_executes_nothing(self, tmp_path, instance):
        store = ResultStore(tmp_path / "s")
        run_sweep(instance, GridSpec(**SPEC), store=store)
        warm = run_sweep(instance, GridSpec(**SPEC), store=store)
        assert warm.executed == 0
        assert warm.store_hits == warm.unique_requests == 6
        assert warm.hit_rate == 1.0

    def test_grid_refinement_pays_only_the_delta(self, tmp_path, instance):
        store = ResultStore(tmp_path / "s")
        run_sweep(instance, GridSpec(**SPEC), store=store)
        refined = dict(SPEC, fabric_scales=[1.0, 0.8, 0.9])
        report = run_sweep(instance, GridSpec(**refined), store=store)
        assert report.store_hits == 6
        assert report.executed == 3  # only the new 0.9 cells

    def test_sweep_shares_store_with_plain_requests(self, tmp_path, instance):
        # A normal engine run at the identity transform warms the
        # sweep, and vice versa.
        from repro.engine import ScheduleRequest

        store = ResultStore(tmp_path / "s")
        request = ScheduleRequest(
            instance=instance, algorithm="pa", options={"floorplan": True}
        )
        store.put(request, get_backend("pa").run(request))
        report = run_sweep(
            instance, GridSpec(algorithms=["pa"]), store=store
        )
        assert report.store_hits == 1
        assert report.executed == 0

    def test_records_keep_grid_order(self, instance):
        report = run_sweep(instance, GridSpec(**SPEC))
        assert [r.index for r in report.records] == list(range(12))
        for record in report.records:
            if record.source == "dedup":
                assert record.elapsed == 0.0

    def test_unknown_objective_rejected(self, instance):
        with pytest.raises(ValueError, match="unknown objective"):
            run_sweep(instance, GridSpec(), objectives=["latency"])


class TestDeterminism:
    def test_serial_equals_parallel(self, tmp_path, instance):
        a = run_sweep(
            instance,
            GridSpec(**SPEC),
            store=ResultStore(tmp_path / "a"),
            jobs=1,
        )
        b = run_sweep(
            instance,
            GridSpec(**SPEC),
            store=ResultStore(tmp_path / "b"),
            jobs=3,
        )
        assert a.canonical_payload() == b.canonical_payload()

    def test_canonical_payload_strips_wall_clock(self, instance):
        payload = run_sweep(instance, GridSpec()).canonical_payload()
        assert "elapsed" not in payload
        assert "jobs" not in payload
        assert all("elapsed" not in record for record in payload["records"])


class TestWarmStartIdentity:
    def test_warm_sweep_matches_independent_solves(self, tmp_path, instance):
        # The soundness gate: shared planners must select exactly the
        # schedules that independent per-point solves select.
        spec = GridSpec(
            algorithms=["pa", "is-1", "is-2", "is-3"],
            fabric_scales=[1.0, 0.8],
        )
        store = ResultStore(tmp_path / "warm")
        warm = run_sweep(instance, spec, store=store, warm_starts=True)
        for point in expand_grid(instance, spec):
            if point.request is None:
                continue
            stored = store.get(point.request)
            independent = get_backend(point.request.algorithm).run(
                point.request
            )
            assert _decisions(stored) == _decisions(independent), point.label()
            assert stored.makespan == independent.makespan

    def test_warm_starts_off_still_identical(self, tmp_path, instance):
        spec = GridSpec(algorithms=["is-1", "is-2"], fabric_scales=[1.0, 0.8])
        cold = run_sweep(
            instance, spec, store=ResultStore(tmp_path / "a"), warm_starts=False
        )
        warm = run_sweep(
            instance, spec, store=ResultStore(tmp_path / "b"), warm_starts=True
        )
        for x, y in zip(cold.records, warm.records):
            assert x.makespan == y.makespan
            assert x.feasible == y.feasible

    def test_planner_cache_carries_across_sweeps(self, tmp_path, instance):
        spec = GridSpec(algorithms=["pa"], region_budgets=[None, 1, 2])
        cache: dict = {}
        run_sweep(instance, spec, planner_cache=cache)
        assert cache  # exported entries for the shared fabric
        again = run_sweep(instance, spec, planner_cache=cache)
        assert again.executed == 3  # no store: work repeats, warmth helps
        assert again.planner_stats.get("queries", 0) >= 0


class TestObjectivesAndCaps:
    def test_energy_cap_excludes_from_front_keeps_in_records(
        self, powered_instance
    ):
        report = run_sweep(
            powered_instance,
            GridSpec(algorithms=["pa"], energy_caps=[None, 1.0]),
        )
        capped = report.records[1]
        assert capped.feasible  # schedule itself is fine
        assert not capped.within_cap  # 1 µJ cap is absurd
        assert capped.index not in report.front
        assert report.records[0].index in report.front

    def test_energy_objective_uses_power_model(self, powered_instance):
        report = run_sweep(powered_instance, GridSpec())
        assert report.records[0].energy_uj > 0

    def test_energy_zero_without_power_model(self, instance):
        report = run_sweep(instance, GridSpec())
        assert report.records[0].energy_uj == 0.0

    def test_makespan_only_front(self, instance):
        report = run_sweep(
            instance,
            GridSpec(algorithms=["pa", "list"]),
            objectives=["makespan"],
        )
        fronted = [r for r in report.records if r.on_front]
        best = min(r.makespan for r in report.records if r.feasible)
        assert len(fronted) == 1
        assert fronted[0].makespan == best


class TestOutputs:
    def test_csv_keeps_infeasible_rows(self, tmp_path, instance):
        spec = GridSpec(fabric_scales=[1.0, 0.01])
        report = run_sweep(instance, spec)
        out = tmp_path / "front.csv"
        report.write_csv(out)
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        assert rows[0]["feasible"] == "True"
        assert rows[1]["feasible"] == "False"
        assert rows[1]["source"] == "infeasible"
        assert rows[1]["error"]
        assert rows[1]["makespan"] == ""

    def test_html_report_is_self_contained(self, tmp_path, instance):
        report = run_sweep(instance, GridSpec(**SPEC))
        out = tmp_path / "report.html"
        report.write_html(out)
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "circle" in html
        assert "http" not in html.split("report</title>")[1]  # no CDN deps

    def test_report_json_round_trips(self, instance):
        report = run_sweep(instance, GridSpec(**SPEC))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["total_points"] == 12
        assert payload["front"] == report.front

    def test_render_mentions_front_and_dedup(self, instance):
        text = run_sweep(instance, GridSpec(**SPEC)).render()
        assert "unique requests" in text
        assert "front" in text
