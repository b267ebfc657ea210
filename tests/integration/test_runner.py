"""Integration tests for the experiment harness (tiny profile)."""

import json

import pytest

from repro.analysis.runner import (
    ConvergenceResults,
    ExperimentConfig,
    QualityResults,
    run_convergence,
    run_quality,
)


@pytest.fixture(scope="module")
def results() -> QualityResults:
    config = ExperimentConfig(
        profile="tiny", group_sizes=(10, 20), per_group=2, is5_node_limit=500,
        pa_r_min_budget=0.05, pa_r_max_budget=0.2,
    )
    return run_quality(config)


class TestConfig:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(profile="huge")

    def test_profile_defaults(self):
        cfg = ExperimentConfig(profile="tiny")
        assert cfg.group_sizes == (10, 20, 30)
        assert cfg.per_group == 2

    def test_env_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE", "tiny")
        assert ExperimentConfig().profile == "tiny"

    def test_suite_shape(self):
        cfg = ExperimentConfig(profile="tiny", group_sizes=(10,), per_group=1)
        suite = cfg.suite()
        assert list(suite) == [10]
        assert len(suite[10]) == 1


class TestQualityRun:
    def test_record_count(self, results):
        assert len(results.records) == 4
        assert results.groups() == [10, 20]

    def test_all_renders_produce_titles(self, results):
        assert "Table I" in results.render_table1()
        assert "Figure 2" in results.render_fig2()
        assert "Figure 3" in results.render_fig3()
        assert "Figure 4" in results.render_fig4()
        assert "Figure 5" in results.render_fig5()
        assert "Table I" in results.render_all()

    def test_improvements_computed_per_group(self, results):
        imps = results.improvement("is1_makespan", "pa_makespan")
        assert [g for g, _ in imps] == [10, 20]
        for _, imp in imps:
            assert imp.count == 2

    def test_times_positive(self, results):
        for record in results.records:
            assert record.pa_scheduling_time > 0
            assert record.is1_time > 0
            assert record.is5_time > 0
            assert record.pa_r_iterations >= 1

    def test_json_roundtrip(self, results, tmp_path):
        path = tmp_path / "q.json"
        results.to_json(path)
        clone = QualityResults.from_json(path)
        assert len(clone.records) == len(results.records)
        assert clone.render_fig3() == results.render_fig3()
        # Files written while IS-5 had a fan-out carry two more columns.
        payload = json.loads(path.read_text())
        for record in payload["records"]:
            record.update(is5_fanout_windows=0, is5_jobs=1)
        path.write_text(json.dumps(payload))
        old = QualityResults.from_json(path)
        assert old.render_fig3() == results.render_fig3()

    def test_table1_reports_both_is5_and_budget_columns(self, results):
        table = results.render_table1()
        assert "IS-5 [s]" in table
        assert "PA-R/IS-5 budget [s]" in table
        # The old header fused the two into one mislabeled column.
        assert "PA-R / IS-5 [s]" not in table

    def test_energy_recorded_and_rendered(self, results):
        for record in results.records:
            assert record.pa_energy_total_j > 0
            assert record.pa_energy_total_j == (
                record.pa_energy_static_j
                + record.pa_energy_dynamic_j
                + record.pa_energy_reconf_j
            )
            assert record.devices_used == 1
        assert "Energy" in results.render_energy()
        assert "Energy" in results.render_all()

    def test_energy_columns_in_csv(self, results):
        from repro.analysis.export import quality_records_csv

        text = quality_records_csv(results)
        header = text.splitlines()[0].split(",")
        assert "pa_energy_total_j" in header
        assert "devices_used" in header
        for line in text.splitlines()[1:]:
            assert len(line.split(",")) == len(header)

    def test_legacy_json_without_energy_fields_loads(self, results, tmp_path):
        path = tmp_path / "legacy.json"
        results.to_json(path)
        data = json.loads(path.read_text())
        energy_fields = (
            "pa_energy_static_j", "pa_energy_dynamic_j",
            "pa_energy_reconf_j", "pa_energy_total_j", "devices_used",
        )
        for record in data["records"]:
            for field in energy_fields:
                record.pop(field)
        path.write_text(json.dumps(data))
        clone = QualityResults.from_json(path)
        assert clone.records[0].pa_energy_total_j == 0.0
        assert clone.records[0].devices_used == 1


def _deterministic_fields(records):
    return [
        (r.group, r.name, r.pa_makespan, r.pa_feasible, r.is1_makespan,
         r.is5_makespan, r.pa_r_makespan, r.pa_r_iterations)
        for r in records
    ]


class TestParallelQualityRun:
    def _config(self, jobs):
        config = ExperimentConfig(
            profile="tiny", group_sizes=(10, 20), per_group=2,
            is5_node_limit=500, jobs=jobs,
        )
        # Fixed restart count instead of a wall-clock budget: the two
        # runs then do identical work and the records are comparable.
        config.pa_r_iteration_cap = 2
        return config

    def test_parallel_records_identical_to_serial(self):
        serial = run_quality(self._config(jobs=1))
        pooled = run_quality(self._config(jobs=2))
        assert _deterministic_fields(serial.records) == _deterministic_fields(
            pooled.records
        )
        # Ordering contract: records sorted by (group, name).
        keys = [(r.group, r.name) for r in pooled.records]
        assert keys == sorted(keys)

    def test_jobs_override_argument(self):
        config = self._config(jobs=1)
        pooled = run_quality(config, jobs=2)
        assert len(pooled.records) == 4

    def test_progress_reported_in_record_order(self):
        seen = []
        run_quality(self._config(jobs=2), progress=seen.append)
        assert len(seen) == 4
        assert seen == sorted(seen)  # "[group ..." prefixes sort by group


class TestEmptyResults:
    def test_renders_do_not_raise_on_empty_records(self):
        empty = QualityResults(config_profile="tiny", records=[])
        assert "Table I" in empty.render_table1()
        assert "Figure 2" in empty.render_fig2()
        assert "no records" in empty.render_fig3()
        assert "no records" in empty.render_fig4()
        assert "Figure 5" in empty.render_fig5()
        assert "Energy" in empty.render_energy()
        assert empty.group_means("pa_makespan") == []
        assert empty.improvement("is1_makespan", "pa_makespan") == []


class TestConvergenceRun:
    def test_series_and_render(self):
        results = run_convergence(
            sizes=(10,), budget=0.3, use_floorplanner=False
        )
        assert 10 in results.series
        series = results.series[10]
        assert series, "PA-R must report at least one incumbent"
        makespans = [m for _, m in series]
        assert makespans == sorted(makespans, reverse=True)
        assert "Figure 6" in results.render()

    def test_json_export(self, tmp_path):
        results = ConvergenceResults(series={10: [(0.1, 100.0)]})
        path = tmp_path / "c.json"
        results.to_json(path)
        assert json.loads(path.read_text()) == {"10": [[0.1, 100.0]]}
