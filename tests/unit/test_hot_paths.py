"""Unit tests for the hot paths: packed dominance probe, batched
floorplan queries, IS-k preview ranking, and the lean device pickle.

The probe and batch tests run the production planner against the
entry-by-entry reference scan in ``tests/floorplan_reference.py``."""

import json
import pickle
import random

import pytest

np = pytest.importorskip("numpy")

from repro.baselines.isk import ISKOptions, ISKScheduler
from repro.benchgen.suite import paper_instance
from repro.floorplan.device import FabricDevice, small_device, zynq_7z020
from repro.floorplan.floorplanner import Floorplanner
from repro.floorplan.placements import candidate_placements
from repro.model import ResourceVector

from ..floorplan_reference import ScanFloorplanner
from ..isk_reference import CopyISKScheduler


def _random_demands(rng: random.Random) -> list[ResourceVector]:
    """A plausible region-set query against the ZedBoard fabric."""
    n = rng.randint(1, 5)
    out = []
    for _ in range(n):
        d = {"CLB": rng.randrange(100, 2000, 100)}
        if rng.random() < 0.5:
            d["BRAM"] = rng.randrange(10, 60, 10)
        if rng.random() < 0.4:
            d["DSP"] = rng.randrange(20, 120, 20)
        out.append(ResourceVector(d))
    return out


def _query_stream(seed: int, n: int) -> list[list[ResourceVector]]:
    """Mixed stream: novel queries, exact repeats, near-miss variants."""
    rng = random.Random(seed)
    stream: list[list[ResourceVector]] = []
    for _ in range(n):
        roll = rng.random()
        if stream and roll < 0.25:
            stream.append(list(rng.choice(stream)))  # exact repeat
        elif stream and roll < 0.5:  # shrink one region: dominance bait
            base = list(rng.choice(stream))
            i = rng.randrange(len(base))
            base[i] = ResourceVector(
                {k: max(1, v - 100) if k == "CLB" else v
                 for k, v in base[i].items()}
            )
            stream.append(base)
        else:
            stream.append(_random_demands(rng))
    return stream


def _result_sig(result):
    placements = (
        None
        if result.placements is None
        else tuple(sorted(result.placements.items()))
    )
    return (bool(result.feasible), result.proven, placements)


class TestProbeBackends:
    def test_vector_probe_matches_scalar(self):
        """Same query stream, same verdicts and placements, per query."""
        vec = Floorplanner(zynq_7z020())
        sca = ScanFloorplanner(zynq_7z020())
        for query in _query_stream(seed=11, n=120):
            rv = vec.check(list(query))
            rs = sca.check(list(query))
            assert _result_sig(rv) == _result_sig(rs)
        # Identical caches and stores afterwards: the prefilter may
        # never change which entry answers a query.
        assert vec.stats["feasible"] == sca.stats["feasible"]
        assert vec.stats["infeasible"] == sca.stats["infeasible"]
        assert vec.stats["dominance_hits"] == sca.stats["dominance_hits"]
        assert len(vec._dom_feasible) == len(sca._dom_feasible)
        assert len(vec._dom_infeasible) == len(sca._dom_infeasible)

    def test_prefilter_actually_prunes(self):
        planner = Floorplanner(zynq_7z020())
        for query in _query_stream(seed=23, n=80):
            planner.check(list(query))
        assert planner.stats["prefilter_candidates"] > 0
        assert planner.stats["prefilter_pruned"] > 0

    def test_pack_survives_eviction(self, monkeypatch):
        """FIFO eviction keeps the packed mirror aligned with the store."""
        monkeypatch.setattr(Floorplanner, "DOMINANCE_LIMIT", 8)
        vec = Floorplanner(zynq_7z020())
        sca = ScanFloorplanner(zynq_7z020())
        for query in _query_stream(seed=37, n=100):
            assert _result_sig(vec.check(list(query))) == (
                _result_sig(sca.check(list(query)))
            )
        assert len(vec._dom_feasible) <= 8
        assert vec._pack_feasible.lens == [
            len(e.demands) for e in vec._dom_feasible
        ]


class TestCheckBatch:
    def test_batch_matches_sequential(self):
        batch = Floorplanner(zynq_7z020())
        seq = ScanFloorplanner(zynq_7z020())
        queries = _query_stream(seed=51, n=60)
        # Pre-warm both identically so the batch hits a non-empty index.
        for query in queries[:20]:
            batch.check(list(query))
            seq.check(list(query))
        got = batch.check_batch([list(q) for q in queries[20:]])
        want = [seq.check(list(q)) for q in queries[20:]]
        assert [_result_sig(r) for r in got] == [_result_sig(r) for r in want]
        # The batch must leave the planner in the exact state the
        # sequential loop would: same stores, same counters.
        assert len(batch._dom_feasible) == len(seq._dom_feasible)
        assert len(batch._dom_infeasible) == len(seq._dom_infeasible)
        for key in ("feasible", "infeasible", "cache_hits", "dominance_hits"):
            assert batch.stats[key] == seq.stats[key], key

    def test_batch_intra_batch_duplicates(self):
        """A query repeated inside one batch hits the cache entry the
        earlier copy inserted."""
        planner = Floorplanner(zynq_7z020())
        q = _random_demands(random.Random(3))
        results = planner.check_batch([list(q), list(q), list(q)])
        assert len({_result_sig(r) for r in results}) == 1
        assert planner.stats["cache_hits"] == 2

    def test_batch_single_and_empty(self):
        planner = Floorplanner(zynq_7z020())
        assert planner.check_batch([]) == []
        q = _random_demands(random.Random(5))
        (result,) = planner.check_batch([list(q)])
        assert _result_sig(result) == _result_sig(planner.check(list(q)))


class TestLeanPickle:
    def test_warm_device_pickles_like_fresh(self):
        warm = zynq_7z020()
        fresh = FabricDevice(
            name=warm.name,
            rows=warm.rows,
            columns=warm.columns,
            reserved_columns=warm.reserved_columns,
        )
        baseline = len(pickle.dumps(fresh))
        # Warm every per-device memo the hot paths populate.
        warm.packed_geometry()
        candidate_placements(warm, ResourceVector({"CLB": 600, "DSP": 40}))
        assert len(warm._candidate_cache) > 0
        assert warm._packed_geometry is not None
        assert len(pickle.dumps(warm)) == baseline
        # And the round-tripped device rebuilds its memos lazily.
        clone = pickle.loads(pickle.dumps(warm))
        assert clone._packed_geometry is None
        assert clone._candidate_cache == {}
        assert clone.packed_geometry().keys() == warm.packed_geometry().keys()


class TestPreviewBackends:
    """IS-k ranks options by a read-only preview; it must agree with
    forking the state and applying each option (the reference search's
    ranking), and the removed vector/scalar switch is gone."""

    def test_ranked_options_identical_per_call(self, monkeypatch):
        instance = paper_instance(20, seed=77)
        reference = CopyISKScheduler(ISKOptions(k=2))
        orig = ISKScheduler._ranked_options
        calls = [0]

        def checked(self, state, task_id):
            ranked = orig(self, state, task_id)
            forks = reference._ranked_forks(state, task_id)
            assert [key[:2] for key, _ in ranked] == [key for key, _ in forks]
            calls[0] += 1
            return ranked

        monkeypatch.setattr(ISKScheduler, "_ranked_options", checked)
        ISKScheduler(ISKOptions(k=2)).schedule(instance)
        assert calls[0] > len(instance.taskgraph)

    @pytest.mark.parametrize("k", [1, 3])
    def test_schedules_bit_identical(self, k):
        instance = paper_instance(25, seed=13)
        preview = ISKScheduler(ISKOptions(k=k)).schedule(instance)
        forks = CopyISKScheduler(ISKOptions(k=k)).schedule(instance)
        assert preview.makespan == forks.makespan
        sp, sf = preview.schedule.to_dict(), forks.schedule.to_dict()
        sp.pop("metadata")
        sf.pop("metadata")
        assert sp == sf

    def test_preview_option_validated(self):
        with pytest.raises(TypeError):
            ISKOptions(preview="scalar")


class TestProfileCLI:
    def test_schedule_profile_emits_phase_json(self, tmp_path, capsys):
        from repro.cli import main

        instance = paper_instance(12, seed=5)
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(instance.to_dict()))
        out_path = tmp_path / "profile.json"
        rc = main(
            [
                "schedule", str(inst_path),
                "--algorithm", "pa",
                "--profile-out", str(out_path),
            ]
        )
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["total_wall_s"] > 0
        assert {"selection", "regions", "mapping"} <= report["phases"].keys()
        for row in report["phases"].values():
            assert row["calls"] >= 1
            assert row["wall_s"] >= 0
