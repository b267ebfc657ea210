"""Pinned IS-k / exhaustive outputs.

Each case records the sha256 of ``Schedule.to_dict()`` without its
``metadata`` and the search's node count.  The 30- and 60-task cases
run with a *binding* node budget (``node_limit=2000``), which the
10-task copy-oracle equivalence test never reaches, so any change to
the search order, the bounds or the budget accounting shows up here.

Regenerate the fixture only when a change is meant to alter schedules:

    PYTHONPATH=src python tests/unit/test_isk_pinned.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines import exhaustive_schedule, isk_schedule
from repro.benchgen import paper_instance

FIXTURE = Path(__file__).with_name("isk_pinned.json")

ISK_CASES = [
    (k, tasks, seed)
    for k in (1, 3, 5)
    for tasks in (10, 30, 60)
    for seed in (0, 1, 2)
]
NODE_LIMIT = 2000
EXHAUSTIVE_CASE = (8, 3)  # (tasks, seed)


def _case_id(k: int, tasks: int, seed: int) -> str:
    return f"is-{k}/{tasks}t/s{seed}"


def _digest(result) -> dict:
    payload = result.schedule.to_dict()
    payload.pop("metadata", None)
    blob = json.dumps(payload, sort_keys=True).encode()
    return {"sha256": hashlib.sha256(blob).hexdigest(), "nodes": result.nodes}


def _run_isk(k: int, tasks: int, seed: int) -> dict:
    instance = paper_instance(tasks, seed=seed)
    return _digest(isk_schedule(instance, k=k, node_limit=NODE_LIMIT))


def _run_exhaustive() -> dict:
    tasks, seed = EXHAUSTIVE_CASE
    return _digest(exhaustive_schedule(paper_instance(tasks, seed=seed)))


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "k,tasks,seed", ISK_CASES, ids=[_case_id(*c) for c in ISK_CASES]
)
def test_isk_matches_pinned(pinned, k, tasks, seed):
    assert _run_isk(k, tasks, seed) == pinned[_case_id(k, tasks, seed)]


def test_exhaustive_matches_pinned(pinned):
    assert _run_exhaustive() == pinned["exhaustive/%dt/s%d" % EXHAUSTIVE_CASE]


if __name__ == "__main__":
    out = {_case_id(*case): _run_isk(*case) for case in ISK_CASES}
    out["exhaustive/%dt/s%d" % EXHAUSTIVE_CASE] = _run_exhaustive()
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {FIXTURE}")
