"""Reference floorplan kernels: entry-by-entry scans in plain Python.

The production floorplanner answers the dominance probe through a
packed numpy prefilter and enumerates candidate windows with per-kind
prefix sums.  These are the scans they replaced, kept as oracles:

* :class:`ScanFloorplanner` probes the dominance index entry by entry,
  newest first, with no prefilter (``tests/unit/test_hot_paths.py``
  compares it against :class:`repro.floorplan.Floorplanner` query for
  query, and ``benchmarks/bench_hot_paths.py`` times the two);
* :func:`minimal_windows_scalar` is the sliding-window sweep behind
  :func:`repro.floorplan.placements._minimal_windows_vector`;
* :func:`scan_candidate_placements` is
  :func:`repro.floorplan.placements.candidate_placements` built from
  the sweep and the quadratic containment prune, without the memo.
"""

from __future__ import annotations

from repro.floorplan.device import FabricDevice
from repro.floorplan.floorplanner import FloorplanResult, Floorplanner
from repro.floorplan.placements import Placement, _prune_contained
from repro.model import ResourceVector

__all__ = [
    "ScanFloorplanner",
    "minimal_windows_scalar",
    "scan_candidate_placements",
]


class ScanFloorplanner(Floorplanner):
    """A :class:`Floorplanner` whose dominance probe scans every entry."""

    def _dominance_probe(
        self, ids: list[str], demands: list[ResourceVector]
    ) -> FloorplanResult | None:
        n = len(demands)
        views: dict = {}
        # Feasible superset: every query demand fits a distinct cached one.
        for entry in reversed(self._dom_feasible):
            hit = self._probe_feasible_entry(entry, ids, demands, n, views)
            if hit is not None:
                return hit
        # Infeasible subset: every cached demand fits a distinct query one.
        for entry in reversed(self._dom_infeasible):
            hit = self._probe_infeasible_entry(entry, demands, n, views)
            if hit is not None:
                return hit
        return None


def minimal_windows_scalar(
    device: FabricDevice, needed: dict[str, int], height: int
) -> list[tuple[int, int]]:
    """Minimal-width windows ``(left, width)`` for one height — the
    reference sliding-window sweep."""
    have: dict[str, int] = {r: 0 for r in needed}

    def satisfied() -> bool:
        return all(have[r] >= needed[r] for r in needed)

    width = device.width
    windows: list[tuple[int, int]] = []
    left = device.reserved_columns
    right = device.reserved_columns
    while left < width:
        while right < width and not satisfied():
            spec = device.specs[device.columns[right]]
            if spec.kind in have:
                have[spec.kind] += spec.resources * height
            right += 1
        if not satisfied():
            break  # no window starting at `left` (or beyond) works
        windows.append((left, right - left))
        # Slide: drop the leftmost column.
        spec = device.specs[device.columns[left]]
        if spec.kind in have:
            have[spec.kind] -= spec.resources * height
        left += 1
    return windows


def scan_candidate_placements(
    device: FabricDevice,
    demand: ResourceVector,
    max_candidates: int | None = None,
) -> list[Placement]:
    """Minimal-width feasible rectangles for ``demand``, ordered and
    pruned like :func:`~repro.floorplan.placements.candidate_placements`."""
    needed = {r: demand[r] for r in demand}
    candidates = [
        Placement(col=left, row=row, width=w, height=height)
        for height in range(1, device.rows + 1)
        for left, w in minimal_windows_scalar(device, needed, height)
        for row in range(device.rows - height + 1)
    ]
    candidates.sort(key=lambda p: (p.width * p.height, p.width, p.col, p.row))
    candidates = _prune_contained(candidates)
    if max_candidates is not None:
        candidates = candidates[:max_candidates]
    return candidates
