"""Reduced Figure 3, 4 and 6 grids, pinned byte for byte.

``fixtures/figure_reprs.json`` holds the ``repr`` of each grid's
points — every :class:`~repro.sim.model.SimResult` field, floats to the
last bit.  A change to the §5 model, the sweep layer or the search that
moves any printed figure value fails here.  The grids include
horizon-stopped points (4 KB units at 10 and 30 req/s, and one disk at
30 req/s, finish only part of their 40 requests), so the 8× horizon
guard is pinned too.  Figure 5 is pinned in ``test_seeded_search.py``.
"""

import json
from pathlib import Path

from repro.sim import figure3_series, figure4_series, figure6_series

KB = 1 << 10

#: reprs of these grids' points, recorded before the §5 model's CPUs and
#: ring became analytic servers.
PINNED = json.loads(
    (Path(__file__).parent / "fixtures" / "figure_reprs.json").read_text())


def test_figure3_grid_is_pinned():
    points = figure3_series(rates=(2.5, 10.0, 30.0), disk_counts=(8,),
                            block_sizes=(4 * KB, 32 * KB), num_requests=40)
    assert [point.result.completed for point in points] == \
        [40, 33, 8, 40, 40, 40]
    assert repr(points) == PINNED["figure3_series"]


def test_figure4_grid_is_pinned():
    points = figure4_series(rates=(5.0, 30.0), disk_counts=(1, 4),
                            num_requests=40)
    assert [point.result.completed for point in points] == [40, 8, 40, 40]
    assert repr(points) == PINNED["figure4_series"]


def test_figure6_grid_is_pinned():
    points = figure6_series(disk_counts=(2, 8),
                            disk_names=("Fujitsu M2372K",),
                            num_requests=40, iterations=4)
    assert repr(points) == PINNED["figure6_series"]
