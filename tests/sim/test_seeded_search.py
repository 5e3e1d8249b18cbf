"""The seeded max-sustainable search.

Two contracts:

* **equivalence** — whenever sustainability is monotone in rate, seeding
  the bracket from the unloaded completion time returns the very result
  that walking the ``rate_low * 2**k`` grid up from ``rate_low`` returns,
  whatever that unloaded time is; and
* **pinned output** — the real searches behind the figures return the
  results, byte for byte, that the unseeded walk returned, in fewer runs.
"""

import dataclasses
import json
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.sim import SimConfig, figure5_series, find_max_sustainable, sweep
from repro.sim.model import SwiftSimModel
from repro.simdisk import RaidArray

KB = 1 << 10
MB = 1 << 20


# -- equivalence against the unseeded walk -------------------------------------


@dataclasses.dataclass(frozen=True)
class FakeResult:
    """The two fields the search reads, plus the probed rate."""

    rate: float
    sustainable: bool
    mean_completion_s: float


class ThresholdModel:
    """Stands in for ``run_once``: sustainable up to ``knee`` inclusive.

    Every run reports ``unloaded`` as its mean completion time, so the
    search's seed is drawn independently of the knee.  Results are
    memoised by rate, so two searches probing a rate get the same object.
    """

    def __init__(self, knee: float, unloaded: float):
        self.knee = knee
        self.unloaded = unloaded
        self.results: dict = {}
        self.probes: list = []

    def __call__(self, config, storage_factory=None, trace=None):
        rate = config.arrival_rate
        self.probes.append(rate)
        if rate not in self.results:
            self.results[rate] = FakeResult(rate, rate <= self.knee,
                                            self.unloaded)
        return self.results[rate]


def walk_search(run, base, rate_low, rate_high, iterations):
    """The unseeded search: (result, bracket), bracket None if none."""
    def probe(rate):
        result = run(dataclasses.replace(base, arrival_rate=rate))
        return result.sustainable, result

    ok, best = probe(rate_low)
    if not ok:
        return best, None
    low, high, rate = rate_low, None, rate_low
    while high is None and rate * 2.0 <= rate_high:
        rate *= 2.0
        ok, result = probe(rate)
        if ok:
            low, best = rate, result
        else:
            high = rate
    if high is None:
        ok, result = probe(rate_high)
        if ok:
            return result, None
        high = rate_high
    bracket = (low, high)
    for _ in range(iterations):
        mid = (low + high) / 2.0
        ok, result = probe(mid)
        if ok:
            low, best = mid, result
        else:
            high = mid
    return best, bracket


def seed_rate(rate_low, rate_high, unloaded):
    """The largest grid rate whose interarrival time covers ``unloaded``."""
    rate = rate_low
    while rate * 2.0 <= rate_high and unloaded <= 1.0 / (rate * 2.0):
        rate *= 2.0
    return rate


@st.composite
def searches(draw):
    rate_low = draw(st.floats(min_value=0.01, max_value=10.0))
    rate_high = rate_low * draw(st.one_of(
        st.sampled_from([2.0 ** k for k in range(1, 15)]),  # on the grid
        st.floats(min_value=1.001, max_value=2.0 ** 14)))
    grid = [rate_low]
    while grid[-1] * 2.0 <= rate_high:
        grid.append(grid[-1] * 2.0)
    knee = draw(st.one_of(
        st.sampled_from(grid + [rate_high]),
        st.floats(min_value=rate_low / 4.0, max_value=rate_high * 2.0)))
    unloaded = draw(st.one_of(
        st.just(0.0),
        st.sampled_from([1.0 / rate for rate in grid]),  # on a grid point
        st.floats(min_value=1e-9, max_value=1e-6),  # far too low
        st.floats(min_value=1.0 / (2.0 * rate_low),
                  max_value=100.0 / rate_low),  # far too high
        st.floats(min_value=1e-9, max_value=100.0 / rate_low)))
    iterations = draw(st.integers(min_value=0, max_value=10))
    return rate_low, rate_high, knee, unloaded, iterations


@settings(max_examples=300, deadline=None)
@given(search=searches())
def test_seeded_search_returns_the_walks_result(search):
    rate_low, rate_high, knee, unloaded, iterations = search
    model = ThresholdModel(knee, unloaded)
    base = SimConfig()
    expected, bracket = walk_search(model, base, rate_low, rate_high,
                                    iterations)
    model.probes.clear()
    with mock.patch.object(sweep, "run_once", model):
        found = find_max_sustainable(base, rate_low=rate_low,
                                     rate_high=rate_high,
                                     iterations=iterations)
    assert found is expected
    if not found.sustainable:  # rate_low already fails: nothing to search
        assert model.probes == [rate_low]
    if bracket is not None and \
            seed_rate(rate_low, rate_high, unloaded) in bracket:
        assert len(model.probes) <= 3 + iterations


def test_unloaded_time_of_zero_seeds_at_the_top_of_the_grid():
    model = ThresholdModel(knee=30.0, unloaded=0.0)
    with mock.patch.object(sweep, "run_once", model):
        found = find_max_sustainable(SimConfig(), rate_low=1.0,
                                     rate_high=100.0, iterations=2)
    assert model.probes == [1.0, 64.0, 32.0, 16.0, 24.0, 28.0]
    assert found.rate == 28.0


# -- the real searches, pinned ---------------------------------------------------

#: reprs of these searches' results, recorded before the bracket was seeded.
PINNED = json.loads(
    (Path(__file__).parent / "fixtures" / "search_reprs.json").read_text())

#: runs each search made when it walked the grid up from rate_low.
WALK_RUNS = {"figure5_series": 48, "warm_start": 13,
             "raid_storage_factory": 10}


def _raid_factory(env, index, streams):
    return RaidArray(env, num_members=8, controller_rate=4 * MB,
                     stream=streams.stream(f"raid/{index}"))


def _counted(monkeypatch):
    """Count every simulation run."""
    runs = []
    original = SwiftSimModel.run

    def run(self):
        runs.append(self.config.arrival_rate)
        return original(self)

    monkeypatch.setattr(SwiftSimModel, "run", run)
    return runs


def test_figure5_grid_is_pinned(monkeypatch):
    runs = _counted(monkeypatch)
    points = figure5_series(disk_counts=(2, 8),
                            disk_names=("Fujitsu M2372K", "DEC RA82"),
                            num_requests=80, iterations=5)
    assert repr(points) == PINNED["figure5_series"]
    assert len(runs) == 32 < WALK_RUNS["figure5_series"]


def test_warm_started_search_is_pinned(monkeypatch):
    # The pin was recorded by a search that reused one model across its
    # probes; a search that builds every probe's model afresh must
    # reproduce it exactly.
    runs = _counted(monkeypatch)
    config = SimConfig(num_disks=4, num_requests=40, warmup_requests=4,
                       request_size=256 * KB, transfer_unit=32 * KB, seed=5)
    result = find_max_sustainable(config, iterations=4)
    assert repr(result) == PINNED["warm_start"]
    assert len(runs) == 7 < WALK_RUNS["warm_start"]


def test_raid_storage_factory_search_is_pinned(monkeypatch):
    runs = _counted(monkeypatch)
    config = SimConfig(num_disks=2, transfer_unit=256 * KB,
                       request_size=4 * MB, num_requests=30,
                       warmup_requests=3, seed=71)
    result = find_max_sustainable(config, iterations=4,
                                  storage_factory=_raid_factory)
    assert repr(result) == PINNED["raid_storage_factory"]
    assert len(runs) == 7 < WALK_RUNS["raid_storage_factory"]
