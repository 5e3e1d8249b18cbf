"""Tail selection, self time and probe classification of the trace analysis."""

import pytest

import analysis


def _span(span_id, parent, t0, t1, name="model.run", cell=None, pid=1,
          counts=None, attrs=None):
    return {"id": span_id, "parent": parent, "t0": t0, "t1": t1,
            "name": name, "cell": cell, "pid": pid,
            "counts": counts or {}, "attrs": attrs or {}}


# -- .tail --------------------------------------------------------------------

@pytest.mark.parametrize("count, percentile", [
    (20, 50.0),      # rank 10, ten beyond
    (39, 50.0),      # p75 rank 30 leaves 9
    (40, 75.0),      # p75 rank 30 leaves 10
    (100, 90.0),     # p95 rank 95 leaves 5
    (200, 95.0),
    (1000, 99.0),    # p99.9 rank 999 leaves 1
    (10000, 99.9),
])
def test_tail_picks_highest_percentile_with_ten_beyond(count, percentile):
    values = [float(v) for v in range(1, count + 1)]
    found, value, samples = analysis.tail(values)
    assert found == percentile
    assert samples == count
    assert count - value >= analysis.TAIL_MIN_BEYOND
    # Nearest rank: the value is the ceil(p * n)-th smallest sample.
    assert value == -(-int(percentile * 10) * count // 1000)


def test_tail_is_none_below_twenty_samples():
    assert analysis.tail([1.0] * 19) is None
    assert analysis.tail([]) is None


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 8
    assert analysis.tail(values) == analysis.tail(sorted(values))


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [_span(1, None, 0.0, 10.0, name="artifact"),
             _span(2, 1, 1.0, 4.0), _span(3, 1, 5.0, 6.0),
             _span(4, 2, 2.0, 3.0, name="des.run")]
    selfs = analysis.self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[(1, 2)] == pytest.approx(3.0 - 1.0)
    assert selfs[(1, 3)] == pytest.approx(1.0)
    assert selfs[(1, 4)] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(1, None, 0.0, 10.0, name="artifact"),
             _span(2, 1, 1.0, 5.0), _span(3, 1, 3.0, 7.0),
             _span(4, 1, 6.5, 8.0)]
    assert analysis.self_times(spans)[(1, 1)] == pytest.approx(10.0 - 7.0)


def test_self_time_clips_children_to_the_parent():
    spans = [_span(1, None, 2.0, 6.0, name="artifact"),
             _span(2, 1, 0.0, 3.0), _span(3, 1, 5.0, 9.0)]
    assert analysis.self_times(spans)[(1, 1)] == pytest.approx(4.0 - 2.0)


def test_self_time_keeps_processes_apart():
    # Same span ids in two processes: pid 2's span is no child of pid 1's.
    spans = [_span(1, None, 0.0, 10.0, name="artifact", pid=1),
             _span(2, 1, 0.0, 10.0, pid=2)]
    assert analysis.self_times(spans)[(1, 1)] == pytest.approx(10.0)


def test_union_length():
    assert analysis.union_length([]) == 0.0
    assert analysis.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


# -- probe classification -----------------------------------------------------

def _doubling_then_bisect():
    """The probe sequence find_max_sustainable makes for a knee at 1.0."""
    probes = []
    rate = 0.05
    while rate <= 1.0:
        probes.append((rate, True))
        rate *= 2.0
    probes.append((rate, False))
    low, high = rate / 2.0, rate
    for _ in range(8):
        mid = (low + high) / 2.0
        ok = mid <= 1.0
        probes.append((mid, ok))
        low, high = (mid, high) if ok else (low, mid)
    return probes


def test_doubling_search_classifies_bracket_then_bisect():
    probes = _doubling_then_bisect()
    labels = analysis.classify_probes(probes)
    brackets = len(probes) - 8
    assert labels == ["bracket"] * brackets + ["bisect"] * 8


def test_seeded_bracket_costs_two_probes():
    # A search that seeds its bracket from a neighbour and confirms it
    # with two probes on the 0.05 * 2**k grid.
    probes = [(0.5, True), (1.0, False), (0.75, True), (0.875, False),
              (0.8125, False)]
    assert analysis.classify_probes(probes) == \
        ["bracket", "bracket", "bisect", "bisect", "bisect"]


def test_off_midpoint_probe_is_bracketing():
    probes = [(1.0, True), (2.0, False), (1.25, True), (1.625, False)]
    assert analysis.classify_probes(probes) == \
        ["bracket", "bracket", "bracket", "bisect"]


def test_unsustainable_first_probe_and_cap():
    assert analysis.classify_probes([(0.05, False)]) == ["bracket"]
    assert analysis.classify_probes([(0.05, True), (400.0, True)]) == \
        ["bracket", "bracket"]


def test_search_probes_group_runs_and_cache_hits_by_search():
    spans = [
        _span(1, None, 0.0, 9.0, name="sweep.search", cell="A@4"),
        _span(2, 1, 1.0, 2.0, attrs={"rate": 0.05, "sustainable": True}),
        _span(3, 1, 2.0, 2.5, name="sweep.cache_get",
              attrs={"hit": True, "rate": 0.1, "sustainable": False}),
        _span(4, 1, 3.0, 3.5, name="sweep.cache_get", attrs={"hit": False}),
        _span(5, 1, 3.5, 4.0, attrs={"rate": 0.075, "sustainable": True}),
        _span(1, None, 0.0, 5.0, name="sweep.search", cell="A@8", pid=2),
        _span(2, 1, 1.0, 2.0, pid=2, attrs={"rate": 0.05,
                                            "sustainable": False}),
    ]
    probes = sorted(analysis.search_probes(spans))
    assert probes == [[(0.05, False)],
                      [(0.05, True), (0.1, False), (0.075, True)]]


def test_cell_times_take_outermost_spans_per_cell():
    spans = [_span(1, None, 0.0, 20.0, name="artifact"),
             _span(2, 1, 0.0, 4.0, name="model.build", cell="p@1"),
             _span(3, 1, 4.0, 10.0, cell="p@1"),
             _span(4, 3, 5.0, 9.0, name="des.run", cell="p@1"),
             _span(5, 1, 10.0, 12.0, cell="p@2")]
    assert analysis.cell_times(spans) == {"p@1": 10.0, "p@2": 2.0}
