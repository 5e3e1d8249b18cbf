"""Per-layer metrics from the merged spans, counters and cProfile split.

Pure functions over the records a traced run and a profiled run leave
behind; ``run.py`` feeds them, the tests drive them directly.
"""

from __future__ import annotations

import statistics

#: Percentile ladder for tail reporting, in per-mille.
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
TAIL_MIN_BEYOND = 10

#: Span-name prefix -> layer whose self time the span counts toward.
LAYER_OF_SPAN = {"artifact": "artifact", "table": "artifact",
                 "sweep": "sweep", "model": "model", "des": "des",
                 "prototype": "prototype"}

#: cProfile package -> layer reported as ``<layer>.cpu_share``.
LAYER_OF_PACKAGE = {"des": "des", "simdisk": "simdisk", "simnet": "simnet",
                    "core": "core", "sim": "model", "prototype": "prototype",
                    "baselines": "prototype", "stdlib": "stdlib"}


def tail(values):
    """(percentile, value, samples) at the highest ladder percentile with
    at least ten samples beyond it (nearest rank), or None."""
    ordered = sorted(values)
    count = len(ordered)
    best = None
    for per_mille in TAIL_LADDER:
        rank = -(-per_mille * count // 1000)
        if rank >= 1 and count - rank >= TAIL_MIN_BEYOND:
            best = (per_mille / 10, ordered[rank - 1], count)
    return best


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) pairs."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict:
    """(pid, id) -> span duration minus the part its children cover."""
    children: dict = {}
    for span in spans:
        children.setdefault((span["pid"], span["parent"]), []).append(span)
    result = {}
    for span in spans:
        start, end = span["t0"], span["t1"]
        inside = [(max(child["t0"], start), min(child["t1"], end))
                  for child in children.get((span["pid"], span["id"]), ())]
        result[(span["pid"], span["id"])] = (
            end - start - union_length(pair for pair in inside
                                       if pair[1] > pair[0]))
    return result


def classify_probes(probes) -> list:
    """Label each (rate, sustainable) probe 'bisect' or 'bracket'.

    A probe bisects when its rate is the midpoint of the tightest bracket
    the earlier probes established (highest sustainable rate, lowest
    unsustainable one); every other probe -- the seed, doublings, a cap,
    or any other way of finding the bracket -- is bracketing.
    """
    labels = []
    low = high = None
    for rate, sustainable in probes:
        bisect = (low is not None and high is not None
                  and rate == (low + high) / 2.0)
        labels.append("bisect" if bisect else "bracket")
        if sustainable:
            low = rate if low is None else max(low, rate)
        else:
            high = rate if high is None else min(high, rate)
    return labels


def _median(values):
    return statistics.median(values) if values else None


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else None


def cell_times(spans) -> dict:
    """Cell id -> host seconds of the outermost spans carrying that cell."""
    by_key = {(span["pid"], span["id"]): span for span in spans}
    times: dict = {}
    for span in spans:
        cell = span["cell"]
        if cell is None:
            continue
        parent = by_key.get((span["pid"], span["parent"]))
        if parent is not None and parent["cell"] == cell:
            continue
        times[cell] = times.get(cell, 0.0) + span["t1"] - span["t0"]
    return times


def search_probes(spans) -> list:
    """Per find_max_sustainable span, its probes in order: (rate, ok)."""
    by_key = {(span["pid"], span["id"]): span for span in spans}

    def search_of(span):
        parent = by_key.get((span["pid"], span["parent"]))
        while parent is not None and parent["name"] != "sweep.search":
            parent = by_key.get((parent["pid"], parent["parent"]))
        return parent

    probes: dict = {}
    for span in sorted(spans, key=lambda span: span["t0"]):
        attrs = span["attrs"]
        is_probe = span["name"] == "model.run" or (
            span["name"] == "sweep.cache_get" and attrs.get("hit"))
        if not is_probe:
            continue
        search = search_of(span)
        if search is not None:
            key = (search["pid"], search["id"])
            probes.setdefault(key, []).append(
                (attrs["rate"], attrs["sustainable"]))
    return list(probes.values())


def layer_metrics(spans, profile: dict, cells: int, plain_wall: float,
                  traced_wall: float) -> dict:
    """Metric name -> (value or None for n/a, note) for every layer."""
    counts: dict = {}
    for span in spans:
        for key, value in span["counts"].items():
            counts[key] = counts.get(key, 0) + value
    named: dict = {}
    for span in spans:
        named.setdefault(span["name"], []).append(span)

    def durations(name):
        return [span["t1"] - span["t0"] for span in named.get(name, ())]

    def tail_of(values):
        found = tail(values)
        if found is None:
            return None, f"fewer than {2 * TAIL_MIN_BEYOND} samples"
        percentile, value, samples = found
        return value, f"p{percentile:g} of {samples}"

    layer_self: dict = {}
    by_key = {(span["pid"], span["id"]): span for span in spans}
    for key, seconds in self_times(spans).items():
        layer = LAYER_OF_SPAN[by_key[key]["name"].split(".")[0]]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds

    metrics: dict = {}
    per_cell = list(cell_times(spans).values())
    metrics["artifact.cells"] = (cells, "")
    metrics["artifact.cell_s.p50"] = (_median(per_cell),
                                      f"{len(per_cell)} cells")
    metrics["artifact.cell_s.max"] = (max(per_cell) if per_cell else None, "")
    metrics["artifact.self_s"] = (layer_self.get("artifact"), "")

    runs = durations("model.run")
    sweep_ran = bool(runs or any(name.startswith("sweep.") for name in named))
    probes = search_probes(spans)
    labels = [label for cell in probes for label in classify_probes(cell)]
    per_cell_probes = [len(cell) for cell in probes]
    lookups = counts.get("result_cache_lookups", 0)
    metrics["sweep.runs"] = (len(runs) if sweep_ran else None, "")
    metrics["sweep.probes_per_cell.p50"] = (
        _median(per_cell_probes), f"{len(probes)} searches")
    metrics["sweep.probes_per_cell.max"] = (
        max(per_cell_probes) if per_cell_probes else None, "")
    metrics["sweep.bracket_share"] = (
        _ratio(labels.count("bracket"), len(labels)),
        f"{labels.count('bracket')} of {len(labels)} probes")
    metrics["sweep.unsustainable_probes"] = (
        sum(1 for cell in probes for _, ok in cell if not ok)
        if probes else None, "")
    metrics["sweep.cache_hit_ratio"] = (
        _ratio(counts.get("result_cache_hits", 0), lookups),
        f"{lookups} lookups")
    metrics["sweep.run_share"] = (
        sum(runs) / traced_wall if sweep_ran else None, "")
    metrics["sweep.self_s"] = (layer_self.get("sweep"), "")

    completed = sum(span["attrs"]["completed"]
                    for span in named.get("model.run", ()))
    horizon = [span["t1"] - span["t0"] for span in named.get("model.run", ())
               if span["attrs"]["horizon"]]
    metrics["model.build_s.p50"] = (_median(durations("model.build")), "")
    metrics["model.run_s.p50"] = (_median(runs), f"{len(runs)} runs")
    metrics["model.run_s.tail"] = tail_of(runs)
    metrics["model.events_per_request"] = (
        _ratio(counts.get("events", 0), completed),
        f"{completed} simulated requests")
    metrics["model.requests_per_s"] = (_ratio(completed, sum(runs)), "")
    metrics["model.horizon_stops"] = (len(horizon) if runs else None, "")
    metrics["model.horizon_share"] = (_ratio(sum(horizon), sum(runs)), "")
    metrics["model.self_s"] = (layer_self.get("model"), "")

    engine = durations("des.run")
    metrics["des.events"] = (counts.get("events"), "")
    metrics["des.events_per_s"] = (
        _ratio(counts.get("events", 0), sum(engine)), "")
    metrics["des.self_s"] = (layer_self.get("des"), "")

    metrics["simdisk.blocks"] = (counts.get("blocks"), "")
    fs_lookups = counts.get("fs_cache_lookups", 0)
    metrics["simdisk.cache_hit_ratio"] = (
        _ratio(counts.get("fs_cache_hits", 0), fs_lookups),
        f"{fs_lookups} lookups")
    metrics["simnet.drops"] = (counts.get("drops"), "")

    sent = counts.get("packets_sent")
    metrics["core.packets_sent"] = (sent, "")
    metrics["core.retransmits"] = (counts.get("retransmits"), "")
    metrics["core.first_try_ratio"] = (
        _ratio(sent - counts.get("retransmits", 0), sent) if sent else None,
        "")
    metrics["core.ack_timeouts"] = (counts.get("ack_timeouts"), "")
    metrics["core.naks_sent"] = (counts.get("naks_sent"), "")

    for name, metric in (("read", "prototype.read_s"),
                         ("write", "prototype.write_s")):
        values = durations(f"prototype.{name}")
        metrics[f"{metric}.p50"] = (_median(values), f"{len(values)} calls")
        metrics[f"{metric}.tail"] = tail_of(values)
    metrics["prototype.prepare_s.p50"] = (
        _median(durations("prototype.prepare")), "")
    metrics["prototype.self_s"] = (layer_self.get("prototype"), "")

    total = sum(profile.values())
    shares: dict = {}
    for package, seconds in profile.items():
        layer = LAYER_OF_PACKAGE.get(package)
        if layer is not None:
            shares[layer] = shares.get(layer, 0.0) + seconds / total
    for layer in ("model", "des", "simdisk", "simnet", "core", "prototype",
                  "stdlib"):
        metrics[f"{layer}.cpu_share"] = (shares.get(layer), "")
    metrics["trace.overhead"] = (traced_wall / plain_wall,
                                 f"traced {traced_wall:.3f} s / plain "
                                 f"{plain_wall:.3f} s")
    return metrics
