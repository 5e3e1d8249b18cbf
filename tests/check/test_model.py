"""The protocol model checker: exhaustive, clean, and loud on mutants."""

import pytest

from repro.check.adversary import (
    AdversaryBudget,
    channel_add,
    channel_items,
    channel_remove,
)
from repro.check.model import (
    ModelConfig,
    PairModel,
    ReadModel,
    SemanticFlags,
    WriteModel,
    check_model,
    explore,
    scenario_names,
)
from repro.check.spec import machine_by_name

#: A lean adversary for the mutation demos: big enough to surface each
#: seeded hole, small enough to explore in well under a second.
LEAN = AdversaryBudget(max_drops=0, max_duplicates=0, max_crashes=0,
                       max_stale=1)


# -- the exploration engine ---------------------------------------------------


class _ToyModel:
    """A three-state chain with one violating branch, for explorer tests."""

    def __init__(self, broken=False):
        self.broken = broken

    def initial_state(self):
        return "A"

    def is_resting(self, state):
        return state == "C"

    def check_state(self, state):
        if state == "BAD":
            return (("safety", "reached the bad state"),)
        return ()

    def successors(self, state):
        if state == "A":
            steps = [("step to B", "B")]
            if self.broken:
                steps.append(("step to BAD", "BAD"))
            return steps, []
        if state == "B":
            return [("step to C", "C")], []
        return [], []


def test_explorer_exhausts_and_reports_depth():
    result = explore(_ToyModel(), max_depth=10)
    assert result.exhausted
    assert result.states == 3
    assert result.depth_reached == 2
    assert result.violations == []


def test_explorer_depth_cap_is_reported():
    result = explore(_ToyModel(), max_depth=1)
    assert not result.exhausted


def test_explorer_traces_are_minimal():
    result = explore(_ToyModel(broken=True), max_depth=10)
    violation = next(v for v in result.violations
                     if v.invariant == "safety")
    assert violation.trace == ("step to BAD",)
    assert "1. step to BAD" in violation.format()


def test_explorer_flags_deadlock():
    class Stuck(_ToyModel):
        def is_resting(self, state):
            return False  # C has no successors and is not resting

    result = explore(Stuck(), max_depth=10)
    assert any(v.invariant == "deadlock" for v in result.violations)


# -- the adversary's channel algebra ------------------------------------------


def test_channels_are_multisets_with_capacity():
    channel = channel_add((), "A", capacity=2)
    channel = channel_add(channel, "A", capacity=2)
    assert channel == ("A", "A")
    # A full buffer drops silently, like the host's finite rx queue.
    assert channel_add(channel, "B", capacity=2) == channel
    assert channel_items(channel) == ("A",)
    assert channel_remove(channel, "A") == ("A",)


def test_channel_order_is_canonical():
    ab = channel_add(channel_add((), "B", 4), "A", 4)
    ba = channel_add(channel_add((), "A", 4), "B", 4)
    assert ab == ba  # reorderings collapse into one state


# -- the shipped spec is safe and live ----------------------------------------


def test_every_pair_scenario_exhausts_with_zero_violations():
    config = ModelConfig(
        scenarios=tuple(name for name in scenario_names()
                        if name.startswith("pair:")))
    findings, stats = check_model(config)
    assert findings == [], [f.message for f in findings]
    assert stats.exhausted
    assert {s.name for s in stats.scenarios} == set(config.scenarios)
    assert all(s.states > 0 for s in stats.scenarios)


def test_semantic_models_exhaust_with_zero_violations():
    # A slightly leaner adversary than the CLI default keeps this fast;
    # the full-budget run is `make check-model-full` / `repro check --model`.
    config = ModelConfig(
        retransmit_bound=1,
        budget=AdversaryBudget(max_drops=1, max_duplicates=1,
                               max_crashes=1, max_stale=1),
        scenarios=("bytes:write", "bytes:read"))
    findings, stats = check_model(config)
    assert findings == [], [f.message for f in findings]
    assert stats.exhausted
    assert stats.states > 1000  # genuinely explored, not short-circuited


def test_stats_report_bounds_and_serialise():
    config = ModelConfig(scenarios=("pair:read",))
    _, stats = check_model(config)
    assert "retransmits<=2" in stats.bounds
    assert "depth<=60" in stats.bounds
    payload = stats.to_dict()
    assert payload["exhausted"] is True
    assert payload["scenarios"][0]["name"] == "pair:read"
    text = stats.render_text()
    assert "pair:read" in text and "exhausted" in text


def test_unknown_scenario_is_an_error():
    with pytest.raises(ValueError, match="unknown model scenario"):
        check_model(ModelConfig(scenarios=("pair:bogus",)))


# -- seeded spec mutations produce counterexample traces ----------------------


def test_removing_the_ack_timeout_edge_deadlocks():
    # Without STREAMING's timeout edge the client cannot query after a
    # lost ACK: drop the ACK (or crash the agent) and the pair wedges.
    client = machine_by_name("write").without_edge("STREAMING", "timeout")
    model = PairModel(client, machine_by_name("write-server"),
                      AdversaryBudget())
    result = explore(model, max_depth=60)
    assert result.exhausted
    kinds = {v.invariant for v in result.violations}
    assert "deadlock" in kinds or "livelock" in kinds
    witness = result.violations[0]
    assert witness.trace  # a concrete minimal schedule, not just a claim
    assert "client: send WriteRequest" in witness.trace[0]


def test_removing_the_nak_edge_is_an_unhandled_message():
    # A client that cannot receive WriteNak (and does not declare it
    # ignorable) violates the no-unhandled-message invariant.
    client = machine_by_name("write").without_edge("STREAMING",
                                                  "recv WriteNak")
    client = type(client)(
        name=client.name, initial=client.initial,
        terminals=client.terminals, transitions=client.transitions,
        side=client.side, transient=client.transient,
        ignores=client.ignores - {"WriteNak"})
    model = PairModel(client, machine_by_name("write-server"),
                      AdversaryBudget())
    result = explore(model, max_depth=60)
    assert any(v.invariant == "unhandled" and "WriteNak" in v.message
               for v in result.violations)


# -- seeded guard mutations in the semantic models ----------------------------


def test_trusting_any_reply_loses_bytes():
    # Drop the op_id filter on replies: a stale ACK from a previous
    # session convinces the client its write is durable.
    model = WriteModel(LEAN, retransmit_bound=0,
                       flags=SemanticFlags(client_accepts_any_reply=True))
    result = explore(model, max_depth=60)
    assert result.exhausted
    losses = [v for v in result.violations
              if v.invariant == "safety" and "byte lost" in v.message]
    assert losses, [v.message for v in result.violations]
    assert any("stale WriteAck" in step for step in losses[0].trace)


def test_reapplying_on_status_query_duplicates_the_write():
    # Re-running the apply when a duplicate WRITE-REQ queries a
    # completed op applies the same bytes twice.
    model = WriteModel(AdversaryBudget(max_drops=0, max_duplicates=0,
                                       max_crashes=0, max_stale=0),
                       retransmit_bound=1,
                       flags=SemanticFlags(reapply_on_query=True))
    result = explore(model, max_depth=60)
    assert any(v.invariant == "safety" and "applied 2 times" in v.message
               for v in result.violations), \
        [v.message for v in result.violations]


def test_accepting_unknown_op_data_corrupts_the_disk():
    # Drop the unknown-op guard: a stale WRITE-DATA from a prior
    # session lands on disk and can overwrite current bytes.
    model = WriteModel(LEAN, retransmit_bound=0,
                       flags=SemanticFlags(accept_unknown_op_data=True))
    result = explore(model, max_depth=60)
    assert any(v.invariant == "safety" and "stale data" in v.message
               for v in result.violations), \
        [v.message for v in result.violations]


def test_accepting_any_seq_returns_stale_bytes():
    # Drop the stale-seq purge: the read completes with a prior
    # session's data packet.
    model = ReadModel(LEAN, retransmit_bound=0,
                      flags=SemanticFlags(client_accepts_any_seq=True))
    result = explore(model, max_depth=60)
    assert any(v.invariant == "safety" for v in result.violations)


def test_unmutated_semantic_models_survive_the_lean_adversary():
    # The same budgets as the mutation tests, guards intact: clean.
    for model in (WriteModel(LEAN, retransmit_bound=1),
                  ReadModel(LEAN, retransmit_bound=1)):
        result = explore(model, max_depth=60)
        assert result.exhausted
        assert result.violations == [], \
            [v.message for v in result.violations]
