"""The calendar's (time, eid) tie-break contract.

The schedule-perturbation harness (repro.check.perturb) is only sound if
the engine honours this contract exactly: earlier times first, then —
and only then — the tie component, which is creation order (eid) by
default and a seeded deterministic shuffle under ``tie_break_seed``.
"""

from repro.des import Environment
from repro.des.engine import tie_break_key


def _at(env, log, tag, when):
    """Schedule an event at ``when`` that records ``tag`` when processed."""
    event = env.event()
    event.callbacks.append(lambda _e: log.append(tag))
    event._ok = True
    event._value = None
    env.schedule(event, when)


def test_same_time_same_priority_runs_in_creation_order():
    env = Environment()
    log = []
    for tag in "abcde":
        _at(env, log, tag, 1.0)
    env.run()
    assert log == list("abcde")


def test_time_order_dominates_even_under_a_seed():
    env = Environment(tie_break_seed=7)
    log = []
    _at(env, log, "late", 2.0)
    _at(env, log, "early", 1.0)
    env.run()
    assert log == ["early", "late"]


def _tie_order(seed):
    env = Environment(tie_break_seed=seed)
    log = []
    for tag in "abcdefgh":
        _at(env, log, tag, 1.0)
    _at(env, log, "Z", 2.0)
    env.run()
    return log


def test_tie_break_seed_shuffles_only_exact_ties():
    assert _tie_order(None) == list("abcdefgh") + ["Z"]
    shuffled = {tuple(_tie_order(seed)) for seed in range(6)}
    # Every permutation keeps the time ordering and loses no event...
    for permutation in shuffled:
        assert permutation[-1] == "Z"
        assert sorted(permutation[:-1]) == list("abcdefgh")
    # ...and at least one seed actually reorders the ties.
    assert any(list(p[:-1]) != list("abcdefgh") for p in shuffled)


def test_tie_break_seed_is_deterministic():
    assert _tie_order(42) == _tie_order(42)


def test_tie_break_key_is_stable_and_distinct():
    key_a = tie_break_key(0, 1)
    assert key_a == tie_break_key(0, 1)
    assert key_a != tie_break_key(0, 2)
    assert key_a != tie_break_key(1, 1)
    # The eid stays in the key so even a digest collision cannot make
    # two calendar entries compare equal.
    assert key_a[1] == 1


def _reference_tie_break_key(seed, eid):
    """The pre-prefix-caching implementation: FNV-1a over f"{seed}:{eid}".

    Kept verbatim as the compatibility reference: the optimised
    tie_break_key (per-seed prefix hashed once, eid digits folded per
    call) must stay bit-identical to this, or every recorded
    perturbation-harness permutation silently changes.
    """
    digest = 2166136261
    for char in f"{seed}:{eid}":
        digest = ((digest ^ ord(char)) * 16777619) & ((1 << 64) - 1)
    return (digest, eid)


def test_tie_break_key_matches_reference_implementation():
    for seed in (0, 1, 7, -3, 123456789, 2**63):
        for eid in (0, 1, 9, 10, 99, 100, 4096, 10**9):
            assert tie_break_key(seed, eid) == \
                _reference_tie_break_key(seed, eid)


def test_tie_break_permutations_unchanged_by_prefix_cache():
    # The permutation of an 8-way tie under a handful of seeds, as
    # produced by the reference key.  Pinning the orderings themselves
    # (not just the key function) catches any engine change that stops
    # routing ties through the key.
    for seed in (1, 7, 42):
        expected_rank = sorted(
            range(8), key=lambda slot: _reference_tie_break_key(
                seed, slot + 1))  # tags a..h get eids 1..8
        observed = _tie_order(seed)
        assert observed[-1] == "Z"
        tags = "abcdefgh"
        assert "".join(observed[:-1]) == \
            "".join(tags[rank] for rank in expected_rank)
