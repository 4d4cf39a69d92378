"""The batch reputation query equals the per-pair query, bit for bit.

``ReputationMechanism.reputations(o, ts)`` is what the simulator's service
differentiation and uploader choice call; its contract is that it returns
exactly ``[reputation(o, t) for t in ts]``.  The paper's mechanism
overrides it with a one-pass version, so the property is checked for every
mechanism in :data:`repro.baselines.ALL_MECHANISMS`, with and without
incentive credits in play.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ALL_MECHANISMS
from repro.core.reputation_system import CREDIT_BONUS_WEIGHT
from repro.simulator.trace_export import TraceRecorder

USERS = ["u0", "u1", "u2", "u3", "u4"]
FILES = ["f0", "f1", "f2"]

users = st.sampled_from(USERS)
files = st.sampled_from(FILES)
unit = st.floats(min_value=0.0, max_value=1.0)

#: Signals that earn no incentive credit in the paper's mechanism.
plain_events = st.one_of(
    st.tuples(st.just("download"), users, users, files,
              st.floats(min_value=1.0, max_value=1e6)),
    st.tuples(st.just("retention"), users, files,
              st.floats(min_value=0.0, max_value=1e6)),
    st.tuples(st.just("blacklist"), users, users),
)
#: Signals that do (votes, ranks, deletions, good uploads).
credit_events = st.one_of(
    st.tuples(st.just("vote"), users, files, unit),
    st.tuples(st.just("rank"), users, users, unit),
    st.tuples(st.just("deletion"), users, files),
    st.tuples(st.just("upload"), users, st.booleans()),
)


def _apply(mechanism, event):
    kind, *args = event
    if kind == "download":
        downloader, uploader, file_id, size = args
        if downloader != uploader:
            mechanism.record_download(downloader, uploader, file_id, size,
                                      1.0)
    elif kind == "retention":
        mechanism.record_retention(*args, timestamp=2.0)
    elif kind == "blacklist":
        if args[0] != args[1]:
            mechanism.record_blacklist(*args)
    elif kind == "vote":
        mechanism.record_vote(*args, timestamp=3.0)
    elif kind == "rank":
        if args[0] != args[1]:
            mechanism.record_rank(*args)
    elif kind == "deletion":
        mechanism.record_deletion(*args, timestamp=4.0)
    else:
        mechanism.record_upload_outcome(*args, timestamp=5.0)


def _bits(values):
    return [struct.pack("<d", value) for value in values]


def _assert_batch_equals_pairwise(mechanism, targets):
    for observer in USERS:
        batch = mechanism.reputations(observer, targets)
        pairwise = [mechanism.reputation(observer, target)
                    for target in targets]
        assert _bits(batch) == _bits(pairwise), (observer, targets)


# Targets include the observer itself, unknown ids and repeats.
targets_strategy = st.lists(st.sampled_from(USERS + ["stranger"]),
                            max_size=8)


def _paper_effective(system, observer, target):
    """Section 3.4 effective reputation, spelled out from the stores."""
    reputation = system.reputation_matrix()
    balances = system.credits.balances()
    max_credit = max(balances.values(), default=0.0)
    pairwise = reputation.get(observer, target)
    if max_credit <= 0:
        return pairwise
    row = reputation.row(observer)
    reference = max(row.values()) if row else 1.0
    return (pairwise + CREDIT_BONUS_WEIGHT
            * (balances.get(target, 0.0) / max_credit) * reference)


class TestBatchEqualsPairwise:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(ALL_MECHANISMS)),
           events=st.lists(plain_events, max_size=25),
           targets=targets_strategy)
    def test_without_credits(self, name, events, targets):
        mechanism = ALL_MECHANISMS[name]()
        for event in events:
            _apply(mechanism, event)
        mechanism.refresh()
        _assert_batch_equals_pairwise(mechanism, targets)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(ALL_MECHANISMS)),
           events=st.lists(st.one_of(plain_events, credit_events),
                           max_size=30),
           targets=targets_strategy,
           refresh_at=st.integers(min_value=0, max_value=30))
    def test_with_credits(self, name, events, targets, refresh_at):
        mechanism = ALL_MECHANISMS[name]()
        for index, event in enumerate(events):
            if index == refresh_at:
                mechanism.refresh()
            _apply(mechanism, event)
        # Credits recorded after the last refresh move the bonus of the
        # cached RM: the batch must follow them exactly as the pair does.
        _assert_batch_equals_pairwise(mechanism, targets)
        mechanism.refresh()
        _assert_batch_equals_pairwise(mechanism, targets)

    @settings(max_examples=40, deadline=None)
    @given(events=st.lists(st.one_of(plain_events, credit_events),
                           min_size=5, max_size=30),
           targets=targets_strategy)
    def test_multidimensional_batch_is_the_paper_formula(self, events,
                                                         targets):
        """Bit-identical to the per-target formula with its operand order
        (pairwise + weight * (credit / max credit) * reference)."""
        mechanism = ALL_MECHANISMS["multidimensional"]()
        for event in events:
            _apply(mechanism, event)
        mechanism.refresh()
        for observer in USERS:
            assert _bits(mechanism.reputations(observer, targets)) == _bits(
                [_paper_effective(mechanism.system, observer, target)
                 for target in targets])

    @settings(max_examples=20, deadline=None)
    @given(events=st.lists(st.one_of(plain_events, credit_events),
                           max_size=25),
           targets=targets_strategy)
    def test_trace_recorder_forwards_the_batch(self, events, targets):
        inner = ALL_MECHANISMS["multidimensional"]()
        recorder = TraceRecorder(inner)
        for event in events:
            _apply(recorder, event)
        recorder.refresh()
        _assert_batch_equals_pairwise(recorder, targets)
        for observer in USERS:
            assert (_bits(recorder.reputations(observer, targets))
                    == _bits(inner.reputations(observer, targets)))


def test_trace_recorder_uses_the_inner_batch():
    """The wrapper calls the inner batch query, not the per-pair default."""
    calls = []

    class Inner(ALL_MECHANISMS["null"]):
        def reputations(self, observer, targets):
            calls.append((observer, list(targets)))
            return [0.0 for _ in targets]

        def reputation(self, observer, target):
            raise AssertionError("per-pair query used")

    recorder = TraceRecorder(Inner())
    assert recorder.reputations("u0", ["u1", "u2"]) == [0.0, 0.0]
    assert calls == [("u0", ["u1", "u2"])]
