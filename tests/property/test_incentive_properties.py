"""Property tests for the incentive machinery (Section 3.4 invariants)."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (ActionCreditTracker, IncentiveAction,
                        MultiDimensionalReputationSystem, ReputationConfig,
                        ServiceDifferentiator)
from repro.core.persistence import system_from_dict, system_to_dict

reputations = st.floats(min_value=0.0, max_value=10.0)
arrivals = st.floats(min_value=0.0, max_value=1e6)


def _differentiator():
    return ServiceDifferentiator(ReputationConfig(), reference_reputation=1.0)


class TestDifferentiatorProperties:
    @given(reputation=reputations)
    def test_offset_bounded_by_config(self, reputation):
        differentiator = _differentiator()
        offset = differentiator.queue_offset(reputation)
        assert 0.0 <= offset <= ReputationConfig().max_queue_offset_seconds

    @given(reputation=reputations)
    def test_quota_within_configured_band(self, reputation):
        config = ReputationConfig()
        differentiator = ServiceDifferentiator(config,
                                               reference_reputation=1.0)
        quota = differentiator.bandwidth_quota(reputation)
        assert config.min_bandwidth_quota <= quota \
            <= config.max_bandwidth_quota

    @given(low=reputations, high=reputations)
    def test_offset_monotone_in_reputation(self, low, high):
        if low > high:
            low, high = high, low
        differentiator = _differentiator()
        assert (differentiator.queue_offset(low)
                <= differentiator.queue_offset(high) + 1e-12)

    @given(requests=st.lists(
        st.tuples(st.text(min_size=1, max_size=4), arrivals, reputations),
        min_size=1, max_size=12))
    def test_order_queue_is_a_permutation(self, requests):
        differentiator = _differentiator()
        ordered = differentiator.order_queue(requests)
        assert sorted(name for name, _ in ordered) == \
            sorted(name for name, _, _ in requests)

    @given(requests=st.lists(
        st.tuples(st.text(min_size=1, max_size=4), arrivals, reputations),
        min_size=2, max_size=12))
    def test_order_queue_sorted_by_effective_time(self, requests):
        differentiator = _differentiator()
        ordered = differentiator.order_queue(requests)
        times = [effective for _, effective in ordered]
        assert times == sorted(times)

    @given(requests=st.lists(
        st.tuples(st.text(min_size=1, max_size=4), arrivals),
        min_size=1, max_size=12, unique_by=lambda request: request[0]))
    def test_equal_reputation_preserves_fifo(self, requests):
        differentiator = _differentiator()
        annotated = [(name, arrival, 0.5) for name, arrival in requests]
        ordered = differentiator.order_queue(annotated)
        effective = {name: time for name, time in ordered}
        for name, arrival, _ in annotated:
            # Same offset for everyone: relative order is arrival order.
            assert effective[name] == pytest.approx(
                arrival - differentiator.queue_offset(0.5))


class TestCreditProperties:
    @given(actions=st.lists(st.sampled_from(list(IncentiveAction)),
                            max_size=40))
    def test_credit_is_sum_of_action_credits(self, actions):
        config = ReputationConfig()
        tracker = ActionCreditTracker(config=config)
        expected = 0.0
        per_action = {
            IncentiveAction.UPLOAD_REAL_FILE: config.upload_credit,
            IncentiveAction.VOTE: config.vote_credit,
            IncentiveAction.RANK_USER: config.rank_credit,
            IncentiveAction.DELETE_FAKE_FILE: config.delete_fake_credit,
        }
        for action in actions:
            tracker.record("u", action)
            expected += per_action[action]
        assert tracker.credit("u") == pytest.approx(expected)

    @given(actions=st.lists(st.sampled_from(list(IncentiveAction)),
                            max_size=40))
    def test_credit_never_decreases(self, actions):
        tracker = ActionCreditTracker()
        balance = 0.0
        for action in actions:
            new_balance = tracker.record("u", action)
            assert new_balance >= balance
            balance = new_balance

    @given(actions=st.lists(st.sampled_from(list(IncentiveAction)),
                            max_size=30))
    def test_counts_partition_actions(self, actions):
        tracker = ActionCreditTracker()
        for action in actions:
            tracker.record("u", action)
        total = sum(tracker.action_count("u", action)
                    for action in IncentiveAction)
        assert total == len(actions)


credit_records = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]),
              st.sampled_from(list(IncentiveAction)),
              st.floats(min_value=0.0, max_value=50.0)),
    max_size=40)


class TestRunningMaxCredit:
    """``max_credit()`` is a running maximum; it must equal the scan."""

    @staticmethod
    def _scan(tracker):
        return max(tracker.balances().values(), default=0.0)

    @given(records=credit_records,
           zero_votes=st.booleans())
    def test_equals_scan_after_every_record(self, records, zero_votes):
        config = ReputationConfig(vote_credit=0.0 if zero_votes else 0.25)
        tracker = ActionCreditTracker(config=config)
        assert tracker.max_credit() == self._scan(tracker) == 0.0
        for user, action, magnitude in records:
            tracker.record(user, action, magnitude)
            assert tracker.max_credit() == self._scan(tracker)

    @given(records=credit_records)
    def test_equals_scan_after_wal_replay(self, records):
        journal = []
        live = ActionCreditTracker(
            journal=lambda kind, payload: journal.append((kind, payload)))
        for user, action, magnitude in records:
            live.record(user, action, magnitude)
        replayed = ActionCreditTracker()
        for kind, payload in journal:
            replayed.apply_record(kind, payload)
        assert replayed.balances() == live.balances()
        assert replayed.max_credit() == self._scan(replayed) \
            == live.max_credit()

    @given(records=credit_records)
    def test_equals_scan_after_persistence_restore(self, records):
        system = MultiDimensionalReputationSystem()
        for user, action, magnitude in records:
            system.credits.record(user, action, magnitude)
        restored = system_from_dict(json.loads(json.dumps(
            system_to_dict(system))))
        assert restored.credits.balances() == system.credits.balances()
        assert restored.credits.max_credit() \
            == self._scan(restored.credits) == system.credits.max_credit()
        # The restored maximum keeps tracking later credits.
        restored.credits.record("z", IncentiveAction.UPLOAD_REAL_FILE, 99.0)
        assert restored.credits.max_credit() == self._scan(restored.credits)

    def test_restore_replaces_the_ledger(self):
        tracker = ActionCreditTracker()
        tracker.record("a", IncentiveAction.UPLOAD_REAL_FILE, 10.0)
        tracker.restore({"b": 2.0, "c": 3.0},
                        {("b", IncentiveAction.VOTE): 8})
        assert tracker.balances() == {"b": 2.0, "c": 3.0}
        assert tracker.max_credit() == 3.0
        assert tracker.action_count("a", IncentiveAction.UPLOAD_REAL_FILE) \
            == 0
        assert tracker.action_count("b", IncentiveAction.VOTE) == 8

    def test_nan_magnitude_rejected(self):
        with pytest.raises(ValueError):
            ActionCreditTracker().record("a", IncentiveAction.VOTE,
                                         float("nan"))
