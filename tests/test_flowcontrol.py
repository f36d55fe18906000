from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from eprint_oai.flowcontrol import ClientLedger, FlowPolicy


@pytest.fixture()
def policy():
    return FlowPolicy(min_interval_list=10.0, min_interval_other=1.0)


def test_policy_defaults():
    p = FlowPolicy()
    assert p.min_interval_list == 10.0
    assert p.min_interval_other == 1.0


def test_policy_ordering_enforced():
    with pytest.raises(ValueError):
        FlowPolicy(min_interval_list=0.5, min_interval_other=1.0)
    with pytest.raises(ValueError):
        FlowPolicy(min_interval_list=1.0, min_interval_other=-0.1)


def test_first_request_always_admitted(policy):
    ledger = ClientLedger()
    assert ledger.admit("a", "list", 0.0, policy).allowed


def test_premature_retry_rejected_with_remaining_wait(policy):
    ledger = ClientLedger()
    ledger.admit("a", "list", 0.0, policy)
    d = ledger.admit("a", "list", 4.0, policy)
    assert not d.allowed
    assert d.retry_after == pytest.approx(6.0)


def test_wait_not_extended_by_rejection(policy):
    # compliance guarantee: sleeping the advertised delay always succeeds
    ledger = ClientLedger()
    ledger.admit("a", "list", 0.0, policy)
    d = ledger.admit("a", "list", 4.0, policy)
    assert not d.allowed
    assert ledger.admit("a", "list", 4.0 + d.retry_after, policy).allowed


def test_list_and_other_intervals_differ(policy):
    ledger = ClientLedger()
    ledger.admit("a", "other", 0.0, policy)
    assert ledger.admit("a", "other", 1.0, policy).allowed
    ledger2 = ClientLedger()
    ledger2.admit("a", "list", 0.0, policy)
    assert not ledger2.admit("a", "list", 1.0, policy).allowed


def test_clients_independent(policy):
    ledger = ClientLedger()
    ledger.admit("a", "list", 0.0, policy)
    assert ledger.admit("b", "list", 0.0, policy).allowed


def test_bad_verb_class(policy):
    with pytest.raises(ValueError):
        policy.interval_for("weird")


def test_prune(policy):
    ledger = ClientLedger()
    ledger.admit("a", "list", 0.0, policy)
    ledger.admit("b", "list", 90.0, policy)
    assert ledger.prune(now=100.0, idle_horizon=60.0) == 1
    assert len(ledger) == 1
    # pruned client is fresh again
    assert ledger.admit("a", "list", 100.0, policy).allowed


@given(
    st.lists(st.floats(0.001, 5.0), min_size=1, max_size=60),
    st.sampled_from(["list", "other"]),
)
def test_compliant_client_never_rejected(gaps, verb_class):
    """A client that always waits max(advertised retry, 0) between requests
    is never refused."""
    policy = FlowPolicy(min_interval_list=3.0, min_interval_other=1.0)
    ledger = ClientLedger()
    now = 0.0
    assert ledger.admit("c", verb_class, now, policy).allowed
    for gap in gaps:
        # margin absorbs float rounding; the HTTP layer ceils Retry-After
        now += max(gap, policy.interval_for(verb_class)) + 1e-6
        assert ledger.admit("c", verb_class, now, policy).allowed


@given(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=60))
def test_retry_after_is_exact_remaining_wait(gaps):
    policy = FlowPolicy(min_interval_list=10.0, min_interval_other=1.0)
    ledger = ClientLedger()
    now = 0.0
    last_allowed = None
    for gap in gaps:
        now += gap
        d = ledger.admit("c", "list", now, policy)
        if d.allowed:
            last_allowed = now
        else:
            assert last_allowed is not None
            expected = policy.min_interval_list - (now - last_allowed)
            assert d.retry_after == pytest.approx(expected)
            assert d.retry_after > 0
