from __future__ import annotations

import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from eprint_oai.flowcontrol import ClientLedger, Decision, FlowPolicy


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


@given(
    st.floats(0.0, 5.0),
    st.floats(0.0, 10.0),
    st.lists(
        st.tuples(
            st.sampled_from("abcdef"),
            st.sampled_from(["list", "other"]),
            st.floats(0.0, 8.0),
        ),
        max_size=80,
    ),
)
def test_ledger_drops_stale_clients_without_changing_decisions(other, extra, schedule):
    """Against a ledger that never forgets, every decision is the same, and
    the ledger holds exactly the clients admitted within the longest
    interval, and the client just asking."""
    policy = FlowPolicy(min_interval_list=other + extra, min_interval_other=other)
    ledger = ClientLedger()
    last: dict[str, float] = {}  # the unpruned reference
    now = 0.0
    for client, verb_class, gap in schedule:
        now += gap
        remaining = None
        if client in last:
            remaining = policy.interval_for(verb_class) - (now - last[client])
        if remaining is not None and remaining > 0:
            expected = Decision(allowed=False, retry_after=remaining)
        else:
            expected = Decision(allowed=True)
            last[client] = now
        assert ledger.admit(client, verb_class, now, policy) == expected
        active = {c for c, t in last.items() if now - t < policy.min_interval_list}
        assert len(ledger) == len(active | {client})


def test_shared_ledger_admits_each_client_once_per_interval():
    """Eight threads admit the same clients at once, round after round;
    each round starts a full longest interval after the last, so it also
    drops every entry of the round before. Each client must be admitted
    exactly once per round."""
    policy = FlowPolicy(min_interval_list=10.0, min_interval_other=1.0)
    ledger = ClientLedger()
    clients = [f"10.0.0.{i}" for i in range(20)]
    rounds, workers = 40, 8
    barrier = threading.Barrier(workers, timeout=30)
    admitted: list[Counter] = [Counter() for _ in range(rounds)]
    counter_lock = threading.Lock()

    def work(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for r in range(rounds):
                barrier.wait()
                order = rng.sample(clients, len(clients))
                now = r * 10.0
                allowed = [
                    c for c in order if ledger.admit(c, "list", now, policy).allowed
                ]
                with counter_lock:
                    admitted[r].update(allowed)
        except BaseException:
            barrier.abort()  # release the other workers at once
            raise

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(counts == Counter(clients) for counts in admitted)
    assert len(ledger) == len(clients)
