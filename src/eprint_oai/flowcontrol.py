"""Per-client request throttling.

The server keeps the time of the last fulfilled request from each client
and enforces a minimum interval before answering further ones, with a
longer interval for the list verbs since those drive datestamp searches.
Early requests get a 503 with the exact remaining wait in Retry-After; a
client that sleeps the advertised delay is never blocked. Rejected
requests do not touch the ledger, so they cannot extend the wait.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class FlowPolicy:
    min_interval_list: float = 10.0
    min_interval_other: float = 1.0

    def __post_init__(self):
        if not (self.min_interval_list >= self.min_interval_other >= 0):
            raise ValueError(
                "intervals must satisfy min_interval_list >= "
                "min_interval_other >= 0"
            )

    def interval_for(self, verb_class: str) -> float:
        if verb_class == "list":
            return self.min_interval_list
        if verb_class == "other":
            return self.min_interval_other
        raise ValueError(f"verb_class must be 'list' or 'other': {verb_class!r}")


@dataclass(frozen=True)
class Decision:
    allowed: bool
    retry_after: float = 0.0


ALLOW = Decision(allowed=True)


@dataclass
class ClientLedger:
    """Last-fulfilled-request time per client key. Admission is an atomic
    check-and-update per key; clients never affect each other.

    Entries are kept oldest first. With times that never go backward and
    one policy, each admission first drops the entries at least the
    policy's longest interval old, which can no longer refuse anything, so
    the ledger holds only the clients admitted within that interval, at
    O(1) amortised cost per admission."""

    _last: OrderedDict[str, float] = field(default_factory=OrderedDict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def admit(
        self, client_key: str, verb_class: str, now: float, policy: FlowPolicy
    ) -> Decision:
        interval = policy.interval_for(verb_class)
        with self._lock:
            last_times = self._last
            while last_times:
                oldest = next(iter(last_times.values()))
                if now - oldest < policy.min_interval_list:
                    break
                last_times.popitem(last=False)
            last = last_times.get(client_key)
            if last is not None:
                remaining = interval - (now - last)
                if remaining > 0:
                    return Decision(allowed=False, retry_after=remaining)
                last_times.move_to_end(client_key)
            last_times[client_key] = now
            return ALLOW

    def __len__(self) -> int:
        return len(self._last)

