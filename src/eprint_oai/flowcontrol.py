"""Per-client request throttling.

The server keeps the time of the last fulfilled request from each client
and enforces a minimum interval before answering further ones, with a
longer interval for the list verbs since those drive datestamp searches.
Early requests get a 503 with the exact remaining wait in Retry-After; a
client that sleeps the advertised delay is never blocked. Rejected
requests do not touch the ledger, so they cannot extend the wait.
:meth:`ClientLedger.admit` answers with that wait, 0.0 when it admits.
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
        self, client_key: str, is_list: bool, now: float, policy: FlowPolicy
    ) -> float:
        """Seconds ``client_key`` must still wait before a list verb
        (``is_list``) or another verb is answered; 0.0 admits the request
        and records it."""
        interval = policy.min_interval_list if is_list else policy.min_interval_other
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
                    return remaining
                last_times.move_to_end(client_key)
            last_times[client_key] = now
            return 0.0

    def __len__(self) -> int:
        return len(self._last)

