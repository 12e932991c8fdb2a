"""Admission control: token buckets, per-tenant quotas, bounded queues.

A long-lived daemon dies one of two deaths under overload: unbounded queue
growth (memory, then latency, then the OOM killer) or an accept loop that
blocks (a hang indistinguishable from a crash).  Admission control rules
out both by construction — every submit is answered *immediately* with
either an acceptance or a rejection that names its reason:

* a global :class:`TokenBucket` caps the sustained accept rate (burst
  tolerant, so a tenant can submit a batch without tripping it);
* per-tenant inflight quotas stop one tenant from monopolizing the queue
  — the cross-job interference the paper's Eq. 2 never had to consider
  becomes a managed resource;
* the :class:`BoundedPriorityQueue` has a hard capacity; when it is full
  a new job either displaces ("sheds") the lowest-priority queued job —
  strictly-better priority only — or is itself rejected.

Everything takes an injectable ``clock`` so tests never sleep.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .protocol import JobRecord

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BoundedPriorityQueue",
    "TokenBucket",
]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s refill, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    def try_take(self, n: float = 1.0) -> bool:
        """Consume ``n`` tokens if available; never blocks."""
        with self._lock:
            self._refill()
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    def available(self) -> float:
        with self._lock:
            self._refill()
            return self._tokens


class BoundedPriorityQueue:
    """Thread-safe priority queue with a hard capacity.

    Lower ``priority`` numbers pop first; ties pop FIFO.  ``push`` never
    blocks and never grows the queue past ``capacity`` — the caller
    (admission control) decides between rejecting the newcomer and
    :meth:`shed_lowest` before pushing.  ``pop`` blocks with a timeout so
    worker loops stay responsive to drain/stop flags.

    A slot can be *held* (:meth:`hold`) for a job that is not queued yet:
    an admitted job until its journal record is written, a running job
    asked to yield until it is back.  Held slots count as taken, so no
    other claim can overfill the queue while the holder is on its way.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: list[tuple[int, int, object]] = []  # (prio, seq, item)
        self._held = 0
        self._seq = 0
        self._cond = threading.Condition()

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    def full(self) -> bool:
        with self._cond:
            return len(self._items) + self._held >= self.capacity

    def hold(self) -> bool:
        """Take a free slot for a later ``push(held=True)``; False if none."""
        with self._cond:
            if len(self._items) + self._held >= self.capacity:
                return False
            self._held += 1
            return True

    def release(self) -> None:
        """Give back a held slot that will not be pushed."""
        with self._cond:
            self._held -= 1

    def push(self, item, priority: int, force: bool = False,
             held: bool = False) -> None:
        """Enqueue ``item`` into a free slot, or its ``held`` one.  Crash
        recovery passes ``force=True``: its jobs were admitted under the
        cap once and must never be lost to it."""
        with self._cond:
            if held:
                self._held -= 1
            elif not force and len(self._items) + self._held >= self.capacity:
                raise OverflowError(
                    f"queue full ({self.capacity} jobs); admission control "
                    "must shed or reject before pushing"
                )
            self._seq += 1
            entry = (priority, self._seq, item)
            idx = len(self._items)
            for i, other in enumerate(self._items):
                if entry[:2] < other[:2]:
                    idx = i
                    break
            self._items.insert(idx, entry)
            self._cond.notify()

    def pop(self, timeout: float | None = None):
        """Highest-priority item, or None when the wait times out."""
        with self._cond:
            if not self._items:
                self._cond.wait(timeout)
            if not self._items:
                return None
            return self._items.pop(0)[2]

    def shed_lowest(self, hold: bool = False):
        """Remove and return the lowest-priority item (None when empty);
        ``hold`` keeps its slot held for the job displacing it."""
        with self._cond:
            if not self._items:
                return None
            self._held += hold
            return self._items.pop()[2]

    def worst_priority(self) -> int | None:
        with self._cond:
            return self._items[-1][0] if self._items else None

    def remove(self, predicate) -> list:
        """Remove (and return) every queued item matching ``predicate``."""
        with self._cond:
            removed = [e[2] for e in self._items if predicate(e[2])]
            self._items = [e for e in self._items if not predicate(e[2])]
            return removed

    def snapshot(self) -> list:
        with self._cond:
            return [e[2] for e in self._items]


@dataclass
class AdmissionDecision:
    """The immediate answer to a submit: accept, and whom we shed for it."""

    ok: bool
    reason: str = ""
    #: queue item (a job id) displaced to make room (terminal status ``shed``)
    shed: object | None = None
    details: dict = field(default_factory=dict)


class AdmissionController:
    """Decides accept/reject/shed for one submit; owns no queue state.

    The controller is pure policy: the server core passes the current
    queue and per-tenant inflight counts, and gets back an
    :class:`AdmissionDecision` whose rejection reasons are stable strings
    (tested, surfaced verbatim to clients and the journal).
    """

    def __init__(
        self,
        *,
        rate: float = 50.0,
        burst: float = 100.0,
        tenant_quota: int = 8,
        clock=time.monotonic,
    ):
        if tenant_quota < 1:
            raise ValueError("tenant_quota must be >= 1")
        self.bucket = TokenBucket(rate, burst, clock=clock)
        self.tenant_quota = tenant_quota

    def admit(
        self,
        record: JobRecord,
        queue: BoundedPriorityQueue,
        tenant_inflight: int,
        draining: bool = False,
    ) -> AdmissionDecision:
        spec = record.spec
        if draining:
            return AdmissionDecision(
                ok=False, reason="draining: the daemon is shutting down"
            )
        bad = spec.validate()
        if bad is not None:
            return AdmissionDecision(ok=False, reason=f"invalid job: {bad}")
        if tenant_inflight >= self.tenant_quota:
            return AdmissionDecision(
                ok=False,
                reason=(
                    f"tenant quota exceeded: {spec.tenant!r} already has "
                    f"{tenant_inflight} job(s) inflight "
                    f"(quota {self.tenant_quota})"
                ),
            )
        # the bucket is drawn last so rejected submits never burn rate budget
        if not self.bucket.try_take():
            return AdmissionDecision(
                ok=False,
                reason=(
                    f"rate limit exceeded ({self.bucket.rate:g} jobs/s "
                    f"sustained, burst {self.bucket.burst:g})"
                ),
            )
        # an admitted job holds its slot until it is pushed (or released)
        if not queue.hold():
            worst = queue.worst_priority()
            victim = (queue.shed_lowest(hold=True)
                      if worst is not None and spec.priority < worst else None)
            if victim is not None:
                return AdmissionDecision(
                    ok=True,
                    reason="accepted by displacing lower-priority work",
                    shed=victim,
                )
            return AdmissionDecision(
                ok=False,
                reason=(
                    f"queue full ({queue.capacity} jobs) and no queued job "
                    f"has lower priority than {spec.priority}"
                ),
            )
        return AdmissionDecision(ok=True)
