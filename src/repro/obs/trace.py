"""Low-overhead span tracer with per-thread ring buffers.

The tracer is a process-wide singleton (:data:`TRACE`).  It is *disarmed*
by default: ``TRACE.span(...)`` then returns a shared no-op context
manager, and the cost of the call is one attribute lookup plus one
function call.  Hot loops (per z-iteration, per tile) go one step
further and branch on ``TRACE.armed`` explicitly so the disarmed path is
a plain loop with zero tracer calls:

    if TRACE.armed:
        with TRACE.span(runner.span, tiles=len(tiles)):
            runner.run(token, traffic)
    else:
        runner.run(token, traffic)

When armed, each completed span is appended to a fixed-capacity ring
buffer owned by the recording thread — no locks on the hot path; the
only lock is taken once per thread to register its buffer.  When a ring
buffer wraps, the oldest records are overwritten and counted as dropped.

Span taxonomy (see docs/observability.md):

``sweep``        one executor ``run()`` call (attrs: executor, steps)
``round``        one blocked round of ``round_t`` time steps
``tile``         one XY tile within a round
``z_iter``       one z-iteration (LOAD/COMPUTE/STORE group) of a tile
``batched_round``  one round of every tile over one halo-expanded plane
                   (fused-numpy; no tile/z_iter spans inside)
``volume_round``   one round as whole-volume sweeps (fused-numpy, when
                   Eq. 2 says blocking cannot pay)
``codegen_round``  one round as one generated kernel (codegen)
``guarded_run``  one GuardedSweep.run (wraps all rounds + checkpoints)
``guard_round``  one guarded round incl. retries/health checks
``halo_exchange``/``rank_compute``  distributed phases per round
``halo_wait``    one rank's wait on in-flight ghost planes (overlap path);
                 also the failure-detection point for rank crashes
``spmd``         one WorkerPool.run_spmd launch (threaded executors)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["SpanRecord", "SpanTracer", "TRACE", "span"]


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One completed span, as stored in a thread's ring buffer."""

    name: str
    tid: int
    thread_name: str
    start_ns: int
    dur_ns: int
    depth: int
    attrs: dict[str, Any]

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.dur_ns


class _NullSpan:
    """Shared no-op context manager returned while the tracer is disarmed."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _ThreadBuf:
    """Per-thread ring buffer of SpanRecords plus the nesting depth."""

    __slots__ = ("tid", "thread_name", "capacity", "records", "head",
                 "total", "depth", "epoch")

    def __init__(self, capacity: int, epoch: int) -> None:
        t = threading.current_thread()
        self.tid = t.ident or 0
        self.thread_name = t.name
        self.capacity = capacity
        self.records: list[SpanRecord | None] = [None] * capacity
        self.head = 0          # next write position
        self.total = 0         # spans ever recorded
        self.depth = 0         # current nesting depth of open spans
        self.epoch = epoch

    def append(self, rec: SpanRecord) -> None:
        self.records[self.head] = rec
        self.head = (self.head + 1) % self.capacity
        self.total += 1

    @property
    def dropped(self) -> int:
        return max(0, self.total - self.capacity)

    def events(self) -> list[SpanRecord]:
        if self.total < self.capacity:
            out = self.records[: self.total]
        else:
            out = self.records[self.head :] + self.records[: self.head]
        return [r for r in out if r is not None]


class _Span:
    """An open span; closing it appends a SpanRecord to the thread buffer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_buf", "_start_ns", "_depth")

    def __init__(self, tracer: "SpanTracer", name: str,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        buf = self._tracer._thread_buf()
        self._buf = buf
        self._depth = buf.depth
        buf.depth += 1
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter_ns()
        buf = self._buf
        buf.depth = self._depth
        buf.append(SpanRecord(
            name=self._name,
            tid=buf.tid,
            thread_name=buf.thread_name,
            start_ns=self._start_ns,
            dur_ns=end - self._start_ns,
            depth=self._depth,
            attrs=self._attrs,
        ))


class SpanTracer:
    """Process-wide span tracer.  See module docstring for the contract."""

    DEFAULT_CAPACITY = 65536

    def __init__(self) -> None:
        self.armed = False
        self._capacity = self.DEFAULT_CAPACITY
        self._epoch = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._bufs: list[_ThreadBuf] = []

    # -- lifecycle -----------------------------------------------------
    def arm(self, capacity: int | None = None) -> None:
        """Start recording spans (clears any previous recording).

        ``capacity`` sizes the per-thread ring buffers for *this* recording
        only; omitting it restores :data:`DEFAULT_CAPACITY` rather than
        inheriting whatever a previous caller picked.
        """
        self.reset()
        if capacity is None:
            self._capacity = self.DEFAULT_CAPACITY
        else:
            if capacity < 1:
                raise ValueError("capacity must be >= 1")
            self._capacity = capacity
        self.armed = True

    def disarm(self) -> None:
        """Stop recording; already-recorded spans stay readable."""
        self.armed = False

    def reset(self) -> None:
        """Drop all recorded spans and detach per-thread buffers."""
        with self._lock:
            self._epoch += 1
            self._bufs = []

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Any:
        """Open a span; a no-op context manager when disarmed."""
        if not self.armed:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def _thread_buf(self) -> _ThreadBuf:
        buf = getattr(self._local, "buf", None)
        if buf is None or buf.epoch != self._epoch:
            buf = _ThreadBuf(self._capacity, self._epoch)
            with self._lock:
                # re-check: reset() may have bumped the epoch underneath us
                if buf.epoch == self._epoch:
                    self._bufs.append(buf)
            self._local.buf = buf
        return buf

    # -- reading -------------------------------------------------------
    def events(self) -> list[SpanRecord]:
        """All recorded spans from every thread, sorted by start time."""
        with self._lock:
            bufs = list(self._bufs)
        out: list[SpanRecord] = []
        for buf in bufs:
            out.extend(buf.events())
        out.sort(key=lambda r: (r.start_ns, r.depth))
        return out

    def dropped(self) -> int:
        """Spans lost to ring-buffer wraparound, across all threads."""
        with self._lock:
            return sum(buf.dropped for buf in self._bufs)

    def thread_names(self) -> dict[int, str]:
        with self._lock:
            return {buf.tid: buf.thread_name for buf in self._bufs}

    def iter_by_thread(self) -> Iterator[tuple[int, list[SpanRecord]]]:
        with self._lock:
            bufs = list(self._bufs)
        for buf in bufs:
            yield buf.tid, buf.events()


TRACE = SpanTracer()


def span(name: str, **attrs: Any) -> Any:
    """Module-level convenience for ``TRACE.span`` (not for hot loops)."""
    return TRACE.span(name, **attrs)
