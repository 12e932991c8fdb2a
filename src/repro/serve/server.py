"""The long-lived sweep daemon: admission, deadlines, degradation, drain.

:class:`ServeCore` is the whole service with the sockets peeled off — a
bounded priority queue fed by admission control, a pool of worker threads
running each job through
:class:`~repro.resilience.watchdog.GuardedSweep`'s round loop, a
crash-safe :class:`~repro.serve.journal.JobJournal`, and per-job
on-disk checkpoints.  :class:`JobServer` is the thin unix-socket
front-end speaking the newline-JSON protocol of
:mod:`repro.serve.protocol`.

Robustness invariants (each one is load-bearing and tested):

* **No unbounded growth, no hangs.**  Every submit is answered
  immediately; the queue has a hard capacity; a full queue sheds
  strictly-lower-priority work or rejects the newcomer, always with a
  reason string.
* **Deadlines are cooperative.**  Workers check the clock at round
  boundaries only, so a cancelled/expired/preempted job always leaves a
  consistent grid; a preempted job checkpoints, requeues, and later
  resumes bit-exact.
* **Degrade before shedding.**  Under overload the service first falls
  down the quality ladder — unavailable backends degrade through the
  existing fallback chain, then verification is shed (jobs complete as
  status 3, degraded-but-correct) — and only sheds whole jobs when the
  queue is physically full.
* **Crash-safe lifecycle.**  A job is *accepted* exactly when its journal
  record is durably appended: it is dispatched once the record is
  written and acknowledged once it is fsynced, so a worker runs it while
  the disk flush is in flight.  SIGTERM drains the queue with zero
  accepted-job loss, and a SIGKILL mid-job recovers on restart by
  replaying the journal and resuming from the job's checkpoint.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import queue
import socket
import threading
import time
import zlib
from collections import deque
from pathlib import Path

import numpy as np

from ..core.traffic import TrafficStats
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.serving import JobTraceLog, UsageLedger, prometheus_exposition
from ..obs.trace import TRACE
from ..resilience.checkpoint import (
    CheckpointError,
    CheckpointStore,
    data_digest,
)
from ..resilience.faultinject import FAULTS, ResilienceError
from ..resilience.sdc import SdcError
from ..resilience.watchdog import GuardedSweep, SweepInterruptedError
from ..runspec import RunSpec, bind, build, make_field, make_kernel
from ..stencils.grid import Field3D
from .admission import AdmissionController, BoundedPriorityQueue
from .journal import JobJournal
from .protocol import (
    PROTOCOL_VERSION,
    JobRecord,
    JobSpec,
    read_message,
    write_message,
)

__all__ = ["JobServer", "PlanCache", "ServeCore", "make_field", "make_kernel"]

#: overload levels, in escalation order
GREEN, AMBER, RED = "green", "amber", "red"

#: connection handlers kept waiting for the next connection; a handler
#: that finishes a connection with this many already idle exits.  A
#: caller waiting on its job holds one submit or status connection at a
#: time, but its next can arrive before the last one's handler is back
#: in the pool: two handlers.  Independent callers submitting Poisson at
#: 25 jobs/s over ~1 ms connections hold three at once ~3e-6 of the time
#: (0.025^3/6).  Four serve both without a thread start and leave room
#: for a second caller such as ``repro top``
IDLE_HANDLERS = 4

#: bytes of retained finished-job records (and their trace logs) kept
#: answerable, ~60k small-job records; older ids answer ``not-found`` as
#: expired, and the journal keeps the full history
RETAIN_FINISHED_BYTES = 16 << 20

#: what a retained record costs beyond its stored bytes, charged against
#: RETAIN_FINISHED_BYTES: the bytes object's header, the id string, and
#: the record's dict and deque slots
RETAIN_ENTRY_OVERHEAD = 160


#: ledger usage field -> the counter it is mirrored into
_METERED = {
    "site_updates": "serve.site_updates", "cpu_ns": "serve.cpu_ns",
    "bytes_read": "traffic.bytes_read", "bytes_written": "traffic.bytes_written",
    "verify_cpu_ns": "serve.verify_cpu_ns",
}

#: the integrity counters a job adds to the daemon registry
_SDC_COUNTERS = ("sdc.checks", "sdc.detected", "sdc.healed",
                 "sdc.replayed_cells")


def _job_number(jid: str) -> int:
    """The ``n`` of a daemon-issued id ``j<n>``; 0 for any other string."""
    n = jid[1:]
    return int(n) if jid[:1] == "j" and n.isascii() and n.isdigit() else 0


def _wire(doc) -> bytes:
    """``doc`` as the protocol encodes it (see ``write_message``)."""
    return json.dumps(doc, separators=(",", ":")).encode()


#: the preset dictionary retained records deflate against: the wire
#: record of a representative finished job, so what a record stores is
#: mostly its id, timestamps, seed and hash (~110 of ~500 bytes)
_RETAIN_ZDICT = _wire(JobRecord(
    id="j000000", spec=JobSpec(verify=False), status="done", done_steps=4,
    backend_used="fused-numpy",
).to_dict())


def _pack(doc: bytes) -> bytes:
    """A wire record as retention stores it: raw deflate against the
    preset dictionary, in a 1 KiB window at memLevel 2 (a record is
    ~0.5 KiB, so a larger state buys nothing)."""
    c = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -10, 2,
                         zlib.Z_DEFAULT_STRATEGY, _RETAIN_ZDICT)
    return c.compress(doc) + c.flush()


def _unpack(blob: bytes) -> bytes:
    """The wire record :func:`_pack` stored, byte for byte."""
    d = zlib.decompressobj(-10, _RETAIN_ZDICT)
    return d.decompress(blob) + d.flush()


def _charge(blob: bytes) -> int:
    """What a retained record counts against RETAIN_FINISHED_BYTES."""
    return len(blob) + RETAIN_ENTRY_OVERHEAD


class PlanCache:
    """Warm-start cache of bound backends, keyed by the job signature.

    Binding a backend is the expensive part of job startup (the fallback
    chain runs a first-tile bit-exactness probe per candidate), so bound
    kernels are shared by every worker across jobs with the same
    signature.  Executors built on them are kept per worker instead (see
    :meth:`ServeCore._worker_loop`).  ``hits``/``misses`` feed the bench's
    warm-plan reuse rate.
    """

    def __init__(self) -> None:
        self._plans: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, spec: JobSpec, probe_field: Field3D, run=None):
        """The :class:`~repro.resilience.fallback.BoundBackend` of ``spec``,
        whose :class:`~repro.runspec.RunSpec` is ``run`` when given."""
        key = spec.signature()
        with self._lock:
            bound = self._plans.get(key)
            if bound is not None:
                self.hits += 1
                return bound
        bound = bind(run if run is not None else spec.run_spec(), probe_field)
        with self._lock:
            self._plans[key] = bound
            self.misses += 1
        return bound

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
            }


class _JobContext:
    """Mutable runtime state of a live job, which the record does not carry.

    Dropped when the job finishes; only its record and trace log are kept.
    ``run`` is the job's validated :class:`~repro.runspec.RunSpec`.
    ``cancel`` (the reason, empty when none) and ``preempt`` are requests
    the worker reads at the next round boundary.
    """

    __slots__ = ("record", "run", "state", "cancel", "preempt",
                 "deadline_at", "trace", "enqueued_ns", "owns_checkpoint",
                 "finishing")

    def __init__(self, record: JobRecord, run: RunSpec):
        self.record, self.run = record, run
        self.state: Field3D | None = None
        self.cancel = ""
        self.preempt = False
        self.deadline_at: float | None = None
        #: per-job span log when the submit carried a trace_id, else None
        self.trace: JobTraceLog | None = (
            JobTraceLog(record.spec.trace_id, record.id)
            if record.spec.trace_id else None
        )
        #: epoch-ns of the last enqueue, for the queue-wait measurement
        self.enqueued_ns = 0
        #: whether a checkpoint file of this job may exist: it saved one,
        #: or it was recovered from the journal (a file from before the
        #: restart, usable or not); only such a job removes its file
        self.owns_checkpoint = False
        #: set by the one ``_finish`` call that finishes the job
        self.finishing = False


class ServeCore:
    """The serving engine: admission -> queue -> workers -> journal."""

    def __init__(
        self,
        state_dir: str,
        *,
        workers: int = 2,
        rate: float = 100.0,
        burst: float = 200.0,
        queue_cap: int = 16,
        tenant_quota: int = 8,
        default_deadline_s: float | None = None,
        checkpoint_every_rounds: int = 4,
        degrade_at: float = 0.5,
        stall_s: float = 0.05,
        fsync: bool = True,
        clock=time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        (self.state_dir / "checkpoints").mkdir(exist_ok=True)
        self.journal = JobJournal(self.state_dir / "journal.jsonl", fsync=fsync)
        self.admission = AdmissionController(
            rate=rate, burst=burst, tenant_quota=tenant_quota, clock=clock
        )
        self.queue = BoundedPriorityQueue(queue_cap)
        self.n_workers = workers
        self.default_deadline_s = default_deadline_s
        self.checkpoint_every_rounds = max(1, checkpoint_every_rounds)
        self.degrade_at = degrade_at
        self.stall_s = stall_s
        self.plans = PlanCache()
        self._clock = clock
        self._lock = threading.RLock()
        #: jobs not yet terminal, by id
        self._live: dict[str, _JobContext] = {}
        #: the most recent finished jobs as their packed wire records
        #: (id -> bytes, see ``_pack``; ``_finish_order`` holds the ids
        #: oldest first), RETAIN_FINISHED_BYTES in total (``_charge``)
        #: with the trace logs of traced ones (id -> (log, charged
        #: bytes)).  A plain dict and a deque cost ~40 bytes less per
        #: record than an OrderedDict.
        self._finished: dict[str, bytes] = {}
        self._finish_order: deque[str] = deque()
        self._finished_traces: dict[str, tuple[JobTraceLog, int]] = {}
        self._finished_bytes = 0
        #: each worker's warm executor, {signature: executor} (read here
        #: for stats only)
        self._warm: list[dict] = []
        self._threads: list[threading.Thread] = []
        self._idgen = 0
        self._busy = 0
        self._draining = False
        self._stopping = False
        self._hard_kill = False
        self._started_at = clock()
        self.counters = {
            "accepted": 0, "rejected": 0, "dropped": 0, "shed": 0,
            "completed": 0, "degraded": 0, "failed": 0, "cancelled": 0,
            "deadline_misses": 0, "preemptions": 0, "resumes": 0,
            "recovered": 0, "sdc_shed": 0,
        }
        self.replay_info: dict = {}
        # Serving telemetry is always-on: the daemon owns a private armed
        # registry (the process-wide METRICS stays disarmed-by-default and
        # is mirrored into only when a bench/test arms it), and a
        # per-tenant usage ledger rolled up to fsync'd JSONL beside the
        # journal.  Integer charges only, so ledger-vs-counter
        # reconciliation is exact.
        self.metrics = MetricsRegistry()
        self.metrics.arm()
        self.ledger = UsageLedger(
            str(self.state_dir / "ledger.jsonl"), fsync=fsync
        )

    # ------------------------------------------------------------------
    # telemetry plumbing (dual-write: own registry + global mirror)
    # ------------------------------------------------------------------
    def _inc(self, name: str, value: float = 1) -> None:
        self.metrics.inc(name, value)
        METRICS.inc(name, value)

    def _observe_q(self, name: str, value: float) -> None:
        self.metrics.observe_quantile(name, value)
        METRICS.observe_quantile(name, value)

    def _charge(self, tenant: str, **usage: int) -> None:
        """Charge integer usage to the tenant's ledger and mirror it into
        the counters, so the ledger reconciles exactly."""
        self.ledger.charge(tenant, **usage)
        for key, amount in usage.items():
            self._inc(_METERED[key], amount)

    def _note_queue_depth(self) -> None:
        """The one place the queue-depth gauge is written.

        Both the submit path and the worker loop used to set the gauge
        independently; centralizing it also samples the age of the
        oldest queued job (``serve.queue_age_s``) so a stuck queue shows
        up as a growing histogram max, not just a flat depth.
        """
        depth = len(self.queue)
        self.metrics.set_gauge("serve.queue_depth", depth)
        METRICS.set_gauge("serve.queue_depth", depth)
        oldest_ns = 0
        with self._lock:
            for jid in self.queue.snapshot():
                ctx = self._live.get(jid)
                if ctx is not None and ctx.enqueued_ns:
                    if oldest_ns == 0 or ctx.enqueued_ns < oldest_ns:
                        oldest_ns = ctx.enqueued_ns
        if oldest_ns:
            age_s = max(0.0, (time.time_ns() - oldest_ns) / 1e9)
            self.metrics.observe("serve.queue_age_s", age_s)
            METRICS.observe("serve.queue_age_s", age_s)

    def ledger_reconciliation(self) -> list[str]:
        """Billing-vs-metering check: ledger totals against the global
        counters this core maintained.  Empty list = exact agreement."""
        m = self.metrics
        return self.ledger.reconcile({
            "site_updates": int(m.counter("serve.site_updates")),
            "bytes_read": int(m.counter("traffic.bytes_read")),
            "bytes_written": int(m.counter("traffic.bytes_written")),
            "cpu_ns": int(m.counter("serve.cpu_ns")),
            "verify_cpu_ns": int(m.counter("serve.verify_cpu_ns")),
            "completed": self.counters["completed"],
            "degraded": self.counters["degraded"],
            "failed": self.counters["failed"],
            "cancelled": self.counters["cancelled"],
            "shed": self.counters["shed"],
            "preempted": self.counters["preemptions"],
            "rejected": self.counters["rejected"],
        })

    def _retain(self, record: JobRecord, trace: JobTraceLog | None) -> None:
        """Move a finished job from the live index into the window as its
        packed wire record, dropping the oldest records past
        ``RETAIN_FINISHED_BYTES``."""
        blob = _pack(_wire(record.to_dict()))
        # spans a traced job still adds as it unwinds are not charged
        charge = len(_wire(trace.to_dicts())) if trace is not None else 0
        with self._lock:
            self._live.pop(record.id, None)
            self._forget(record.id)
            self._finished[record.id] = blob
            self._finish_order.append(record.id)
            if trace is not None:
                self._finished_traces[record.id] = (trace, charge)
            self._finished_bytes += _charge(blob) + charge
            while (self._finished_bytes > RETAIN_FINISHED_BYTES
                   and len(self._finished) > 1):
                self._forget(self._finish_order.popleft())

    def _forget(self, jid: str) -> None:
        """Drop a retained record's bytes (its id may stay in the order)."""
        blob = self._finished.pop(jid, None)
        if blob is not None:
            self._finished_bytes -= _charge(blob)
        dropped = self._finished_traces.pop(jid, None)
        if dropped is not None:
            self._finished_bytes -= dropped[1]

    def missing_reason(self, jid: str) -> str:
        """Why ``jid`` has no record: expired out of the window, or unknown."""
        if 0 < _job_number(jid) <= self._idgen:
            return (f"job {jid!r} expired: only the most recent "
                    f"{RETAIN_FINISHED_BYTES >> 20} MiB of finished-job "
                    "records are kept (the journal holds the full history)")
        return f"no job {jid!r}"

    def spans(self, jid: str) -> list[dict] | None:
        """The daemon-side job spans for a traced job (None if untraced)."""
        with self._lock:
            ctx = self._live.get(jid)
            kept = self._finished_traces.get(jid)
        if ctx is not None:
            trace = ctx.trace
        else:
            trace = kept[0] if kept else None
        return None if trace is None else trace.to_dicts()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Replay the journal, requeue unfinished accepted jobs, spawn workers."""
        self._recover()
        for i in range(self.n_workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def _recover(self) -> None:
        replay = self.journal.replay()
        self.replay_info = {
            "records": len(replay.records),
            "quarantined_records": replay.quarantined_records,
            "quarantined_bytes": replay.quarantined_bytes,
            "truncated_tail": replay.truncated_tail,
        }
        latest: dict[str, JobRecord] = {}
        order: list[str] = []
        for rec in replay.records:
            ev, jid = rec.get("ev"), rec.get("id")
            if ev == "accepted" and jid:
                spec = JobSpec.from_dict(rec.get("job") or {})
                latest[jid] = JobRecord(
                    id=jid, spec=spec, submitted_s=0.0,
                )
                order.append(jid)
            elif jid in latest:
                r = latest[jid]
                if ev == "started":
                    r.status = "running"
                elif ev == "requeued":
                    r.status = "queued"
                    r.done_steps = int(rec.get("done", 0))
                elif ev == "done":
                    r.status = rec.get("status", "done")
                    r.sha256 = rec.get("sha256", "")
                    r.reason = rec.get("reason", "")
                    r.backend_used = rec.get("backend", "")
                    r.finished_s = 0.0
                elif ev in ("shed", "cancelled", "rejected"):
                    r.status = "shed" if ev == "shed" else "cancelled"
                    r.reason = rec.get("reason", "")
                    r.finished_s = 0.0
        now = self._clock()
        for jid in order:
            record = latest[jid]
            self._idgen = max(self._idgen, _job_number(jid))
            if record.terminal:
                self._retain(record, None)
                continue
            # admitted under the same rules before the restart
            run = record.spec.run_spec(
                checkpoint_every=self.checkpoint_every_rounds)
            ctx = _JobContext(record, run)
            ctx.owns_checkpoint = True
            with self._lock:
                self._live[jid] = ctx
            # an accepted job that never reached a terminal record: the
            # crash-recovery path.  Resume from its checkpoint if one
            # survives, else restart from step 0 — both bit-exact.
            record.status = "queued"
            record.submitted_s = now
            if record.spec.deadline_s is not None:
                ctx.deadline_at = now + record.spec.deadline_s
            store = self._checkpoint_store(jid)
            try:
                snap = store.load(expected_shape=run.shape,
                                  expected_dtype=run.dtype)
            except CheckpointError:
                snap = None
            if snap is not None and 0 < snap.step <= record.spec.steps:
                state = Field3D.from_array(snap.data.copy())
                ctx.state = state
                record.done_steps = snap.step
                record.resumes += 1
                self.counters["resumes"] += 1
            else:
                record.done_steps = 0
                ctx.state = None
            self.counters["recovered"] += 1
            self.journal.append(
                "recovered", id=jid, done=record.done_steps, durable=False
            )
            ctx.enqueued_ns = time.time_ns()
            self.queue.push(jid, record.spec.priority, force=True)

    def drain(self, timeout: float | None = 60.0) -> bool:
        """Stop accepting, finish every queued/running job, stop workers.

        Returns True when every accepted job reached a terminal status
        (the zero-loss guarantee); the journal records the drain either way.
        """
        with self._lock:
            self._draining = True
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            with self._lock:
                idle = len(self.queue) == 0 and self._busy == 0
            if idle:
                break
            if deadline is not None and time.monotonic() > deadline:
                break
            time.sleep(0.02)
        self._stopping = True
        for t in self._threads:
            t.join(timeout=5.0)
        with self._lock:
            clean = not self._live
        self.journal.append("drained", clean=clean)
        self.journal.close()
        self.ledger.rollup()  # final billing snapshot survives the daemon
        return clean

    def kill(self) -> None:
        """Abandon the daemon abruptly (test stand-in for SIGKILL).

        Workers stop at the next round boundary *without* journaling a
        terminal record for in-flight jobs — exactly the state a killed
        process leaves behind.  Restarting a new core on the same state
        dir must recover from the journal + checkpoints.
        """
        self._hard_kill = True
        self._stopping = True
        for t in self._threads:
            t.join(timeout=5.0)
        self.journal.close()

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    def submit(self, doc: dict) -> dict:
        """Admit (or refuse) one job; always answers immediately."""
        admit_t0_ns = time.time_ns()
        try:
            spec = JobSpec.from_dict(doc or {})
        except (TypeError, ValueError) as exc:
            return {"ok": False, "error": "rejected",
                    "reason": f"malformed job: {exc}"}
        now = self._clock()
        with self._lock:
            tenant_inflight = sum(
                1 for ctx in self._live.values()
                if ctx.record.spec.tenant == spec.tenant
            )
            draining = self._draining or self._stopping
        record = JobRecord(id="", spec=spec, submitted_s=now)
        decision = self.admission.admit(
            record, self.queue, tenant_inflight, draining=draining
        )
        if not decision.ok:
            self.counters["rejected"] += 1
            self._inc("serve.rejected")
            self.ledger.count(spec.tenant, "rejected")
            return {"ok": False, "error": "rejected", "reason": decision.reason}
        if FAULTS.should("serve.accept"):
            # admitted, then dropped before the journal commit point: the
            # client gets an explicit retryable error, never silence, and
            # nothing was journaled so no state can leak
            shed_ctx = self._live.get(decision.shed)
            if shed_ctx is not None:  # the victim gets its slot back
                self.queue.push(
                    decision.shed, shed_ctx.record.spec.priority, held=True,
                )
            else:
                self.queue.release()
            self.counters["dropped"] += 1
            return {
                "ok": False, "error": "dropped",
                "reason": "accepted job dropped before the journal commit "
                          "(injected accept-drop); safe to retry",
            }
        if decision.shed is not None:
            self._mark_shed(
                decision.shed,
                "shed under overload: displaced by a higher-priority job",
            )
        with self._lock:
            self._idgen += 1
            jid = f"j{self._idgen:06d}"
            record.id = jid
            decision.run.checkpoint_every = self.checkpoint_every_rounds
            ctx = _JobContext(record, decision.run)
            deadline_s = spec.deadline_s or self.default_deadline_s
            if deadline_s is not None:
                ctx.deadline_at = now + deadline_s
            self._live[jid] = ctx
        pushed = False

        def dispatch() -> None:
            # the record is written, not yet durable: the job may run now
            nonlocal pushed
            self.counters["accepted"] += 1
            self._inc("serve.accepted")
            ctx.enqueued_ns = time.time_ns()
            if ctx.trace is not None:
                ctx.trace.add(
                    "job_admit", admit_t0_ns, ctx.enqueued_ns,
                    tenant=spec.tenant, priority=spec.priority,
                    shed=decision.shed or "",
                )
            self.queue.push(jid, spec.priority, held=True)
            pushed = True

        # acceptance commit point: the job is dispatched once its record
        # is written, and the reply leaves only once it is fsynced
        try:
            self.journal.append(
                "accepted", id=jid, job=spec.to_dict(),
                priority=spec.priority, deadline_s=deadline_s,
                on_written=dispatch,
            )
        except OSError as exc:
            if self._hard_kill:
                raise  # killed mid-commit: a crash sends no reply
            return self._not_committed(ctx, pushed, exc)
        self._note_queue_depth()
        self._maybe_preempt(spec.priority)
        # dispatched at the write, the job may be running or done by now.
        # One attribute read needs no core lock; waiting on a lock a
        # worker holds would hand that worker the GIL with the reply unsent
        return {"ok": True, "id": jid, "status": record.status,
                "shed": decision.shed}

    def _not_committed(self, ctx: _JobContext, pushed: bool,
                       exc: OSError) -> dict:
        """Undo an acceptance whose journal record never became durable.

        A job never pushed gives back its held slot; a pushed one still
        queued is cancelled there, and one a worker took stops at its next
        round boundary.
        """
        jid = ctx.record.id
        reason = f"acceptance not durable: journal {type(exc).__name__}: {exc}"
        if not pushed:
            self.queue.release()
            with self._lock:
                self._live.pop(jid, None)
            self.counters["dropped"] += 1
        elif self.queue.remove(lambda item: item == jid):
            try:
                self._finish(ctx, "cancelled", reason)
            except OSError:
                pass  # finished and counted; only its record is unjournaled
        else:
            ctx.cancel = reason
        return {"ok": False, "error": "journal", "id": jid,
                "reason": f"{reason}; safe to retry"}

    def _find(self, jid: str) -> tuple[_JobContext | None, bytes | None]:
        """A live job's context, else a retained job's wire record."""
        with self._lock:
            ctx = self._live.get(jid)
            blob = None if ctx is not None else self._finished.get(jid)
        return ctx, None if blob is None else _unpack(blob)

    def status_doc(self, jid: str) -> dict | None:
        """The wire record of a live or retained job, or None."""
        ctx, doc = self._find(jid)
        if ctx is not None:
            return ctx.record.to_dict()
        return None if doc is None else json.loads(doc)

    def status(self, jid: str) -> JobRecord | None:
        ctx, doc = self._find(jid)
        if ctx is not None:
            return ctx.record
        return None if doc is None else JobRecord.from_dict(json.loads(doc))

    def job_docs(self):
        """Encoded wire records of live and retained finished jobs, in
        submission order; a retained record is unpacked as it is yielded,
        so one is expanded at a time."""
        with self._lock:
            live = {jid: _wire(ctx.record.to_dict())
                    for jid, ctx in self._live.items()}
            ids = [*live, *self._finished]
            # id order = (length, text), sorted without per-item key tuples
            ids.sort()
            ids.sort(key=len)
            stored = [live.get(jid) or self._finished[jid] for jid in ids]
        for jid, doc in zip(ids, stored):
            yield doc if jid in live else _unpack(doc)

    def jobs(self) -> list[JobRecord]:
        """Live and retained finished jobs, in submission order."""
        return [JobRecord.from_dict(json.loads(d)) for d in self.job_docs()]

    def write_jobs(self, fh) -> None:
        """Stream the ``jobs`` reply record by record; the bytes equal
        ``write_message`` of ``{"ok": True, "jobs": [...]}``."""
        fh.write(b'{"ok":true,"jobs":[')
        for i, doc in enumerate(self.job_docs()):
            if i:
                fh.write(b",")
            fh.write(doc)
        fh.write(b"]}\n")
        fh.flush()

    def cancel(self, jid: str) -> dict:
        ctx, finished = self._find(jid)
        if finished is not None:
            return {"ok": True, "id": jid,
                    "status": json.loads(finished)["status"],
                    "reason": "already terminal"}
        if ctx is None:
            return {"ok": False, "error": "not-found",
                    "reason": self.missing_reason(jid)}
        record = ctx.record
        removed = self.queue.remove(lambda item: item == jid)
        if removed:
            self._finish(ctx, "cancelled", "cancelled by client while queued")
            return {"ok": True, "id": jid, "status": "cancelled"}
        ctx.cancel = "cancelled by client"
        return {"ok": True, "id": jid, "status": record.status,
                "reason": "cancellation requested; takes effect at the next "
                          "round boundary"}

    def stats(self) -> dict:
        with self._lock:
            base = {
                "version": PROTOCOL_VERSION,
                "uptime_s": self._clock() - self._started_at,
                "queue_depth": len(self.queue),
                "queue_cap": self.queue.capacity,
                "busy_workers": self._busy,
                "workers": self.n_workers,
                "live_jobs": len(self._live),
                "retained_jobs": len(self._finished),
                "retained_bytes": self._finished_bytes,
                "warm_executors": sum(map(bool, self._warm)),
                "overload": self.overload_level(),
                "draining": self._draining,
                "counters": dict(self.counters),
                "plan_cache": self.plans.stats(),
                "replay": dict(self.replay_info),
            }
        # outside the core lock: the registry and ledger have their own
        metrics = self.metrics.to_dict()
        base["metrics"] = metrics
        base["latency"] = {
            name: metrics.get("quantiles", {}).get(name)
            for name in ("serve.queue_wait_s", "serve.service_s",
                         "serve.latency_s")
            if metrics.get("quantiles", {}).get(name)
        }
        base["tenants"] = self.ledger.per_tenant()
        base["ledger_totals"] = self.ledger.totals()
        base["ledger_mismatches"] = self.ledger_reconciliation()
        return base

    # ------------------------------------------------------------------
    # scheduling policy
    # ------------------------------------------------------------------
    def overload_level(self) -> str:
        depth = len(self.queue)
        if depth >= self.queue.capacity:
            return RED
        if depth >= self.degrade_at * self.queue.capacity:
            return AMBER
        return GREEN

    def _maybe_preempt(self, new_priority: int) -> None:
        """Ask the worst-priority running job to yield to better queued work."""
        with self._lock:
            if self._busy < self.n_workers:
                return  # an idle worker will pick the new job up directly
            victim: _JobContext | None = None
            for ctx in self._live.values():
                r = ctx.record
                if r.status != "running" or ctx.preempt:
                    continue
                if r.spec.priority > new_priority and (
                    victim is None
                    or r.spec.priority > victim.record.spec.priority
                ):
                    victim = ctx
            # the victim's way back to the queue is held, never overfills it
            if victim is not None and self.queue.hold():
                victim.preempt = True

    def _mark_shed(self, jid: str, reason: str) -> None:
        with self._lock:
            ctx = self._live.get(jid)
        if ctx is None:
            return
        self._finish(ctx, "shed", reason)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        # the executor of this worker's last job, handed back to build
        # while the signature repeats: a reused Blocking35D keeps its run
        # buffers, round runners and tile contexts.  It never runs on
        # another worker: the runners' scratch planes live on the
        # executor and the stepwise path's on its kernel's ScratchArena,
        # and two workers running one executor would race on both
        warm: dict = {}
        with self._lock:
            self._warm.append(warm)
        while not self._stopping:
            jid = self.queue.pop(timeout=0.05)
            if jid is None:
                continue
            with self._lock:
                ctx = self._live.get(jid)
                if ctx is None:
                    continue
                self._busy += 1
            try:
                self._run_job(ctx, warm)
            except Exception as exc:  # a worker must never die silently
                self._finish(
                    ctx, "failed",
                    f"internal error: {type(exc).__name__}: {exc}",
                )
            finally:
                with self._lock:
                    self._busy -= 1
                self._note_queue_depth()

    def _checkpoint_store(self, jid: str) -> CheckpointStore:
        return CheckpointStore(self.state_dir / "checkpoints" / f"{jid}.npz")

    def _run_job(self, ctx: _JobContext, warm: dict) -> None:
        record = ctx.record
        spec = record.spec
        resumed = ctx.state is not None
        picked_ns = time.time_ns()
        if ctx.enqueued_ns:
            self._observe_q(
                "serve.queue_wait_s", (picked_ns - ctx.enqueued_ns) / 1e9
            )
            if ctx.trace is not None:
                ctx.trace.add(
                    "job_queue_wait", ctx.enqueued_ns, picked_ns,
                    resumed=resumed,
                )
            ctx.enqueued_ns = 0
        with self._lock:
            record.status = "running"
            if record.started_s is None:
                record.started_s = self._clock()
        self.journal.append(
            "resumed" if resumed else "started",
            id=record.id, done=record.done_steps, durable=False,
        )
        if FAULTS.should("serve.deadline", detail=spec.tenant):
            ctx.deadline_at = self._clock() - 1.0  # storm: already expired
        degraded_reasons: list[str] = []
        run = ctx.run
        integrity = run.integrity
        if integrity != "off" and self.overload_level() != GREEN:
            # degrade before shedding: under amber the job runs unverified
            # and completes degraded-but-correct
            degraded_reasons.append(
                f"overload: verification shed: integrity tier {integrity} "
                f"shed (grid {self.overload_level()})"
            )
            self.counters["sdc_shed"] += 1
            self._inc("serve.sdc_shed")
            integrity = "off"
            run = dataclasses.replace(run, integrity=integrity)
        try:
            field = ctx.state if ctx.state is not None else make_field(spec)
            bound = self.plans.get(spec, field, run)
            record.backend_used = bound.used
            degraded_reasons = [str(d) for d in bound.degradations] + \
                degraded_reasons
            key = spec.signature()
            sweep = build(
                run, field=field, bound=bound, executor=warm.get(key),
                sweep=_JobSweep, validated=True, core=self, ctx=ctx,
                meta={"id": record.id},
            )
            if key not in warm:
                warm.clear()
                warm[key] = sweep.executor
        except (ValueError, ResilienceError) as exc:
            self._finish(
                ctx, "failed", f"cannot bind job: {type(exc).__name__}: {exc}"
            )
            return
        run_t0_ns = time.time_ns()
        try:
            with TRACE.span(
                "serve_job", id=record.id, kernel=spec.kernel, grid=spec.grid,
                tenant=spec.tenant, priority=spec.priority,
            ):
                out = sweep.run(field, spec.steps - record.done_steps)
        except SweepInterruptedError as exc:
            self._stopped(ctx, sweep.reason, exc.state)
            return
        except SdcError as exc:
            self._finish(
                ctx, "failed", f"integrity: {type(exc).__name__}: {exc}"
            )
            return
        finally:
            if ctx.trace is not None:
                ctx.trace.add(
                    "job_run", run_t0_ns, time.time_ns(),
                    done=record.done_steps, status=record.status,
                    backend=record.backend_used,
                )
            sdc = sweep.report.sdc
            if sdc is not None:  # the job's totals; its guard writes METRICS
                for key, amount in zip(_SDC_COUNTERS, (
                    sdc.checks, sdc.detections, sdc.heals, sdc.replayed_cells,
                )):
                    if amount:
                        self.metrics.inc(key, amount)
        if sdc is not None and sdc.degraded:
            degraded_reasons.append(
                f"sdc: {sdc.detections} detection(s), "
                f"{sdc.heals} healed surgically (tier {integrity})"
            )
        ctx.state = None
        status = "degraded" if degraded_reasons else "done"
        with self._lock:
            record.sha256 = data_digest(out.data)
            record.degradations = degraded_reasons
        self._finish(ctx, status, "")

    def _stopped(self, ctx: _JobContext, reason: str, state: Field3D) -> None:
        """A job the round loop stopped: killed, cancelled, expired or
        preempted (the only reason that checkpointed; it requeues)."""
        record, spec = ctx.record, ctx.record.spec
        progress = f"{record.done_steps}/{spec.steps} steps"
        if reason == "kill":
            return  # lost with the process; the journal decides
        if reason == "cancel":
            self._finish(ctx, "cancelled", f"{ctx.cancel} after {progress}")
        elif reason == "deadline":
            self.counters["deadline_misses"] += 1
            self._inc("serve.deadline_misses")
            self._finish(ctx, "failed", f"deadline exceeded after {progress}")
        if reason != "preempt":
            return
        ctx.state = state
        with self._lock:
            ctx.preempt = False  # its held slot is taken by the push below
            record.status = "queued"
            record.preemptions += 1
        self.counters["preemptions"] += 1
        self._inc("serve.preemptions")
        self.ledger.count(spec.tenant, "preempted")
        self.journal.append(
            "requeued", id=record.id, done=record.done_steps, durable=False,
        )
        ctx.enqueued_ns = time.time_ns()
        self.queue.push(record.id, spec.priority, held=True)

    def _finish(self, ctx: _JobContext, status: str, reason: str) -> None:
        record = ctx.record
        key = {
            "done": "completed", "degraded": "degraded", "failed": "failed",
            "cancelled": "cancelled", "shed": "shed",
        }.get(status)
        with self._lock:
            if ctx.finishing:
                return
            ctx.finishing = True
            finished_s = self._clock()
        if key:  # counted before anyone can see the terminal record
            self.counters[key] += 1
            self._inc(f"serve.{key}")
            self.ledger.count(record.spec.tenant, key)
        with self._lock:
            record.status = status
            record.reason = reason
            record.finished_s = finished_s
            held, ctx.preempt = ctx.preempt, False
        # packed outside the core lock; until then the terminal record
        # stays answerable from the live index
        self._retain(record, ctx.trace)
        if held:  # asked to yield, it finished first: free its way back
            self.queue.release()
        if ctx.owns_checkpoint:  # a finished job keeps no checkpoint file
            self._checkpoint_store(record.id).clear()
            ctx.owns_checkpoint = False
        self.journal.append(
            "done" if status in ("done", "degraded", "failed") else status,
            id=record.id, status=status, reason=reason, sha256=record.sha256,
            backend=record.backend_used, code=record.code,
        )
        if record.started_s is not None and record.finished_s is not None:
            self._observe_q(
                "serve.service_s", max(0.0, record.finished_s - record.started_s)
            )
        if record.finished_s is not None:
            self._observe_q(
                "serve.latency_s",
                max(0.0, record.finished_s - record.submitted_s),
            )


class _JobSweep(GuardedSweep):
    """GuardedSweep's round loop as one serve job runs it.

    The job meters the executor's opened step (one round, charged to the
    tenant) and brings its stop reasons and its checkpoint file: the sweep
    is its own ``stop`` and ``checkpoint``.  A stop records its
    :attr:`reason`, ``kill``, ``cancel``, ``deadline`` or ``preempt``; only
    a preempt checkpoints.  The rest of the run policy comes from the job's
    :class:`~repro.runspec.RunSpec` through :func:`~repro.runspec.build`:
    health off, no retries, the job's integrity tier.
    """

    def __init__(self, executor, *, core: ServeCore, ctx: _JobContext,
                 **guard) -> None:
        super().__init__(executor, **guard)
        self.core, self.ctx = core, ctx
        self.reason: str | None = None
        self.stop = self.checkpoint = self

    def is_set(self) -> bool:
        core, ctx = self.core, self.ctx
        if core._hard_kill:
            self.reason = "kill"
        elif ctx.cancel:
            self.reason = "cancel"
        elif ctx.deadline_at is not None and core._clock() > ctx.deadline_at:
            self.reason = "deadline"
        elif ctx.preempt:
            self.reason = "preempt"
        return self.reason is not None

    def save(self, data: np.ndarray, step: int, meta: dict) -> None:
        # ``step`` counts from this run's start; the file keeps the job's
        if self.reason in (None, "preempt"):
            record = self.ctx.record
            self.core._checkpoint_store(record.id).save(
                data, record.done_steps, meta
            )
            self.ctx.owns_checkpoint = True

    def _open(self, state):
        state, step, close = super()._open(state)
        return state, functools.partial(self._round, step), close

    def _round(self, step, state, round_t: int, traffic=None):
        """One step of the executor's opened run, metered: modeled
        traffic and worker cpu time, charged to the tenant."""
        ctx = self.ctx
        record = ctx.record
        if FAULTS.should("serve.stall"):
            time.sleep(self.core.stall_s)
        traffic = TrafficStats()
        cpu_t0 = time.perf_counter_ns()
        round_w0 = time.time_ns()
        out = step(state, round_t, traffic)
        cpu_ns = time.perf_counter_ns() - cpu_t0
        record.done_steps += round_t
        if ctx.trace is not None:
            ctx.trace.add(
                "job_round", round_w0, time.time_ns(), steps=round_t,
                done=record.done_steps, updates=traffic.updates,
            )
        self.core._charge(
            record.spec.tenant, site_updates=traffic.updates,
            bytes_read=traffic.bytes_read, bytes_written=traffic.bytes_written,
            cpu_ns=cpu_ns,
        )
        return out

    def _integrity(self, hook, *args):
        """One guard hook, metered: cpu to the tenant's verify_cpu_ns, wall
        span to the job trace."""
        ctx, r = self.ctx, self.sdc.report
        t0, w0, heals = time.perf_counter_ns(), time.time_ns(), r.heals
        try:
            return hook(*args)
        finally:
            self.core._charge(ctx.record.spec.tenant,
                              verify_cpu_ns=time.perf_counter_ns() - t0)
            if ctx.trace is not None:
                w1 = time.time_ns()
                ctx.trace.add("sdc_check", w0, w1, tier=self.sdc.tier,
                              detections=r.detections)
                if r.heals > heals:
                    ctx.trace.add("sdc_heal", w0, w1, heals=r.heals - heals,
                                  replayed_cells=r.replayed_cells)


class JobServer:
    """Unix-socket front-end: newline-JSON requests dispatched onto a core.

    Connections are served on reused handler threads.  The accept loop
    hands each socket to an idle handler and starts a new one only when
    none is idle, so an open idle connection never blocks another client,
    while a steady request stream pays no thread start.  A handler that
    finishes a connection with ``IDLE_HANDLERS`` already idle exits.
    Starts and reuses count in the core's ``serve.handlers_started`` /
    ``serve.handlers_reused`` counters, idle ones in the
    ``serve.handlers_idle`` gauge.
    """

    def __init__(self, core: ServeCore, socket_path: str) -> None:
        self.core = core
        self.socket_path = Path(socket_path)
        self._listener: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._closing = False
        #: sockets handed to idle handlers; ``None`` tells one to exit
        self._handoff: queue.SimpleQueue = queue.SimpleQueue()
        #: guards the idle count, the handler set and the open sockets
        self._pool_lock = threading.Lock()
        self._idle = 0
        self._handlers: set[threading.Thread] = set()
        self._open: set[socket.socket] = set()

    def start(self) -> None:
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(str(self.socket_path))
        self._listener.listen(64)
        self._thread = threading.Thread(
            target=self._accept_loop, name="serve-listener", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop listening and end every handler.  A request already read
        is still answered; an open connection then reads end-of-file."""
        self._closing = True
        if self._listener is not None:
            _shutdown(self._listener, socket.SHUT_RDWR)  # wakes accept()
            try:
                self._listener.close()
            except OSError:
                pass
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        with self._pool_lock:
            for _ in range(self._idle):
                self._handoff.put(None)
            self._idle = 0
            for conn in self._open:
                _shutdown(conn, socket.SHUT_RD)
            handlers = list(self._handlers)
        for t in handlers:
            t.join(timeout=2.0)

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            # counted before the hand-off, so a client that has its reply
            # sees its own connection counted
            with self._pool_lock:
                if self._idle:
                    self._idle -= 1
                    self._note_idle()
                    self.core._inc("serve.handlers_reused")
                    self._handoff.put(conn)
                    continue
                t = threading.Thread(
                    target=self._handler_loop, args=(conn,),
                    name="serve-handler", daemon=True,
                )
                self._handlers.add(t)
            self.core._inc("serve.handlers_started")
            t.start()

    def _handler_loop(self, conn: socket.socket | None) -> None:
        try:
            while conn is not None:
                self._handle(conn)
                with self._pool_lock:
                    if self._closing or self._idle >= IDLE_HANDLERS:
                        return
                    self._idle += 1
                    self._note_idle()
                conn = self._handoff.get()
        finally:
            with self._pool_lock:
                self._handlers.discard(threading.current_thread())

    def _note_idle(self) -> None:
        """Publish the idle-handler count (caller holds the pool lock)."""
        self.core.metrics.set_gauge("serve.handlers_idle", self._idle)
        METRICS.set_gauge("serve.handlers_idle", self._idle)

    def _handle(self, conn: socket.socket) -> None:
        with self._pool_lock:
            self._open.add(conn)
            if self._closing:
                _shutdown(conn, socket.SHUT_RD)
        fh = conn.makefile("rwb")
        try:
            while True:
                try:
                    msg = read_message(fh)
                except ValueError as exc:
                    write_message(
                        fh, {"ok": False, "error": "bad-request",
                             "reason": str(exc)}
                    )
                    return
                if msg is None:
                    return
                if msg.get("op") == "jobs":
                    self.core.write_jobs(fh)  # streamed, never one string
                else:
                    write_message(fh, self.dispatch(msg))
        except (OSError, BrokenPipeError):
            pass
        finally:
            with self._pool_lock:
                self._open.discard(conn)
            try:
                fh.close()
                conn.close()
            except OSError:
                pass

    def dispatch(self, msg: dict) -> dict:
        op = msg.get("op")
        core = self.core
        if op == "ping":
            return {"ok": True, "version": PROTOCOL_VERSION}
        if op == "submit":
            return core.submit(msg.get("job") or {})
        if op in ("status", "result"):
            jid = str(msg.get("id", ""))
            doc = core.status_doc(jid)
            if doc is None:
                return {"ok": False, "error": "not-found",
                        "reason": core.missing_reason(jid)}
            reply = {"ok": True, "job": doc}
            if msg.get("spans"):
                reply["spans"] = core.spans(jid) or []
            return reply
        if op == "jobs":
            return {"ok": True,
                    "jobs": [json.loads(d) for d in core.job_docs()]}
        if op == "stats":
            st = core.stats()
            reply = {"ok": True, "stats": st}
            if msg.get("prom"):
                reply["prom"] = prometheus_exposition(st["metrics"])
            return reply
        if op == "cancel":
            return core.cancel(str(msg.get("id", "")))
        if op == "drain":
            threading.Thread(
                target=core.drain, kwargs={"timeout": msg.get("timeout", 60.0)},
                daemon=True,
            ).start()
            return {"ok": True, "draining": True}
        return {"ok": False, "error": "unknown-op",
                "reason": f"unknown op {op!r}"}


def _shutdown(sock: socket.socket, how: int) -> None:
    try:
        sock.shutdown(how)
    except OSError:
        pass
