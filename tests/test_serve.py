"""Tests for the serve daemon: admission, journal, lifecycle, wire protocol.

The serving layer's claims are behavioral, so the tests are scenario
driven: overload sheds with reasons (never hangs or grows unbounded),
deadlines and cancellation land at round boundaries with consistent
state, preemption and crash recovery resume bit-exactly, SIGTERM-style
drain loses zero accepted jobs, and a torn journal record — at *every*
byte boundary — is quarantined, never trusted and never fatal.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core import run_naive
from repro.resilience import FAULTS
from repro.serve import (
    AdmissionController,
    BoundedPriorityQueue,
    JobJournal,
    JobRecord,
    JobServer,
    JobSpec,
    ServeClient,
    ServeCore,
    ServeUnavailable,
    TokenBucket,
)
from repro.resilience import data_digest
from repro.serve.journal import _crc as _journal_crc
from repro.serve.server import make_field, make_kernel


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


def wait_terminal(core: ServeCore, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(r.terminal for r in core.jobs()):
            return
        time.sleep(0.01)
    raise AssertionError(
        f"jobs never drained: {[(r.id, r.status) for r in core.jobs()]}"
    )


def wait_for(predicate, timeout: float = 30.0) -> None:
    """Poll until ``predicate()`` holds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never held")
        time.sleep(0.002)


#: every job stalls at each round boundary while this is armed, so a job
#: is still running when a cancel or preempt arrives, however fast its
#: rounds are
HOLD = "serve.stall:*"


def reference_sha(spec: JobSpec) -> str:
    out = run_naive(make_kernel(spec), make_field(spec), spec.steps)
    return data_digest(out.data)


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: clock[0])
        assert [bucket.try_take() for _ in range(4)] == [
            True, True, True, False,
        ]
        clock[0] = 1.0  # 2 tokens refilled
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=lambda: clock[0])
        clock[0] = 60.0
        assert bucket.available() == pytest.approx(2.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)


class TestBoundedPriorityQueue:
    def test_priority_then_fifo_order(self):
        q = BoundedPriorityQueue(8)
        q.push("low", 5)
        q.push("hi-a", 1)
        q.push("hi-b", 1)
        assert [q.pop(0) for _ in range(3)] == ["hi-a", "hi-b", "low"]

    def test_capacity_is_hard(self):
        q = BoundedPriorityQueue(1)
        q.push("a", 1)
        with pytest.raises(OverflowError):
            q.push("b", 1)

    def test_force_push_bypasses_cap_for_requeues(self):
        q = BoundedPriorityQueue(1)
        q.push("a", 1)
        q.push("requeued", 0, force=True)  # an accepted job is never lost
        assert len(q) == 2
        assert q.pop(0) == "requeued"

    def test_held_slot_counts_as_taken_until_pushed(self):
        q = BoundedPriorityQueue(2)
        assert q.hold()  # a job on its way in
        q.push("a", 1)
        assert q.full() and not q.hold()
        with pytest.raises(OverflowError):
            q.push("b", 1)
        q.push("held", 0, held=True)  # the holder still gets its slot
        assert len(q) == 2 and q.pop(0) == "held"
        assert q.hold()
        q.release()
        assert not q.full()

    def test_shed_lowest_and_pop_timeout(self):
        q = BoundedPriorityQueue(4)
        q.push("a", 1)
        q.push("b", 9)
        assert q.shed_lowest() == "b"
        assert q.pop(0) == "a"
        assert q.pop(timeout=0.01) is None  # bounded wait, no hang

    def test_remove_predicate(self):
        q = BoundedPriorityQueue(4)
        q.push("a", 1)
        q.push("b", 2)
        assert q.remove(lambda item: item == "a") == ["a"]
        assert q.snapshot() == ["b"]


class TestAdmission:
    def _record(self, **kw):
        return JobRecord(id="x", spec=JobSpec(**kw), submitted_s=0.0)

    def test_rejects_with_stable_reasons(self):
        clock = [0.0]
        ctrl = AdmissionController(
            rate=1.0, burst=1.0, tenant_quota=1, clock=lambda: clock[0]
        )
        q = BoundedPriorityQueue(2)
        d = ctrl.admit(self._record(), q, 0, draining=True)
        assert not d.ok and "draining" in d.reason
        d = ctrl.admit(self._record(grid=1), q, 0)
        assert not d.ok and "invalid job" in d.reason
        d = ctrl.admit(self._record(), q, 5)
        assert not d.ok and "tenant quota exceeded" in d.reason
        assert ctrl.admit(self._record(), q, 0).ok
        d = ctrl.admit(self._record(), q, 0)
        assert not d.ok and "rate limit exceeded" in d.reason

    def test_full_queue_displaces_strictly_better_only(self):
        ctrl = AdmissionController(rate=100.0, burst=100.0)
        q = BoundedPriorityQueue(1)
        q.push("victim", 5)
        d = ctrl.admit(self._record(priority=5), q, 0)  # equal: no shed
        assert not d.ok and "queue full" in d.reason
        d = ctrl.admit(self._record(priority=1), q, 0)
        assert d.ok and d.shed == "victim"


class TestJournal:
    def test_roundtrip_and_seq_continuity(self, tmp_path):
        j = JobJournal(tmp_path / "j.jsonl", fsync=False)
        j.append("accepted", id="j1")
        j.append("done", id="j1", status="done")
        j.close()
        j2 = JobJournal(tmp_path / "j.jsonl", fsync=False)
        replay = j2.replay()
        assert [r["ev"] for r in replay.records] == ["accepted", "done"]
        assert replay.quarantined_records == 0
        rec = j2.append("accepted", id="j2")
        assert rec["seq"] == 3  # continues past the replayed records

    def test_torn_tail_at_every_byte_boundary(self, tmp_path):
        """Truncate the last record at every byte: always quarantined."""
        path = tmp_path / "j.jsonl"
        j = JobJournal(path, fsync=False)
        j.append("accepted", id="j1", job={"grid": 16})
        j.append("done", id="j1", status="done", sha256="ab" * 32)
        j.close()
        raw = path.read_bytes()
        first_len = raw.find(b"\n") + 1
        for cut in range(first_len, len(raw) - 1):
            path.write_bytes(raw[:cut])
            (path.with_name(path.name + ".corrupt")).unlink(missing_ok=True)
            replay = JobJournal(path, fsync=False).replay()
            assert [r["ev"] for r in replay.records] == ["accepted"], (
                f"cut at byte {cut} leaked a partial record"
            )
            if cut > first_len:
                assert replay.quarantined_records == 1
                assert replay.truncated_tail
            # quarantine-and-continue: the journal is compacted to the
            # good prefix and appending afterwards works
            j3 = JobJournal(path, fsync=False)
            j3.replay()
            j3.append("recovered", id="j1")
            j3.close()
            assert len(
                JobJournal(path, fsync=False).replay().records
            ) == (2 if cut > first_len else 2)

    def test_midfile_damage_quarantined_once(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = JobJournal(path, fsync=False)
        for i in range(3):
            j.append("accepted", id=f"j{i}")
        j.close()
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"seq": 2, "ev": "accepted", "crc": 1}\n'  # bad crc
        path.write_bytes(b"".join(lines))
        replay = JobJournal(path, fsync=False).replay()
        assert replay.quarantined_records == 1
        assert len(replay.records) == 2
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.exists()
        # the file was compacted: a second replay finds nothing to do
        replay2 = JobJournal(path, fsync=False).replay()
        assert replay2.quarantined_records == 0
        assert len(replay2.records) == 2

    def test_tear_fault_fires_but_never_on_accepted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = JobJournal(path, fsync=False)
        with FAULTS.injected("serve.journal:*"):
            j.append("accepted", id="j1")  # commit point: exempt
            j.append("done", id="j1")  # torn
        j.close()
        replay = JobJournal(path, fsync=False).replay()
        assert [r["ev"] for r in replay.records] == ["accepted"]
        assert replay.truncated_tail

    def test_concurrent_appends_keep_seq_in_file_order(self, tmp_path):
        import sys

        path = tmp_path / "j.jsonl"
        j = JobJournal(path, fsync=False)

        def write(tag):
            for i in range(20_000):
                j.append("started", id=f"{tag}{i}", durable=False)

        threads = [threading.Thread(target=write, args=(t,)) for t in "ab"]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        j.close()
        seqs = [json.loads(line)["seq"]
                for line in path.read_bytes().splitlines()]
        assert seqs == list(range(1, 40_001))

    def test_records_written_in_sorted_key_form_still_replay(self, tmp_path):
        """A line carries its crc after the canonical body; a journal whose
        lines put ``crc`` in sorted-key position replays the same."""
        path = tmp_path / "j.jsonl"
        j = JobJournal(path, fsync=False)
        written = j.append("accepted", id="j1", job={"grid": 12, "seed": 3})
        j.close()
        line = path.read_bytes()
        assert line.endswith(b',"crc":%d}\n' % written["crc"])
        second = {**written, "seq": 2}
        second["crc"] = _journal_crc(second)
        sorted_form = json.dumps(second, sort_keys=True,
                                 separators=(",", ":")).encode() + b"\n"
        assert sorted_form.index(b'"crc"') < sorted_form.index(b'"ev"')
        path.write_bytes(line + sorted_form)
        replay = JobJournal(path, fsync=False).replay()
        assert replay.quarantined_records == 0
        assert replay.records == [written, second]


class TestServeCore:
    def test_completes_bit_exact_with_warm_plans(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=2, fsync=False)
        core.start()
        spec = JobSpec(grid=12, steps=6, dim_t=2, tile=8)
        ids = [core.submit(spec.to_dict())["id"] for _ in range(3)]
        wait_terminal(core)
        ref = reference_sha(spec)
        for jid in ids:
            record = core.status(jid)
            assert record.status == "done" and record.code == 0
            assert record.sha256 == ref
        assert core.plans.stats()["hits"] >= 1
        assert core.drain()

    def test_invalid_and_rate_limited_submits_rejected(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=1, rate=0.001, burst=1.0,
                         fsync=False)
        core.start()
        bad = core.submit({"grid": 2})
        assert not bad["ok"] and "invalid job" in bad["reason"]
        assert core.submit(JobSpec(grid=8, steps=1).to_dict())["ok"]
        limited = core.submit(JobSpec(grid=8, steps=1).to_dict())
        assert not limited["ok"] and "rate limit" in limited["reason"]
        wait_terminal(core)
        assert core.drain()

    def test_unknown_backend_rejected_at_admission(self, tmp_path):
        assert "unknown backend 'bogus'" in JobSpec(backend="bogus").validate()
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        try:
            for name in ("bogus", "fused-numba"):
                reply = core.submit(JobSpec(grid=8, steps=1, backend=name).to_dict())
                assert not reply["ok"] and reply["error"] == "rejected"
                assert reply["reason"].startswith("invalid job: unknown backend")
            assert core.counters["rejected"] == 2
            assert core.counters["accepted"] == 0
        finally:
            assert core.drain()
        journal = (tmp_path / "s" / "journal.jsonl").read_text()
        assert '"ev":"accepted"' not in journal

    def test_deadline_storm_fails_with_reason(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        with FAULTS.injected("serve.deadline"):
            jid = core.submit(
                JobSpec(grid=12, steps=4, deadline_s=60.0).to_dict()
            )["id"]
            wait_terminal(core)
        record = core.status(jid)
        assert record.status == "failed" and record.code == 4
        assert "deadline exceeded" in record.reason
        assert core.counters["deadline_misses"] == 1
        assert core.drain()

    def test_cancel_queued_and_running(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        with FAULTS.injected(HOLD):
            running = core.submit(JobSpec(grid=16, steps=400, dim_t=2,
                                          verify=False).to_dict())["id"]
            queued = core.submit(JobSpec(grid=16, steps=400, dim_t=2, seed=1,
                                         verify=False).to_dict())["id"]
            wait_for(lambda: core.status(running).done_steps > 0)
            assert core.cancel(queued)["status"] == "cancelled"
            core.cancel(running)
            wait_terminal(core)
        rec = core.status(running)
        assert rec.status == "cancelled" and "cancelled by client" in rec.reason
        assert 0 < rec.done_steps < 400  # stopped at a round boundary
        assert core.drain()

    def test_overload_displaces_lowest_priority_with_reason(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=1, queue_cap=2, fsync=False)
        core.start()
        # block the single worker with a long job, then fill the queue
        blocker = core.submit(JobSpec(grid=16, steps=2000, priority=0,
                                      verify=False).to_dict())["id"]
        time.sleep(0.05)
        low = [core.submit(JobSpec(grid=10, steps=2, priority=7, seed=s,
                                   verify=False).to_dict())["id"]
               for s in range(2)]
        reject = core.submit(
            JobSpec(grid=10, steps=2, priority=7, seed=9).to_dict()
        )
        assert not reject["ok"] and "queue full" in reject["reason"]
        better = core.submit(
            JobSpec(grid=10, steps=2, priority=1, verify=False).to_dict()
        )
        assert better["ok"] and better["shed"] in low
        shed = core.status(better["shed"])
        assert shed.status == "shed" and shed.code == 2
        assert "displaced by a higher-priority job" in shed.reason
        core.cancel(blocker)
        wait_terminal(core)
        assert core.drain()

    def test_amber_overload_sheds_verification_as_degraded(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=1, queue_cap=2,
                         degrade_at=0.0, fsync=False)
        core.start()  # degrade_at=0: any queue depth counts as amber
        jid = core.submit(JobSpec(grid=12, steps=4).to_dict())["id"]
        core.submit(JobSpec(grid=12, steps=4, seed=1).to_dict())
        wait_terminal(core)
        record = core.status(jid)
        assert record.status == "degraded" and record.code == 3
        assert any("verification shed" in d for d in record.degradations)
        assert record.sha256 == reference_sha(record.spec)  # still correct
        assert core.drain()

    def test_preemption_resumes_bit_exact(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=1, stall_s=0.02,
                         fsync=False)
        core.start()
        spec = JobSpec(grid=16, steps=60, dim_t=2, priority=5, verify=False)
        with FAULTS.injected(HOLD):
            victim = core.submit(spec.to_dict())["id"]
            wait_for(lambda: core.status(victim).status == "running")
            hi = core.submit(JobSpec(grid=10, steps=2, priority=0,
                                     verify=False).to_dict())["id"]
            wait_terminal(core)
        vrec, hrec = core.status(victim), core.status(hi)
        assert hrec.status == "done"
        assert vrec.status == "done"
        assert vrec.preemptions >= 1
        assert vrec.sha256 == reference_sha(spec)  # preempt/resume exact
        assert core.drain()

    def test_preemption_never_overfills_the_queue(self, tmp_path):
        # regression: a preempted job was requeued past the cap, and the
        # next admission pushed into the overfull queue (OverflowError in
        # submit); a victim now yields only into a slot held for it
        core = ServeCore(tmp_path / "s", workers=1, queue_cap=1,
                         stall_s=0.02, fsync=False)
        core.start()
        low = JobSpec(grid=10, steps=40, priority=5, verify=False)
        with FAULTS.injected(HOLD):
            running = core.submit(low.to_dict())["id"]
            wait_for(lambda: core.status(running).status == "running")
            queued = core.submit(low.to_dict())["id"]
            assert len(core.queue) == 1
            hi = core.submit(JobSpec(grid=10, steps=2, priority=0,
                                     verify=False).to_dict())
            assert hi["ok"] and hi["shed"] == queued
            depths = []
            for _ in range(20):
                depths.append(len(core.queue))
                time.sleep(0.005)
        wait_terminal(core)
        assert max(depths) <= 1
        assert core.status(running).preemptions == 0  # no room to yield
        assert core.status(running).status == "done"
        assert core.status(hi["id"]).status == "done"
        assert core.drain()

    def test_accept_drop_is_explicit_and_retryable(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        with FAULTS.injected("serve.accept"):
            reply = core.submit(JobSpec(grid=10, steps=2).to_dict())
        assert not reply["ok"] and reply["error"] == "dropped"
        assert "safe to retry" in reply["reason"]
        assert core.counters["dropped"] == 1
        # nothing journaled, so a restart sees no ghost job
        retry = core.submit(JobSpec(grid=10, steps=2).to_dict())
        assert retry["ok"]
        wait_terminal(core)
        assert core.drain()

    def test_drain_zero_accepted_job_loss(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=2, fsync=False)
        core.start()
        ids = [
            core.submit(JobSpec(grid=12, steps=8, seed=s,
                                verify=False).to_dict())["id"]
            for s in range(6)
        ]
        assert core.drain(timeout=60.0)  # True == every accepted job terminal
        for jid in ids:
            assert core.status(jid).terminal
        refused = core.submit(JobSpec(grid=10, steps=2).to_dict())
        assert not refused["ok"] and "draining" in refused["reason"]

    def test_kill_recovers_from_journal_and_checkpoint(self, tmp_path):
        state = tmp_path / "s"
        core = ServeCore(state, workers=1, checkpoint_every_rounds=1,
                         fsync=False)
        core.start()
        spec = JobSpec(grid=16, steps=240, dim_t=2, verify=False)
        with FAULTS.injected(HOLD):  # still running at the kill
            jid = core.submit(spec.to_dict())["id"]
            done_id = core.submit(JobSpec(grid=10, steps=2, priority=0,
                                          verify=False).to_dict())["id"]
            # let rounds and checkpoints happen
            wait_for(lambda: core.status(jid).done_steps >= 4)
            core.kill()  # SIGKILL stand-in: no terminal records written

        core2 = ServeCore(state, workers=1, fsync=False)
        core2.start()
        assert core2.counters["recovered"] >= 1
        wait_terminal(core2, timeout=60.0)
        rec = core2.status(jid)
        assert rec.status == "done"
        assert rec.sha256 == reference_sha(spec)  # crash/resume bit-exact
        # the short job either finished pre-kill (replayed as done) or
        # re-ran; both are terminal, neither is lost
        assert core2.status(done_id).terminal
        assert core2.drain()


class TestLbmJobs:
    """Serve runs every kernel a RunSpec names; admission bounds a job by
    the bytes of its grid, not the grid edge alone."""

    def test_admission_bounds_the_grid_bytes(self):
        from repro.serve.protocol import MAX_GRID

        # the largest one-component jobs stay served
        assert JobSpec(grid=MAX_GRID, precision="dp").validate() is None
        # an LBM cell carries 19 components
        assert JobSpec(kernel="lbm", grid=241).validate() is None
        for grid, precision in ((242, "sp"), (192, "dp"), (MAX_GRID, "sp")):
            reason = JobSpec(kernel="lbm", grid=grid,
                             precision=precision).validate()
            assert reason and "above the served maximum" in reason

    def test_an_oversized_lbm_job_is_refused_and_never_journaled(
        self, tmp_path
    ):
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        reply = core.submit(JobSpec(kernel="lbm", grid=512).to_dict())
        assert not reply["ok"] and "invalid job" in reply["reason"]
        assert core.counters["accepted"] == 0
        assert core.drain()
        records = JobJournal(tmp_path / "s" / "journal.jsonl").replay().records
        assert not [r for r in records if r.get("ev") == "accepted"]

    def test_lbm_jobs_match_the_oracle_and_survive_a_restart(self, tmp_path):
        state = tmp_path / "s"
        core = ServeCore(state, workers=1, checkpoint_every_rounds=1,
                         fsync=False)
        core.start()
        verified = JobSpec(kernel="lbm", grid=8, steps=4, tile=6, seed=3)
        jid = core.submit(verified.to_dict())["id"]
        wait_terminal(core)
        assert core.status(jid).status == "done"
        assert core.status(jid).sha256 == reference_sha(verified)
        # a different seed draws a different lattice
        assert reference_sha(verified) != reference_sha(
            JobSpec(kernel="lbm", grid=8, steps=4, tile=6, seed=4))

        long = JobSpec(kernel="lbm", grid=8, steps=200, tile=6, seed=5,
                       verify=False)
        with FAULTS.injected(HOLD):  # still running at the kill
            jid = core.submit(long.to_dict())["id"]
            wait_for(lambda: core.status(jid).done_steps >= 4)
            core.kill()

        core2 = ServeCore(state, workers=1, fsync=False)
        core2.start()
        wait_terminal(core2, timeout=60.0)
        rec = core2.status(jid)
        assert rec.status == "done" and rec.resumes == 1  # from its snapshot
        assert rec.sha256 == reference_sha(long)
        assert core2.drain()


class TestWireProtocol:
    @pytest.fixture()
    def server(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        srv = JobServer(core, tmp_path / "sock")
        srv.start()
        yield srv
        srv.stop()
        core.drain(timeout=10.0)

    def test_end_to_end_submit_wait_jobs(self, server, tmp_path):
        client = ServeClient(tmp_path / "sock")
        assert client.ping()["version"] == 1
        spec = JobSpec(grid=12, steps=4)
        reply = client.submit(spec.to_dict())
        assert reply["ok"]
        job = client.wait(reply["id"], timeout=30.0)["job"]
        assert job["status"] == "done" and job["code"] == 0
        assert job["sha256"] == reference_sha(spec)
        listing = client.jobs()["jobs"]
        assert [j["id"] for j in listing] == [reply["id"]]
        stats = client.stats()["stats"]
        assert stats["counters"]["accepted"] == 1

    def test_unknown_op_and_missing_job(self, server, tmp_path):
        client = ServeClient(tmp_path / "sock")
        bad = client.request("frobnicate")
        assert not bad["ok"] and "unknown op" in bad["reason"]
        lost = client.status("j999999")
        assert not lost["ok"] and lost["error"] == "not-found"

    def test_daemon_gone_is_typed(self, tmp_path):
        client = ServeClient(tmp_path / "nowhere.sock", timeout=1.0)
        with pytest.raises(ServeUnavailable, match="repro serve"):
            client.ping()


class TestAcceptanceCommit:
    """A job is dispatched when its ``accepted`` record is written and
    acknowledged only once that record is fsynced."""

    @staticmethod
    def _journal_fsync(core, monkeypatch, on_accept):
        """Route the journal's first fsync (the acceptance commit) through
        ``on_accept(fd, real)``; every other fsync runs as it is."""
        real = os.fsync
        armed = [True]

        def fsync(fd):
            fh = core.journal._fh
            if armed[0] and fh is not None and fd == fh.fileno():
                armed[0] = False
                return on_accept(fd, real)
            return real(fd)

        monkeypatch.setattr(os, "fsync", fsync)

    def test_reply_follows_the_fsync_and_the_job_runs_during_it(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.server as server

        core = ServeCore(tmp_path / "s", workers=1)
        core.start()
        srv = JobServer(core, tmp_path / "sock")
        srv.start()
        events = []

        def on_accept(fd, real):
            events.append("fsync-start")
            # hold the commit until the worker has run the job to the end
            deadline = time.monotonic() + 10.0
            while not any(r.terminal for r in core.jobs()):
                if time.monotonic() > deadline:
                    break
                time.sleep(0.002)
            else:
                events.append("job-done")
            real(fd)
            events.append("fsync-end")

        self._journal_fsync(core, monkeypatch, on_accept)
        reply_write = server.write_message

        def write_message(fh, obj):
            events.append("reply")
            reply_write(fh, obj)

        monkeypatch.setattr(server, "write_message", write_message)
        spec = JobSpec(grid=8, steps=2, verify=False)
        try:
            reply = ServeClient(tmp_path / "sock", timeout=20.0).submit(
                spec.to_dict())
        finally:
            srv.stop()
        assert reply["ok"]
        assert events == ["fsync-start", "job-done", "fsync-end", "reply"]
        # the reply reads the record after the fsync: the job already ran
        assert reply["status"] == "done"
        assert core.status(reply["id"]).sha256 == reference_sha(spec)
        assert core.drain()
        evs = [r["ev"] for r in JobJournal(tmp_path / "s" / "journal.jsonl")
               .replay().records if r.get("id") == reply["id"]]
        assert evs == ["accepted", "started", "done"]

    @pytest.mark.parametrize("stage", ["write", "fsync"])
    def test_failed_commit_answers_an_error_and_leaks_nothing(
        self, tmp_path, monkeypatch, stage
    ):
        core = ServeCore(tmp_path / "s", workers=1, queue_cap=2)
        core.start()
        srv = JobServer(core, tmp_path / "sock")  # dispatch only
        if stage == "fsync":
            def on_accept(fd, real):
                raise OSError(5, "Input/output error")

            self._journal_fsync(core, monkeypatch, on_accept)
        else:
            class Unwritable:
                def write(self, data):
                    raise OSError(28, "No space left on device")

            monkeypatch.setattr(core.journal, "_open", lambda: Unwritable())
        spec = JobSpec(grid=8, steps=2, verify=False).to_dict()
        reply = srv.dispatch({"op": "submit", "job": spec})
        monkeypatch.undo()
        assert not reply["ok"] and reply["error"] == "journal"
        assert "not durable" in reply["reason"]
        wait_for(lambda: not core._live)
        assert core.stats()["live_jobs"] == 0
        lost = core.status(reply["id"])
        if stage == "write":  # never dispatched: nothing to show
            assert lost is None and core.counters["accepted"] == 0
        else:  # dispatched, then stopped (or done before the failure)
            assert lost.status in ("cancelled", "done")
        again = srv.dispatch({"op": "submit", "job": spec})
        assert again["ok"], again
        wait_terminal(core)
        assert core.status(again["id"]).status == "done"
        assert core.drain()
        assert core.queue._held == 0 and len(core.queue) == 0
        assert core.ledger_reconciliation() == []

    def test_kill_during_the_commit_is_a_crash(self, tmp_path, monkeypatch):
        state = tmp_path / "s"
        core = ServeCore(state, workers=1)
        core.start()

        def on_accept(fd, real):
            core.kill()  # closes the journal under the fsync
            raise OSError(9, "Bad file descriptor")

        self._journal_fsync(core, monkeypatch, on_accept)
        spec = JobSpec(grid=8, steps=2, verify=False)
        with pytest.raises(OSError):  # the handler answers nothing
            core.submit(spec.to_dict())
        monkeypatch.undo()
        # the written record is what a restart recovers
        core = ServeCore(state, workers=1)
        core.start()
        wait_terminal(core)
        [record] = core.jobs()
        assert record.status == "done"
        assert record.sha256 == reference_sha(spec)
        assert core.drain()


def _handler_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "serve-handler"]


class TestConnectionHandlers:
    @pytest.fixture()
    def served(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        srv = JobServer(core, tmp_path / "sock")
        srv.start()
        yield core, srv, ServeClient(tmp_path / "sock", timeout=5.0)
        srv.stop()
        core.drain(timeout=10.0)

    @staticmethod
    def _recording(srv):
        """Wrap ``srv.dispatch`` to record the thread of every request."""
        idents = []
        dispatch = srv.dispatch

        def recorded(msg):
            idents.append(threading.get_ident())
            return dispatch(msg)

        srv.dispatch = recorded
        return idents

    def test_sequential_requests_reuse_handlers(self, served):
        import repro.serve.server as server

        core, srv, client = served
        idents = self._recording(srv)
        n = 200
        for i in range(n):
            assert client.status(f"j{i:06d}")["error"] == "not-found"
        counters = core.metrics.to_dict()["counters"]
        started = counters["serve.handlers_started"]
        assert len(set(idents)) <= started <= server.IDLE_HANDLERS
        assert started + counters["serve.handlers_reused"] == n
        assert len(_handler_threads()) <= server.IDLE_HANDLERS

    def test_idle_connection_does_not_delay_a_submit(self, served, tmp_path):
        import socket

        from repro.serve.protocol import read_message, write_message

        core, srv, client = served
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as idle:
            idle.connect(str(tmp_path / "sock"))
            wait_for(lambda: len(srv._open) == 1)  # a handler holds it
            t0 = time.monotonic()
            reply = client.submit(JobSpec(grid=8, steps=2).to_dict())
            assert reply["ok"] and time.monotonic() - t0 < 2.0
            fh = idle.makefile("rwb")
            write_message(fh, {"op": "ping"})  # still served after that
            assert read_message(fh)["ok"]
        assert client.wait(reply["id"])["job"]["status"] == "done"

    def test_persistent_connection_serves_many_requests(
        self, served, tmp_path
    ):
        import socket

        from repro.serve.protocol import read_message, write_message

        core, srv, _ = served
        idents = self._recording(srv)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.connect(str(tmp_path / "sock"))
            fh = conn.makefile("rwb")
            for i in range(100):
                write_message(fh, {"op": "ping"} if i % 2 else
                              {"op": "status", "id": "j000001"})
                assert read_message(fh)["error" if i % 2 == 0 else "ok"]
        assert len(idents) == 100 and len(set(idents)) == 1
        assert core.metrics.counter("serve.handlers_started") == 1

    def test_stop_ends_every_handler(self, tmp_path):
        import socket

        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        srv = JobServer(core, tmp_path / "sock")
        srv.start()
        client = ServeClient(tmp_path / "sock", timeout=5.0)
        for _ in range(10):
            client.ping()
        held = []
        for _ in range(3):  # connections left open and silent
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            conn.connect(str(tmp_path / "sock"))
            held.append(conn)
        wait_for(lambda: len(srv._open) == 3)
        assert _handler_threads()
        t0 = time.monotonic()
        srv.stop()
        assert time.monotonic() - t0 < 2.0
        assert not _handler_threads() and not srv._handlers
        assert not srv._thread.is_alive()
        for conn in held:
            assert conn.recv(1) == b""  # closed by the daemon
            conn.close()
        with pytest.raises(ServeUnavailable):
            client.ping()
        assert core.drain()


class _RecordedStores:
    """Every ``CheckpointStore`` serve builds and every file it unlinks."""

    def __init__(self, monkeypatch):
        import repro.serve.server as server
        from repro.resilience.checkpoint import CheckpointStore

        self.built: list[str] = []
        self.unlinked: list[str] = []
        log = self

        class Recorded(CheckpointStore):
            def __init__(self, path):
                log.built.append(str(path))
                super().__init__(path)

            def clear(self):
                log.unlinked.append(self.path.name)
                super().clear()

        monkeypatch.setattr(server, "CheckpointStore", Recorded)


class TestCheckpointFiles:
    def test_job_that_never_checkpoints_touches_no_file(
        self, tmp_path, monkeypatch
    ):
        import pathlib

        stores = _RecordedStores(monkeypatch)
        unlinked = []
        unlink = pathlib.Path.unlink

        def recorded_unlink(self, *args, **kwargs):
            unlinked.append(str(self))
            return unlink(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "unlink", recorded_unlink)
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        # 3 rounds, fewer than the 4-round checkpoint cadence
        spec = JobSpec(grid=12, steps=6, dim_t=2, tile=8)
        ids = [core.submit(spec.to_dict())["id"] for _ in range(3)]
        wait_terminal(core)
        assert all(core.status(j).sha256 == reference_sha(spec) for j in ids)
        assert stores.built == [] and stores.unlinked == []
        assert not [p for p in unlinked if "checkpoints" in p]
        assert core.drain()

    def test_cadence_checkpoint_is_cleared(self, tmp_path, monkeypatch):
        stores = _RecordedStores(monkeypatch)
        core = ServeCore(tmp_path / "s", workers=1, checkpoint_every_rounds=1,
                         fsync=False)
        core.start()
        spec = JobSpec(grid=10, steps=6, dim_t=2, verify=False)
        jid = core.submit(spec.to_dict())["id"]
        wait_terminal(core)
        assert core.status(jid).sha256 == reference_sha(spec)
        assert len(stores.built) >= 2  # saves, then the clear
        assert stores.unlinked == [f"{jid}.npz"]
        assert not list((tmp_path / "s" / "checkpoints").iterdir())
        assert core.drain()

    def test_recovered_job_with_unusable_snapshot_removes_it(
        self, tmp_path, monkeypatch
    ):
        from repro.resilience import CheckpointStore

        state = tmp_path / "s"
        spec = JobSpec(grid=10, steps=4, verify=False)
        journal = JobJournal(state / "journal.jsonl", fsync=False)
        journal.append("accepted", id="j000001", job=spec.to_dict())
        journal.close()
        ck = state / "checkpoints" / "j000001.npz"
        # a snapshot of another geometry: refused at recovery, kept on disk
        CheckpointStore(ck).save(np.zeros((1, 6, 6, 6)), 2, {"id": "j000001"})
        stores = _RecordedStores(monkeypatch)
        core = ServeCore(state, workers=1, fsync=False)
        core.start()
        wait_terminal(core)
        rec = core.status("j000001")
        assert rec.status == "done" and rec.resumes == 0
        assert rec.sha256 == reference_sha(spec)  # restarted from step 0
        assert stores.unlinked == ["j000001.npz"]
        assert not ck.exists()
        assert core.drain()

    def test_preempted_then_resumed_job_clears_its_checkpoint(
        self, tmp_path, monkeypatch
    ):
        stores = _RecordedStores(monkeypatch)
        core = ServeCore(tmp_path / "s", workers=1, stall_s=0.02,
                         fsync=False)
        core.start()
        spec = JobSpec(grid=16, steps=60, dim_t=2, priority=5, verify=False)
        with FAULTS.injected(HOLD):
            victim = core.submit(spec.to_dict())["id"]
            wait_for(lambda: core.status(victim).status == "running")
            hi = core.submit(JobSpec(grid=10, steps=2, priority=0,
                                     verify=False).to_dict())["id"]
            wait_terminal(core)
        vrec = core.status(victim)
        assert vrec.preemptions >= 1 and vrec.sha256 == reference_sha(spec)
        assert core.status(hi).status == "done"
        assert stores.unlinked == [f"{victim}.npz"]  # the victim's alone
        assert not list((tmp_path / "s" / "checkpoints").iterdir())
        assert core.drain()


@pytest.fixture()
def recorded_executors(monkeypatch):
    """Serve's executors, each with the thread that built it, the thread
    of every run, and the round runners (batched or volume) built during
    each run."""
    import repro.core
    from repro.core import Blocking35D
    from repro.perf.fused import _BatchedRunner, _VolumeRunner

    executors = []
    builds: dict[int, int] = {}
    build_batched = _BatchedRunner.__init__
    build_volume = _VolumeRunner.__init__

    def count_build():
        tid = threading.get_ident()
        builds[tid] = builds.get(tid, 0) + 1

    def counting_build_batched(self, *args):
        count_build()
        build_batched(self, *args)

    def counting_build_volume(self, *args):
        count_build()
        build_volume(self, *args)

    class Recorded(Blocking35D):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.owner = threading.get_ident()
            self.shape = None
            self.runs = []  # (thread, plans built during the run)
            self.rounds = []  # thread of every round
            executors.append(self)

        def open_rounds(self, field, sdc=None):
            # serve steps the opened run round by round; it ends at close
            tid = threading.get_ident()
            self.shape = self.shape or field.shape
            before = builds.get(tid, 0)
            state, step, close = super().open_rounds(field, sdc)

            def recorded_step(state, round_t, traffic=None):
                self.rounds.append(threading.get_ident())
                return step(state, round_t, traffic)

            def recorded_close(state):
                self.runs.append((threading.get_ident(),
                                  builds.get(tid, 0) - before))
                return close(state)

            return state, recorded_step, recorded_close

    monkeypatch.setattr(_BatchedRunner, "__init__", counting_build_batched)
    monkeypatch.setattr(_VolumeRunner, "__init__", counting_build_volume)
    # the executor serve's build() constructs
    monkeypatch.setattr(repro.core, "Blocking35D", Recorded)
    return executors


class TestWarmExecutors:
    def test_interleaved_jobs_reuse_one_executor_per_worker(
        self, tmp_path, recorded_executors
    ):
        core = ServeCore(tmp_path / "s", workers=2, queue_cap=32,
                         tenant_quota=32, fsync=False)
        core.start()
        # tile 10 keeps kappa (1.78) under dim_T, so rounds stay blocked
        # and build batched rounds
        specs = [JobSpec(grid=12, steps=6, dim_t=2, tile=10, seed=i % 3,
                         verify=False) for i in range(20)]
        ids = [core.submit(s.to_dict())["id"] for s in specs]
        wait_terminal(core)
        refs = {}
        for jid, spec in zip(ids, specs):
            if spec.seed not in refs:
                refs[spec.seed] = reference_sha(spec)
            record = core.status(jid)
            assert record.status == "done"
            assert record.sha256 == refs[spec.seed]
        executors = recorded_executors
        # one executor per worker for the one signature, never run off
        # the thread that built it
        owners = [ex.owner for ex in executors]
        assert 1 <= len(owners) == len(set(owners)) <= 2
        for ex in executors:
            assert {tid for tid, _ in ex.runs} == {ex.owner}
            assert set(ex.rounds) == {ex.owner}
            # runners are built in the executor's first run only
            assert ex.runs[0][1] > 0
            assert sum(n for _, n in ex.runs[1:]) == 0
        assert sum(len(ex.runs) for ex in executors) == 20
        assert sum(len(ex.rounds) for ex in executors) == 20 * 3
        assert core.drain()

    def test_signature_change_replaces_the_executor(
        self, tmp_path, recorded_executors
    ):
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        grids = [10, 12, 12, 10]
        specs = [JobSpec(grid=g, steps=2, verify=False) for g in grids]
        for spec in specs:
            core.submit(spec.to_dict())
            wait_terminal(core)
        for record, spec in zip(core.jobs(), specs):
            assert record.sha256 == reference_sha(spec)
        # a new executor per signature change; the repeat reused one
        assert [ex.shape for ex in recorded_executors] == [
            (10,) * 3, (12,) * 3, (10,) * 3,
        ]
        assert [len(ex.runs) for ex in recorded_executors] == [1, 2, 1]
        assert core.stats()["warm_executors"] == 1
        assert core.drain()

    def test_executor_survives_cancel_deadline_preempt_and_failure(
        self, tmp_path, recorded_executors
    ):
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()

        def job(**kw):
            kw = {"grid": 16, "dim_t": 2, "tile": 8, "verify": False,
                  "steps": 6, **kw}
            return JobSpec(**kw)

        def submit(spec):
            return core.submit(spec.to_dict())["id"]

        first = submit(job())
        wait_terminal(core)
        # cancelled while running
        with FAULTS.injected(HOLD):
            running = submit(job(steps=2000, seed=1))
            wait_for(lambda: core.status(running).done_steps > 0)
            core.cancel(running)
            wait_terminal(core)
        # deadline storm: expires at the first round boundary
        with FAULTS.injected("serve.deadline"):
            expired = submit(job(seed=2))
            wait_terminal(core)
        # preempted by a higher-priority job, then resumed
        victim_spec = job(steps=60, seed=3, priority=5)
        with FAULTS.injected(HOLD):
            victim = submit(victim_spec)
            wait_for(lambda: core.status(victim).status == "running")
            submit(job(steps=2, seed=4, priority=0))
            wait_terminal(core)
        # an internal error in the middle of the job: its volume rounds
        # (kappa 3.06 > dim_T) probe the backend once each
        with FAULTS.injected("backend.compute=fused-numpy:1@1"):
            broken = submit(job(seed=5))
            wait_terminal(core)
        last_spec = job(seed=6)
        last = submit(last_spec)
        wait_terminal(core)

        assert core.status(first).status == "done"
        assert core.status(running).status == "cancelled"
        assert "deadline exceeded" in core.status(expired).reason
        assert core.status(victim).preemptions >= 1
        assert core.status(victim).sha256 == reference_sha(victim_spec)
        assert "internal error" in core.status(broken).reason
        assert core.status(last).sha256 == reference_sha(last_spec)
        assert len(recorded_executors) == 1  # one signature, one worker
        assert core.drain()


def _wire_len(record: JobRecord) -> int:
    return len(json.dumps(record.to_dict(), separators=(",", ":")).encode())


def _charged(record: JobRecord) -> int:
    """What ``record`` counts against the retention window: its packed
    wire record plus the fixed per-entry overhead."""
    from repro.serve.server import _charge, _pack, _wire

    return _charge(_pack(_wire(record.to_dict())))


def _finished_record(n: int, spec: JobSpec | None = None) -> JobRecord:
    """A finished serve-small-sized record with a fixed encoded size."""
    spec = spec or JobSpec(grid=12, steps=6, dim_t=2, tile=8, verify=False,
                           seed=n % 4, tenant=f"tenant{n % 3}")
    return JobRecord(id=f"j{n:06d}", spec=spec, status="done",
                     submitted_s=1000.25, started_s=1000.5,
                     finished_s=1000.75, done_steps=spec.steps,
                     sha256=f"{n:064x}", backend_used="fused-numpy")


class _Discard:
    """A reply sink that keeps nothing (only the writer's memory counts)."""

    def __init__(self):
        self.nbytes = 0

    def write(self, data):
        self.nbytes += len(data)

    def flush(self):
        pass


class TestRetention:
    def test_finished_jobs_kept_in_a_bounded_window(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.server as server

        spec = JobSpec(grid=6, steps=2, verify=False)
        cap = 8 * (_charged(_finished_record(1, spec)) + 256)
        monkeypatch.setattr(server, "RETAIN_FINISHED_BYTES", cap)
        n_jobs = 58
        core = ServeCore(tmp_path / "s", workers=1, queue_cap=n_jobs,
                         tenant_quota=n_jobs, fsync=False)
        core.start()
        srv = JobServer(core, tmp_path / "sock")  # dispatch only
        ids = []
        for i in range(n_jobs):
            doc = spec.to_dict()
            doc["trace_id"] = f"t{i:03d}" if i >= n_jobs - 2 else ""
            ids.append(core.submit(doc)["id"])
        wait_terminal(core)
        stats = core.stats()
        kept = stats["retained_jobs"]
        assert stats["live_jobs"] == 0
        assert 2 <= kept == len(core._finished) < n_jobs
        assert 0 < stats["retained_bytes"] <= cap
        assert stats["counters"]["completed"] == n_jobs
        assert stats["ledger_mismatches"] == []
        assert [r.id for r in core.jobs()] == ids[-kept:]
        # an evicted id answers not-found with an expired reason
        old = ids[0]
        assert core.status(old) is None
        reply = srv.dispatch({"op": "status", "id": old})
        assert not reply["ok"] and reply["error"] == "not-found"
        assert "expired" in reply["reason"]
        cancel = core.cancel(old)
        assert cancel["error"] == "not-found" and "expired" in cancel["reason"]
        unknown = srv.dispatch({"op": "status", "id": "j999999"})
        assert unknown["error"] == "not-found"
        assert "expired" not in unknown["reason"]
        # recent ids keep their hash and spans
        ref = reference_sha(spec)
        for jid in ids[-2:]:
            reply = srv.dispatch({"op": "result", "id": jid, "spans": True})
            assert reply["ok"] and reply["job"]["sha256"] == ref
            assert {"job_admit", "job_run"} <= {
                s["name"] for s in reply["spans"]
            }
        assert core.drain()

    def test_eviction_by_bytes_answers_expired(self, tmp_path, monkeypatch):
        import repro.serve.server as server

        size = _charged(_finished_record(1))
        monkeypatch.setattr(server, "RETAIN_FINISHED_BYTES",
                            3 * size + size // 2)
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core._idgen = 10
        for n in range(1, 11):
            core._retain(_finished_record(n), None)
        assert [r.id for r in core.jobs()] == ["j000008", "j000009",
                                               "j000010"]
        assert core.stats()["retained_bytes"] == sum(
            _charged(_finished_record(n)) for n in (8, 9, 10))
        srv = JobServer(core, tmp_path / "sock")  # dispatch only
        for jid in ("j000001", "j000007"):
            reply = srv.dispatch({"op": "status", "id": jid})
            assert reply["error"] == "not-found" and "expired" in reply["reason"]
        reply = srv.dispatch({"op": "status", "id": "j000008"})
        assert reply["job"] == _finished_record(8).to_dict()
        assert core.status("j000009") == _finished_record(9)
        assert core.cancel("j000010")["reason"] == "already terminal"
        assert core.drain()

    def test_concurrent_retention_keeps_exact_byte_accounting(
        self, tmp_path, monkeypatch
    ):
        """Workers retaining and clients listing at once never lose a
        byte of accounting or list an evicted record."""
        import sys

        import repro.serve.server as server

        records = [_finished_record(n) for n in range(1, 1201)]
        charges = [_charged(r) for r in records]
        cap = 40 * charges[0]
        monkeypatch.setattr(server, "RETAIN_FINISHED_BYTES", cap)
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        # a listing holds at most the records that fit the window
        most = cap // min(charges) * (_wire_len(records[0]) + 1) + 64
        errors = []

        def retain(part):
            for record in part:
                core._retain(record, None)

        def list_jobs():
            try:
                for _ in range(40):
                    sink = _Discard()
                    core.write_jobs(sink)
                    assert sink.nbytes <= most
            except AssertionError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=retain, args=(records[i::6],))
                   for i in range(6)]
        threads += [threading.Thread(target=list_jobs) for _ in range(2)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads) and not errors
        assert core._finished_bytes == sum(
            map(server._charge, core._finished.values()))
        # full: the record evicted last would not have fit
        assert cap - max(charges) < core._finished_bytes <= cap
        assert list(core._finish_order) == list(core._finished)
        core._stopping = True
        core.journal.close()

    def test_streamed_jobs_reply_matches_write_message(self, tmp_path):
        import io
        import socket
        from dataclasses import asdict

        from repro.serve.protocol import write_message

        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        records = [_finished_record(n) for n in (1, 2, 4)]
        records[1].degradations = ["overload: sh\u00e9d \"quoted\""]
        records[1].status = "degraded"
        for record in records:
            core._retain(record, None)
        core._idgen = 4
        live = core.submit(JobSpec(grid=6, steps=2).to_dict())["id"]
        assert live == "j000005"  # queued: no worker is running
        records.insert(2, _finished_record(3))
        core._retain(records[2], None)
        records.append(core.status(live))
        for r in records:  # the wire record is asdict() plus the code
            assert list(r.to_dict().items()) == list(
                {**asdict(r), "code": r.code}.items())
        expected = io.BytesIO()
        write_message(expected, {"ok": True,
                                 "jobs": [r.to_dict() for r in records]})
        streamed = io.BytesIO()
        core.write_jobs(streamed)
        assert streamed.getvalue() == expected.getvalue()
        # and over the socket, byte for byte
        srv = JobServer(core, str(tmp_path / "sock"))
        srv.start()
        try:
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            conn.connect(str(tmp_path / "sock"))
            fh = conn.makefile("rwb")
            write_message(fh, {"op": "jobs"})
            assert fh.readline() == expected.getvalue()
            conn.close()
            assert ServeClient(tmp_path / "sock").jobs() == srv.dispatch(
                {"op": "jobs"})
        finally:
            srv.stop()
        core._stopping = True
        core.journal.close()

    def test_full_window_and_jobs_reply_fit_in_the_old_window(
        self, tmp_path
    ):
        """A full byte window plus a streamed ``jobs`` reply peaks below
        the old 8192-record window of live dataclasses and its in-memory
        reply."""
        import tracemalloc
        from collections import OrderedDict

        import repro.serve.server as server
        from repro.serve.protocol import write_message

        # the old form: 8192 live records, and a reply built as one string
        tracemalloc.start()
        try:
            window = OrderedDict()
            for n in range(1, 8193):
                record = _finished_record(n)
                window[record.id] = (JobRecord.from_dict(record.to_dict()),
                                     None)
            records = sorted((r for r, _ in window.values()),
                             key=lambda r: (len(r.id), r.id))
            write_message(_Discard(), {"ok": True,
                                       "jobs": [r.to_dict() for r in records]})
            del window, records
            old_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        # packed sizes vary by a few bytes: overfill by a twentieth
        n_full = server.RETAIN_FINISHED_BYTES // _charged(
            _finished_record(1)) * 21 // 20
        tracemalloc.start()
        try:
            for n in range(1, n_full + 1):
                core._retain(_finished_record(n), None)
            # the window's real footprint stays within what it is charged
            held = tracemalloc.get_traced_memory()[0]
            sink = _Discard()
            core.write_jobs(sink)
            new_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(core._finished) > 6 * 8192  # the window is full ...
        assert len(core._finished) < n_full
        assert held <= core._finished_bytes <= server.RETAIN_FINISHED_BYTES
        assert sink.nbytes > core._finished_bytes
        assert new_peak <= old_peak  # ... and still smaller
        core._stopping = True
        core.journal.close()

    @pytest.mark.parametrize("jid", ["j\u00b2", "j\u0663", "j", "", "x1", "j-1"])
    def test_odd_ids_answer_not_found(self, tmp_path, jid):
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        core.submit(JobSpec(grid=6, steps=2, verify=False).to_dict())
        wait_terminal(core)
        srv = JobServer(core, tmp_path / "sock")  # dispatch only
        for op in ("status", "result", "cancel"):
            reply = srv.dispatch({"op": op, "id": jid})
            assert not reply["ok"] and reply["error"] == "not-found"
            assert reply["reason"] == f"no job {jid!r}"
        assert core.drain()

    def test_recovery_keeps_the_window_and_requeues_unfinished(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.server as server

        spec = JobSpec(grid=10, steps=4, verify=False)
        # a replayed terminal record: no timestamps, no backend
        size = _charged(JobRecord(id="j000001", spec=spec, status="done",
                                  sha256="x" * 64, finished_s=0.0))
        cap = 4
        monkeypatch.setattr(server, "RETAIN_FINISHED_BYTES",
                            cap * size + size // 2)
        state = tmp_path / "s"
        state.mkdir()
        journal = JobJournal(state / "journal.jsonl", fsync=False)
        for n in range(1, 11):
            jid = f"j{n:06d}"
            journal.append("accepted", id=jid, job=spec.to_dict())
            journal.append("done", id=jid, status="done", sha256="x" * 64)
        unfinished = ["j000011", "j000012"]
        for jid in unfinished:
            journal.append("accepted", id=jid, job=spec.to_dict())
        journal.close()

        core = ServeCore(state, workers=1, fsync=False)
        # holding the core lock keeps the worker from taking up a job (and
        # a finished j000011 from evicting j000007) until the window the
        # replay left is checked
        with core._lock:
            core.start()
            assert core.counters["recovered"] == 2
            assert [r.id for r in core.jobs()][:cap] == [
                f"j{n:06d}" for n in range(7, 11)
            ]
            assert "expired" in core.missing_reason("j000001")
        wait_terminal(core)
        ref = reference_sha(spec)
        for jid in unfinished:
            assert core.status(jid).sha256 == ref
        kept = [r.id for r in core.jobs()]
        assert kept[-2:] == unfinished
        assert kept == [f"j{n:06d}" for n in range(13 - len(kept), 13)]
        assert 0 < core.stats()["retained_bytes"] <= cap * size + size // 2
        assert core.drain()


class TestServeChaos:
    def test_quick_soak_two_seeds(self):
        from repro.resilience.chaos import run_soak
        from repro.serve.chaos import SERVE

        results = list(run_soak(SERVE, range(2), jobs=8, grid=10, steps=4))
        for r in results:
            assert r.ok, (
                f"seed {r.case.seed}: {r.error}, "
                f"{r.facts['hash_mismatches']} mismatches, "
                f"{r.facts['non_terminal']} non-terminal"
            )
        # the seed range must actually exercise kill/recovery
        assert any(r.counts["recovered"] > 0 for r in results)


class TestGuardedSweepStop:
    def test_stop_event_interrupts_checkpoints_and_resumes(self, tmp_path):
        from repro.core import Blocking35D
        from repro.resilience import (
            CheckpointStore,
            GuardedSweep,
            SweepInterruptedError,
        )
        from repro.stencils import Field3D, SevenPointStencil

        kernel = SevenPointStencil()
        field = Field3D.random((16, 16, 16), dtype=np.float32, seed=0)
        store = CheckpointStore(tmp_path / "ck.npz")
        stop = threading.Event()

        class StopAfterTwo:
            """Executor shim that trips the stop event mid-sweep."""

            def __init__(self):
                self.inner = Blocking35D(kernel, 2, 8, 8)
                self.dim_t = 2
                self.rounds = 0

            def run(self, f, steps, traffic=None):
                self.rounds += 1
                if self.rounds == 2:
                    stop.set()
                return self.inner.run(f, steps, traffic)

        guard = GuardedSweep(StopAfterTwo(), checkpoint=store, stop=stop)
        with pytest.raises(SweepInterruptedError) as err:
            guard.run(field, 10)
        assert err.value.step == 4  # two dim_T=2 rounds ran
        assert err.value.checkpointed

        resumed = GuardedSweep(Blocking35D(kernel, 2, 8, 8), checkpoint=store)
        out = resumed.run(field, 10, resume=True)
        ref = run_naive(kernel, field, 10)
        assert np.array_equal(out.data, ref.data)

    def test_stop_without_checkpoint_reports_unsaved(self):
        from repro.core import Blocking35D
        from repro.resilience import GuardedSweep, SweepInterruptedError
        from repro.stencils import Field3D, SevenPointStencil

        stop = threading.Event()
        stop.set()  # interrupt before the first round
        guard = GuardedSweep(
            Blocking35D(SevenPointStencil(), 2, 8, 8), stop=stop
        )
        field = Field3D.random((12, 12, 12), dtype=np.float32, seed=0)
        with pytest.raises(SweepInterruptedError) as err:
            guard.run(field, 4)
        assert err.value.step == 0
        assert not err.value.checkpointed


class TestTuningCachePrune:
    def _fill(self, cache, n):
        for i in range(n):
            cache.put(f"7pt|backend-{i}|float32|cube", {"dim_t": 2, "tile": 8})

    def test_put_evicts_lru_beyond_cap(self, tmp_path):
        from repro.core.autotune import TuningCache

        cache = TuningCache(tmp_path / "t.json", max_entries=3)
        self._fill(cache, 5)
        data = json.loads((tmp_path / "t.json").read_text())
        assert len(data) == 3
        assert any("backend-4" in k for k in data)  # newest survives
        assert not any("backend-0" in k for k in data)  # oldest evicted

    def test_env_var_caps_entries(self, tmp_path, monkeypatch):
        from repro.core.autotune import REPRO_TUNE_CACHE_MAX_ENV, TuningCache

        monkeypatch.setenv(REPRO_TUNE_CACHE_MAX_ENV, "2")
        cache = TuningCache(tmp_path / "t.json")
        assert cache.max_entries == 2
        self._fill(cache, 4)
        assert len(json.loads((tmp_path / "t.json").read_text())) == 2

    def test_prune_method_and_cli(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        from repro.core.autotune import REPRO_TUNE_CACHE_ENV, TuningCache

        path = tmp_path / "t.json"
        cache = TuningCache(path, max_entries=100)
        self._fill(cache, 6)
        removed, remaining = TuningCache(path).prune(max_entries=2)
        assert (removed, remaining) == (4, 2)
        monkeypatch.setenv(REPRO_TUNE_CACHE_ENV, str(path))
        rc = main(["tune", "--prune", "--cache-max", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 entry removed, 1 remaining" in out


class TestCLI:
    def test_faults_grouped_by_subsystem(self, capsys):
        from repro.cli import main

        rc = main(["faults"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.index("fault spec grammar") < out.index("serve daemon")
        assert "serve daemon (admission/journal/deadlines):" in out
        for site in ("serve.accept", "serve.stall", "serve.journal",
                     "serve.deadline"):
            assert site in out
        # the grammar appears once, at the top, not per group
        assert out.count("site[=arg][:times][@after]") == 1

    def test_serve_chaos_cli(self, capsys):
        from repro.cli import main

        rc = main(["chaos", "--target", "serve", "--seeds", "1", "--jobs",
                   "6", "--grid", "10", "--steps", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "serve soak" in out and "clean" in out

    def test_submit_against_in_process_daemon(self, tmp_path, capsys):
        from repro.cli import main

        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        server = JobServer(core, tmp_path / "sock")
        server.start()
        try:
            rc = main(["submit", "--socket", str(tmp_path / "sock"),
                       "--grid", "12", "--steps", "4", "--wait"])
            out = capsys.readouterr().out
            assert rc == 0
            assert "accepted" in out and "result sha" in out
            rc = main(["jobs", "--socket", str(tmp_path / "sock")])
            out = capsys.readouterr().out
            assert rc == 0 and "done" in out
        finally:
            server.stop()
            core.drain(timeout=10.0)

    def test_submit_unknown_backend_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        server = JobServer(core, tmp_path / "sock")
        server.start()
        try:
            rc = main(["submit", "--socket", str(tmp_path / "sock"),
                       "--grid", "12", "--steps", "4", "--backend",
                       "fused-numba", "--wait"])
            err = capsys.readouterr().err
            assert rc == 2
            assert "invalid job: unknown backend 'fused-numba'" in err
            assert core.counters["accepted"] == 0
        finally:
            server.stop()
            core.drain(timeout=10.0)

    def test_submit_daemon_gone_exits_4(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["submit", "--socket", str(tmp_path / "gone.sock")])
        assert rc == 4
        assert "repro serve" in capsys.readouterr().err

    def test_run_sigint_checkpoints_and_exits_4(self, tmp_path, capsys):
        from repro.cli import main

        ck = tmp_path / "ck.npz"
        timer = threading.Timer(
            1.0, lambda: os.kill(os.getpid(), __import__("signal").SIGINT)
        )
        timer.start()
        try:
            rc = main(["run", "--grid", "24", "--steps", "4000", "--dim-t",
                       "2", "--tile", "8", "--checkpoint", str(ck),
                       "--no-check"])
        finally:
            timer.cancel()
        err = capsys.readouterr().err
        assert rc == 4
        assert "interrupted" in err and "final checkpoint written" in err
        assert ck.exists()
