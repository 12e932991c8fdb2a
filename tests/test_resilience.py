"""Tests for the resilient execution layer (repro.resilience + hooks).

Every recovery path is exercised through its named fault site, so these
tests run identically on a healthy machine: fault injection is the test
double for flaky JITs, dying threads, lossy links and crashed writers.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import Blocking35D, run_naive
from repro.resilience import (
    CHECKPOINT_SCHEMA_VERSION,
    FALLBACK_ORDER,
    CheckpointError,
    CheckpointStore,
    DegradedExecutionWarning,
    FallbackExhaustedError,
    FaultSpec,
    GuardedSweep,
    HealthCheckError,
    HealthWarning,
    InjectedFault,
    ResilienceError,
    RunReport,
    SweepRetriesExhaustedError,
    atomic_write,
    bind_with_fallback,
    fallback_chain,
    grid_is_finite,
)
from repro.resilience.faultinject import FAULTS, FaultInjector
from repro.runtime import (
    BarrierBrokenError,
    BarrierTimeoutError,
    PthreadsBarrier,
    SenseReversingBarrier,
    WorkerPool,
    WorkerTimeoutError,
)

from .conftest import assert_fields_equal


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No test may leak armed faults into the rest of the suite."""
    yield
    FAULTS.disarm()


# ======================================================================
# fault specs and the injector
# ======================================================================
class TestFaultSpec:
    def test_parse_full_syntax(self):
        spec = FaultSpec.parse("backend.bind=fused-numpy:3@2")
        assert spec.site == "backend.bind"
        assert spec.arg == "fused-numpy"
        assert spec.times == 3
        assert spec.after == 2

    def test_parse_defaults(self):
        spec = FaultSpec.parse("grid.nan")
        assert (spec.arg, spec.times, spec.after) == (None, 1, 0)

    def test_parse_unlimited(self):
        assert FaultSpec.parse("comm.drop:*").times == -1

    def test_roundtrip_str(self):
        for text in ("grid.nan", "comm.drop=2:*", "backend.compute=x:4@1"):
            assert str(FaultSpec.parse(text)) == text

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec.parse("no.such.site")

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site="grid.nan", times=0)


class TestFaultInjector:
    def test_disarmed_is_silent(self):
        inj = FaultInjector()
        assert not inj.should("grid.nan")
        inj.fire("grid.nan")  # no-op

    def test_budget_is_consumed(self):
        inj = FaultInjector()
        inj.arm("grid.nan:2")
        assert inj.should("grid.nan")
        assert inj.should("grid.nan")
        assert not inj.should("grid.nan")
        assert inj.fired == [("grid.nan", None), ("grid.nan", None)]

    def test_after_skips_probes(self):
        inj = FaultInjector()
        inj.arm("comm.drop@2")
        assert [inj.should("comm.drop") for _ in range(4)] == [
            False, False, True, False,
        ]

    def test_arg_filters_detail(self):
        inj = FaultInjector()
        inj.arm("backend.bind=fused-numpy")
        assert not inj.should("backend.bind", detail="numpy-inplace")
        assert inj.should("backend.bind", detail="fused-numpy")

    def test_fire_raises_typed_fault(self):
        inj = FaultInjector()
        inj.arm("backend.compute=abc")
        with pytest.raises(InjectedFault) as err:
            inj.fire("backend.compute", detail="abc")
        assert err.value.site == "backend.compute"
        assert isinstance(err.value, ResilienceError)

    def test_injected_context_restores(self):
        inj = FaultInjector()
        with inj.injected("grid.nan:*"):
            assert inj.armed("grid.nan")
        assert not inj.armed()

    def test_held_site_is_off_on_this_thread_only(self):
        inj = FaultInjector()
        inj.arm("memory.flip=ring:1", "grid.nan")
        seen = []
        with inj.held("memory.flip"):
            assert not inj.armed("memory.flip")
            assert not inj.should("memory.flip", "ring")  # budget kept
            assert inj.armed("grid.nan")
            worker = threading.Thread(
                target=lambda: seen.append(inj.armed("memory.flip")))
            worker.start()
            worker.join()
        assert seen == [True]
        assert inj.should("memory.flip", "ring")

    def test_env_loading(self):
        inj = FaultInjector()
        n = inj.load_env({"REPRO_FAULTS": "grid.nan, comm.drop:2"})
        assert n == 2
        assert inj.armed("grid.nan") and inj.armed("comm.drop")


# ======================================================================
# backend fallback chain
# ======================================================================
class TestFallbackChain:
    def test_order(self):
        assert fallback_chain("codegen") == [
            "codegen", "fused-numpy", "numpy-inplace", "numpy",
        ]
        assert fallback_chain("codegen") == list(FALLBACK_ORDER)
        assert fallback_chain("fused-numpy") == [
            "fused-numpy", "numpy-inplace", "numpy",
        ]
        assert fallback_chain("numpy") == ["numpy"]

    def test_custom_backend_falls_to_reference(self):
        assert fallback_chain("weird") == ["weird", "numpy"]

    def test_unknown_backend_is_usage_error(self, seven_point, small_field):
        with pytest.raises(ValueError, match="unknown backend"):
            bind_with_fallback(seven_point, "no-such-backend", small_field)

    def test_bind_fault_degrades_one_step(self, seven_point, small_field):
        with FAULTS.injected("backend.bind=fused-numpy"):
            with pytest.warns(DegradedExecutionWarning):
                bound = bind_with_fallback(
                    seven_point, "fused-numpy", probe_field=small_field
                )
        assert bound.used == "numpy-inplace"
        assert bound.degraded
        (deg,) = bound.degradations
        assert (deg.stage, deg.backend, deg.fallback) == (
            "bind", "fused-numpy", "numpy-inplace",
        )

    def test_first_tile_probe_catches_compute_fault(self, seven_point, small_field):
        with FAULTS.injected("backend.compute=numpy-inplace"):
            with pytest.warns(DegradedExecutionWarning):
                bound = bind_with_fallback(
                    seven_point, "numpy-inplace", probe_field=small_field
                )
        assert bound.used == "numpy"
        assert bound.degradations[0].stage == "probe"

    def test_chain_exhaustion_raises(self, seven_point, small_field):
        with FAULTS.injected("backend.bind:*", "backend.compute:*"):
            with pytest.warns(DegradedExecutionWarning):
                with pytest.raises(FallbackExhaustedError):
                    bind_with_fallback(
                        seven_point, "fused-numpy", probe_field=small_field
                    )

    def test_degraded_backend_is_bit_exact(self, seven_point, small_field):
        with FAULTS.injected("backend.bind=fused-numpy"):
            with pytest.warns(DegradedExecutionWarning):
                bound = bind_with_fallback(
                    seven_point, "fused-numpy", probe_field=small_field
                )
        out = Blocking35D(bound.kernel, 2, 8, 8).run(small_field, 4)
        assert_fields_equal(out, run_naive(seven_point, small_field, 4))

    def test_clean_bind_reports_no_degradation(self, seven_point, small_field):
        bound = bind_with_fallback(
            seven_point, "fused-numpy", probe_field=small_field
        )
        assert bound.used == "fused-numpy"
        assert not bound.degraded


# ======================================================================
# guarded sweeps: health, retry, repair
# ======================================================================
class TestGuardedSweep:
    def _executor(self, kernel, dim_t=2, tile=8):
        return Blocking35D(kernel, dim_t, tile, tile)

    def test_clean_run_is_bit_exact(self, seven_point, small_field):
        guard = GuardedSweep(self._executor(seven_point))
        out = guard.run(small_field, 5)
        assert_fields_equal(out, run_naive(seven_point, small_field, 5))
        assert guard.report.rounds == 3  # 2 + 2 + 1
        assert not guard.report.degraded

    def test_health_raise_on_nan(self, seven_point, small_field):
        guard = GuardedSweep(self._executor(seven_point), health="raise")
        with FAULTS.injected("grid.nan"):
            with pytest.raises(HealthCheckError, match="non-finite"):
                guard.run(small_field, 4)

    def test_health_warn_continues(self, seven_point, small_field):
        guard = GuardedSweep(self._executor(seven_point), health="warn")
        with FAULTS.injected("grid.nan@1"):
            with pytest.warns(HealthWarning):
                out = guard.run(small_field, 4)
        assert not grid_is_finite(out.data)
        assert guard.report.warnings

    def test_health_off_skips_checks(self, seven_point, small_field):
        guard = GuardedSweep(self._executor(seven_point), health="off")
        with FAULTS.injected("grid.nan"):
            out = guard.run(small_field, 4)
        assert not grid_is_finite(out.data)

    def test_repair_rolls_back_and_converges(self, seven_point, small_field):
        guard = GuardedSweep(self._executor(seven_point), health="repair")
        with FAULTS.injected("grid.nan@1"):  # poison after the second round
            out = guard.run(small_field, 6)
        assert guard.report.repairs == 1
        assert guard.report.degraded
        assert_fields_equal(out, run_naive(seven_point, small_field, 6))

    @pytest.mark.parametrize("health,copies", [("raise", 0), ("repair", 0)])
    def test_trusted_base_copied_only_when_read(
        self, seven_point, small_field, monkeypatch, health, copies
    ):
        # 5 steps in rounds of 2: the trusted base is each round's input,
        # held by reference, so not even repair copies it before a
        # rollback; the result is the last round's private output
        made = []
        original = type(small_field).copy

        def counting_copy(field):
            made.append(field)
            return original(field)

        guard = GuardedSweep(self._executor(seven_point), health=health)
        monkeypatch.setattr(type(small_field), "copy", counting_copy)
        out = guard.run(small_field, 5)
        # one copy per executor round (3), none by the guard
        assert len(made) == 3 + copies
        assert_fields_equal(out, run_naive(seven_point, small_field, 5))

    def test_repair_exhaustion_raises(self, seven_point, small_field):
        guard = GuardedSweep(self._executor(seven_point), health="repair")
        with FAULTS.injected("grid.nan:*"):
            with pytest.raises(HealthCheckError, match="repair attempts exhausted"):
                guard.run(small_field, 6)

    def test_retry_recovers_transient_fault(self, seven_point, small_field):
        calls = []

        class Flaky:
            dim_t = 2

            def __init__(self, inner):
                self.inner = inner

            def run(self, field, steps, traffic=None):
                calls.append(steps)
                if len(calls) <= 2:
                    raise RuntimeError("transient")
                return self.inner.run(field, steps, traffic)

        guard = GuardedSweep(
            Flaky(self._executor(seven_point)), max_retries=2,
            sleep=lambda s: None,
        )
        out = guard.run(small_field, 4)
        assert guard.report.retries == 2
        assert_fields_equal(out, run_naive(seven_point, small_field, 4))

    def test_retries_exhausted_raises(self, seven_point, small_field):
        class Broken:
            dim_t = 2

            def run(self, field, steps, traffic=None):
                raise RuntimeError("permanent")

        delays = []
        guard = GuardedSweep(
            Broken(), max_retries=3, backoff=0.01, sleep=delays.append
        )
        with pytest.raises(SweepRetriesExhaustedError, match="permanent"):
            guard.run(small_field, 4)
        # exponential backoff: each retry waits longer than the last
        assert delays == sorted(delays) and len(delays) == 3

    def test_no_retry_propagates_raw_exception(self, seven_point, small_field):
        class Broken:
            dim_t = 2

            def run(self, field, steps, traffic=None):
                raise ZeroDivisionError("untouched")

        guard = GuardedSweep(Broken())
        with pytest.raises(ZeroDivisionError):
            guard.run(small_field, 2)

    def test_invalid_policy_rejected(self, seven_point):
        with pytest.raises(ValueError, match="health policy"):
            GuardedSweep(self._executor(seven_point), health="panic")


# ======================================================================
# atomic whole-file writes
# ======================================================================
class TestAtomicWrite:
    def test_bytes_text_and_writer(self, tmp_path):
        path = tmp_path / "sub" / "f.bin"
        atomic_write(path, b"abc")
        assert path.read_bytes() == b"abc"
        atomic_write(path, "caf\u00e9\n")
        assert path.read_text(encoding="utf-8") == "caf\u00e9\n"
        atomic_write(path, lambda fh: fh.write(b"streamed"))
        assert path.read_bytes() == b"streamed"
        assert not list(path.parent.glob("*.tmp"))

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "f.bin"
        atomic_write(path, b"old")

        def torn(fh):
            fh.write(b"half")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, torn)
        assert path.read_bytes() == b"old"


# ======================================================================
# checkpoint / restart
# ======================================================================
class TestCheckpoint:
    def test_roundtrip(self, tmp_path, small_field):
        store = CheckpointStore(tmp_path / "snap.npz")
        store.save(small_field.data, 6, {"kernel": "7pt"})
        snap = store.load()
        assert snap.step == 6
        assert snap.meta == {"kernel": "7pt"}
        assert np.array_equal(snap.data, small_field.data)

    def test_missing_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path / "nope.npz").load() is None

    def test_corrupt_snapshot_quarantined(self, tmp_path):
        path = tmp_path / "snap.npz"
        path.write_bytes(b"PK\x03\x04 definitely not a real zip")
        store = CheckpointStore(path)
        assert store.load() is None
        assert not path.exists()
        assert (tmp_path / "snap.npz.corrupt").exists()

    def test_save_replaces_atomically(self, tmp_path, small_field):
        store = CheckpointStore(tmp_path / "snap.npz")
        store.save(small_field.data, 2, {})
        store.save(small_field.data * 0, 4, {})
        assert store.load().step == 4
        assert not (tmp_path / "snap.npz.tmp").exists()

    def test_resume_is_bit_exact(self, seven_point, small_field, tmp_path):
        store = CheckpointStore(tmp_path / "snap.npz")
        meta = {"kernel": "7pt"}
        ex = Blocking35D(seven_point, 2, 8, 8)

        # an "interrupted" run: snapshots every round, killed after step 4
        class DiesAtStep4:
            dim_t = 2

            def __init__(self):
                self.done = 0

            def run(self, field, steps, traffic=None):
                if self.done >= 4:
                    raise RuntimeError("simulated crash")
                self.done += steps
                return ex.run(field, steps, traffic)

        guard = GuardedSweep(
            DiesAtStep4(), checkpoint=store, checkpoint_every=1, meta=meta
        )
        with pytest.raises(RuntimeError, match="simulated crash"):
            guard.run(small_field, 8)
        assert store.load().step == 4

        resumed = GuardedSweep(
            ex, checkpoint=store, checkpoint_every=1, meta=meta
        )
        out = resumed.run(small_field, 8, resume=True)
        assert resumed.report.resumed_from == 4
        assert_fields_equal(out, run_naive(seven_point, small_field, 8))

    def test_resume_refuses_foreign_snapshot(self, seven_point, small_field, tmp_path):
        store = CheckpointStore(tmp_path / "snap.npz")
        store.save(small_field.data, 2, {"kernel": "27pt"})
        guard = GuardedSweep(
            Blocking35D(seven_point, 2, 8, 8),
            checkpoint=store, meta={"kernel": "7pt"},
        )
        with pytest.warns(HealthWarning, match="does not match"):
            out = guard.run(small_field, 4, resume=True)
        assert guard.report.resumed_from is None
        assert_fields_equal(out, run_naive(seven_point, small_field, 4))


# ======================================================================
# checkpoint schema validation
# ======================================================================
class TestCheckpointSchema:
    def _restamp(self, path, mutate):
        """Rewrite the snapshot with its schema stamp altered by ``mutate``."""
        import json

        with np.load(path, allow_pickle=False) as npz:
            data, step = npz["data"], int(npz["step"])
            meta = json.loads(bytes(npz["meta"]).decode())
        mutate(meta)
        np.savez(path, data=data, step=np.int64(step),
                 meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))

    def test_version_stamp_roundtrips(self, tmp_path, small_field):
        store = CheckpointStore(tmp_path / "snap.npz")
        store.save(small_field.data, 3, {"kernel": "7pt"})
        snap = store.load()
        assert snap.schema_version == CHECKPOINT_SCHEMA_VERSION
        assert snap.meta == {"kernel": "7pt"}  # stamp is not leaked to meta

    def test_missing_stamp_raises(self, tmp_path, small_field):
        store = CheckpointStore(tmp_path / "snap.npz")
        store.save(small_field.data, 3, {})
        self._restamp(store.path, lambda m: m.pop("_checkpoint"))
        with pytest.raises(CheckpointError, match="no schema_version stamp"):
            store.load()

    def test_future_version_raises(self, tmp_path, small_field):
        store = CheckpointStore(tmp_path / "snap.npz")
        store.save(small_field.data, 3, {})
        self._restamp(
            store.path,
            lambda m: m["_checkpoint"].update(schema_version=99),
        )
        with pytest.raises(CheckpointError, match="schema_version 99"):
            store.load()

    def test_inconsistent_stamp_raises(self, tmp_path, small_field):
        store = CheckpointStore(tmp_path / "snap.npz")
        store.save(small_field.data, 3, {})
        self._restamp(
            store.path,
            lambda m: m["_checkpoint"].update(shape=[1, 2, 3, 4]),
        )
        with pytest.raises(CheckpointError, match="internally inconsistent"):
            store.load()

    def test_shape_change_raises_clearly(self, tmp_path, small_field):
        store = CheckpointStore(tmp_path / "snap.npz")
        store.save(small_field.data, 3, {})
        wrong = tuple(d + 2 for d in small_field.data.shape)
        with pytest.raises(CheckpointError, match="geometry changed"):
            store.load(expected_shape=wrong)

    def test_dtype_change_raises_clearly(self, tmp_path, small_field):
        store = CheckpointStore(tmp_path / "snap.npz")
        store.save(small_field.data.astype(np.float32), 3, {})
        with pytest.raises(CheckpointError, match="precision"):
            store.load(expected_dtype=np.float64)

    def test_matching_expectations_load(self, tmp_path, small_field):
        store = CheckpointStore(tmp_path / "snap.npz")
        store.save(small_field.data, 3, {})
        snap = store.load(
            expected_shape=small_field.data.shape,
            expected_dtype=small_field.data.dtype,
        )
        assert snap.step == 3

    def test_guarded_resume_survives_bad_snapshot(
        self, seven_point, small_field, tmp_path
    ):
        # a refused snapshot degrades --resume to a scratch run, not exit 4
        store = CheckpointStore(tmp_path / "snap.npz")
        store.save(small_field.data, 2, {})
        self._restamp(store.path, lambda m: m.pop("_checkpoint"))
        guard = GuardedSweep(
            Blocking35D(seven_point, 2, 8, 8), checkpoint=store, meta={}
        )
        with pytest.warns(HealthWarning, match="schema_version"):
            out = guard.run(small_field, 4, resume=True)
        assert guard.report.resumed_from is None
        assert_fields_equal(out, run_naive(seven_point, small_field, 4))


# ======================================================================
# barrier watchdogs
# ======================================================================
@pytest.mark.timeout(30)
class TestBarrierWatchdog:
    @pytest.mark.parametrize("cls", [SenseReversingBarrier, PthreadsBarrier])
    def test_timeout_poisons(self, cls):
        barrier = cls(2)
        with pytest.raises(BarrierTimeoutError):
            barrier.wait(timeout=0.1)  # the peer never arrives
        assert barrier.broken
        with pytest.raises(BarrierBrokenError):
            barrier.wait(timeout=0.1)

    @pytest.mark.parametrize("cls", [SenseReversingBarrier, PthreadsBarrier])
    def test_reset_clears_poison(self, cls):
        barrier = cls(1)
        barrier.abort()
        assert barrier.broken
        barrier.reset()
        barrier.wait(timeout=1.0)  # single party: returns immediately

    def test_abort_releases_waiting_peer(self):
        barrier = SenseReversingBarrier(2)
        caught = []

        def waiter():
            try:
                barrier.wait(timeout=5.0)
            except BarrierBrokenError as exc:
                caught.append(exc)

        t = threading.Thread(target=waiter)
        t.start()
        barrier.abort()
        t.join(timeout=5)
        assert not t.is_alive()
        assert len(caught) == 1
        assert not isinstance(caught[0], BarrierTimeoutError)

    def test_guard_poisons_on_exception(self):
        barrier = SenseReversingBarrier(2)
        released = []

        def peer():
            try:
                barrier.wait(timeout=5.0)
            except BarrierBrokenError:
                released.append(True)

        t = threading.Thread(target=peer)
        t.start()
        with pytest.raises(RuntimeError, match="worker exploded"):
            with barrier.guard():
                raise RuntimeError("worker exploded")
        t.join(timeout=5)
        assert released == [True]


# ======================================================================
# worker pool watchdog
# ======================================================================
@pytest.mark.timeout(60)
class TestWorkerPoolWatchdog:
    def test_deadline_dumps_stacks(self):
        release = threading.Event()
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerTimeoutError) as err:
                pool.run_spmd(lambda tid: release.wait(10), deadline=0.3)
            release.set()  # let the stragglers finish so shutdown is quick
        assert "deadline" in str(err.value)
        assert err.value.stacks  # one formatted stack per worker
        assert any("release.wait" in s for s in err.value.stacks.values())

    def test_worker_death_detected(self):
        with WorkerPool(2) as pool:
            with FAULTS.injected("worker.death=1"):
                with pytest.raises(WorkerTimeoutError, match="died"):
                    pool.run_spmd(lambda tid: None)

    def test_shutdown_from_inside_worker(self):
        pool = WorkerPool(2)
        pool.run_spmd(lambda tid: pool.shutdown() if tid == 0 else None)
        assert pool.closed
        pool.shutdown()  # idempotent

    def test_pool_survives_abandoned_launch(self):
        """A timed-out launch must not poison the next one (generation tag)."""
        release = threading.Event()
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerTimeoutError):
                pool.run_spmd(lambda tid: release.wait(10), deadline=0.2)
            release.set()
            hits = []
            pool.run_spmd(lambda tid: hits.append(tid))
            assert sorted(hits) == [0, 1]


# ======================================================================
# end-to-end: threaded sweep under a deadline
# ======================================================================
@pytest.mark.timeout(60)
class TestThreadedDeadline:
    def test_generous_deadline_is_bit_exact(self, seven_point, small_field):
        from repro.runtime import ParallelBlocking35D

        ex = ParallelBlocking35D(seven_point, 2, 8, 8, 2, spmd_deadline=30.0)
        out = ex.run(small_field, 4)
        assert_fields_equal(out, run_naive(seven_point, small_field, 4))

    def test_dead_worker_surfaces_not_hangs(self, seven_point, small_field):
        from repro.runtime import ParallelBlocking35D

        ex = ParallelBlocking35D(seven_point, 2, 8, 8, 2, spmd_deadline=30.0)
        with FAULTS.injected("worker.death=1"):
            with pytest.raises(WorkerTimeoutError):
                ex.run(small_field, 4)


# ======================================================================
# run reports
# ======================================================================
class TestRunReport:
    def test_clean_report(self):
        report = RunReport(requested_backend="numpy", used_backend="numpy")
        assert not report.degraded
        assert report.lines() == []

    def test_degraded_report_lines(self):
        report = RunReport(
            requested_backend="codegen", used_backend="fused-numpy",
            retries=2, repairs=1, resumed_from=4, checkpoints_written=3,
        )
        assert report.degraded
        text = "\n".join(report.lines())
        assert "fused-numpy" in text
        assert "retries" in text and "repairs" in text
        assert "from step 4" in text
