"""One round loop, three entry points: a cross-entry-point differential test.

The same job runs through ``GuardedSweep(Blocking35D)``, the threaded
``ParallelBlocking35D`` on two threads, an in-process ``ServeCore`` and
``DistributedJacobi`` on 1, 2 and 4 ranks, for 7pt and
27pt kernels, f32 and f64 grids and the ``off``/``spot``/``full``
integrity tiers.  Faults: none at every tier, a resting ``memory.flip``
at ``spot`` and ``full``, and a compute-side ``memory.flip=ring`` at
``full`` only (sampling at ``spot`` may miss a compute-side flip by
design, and ``off`` does not look).  Every run must end with the naive
oracle's hash or a loud ``ResilienceError``, and every entry point must
emit the same loop-level spans and ``sdc.*`` counter keys.

Every blocked executor opens its rounds to that one loop: a guarded run
copies the grid once, however many rounds it steps, and repair, heal,
interrupt/resume and retries end on the oracle's hash on each of them.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import Blocking4D, Blocking35D, run_naive
from repro.distributed import DistributedJacobi
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACE
from repro.perf.backends import wrap_kernel
from repro.resilience import (
    FAULTS,
    GuardedSweep,
    HealthCheckError,
    ResilienceError,
    SweepInterruptedError,
)
from repro.resilience.checkpoint import CheckpointStore, data_digest
from repro.runtime.parallel35d import ParallelBlocking35D
from repro.serve import JobSpec, ServeCore
from repro.serve.server import make_field, make_kernel
from repro.stencils import Field3D, SevenPointStencil

from .test_serve import wait_terminal

GRID, STEPS, DIM_T = 12, 6, 2

#: (tier, fault specs) of every drawn case
FAULT_CASES = [
    ("off", ()), ("spot", ()), ("full", ()),
    ("spot", ("memory.flip=0:1:1",)), ("full", ("memory.flip=0:1:1",)),
    ("full", ("memory.flip=ring:1",)),
]

ENTRY_POINTS = ("guarded", "threads2", "serve", "ranks1", "ranks2",
                "ranks4")

#: spans the round loop and its integrity guard emit, whoever drives them
LOOP_SPANS = {"guarded_run", "guard_round", "sdc_detected", "sdc_heal"}


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


@pytest.fixture(scope="module")
def core(tmp_path_factory):
    core = ServeCore(tmp_path_factory.mktemp("serve"), workers=1,
                     fsync=False)
    core.start()
    yield core
    core.drain(timeout=30.0)


def _spec(kernel: str, precision: str, tier: str) -> JobSpec:
    return JobSpec(kernel=kernel, grid=GRID, steps=STEPS, dim_t=DIM_T,
                   tile=GRID, precision=precision, seed=5, verify=False,
                   integrity=tier, backend="numpy")


def _run(entry: str, spec: JobSpec, core: ServeCore, specs=()):
    """(result hash, corruption detected) of ``spec`` through ``entry``
    under the fault ``specs``."""
    kernel, field = make_kernel(spec), make_field(spec)
    with FAULTS.injected(*specs):
        if entry in ("guarded", "threads2"):
            ex = Blocking35D(kernel, DIM_T, GRID, GRID) if entry == "guarded" \
                else ParallelBlocking35D(kernel, DIM_T, GRID, GRID, 2)
            guard = GuardedSweep(ex, sdc=spec.integrity, sdc_seed=spec.seed)
            out = guard.run(field, STEPS)
            return data_digest(out.data), guard.report.degraded
        if entry == "serve":
            jid = core.submit(spec.to_dict())["id"]
            wait_terminal(core)
            record = core.status(jid)
            if record.status == "failed":
                raise ResilienceError(record.reason)
            return record.sha256, record.status == "degraded"
        guard = GuardedSweep(DistributedJacobi(kernel, int(entry[-1]),
                                               dim_t=DIM_T),
                             health="off", sdc=spec.integrity,
                             sdc_seed=spec.seed)
        out = guard.run(field, STEPS)
        return data_digest(out.data), guard.report.degraded


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("precision", ["sp", "dp"])
@pytest.mark.parametrize("kernel", ["7pt", "27pt"])
def test_every_entry_point_ends_on_the_oracle_or_fails_loudly(
    core, kernel, precision, entry
):
    for tier, specs in FAULT_CASES:
        spec = _spec(kernel, precision, tier)
        oracle = data_digest(
            run_naive(make_kernel(spec), make_field(spec), STEPS).data
        )
        try:
            got, detected = _run(entry, spec, core, specs)
        except ResilienceError:
            assert specs, (entry, tier)  # loud, and only under a fault
            continue
        assert got == oracle, (entry, tier, specs)
        # a resting flip always lands in the grid; a ring flip may hit a
        # plane no output depends on (a stale ghost), leaving nothing to see
        if not specs or "memory.flip=0:1:1" in specs:
            assert detected == bool(specs), (entry, tier, specs)


def test_loop_spans_and_sdc_counters_match_across_entry_points(core):
    spec = _spec("7pt", "dp", "full")
    seen = {}
    for entry in ("guarded", "serve", "ranks2"):
        TRACE.arm()
        METRICS.reset()
        METRICS.arm()
        try:
            _run(entry, spec, core, ("memory.flip=0:1:1",))
            spans = {e.name for e in TRACE.events()} & LOOP_SPANS
            counters = {k for k in METRICS.to_dict()["counters"]
                        if k.startswith("sdc.")}
        finally:
            TRACE.disarm()
            METRICS.disarm()
            METRICS.reset()
        seen[entry] = (spans, counters)
    assert seen["guarded"][0] == LOOP_SPANS  # a heal exercises them all
    assert seen["guarded"][1] >= {"sdc.checks", "sdc.detected",
                                  "sdc.healed", "sdc.replayed_cells"}
    assert seen["serve"] == seen["guarded"]
    assert seen["ranks2"] == seen["guarded"]


@pytest.mark.parametrize("n_ranks", [2, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_distributed_full_tier_heals_a_compute_side_flip(n_ranks, dtype):
    # regression: the distributed runner only checked seals, so a flip in a
    # 3.5D ring buffer during the round went undetected at the full tier
    kernel = SevenPointStencil()
    field = Field3D.random((24, 24, 24), dtype=dtype, seed=1)
    guard = GuardedSweep(DistributedJacobi(kernel, n_ranks, dim_t=2),
                         health="off", sdc="full")
    with FAULTS.injected("memory.flip=ring:1"):
        out = guard.run(field, 8)
    assert np.array_equal(out.data, run_naive(kernel, field, 8).data)
    assert guard.report.sdc.detections >= 1
    assert guard.report.sdc.heals >= 1


@pytest.mark.parametrize("tier", ["spot", "full"])
def test_integrity_replay_of_a_sliver_band_on_a_thin_grid(tier):
    # regression: on a 3-plane grid a sampled band's loaded extent is two
    # planes, which the naive rung refused to sweep (ValueError)
    kernel = SevenPointStencil()
    field = Field3D.random((3, 4, 4), dtype=np.float32, seed=0)
    guard = GuardedSweep(Blocking35D(kernel, 1, 4, 4), sdc=tier)
    with FAULTS.injected("memory.flip=0:0:1"):
        out = guard.run(field, 2)
    assert np.array_equal(out.data, run_naive(kernel, field, 2).data)


# ----------------------------------------------------------------------
# the blocked executors open their rounds to the loop
# ----------------------------------------------------------------------

#: every executor that supplies ``open_rounds`` over its own buffers
BLOCKED = {
    "blocking35d": lambda k: Blocking35D(k, DIM_T, 8, 8),
    "threads2": lambda k: ParallelBlocking35D(k, DIM_T, 8, 8, 2),
    "blocking4d": lambda k: Blocking4D(k, DIM_T, 8, 8, 8),
}


def _field(seed: int = 3) -> Field3D:
    return Field3D.random((GRID,) * 3, dtype=np.float32, seed=seed)


def _oracle(kernel, field, steps: int) -> str:
    return data_digest(run_naive(kernel, field, steps).data)


class _StopAfter:
    """A ``stop`` that is set from the given round boundary on."""

    def __init__(self, rounds: int) -> None:
        self.checks, self.rounds = 0, rounds

    def is_set(self) -> bool:
        self.checks += 1
        return self.checks > self.rounds


@pytest.mark.parametrize("rounds", [1, 3, 6])
@pytest.mark.parametrize("name", BLOCKED)
def test_a_guarded_run_copies_the_grid_once(name, rounds, monkeypatch):
    kernel, field = SevenPointStencil(), _field()
    made = []
    original = Field3D.copy

    def counting_copy(f):
        made.append(f)
        return original(f)

    guard = GuardedSweep(BLOCKED[name](kernel))
    monkeypatch.setattr(Field3D, "copy", counting_copy)
    out = guard.run(field, rounds * DIM_T)
    monkeypatch.undo()
    assert len(made) == 1  # the result, copied out of the run's buffers
    assert guard.report.rounds == rounds
    assert data_digest(out.data) == _oracle(kernel, field, rounds * DIM_T)


@pytest.mark.parametrize("stop", [False, True])
def test_a_threaded_run_that_raises_leaves_no_worker(stop, tmp_path):
    kernel, field = SevenPointStencil(), _field()
    threads = threading.active_count()
    if stop:
        guard = GuardedSweep(BLOCKED["threads2"](kernel), stop=_StopAfter(2))
        with pytest.raises(SweepInterruptedError):
            guard.run(field, 3 * DIM_T)
    else:
        guard = GuardedSweep(BLOCKED["threads2"](kernel), health="raise")
        with FAULTS.injected("grid.nan@1"), pytest.raises(HealthCheckError):
            guard.run(field, 3 * DIM_T)
    assert threading.active_count() == threads


@pytest.mark.parametrize("name", BLOCKED)
class TestBlockedExecutorsUnderTheGuard:
    """Over three rounds, every recovery path ends on the naive hash."""

    STEPS = 3 * DIM_T

    def test_repair_rolls_back(self, name):
        kernel, field = SevenPointStencil(), _field()
        guard = GuardedSweep(BLOCKED[name](kernel), health="repair")
        with FAULTS.injected("grid.nan@1"):
            out = guard.run(field, self.STEPS)
        assert guard.report.repairs == 1
        assert data_digest(out.data) == _oracle(kernel, field, self.STEPS)

    def test_full_tier_heals_a_resting_flip(self, name):
        kernel, field = SevenPointStencil(), _field()
        guard = GuardedSweep(BLOCKED[name](kernel), sdc="full")
        with FAULTS.injected("memory.flip=0:1:1"):
            out = guard.run(field, self.STEPS)
        assert guard.report.sdc.heals == 1
        assert data_digest(out.data) == _oracle(kernel, field, self.STEPS)

    def test_interrupt_then_resume(self, name, tmp_path):
        kernel, field = SevenPointStencil(), _field()
        store = CheckpointStore(tmp_path / "snap.npz")
        guard = GuardedSweep(BLOCKED[name](kernel), checkpoint=store,
                             stop=_StopAfter(2))
        with pytest.raises(SweepInterruptedError) as stopped:
            guard.run(field, self.STEPS)
        assert stopped.value.step == 2 * DIM_T
        resumed = GuardedSweep(BLOCKED[name](kernel), checkpoint=store)
        out = resumed.run(field, self.STEPS, resume=True)
        assert resumed.report.resumed_from == 2 * DIM_T
        assert data_digest(out.data) == _oracle(kernel, field, self.STEPS)

    def test_retry_after_a_round_raises_mid_way(self, name):
        # the in-place rung probes every plane compute: the fault lands
        # part-way through a round, after it has written its output buffer
        kernel = wrap_kernel(SevenPointStencil(), "numpy-inplace")
        field = _field()
        guard = GuardedSweep(BLOCKED[name](kernel), max_retries=2,
                             sleep=lambda _: None)
        with FAULTS.injected("backend.compute=numpy-inplace@40"):
            out = guard.run(field, self.STEPS)
        assert guard.report.retries == 1
        assert data_digest(out.data) == _oracle(SevenPointStencil(), field,
                                                self.STEPS)
