"""One round loop, three entry points: a cross-entry-point differential test.

The same job runs through ``GuardedSweep(Blocking35D)``, an in-process
``ServeCore`` and ``DistributedJacobi`` on 1, 2 and 4 ranks, for 7pt and
27pt kernels, f32 and f64 grids and the ``off``/``spot``/``full``
integrity tiers.  Faults: none at every tier, a resting ``memory.flip``
at ``spot`` and ``full``, and a compute-side ``memory.flip=ring`` at
``full`` only (sampling at ``spot`` may miss a compute-side flip by
design, and ``off`` does not look).  Every run must end with the naive
oracle's hash or a loud ``ResilienceError``, and every entry point must
emit the same loop-level spans and ``sdc.*`` counter keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Blocking35D, run_naive
from repro.distributed import DistributedJacobi
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACE
from repro.resilience import FAULTS, GuardedSweep, ResilienceError
from repro.resilience.checkpoint import data_digest
from repro.serve import JobSpec, ServeCore
from repro.serve.server import make_field, make_kernel

from .test_serve import wait_terminal

GRID, STEPS, DIM_T = 12, 6, 2

#: (tier, fault specs) of every drawn case
FAULT_CASES = [
    ("off", ()), ("spot", ()), ("full", ()),
    ("spot", ("memory.flip=0:1:1",)), ("full", ("memory.flip=0:1:1",)),
    ("full", ("memory.flip=ring:1",)),
]

ENTRY_POINTS = ("guarded", "serve", "ranks1", "ranks2", "ranks4")

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
        if entry == "guarded":
            guard = GuardedSweep(Blocking35D(kernel, DIM_T, GRID, GRID),
                                 sdc=spec.integrity, sdc_seed=spec.seed)
            out = guard.run(field, STEPS)
            return data_digest(out.data), guard.report.degraded
        if entry == "serve":
            jid = core.submit(spec.to_dict())["id"]
            wait_terminal(core)
            record = core.status(jid)
            if record.status == "failed":
                raise ResilienceError(record.reason)
            return record.sha256, record.status == "degraded"
        dj = DistributedJacobi(kernel, int(entry[-1]), dim_t=DIM_T,
                               integrity=spec.integrity, sdc_seed=spec.seed)
        out, _ = dj.run(field, STEPS)
        return data_digest(out.data), dj.sdc_report.degraded


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
    from repro.stencils import Field3D, SevenPointStencil

    kernel = SevenPointStencil()
    field = Field3D.random((24, 24, 24), dtype=dtype, seed=1)
    dj = DistributedJacobi(kernel, n_ranks, dim_t=2, integrity="full")
    with FAULTS.injected("memory.flip=ring:1"):
        out, _ = dj.run(field, 8)
    assert np.array_equal(out.data, run_naive(kernel, field, 8).data)
    assert dj.sdc_report.detections >= 1
    assert dj.sdc_report.heals >= 1


@pytest.mark.parametrize("tier", ["spot", "full"])
def test_integrity_replay_of_a_sliver_band_on_a_thin_grid(tier):
    # regression: on a 3-plane grid a sampled band's loaded extent is two
    # planes, which the naive rung refused to sweep (ValueError)
    from repro.stencils import Field3D, SevenPointStencil

    kernel = SevenPointStencil()
    field = Field3D.random((3, 4, 4), dtype=np.float32, seed=0)
    guard = GuardedSweep(Blocking35D(kernel, 1, 4, 4), sdc=tier)
    with FAULTS.injected("memory.flip=0:0:1"):
        out = guard.run(field, 2)
    assert np.array_equal(out.data, run_naive(kernel, field, 2).data)
