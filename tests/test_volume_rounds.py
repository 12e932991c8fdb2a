"""Volume rounds: whole-volume sweeps for rounds Eq. 2 says blocking cannot
pay for (``kappa > round_t``), behind fused-numpy's ``sweep_runner`` hook.

The contract is the executors' usual one: bit-identical to the naive
reference, ``src`` never written, and traffic charged as the naive sweeps
the round replaces.  Rounds where blocking pays, the threaded executor,
bare kernels and armed ``memory.flip`` faults keep the blocked path.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.core import Blocking35D, TrafficStats, run_naive
from repro.core.naive import naive_sweep
from repro.obs.trace import TRACE
from repro.perf.backends import wrap_kernel
from repro.perf.fused import _BatchedRunner, _VolumeRunner
from repro.resilience.faultinject import FAULTS, FaultSpec
from repro.runtime import ParallelBlocking35D
from repro.stencils import Field3D, SevenPointStencil, TwentySevenPointStencil
from repro.stencils.generic import GenericStencil, box_stencil, star_stencil
from repro.stencils.grid import copy_shell


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


def _sha(field: Field3D) -> str:
    return hashlib.sha256(np.ascontiguousarray(field.data)).hexdigest()


def _volume_runners(ex) -> list:
    return [r for r in ex.sweep_runners if type(r) is _VolumeRunner]


def _traffic(t: TrafficStats) -> tuple:
    return (t.bytes_read, t.bytes_written, t.updates, t.ops, t.plane_loads,
            t.plane_stores)


class CountingBlocking35D(Blocking35D):
    """Counts the schedule steps run one by one (the stepwise path)."""

    stepwise = 0

    def execute_step(self, *args, **kwargs):
        self.stepwise += 1
        return super().execute_step(*args, **kwargs)


@st.composite
def _taps_r2(draw):
    offsets = [(dz, dy, dx) for dz in range(-2, 3) for dy in range(-2, 3)
               for dx in range(-2, 3)]
    picked = draw(st.lists(st.sampled_from(offsets), min_size=2, max_size=9,
                           unique=True))
    picked.append((2, 0, 0))  # radius 2 whatever else was drawn
    weights = draw(st.lists(st.floats(-0.25, 0.25, width=32),
                            min_size=len(picked), max_size=len(picked)))
    return GenericStencil(dict(zip(picked, weights)))


@st.composite
def _cases(draw):
    kernel = draw(st.one_of(
        st.sampled_from([SevenPointStencil(), TwentySevenPointStencil(),
                         star_stencil(1), box_stencil(1), star_stencil(2)]),
        _taps_r2(),
    ))
    r = kernel.radius
    dim_t = draw(st.integers(1, 4))
    nz = draw(st.integers(2 * r + 1, 2 * r + 8))
    ny = draw(st.integers(2 * r + 2, 2 * r + 14))
    nx = draw(st.integers(2 * r + 2, 2 * r + 14))

    def tile(n):
        # a cut tile (small ones push kappa past round_t) or the whole axis
        lo = 2 * r * dim_t + 1
        if lo >= n or draw(st.booleans()):
            return n + draw(st.integers(0, 2))
        return draw(st.integers(lo, n))

    return {
        "kernel": kernel,
        "shape": (nz, ny, nx),
        "dtype": draw(st.sampled_from([np.float32, np.float64])),
        "dim_t": dim_t,
        "tile": (tile(ny), tile(nx)),
        "steps": draw(st.integers(1, 3 * dim_t)),
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(max_examples=60, deadline=None)
@given(case=_cases())
def test_volume_rounds_match_naive_and_keep_src(case):
    kernel, dim_t, (ty, tx) = case["kernel"], case["dim_t"], case["tile"]
    nz, ny, nx = case["shape"]
    fields = [Field3D.random(case["shape"], dtype=case["dtype"],
                             seed=case["seed"] + i) for i in range(2)]
    ex = Blocking35D(wrap_kernel(kernel, "fused-numpy"), dim_t, ty, tx)
    round_t = dim_t
    volume = ex.kappa(ny, nx, round_t) > round_t
    note(f"kappa {ex.kappa(ny, nx, round_t):.3f} round_t {round_t}")

    # whole runs, twice on one executor: warm runners, a new shell
    for field in fields:
        out = ex.run(field, case["steps"])
        assert _sha(out) == _sha(run_naive(kernel, field, case["steps"]))

    # one direct round: src untouched, traffic of round_t naive sweeps
    src = fields[0].copy()
    dst = Field3D(np.full_like(src.data, np.nan))
    before = src.data.copy()
    traffic = TrafficStats()
    ex.sweep_round(src, dst, round_t, traffic)
    assert src.data.tobytes() == before.tobytes()
    assert (any(r.src_data is src.data for r in _volume_runners(ex))
            == volume)
    ref = run_naive(kernel, fields[0], round_t)
    r = kernel.radius
    inner = (slice(None), slice(r, nz - r), slice(r, ny - r), slice(r, nx - r))
    assert dst.data[inner].tobytes() == ref.data[inner].tobytes()
    if volume:
        a, b = fields[0].copy(), fields[0].like()
        copy_shell(a, b, r)
        naive = TrafficStats()
        naive_sweep(kernel, a, b, naive)
        assert _traffic(traffic) == tuple(round_t * v
                                          for v in _traffic(naive))

    # an armed memory.flip keeps the stepwise path (and the bits)
    stepwise = CountingBlocking35D(wrap_kernel(kernel, "fused-numpy"), dim_t,
                                   ty, tx)
    with FAULTS.injected(FaultSpec("memory.flip", "ring", after=10**9)):
        out = stepwise.run(fields[1], case["steps"])
    assert stepwise.stepwise > 0 and not _volume_runners(stepwise)
    assert _sha(out) == _sha(run_naive(kernel, fields[1], case["steps"]))


class TestWhenRoundsAreVolumeRounds:
    def test_small_job_round_is_one_volume_round(self):
        """The serve-small job: 12^3, tile 8, dim_T 2 has kappa 2.78."""
        kernel = SevenPointStencil()
        field = Field3D.random((12, 12, 12), dtype=np.float32, seed=5)
        ex = Blocking35D(wrap_kernel(kernel, "fused-numpy"), 2, 8, 8)
        assert ex.kappa(12, 12, 2) == pytest.approx(400 / 144)
        traffic = TrafficStats()
        TRACE.arm()
        try:
            out = ex.run(field, 6, traffic)
        finally:
            TRACE.disarm()
        names = [s.name for s in TRACE.events()]
        TRACE.reset()
        assert _sha(out) == _sha(run_naive(kernel, field, 6))
        assert names.count("volume_round") == 3
        assert "tile" not in names and "z_iter" not in names
        assert traffic.updates == 10**3 * 6  # compute overestimation 1.0
        assert len(_volume_runners(ex)) == 2  # ping and pong

    def test_backend_compute_fires_once_per_round(self):
        field = Field3D.random((12, 12, 12), dtype=np.float32, seed=5)
        ex = Blocking35D(wrap_kernel(SevenPointStencil(), "fused-numpy"),
                         2, 8, 8)
        probe = FaultSpec("backend.compute", "fused-numpy", after=10**6)
        with FAULTS.injected(probe):
            ex.run(field, 5)
        assert 10**6 - probe.after == 3

    @pytest.mark.parametrize("grid,dim_t,tile", [
        (128, 4, 64),   # the sweep-serial workload: kappa 1.27
        (128, 4, 128),  # halo-4rank's rank regions: one tile, kappa 1.0
        (16, 2, 12),    # kappa 1.56
    ])
    def test_blocking_that_pays_stays_blocked(self, grid, dim_t, tile):
        """Rounds blocking pays for run batched (still blocked, see
        test_batched_rounds.py), a single whole-plane tile included."""
        kernel = wrap_kernel(SevenPointStencil(), "fused-numpy")
        ex = Blocking35D(kernel, dim_t, tile, tile)
        field = Field3D.random((2 * dim_t + 3, grid, grid),
                               dtype=np.float32, seed=1)
        assert ex.kappa(grid, grid, dim_t) <= dim_t
        runner = kernel.sweep_runner(ex, field, field.like(), dim_t)
        assert not _volume_runners(ex)
        assert type(runner) is _BatchedRunner
        assert ex.sweep_runners == [runner]

    def test_bare_and_threaded_rungs_stay_blocked(self):
        kernel = SevenPointStencil()
        field = Field3D.random((10, 12, 12), dtype=np.float32, seed=2)
        ref = run_naive(kernel, field, 4)
        bare = Blocking35D(wrap_kernel(kernel, "numpy-inplace"), 2, 8, 8)
        assert _sha(bare.run(field, 4)) == _sha(ref)
        threaded = ParallelBlocking35D(wrap_kernel(kernel, "fused-numpy"), 2,
                                       8, 8, n_threads=2)
        assert _sha(threaded.run(field, 4)) == _sha(ref)
        assert threaded.inner.sweep_runners == []  # no volume/batched round

    def test_codegen_falls_through_when_it_cannot_lower(
        self, monkeypatch, tmp_path
    ):
        from repro.perf.codegen import (
            CODEGEN_CACHE_ENV,
            CODEGEN_MODE_ENV,
            _CodegenSweepRunner,
        )

        monkeypatch.setenv(CODEGEN_MODE_ENV, "python")
        monkeypatch.setenv(CODEGEN_CACHE_ENV, str(tmp_path / "cg"))
        # e.g. an unwritable generated-module cache
        monkeypatch.setattr(_CodegenSweepRunner, "build",
                            classmethod(lambda cls, *a: None))
        kernel = TwentySevenPointStencil()
        field = Field3D.random((9, 12, 13), dtype=np.float64, seed=3)
        ex = Blocking35D(wrap_kernel(kernel, "codegen"), 2, 8, 8)
        assert _sha(ex.run(field, 5)) == _sha(run_naive(kernel, field, 5))
        assert _volume_runners(ex)

    def test_runners_share_scratch_and_reuse_across_runs(self):
        kernel = SevenPointStencil()
        ex = Blocking35D(wrap_kernel(kernel, "fused-numpy"), 3, 7, 7)
        for seed in range(3):  # a new boundary shell each run
            field = Field3D.random((9, 11, 10), dtype=np.float32, seed=seed)
            out = ex.run(field, 5)  # rounds of 3 and 2
            assert _sha(out) == _sha(run_naive(kernel, field, 5))
        runners = _volume_runners(ex)
        # ping -> pong for round_t 3, pong -> ping for the partial 2
        assert sorted(r.round_t for r in runners) == [2, 3]
        assert len({id(r._scratch) for r in runners}) == 1
        assert len(runners[0]._scratch.vols) == 2
