"""Batched rounds: every XY tile of a multi-tile round over one
halo-expanded plane, behind fused-numpy's ``sweep_runner`` hook.

The contract is the executors' usual one: bit-identical to the naive
reference, ``src`` never written, and traffic charged exactly as the
per-tile blocked path (the ``numpy`` rung) charges it.  Single-tile rounds,
rounds blocking cannot pay for (volume rounds), the threaded executor and
kernels without a flat lowering keep their own paths.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, note, settings
from hypothesis import strategies as st

from repro.core import Blocking35D, TrafficStats, run_naive
from repro.obs.trace import TRACE
from repro.perf.backends import wrap_kernel
from repro.perf.fused import _BatchedRunner, _edge_bands
from repro.resilience.faultinject import FAULTS, FaultSpec
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


def _batched(ex) -> list:
    return [r for r in ex.sweep_runners if type(r) is _BatchedRunner]


def _traffic(t: TrafficStats) -> tuple:
    return (t.bytes_read, t.bytes_written, t.updates, t.ops, t.plane_loads,
            t.plane_stores)


def _round(ex, field, round_t):
    """One direct ``sweep_round`` from ``field``: (src, dst, traffic)."""
    src = field.copy()
    dst = Field3D(np.full_like(src.data, np.nan))
    copy_shell(src, dst, ex.kernel.radius)
    traffic = TrafficStats()
    ex.sweep_round(src, dst, round_t, traffic)
    return src, dst, traffic


@st.composite
def _taps_r2(draw):
    offsets = [(dz, dy, dx) for dz in range(-2, 3) for dy in range(-2, 3)
               for dx in range(-2, 3)]
    picked = draw(st.lists(st.sampled_from(offsets), min_size=2, max_size=9,
                           unique=True))
    picked.append((0, 0, 2))  # radius 2 whatever else was drawn
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
    dim_t = draw(st.integers(2, 4))
    halo = 2 * r * dim_t
    ty = draw(st.integers(halo + 1, 3 * halo + 2))
    tx = draw(st.integers(halo + 1, 3 * halo + 2).filter(lambda t: t != ty))
    return {
        "kernel": kernel,
        "shape": (draw(st.integers(2 * r + 1, 2 * r + 6)),
                  draw(st.integers(2 * r + 2, 3 * ty)),
                  draw(st.integers(2 * r + 2, 3 * tx))),
        "dtype": draw(st.sampled_from([np.float32, np.float64])),
        "dim_t": dim_t,
        "tile": (ty, tx),
        # one or two full rounds, then a partial one
        "steps": dim_t * draw(st.integers(1, 2)) + draw(
            st.integers(1, dim_t - 1)),
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(max_examples=60, deadline=None)
@given(case=_cases())
def test_batched_rounds_match_naive_oracle_and_per_tile_traffic(case):
    kernel, dim_t, (ty, tx) = case["kernel"], case["dim_t"], case["tile"]
    nz, ny, nx = case["shape"]
    ex = Blocking35D(wrap_kernel(kernel, "fused-numpy"), dim_t, ty, tx)
    tiles = ex._plan_tiles(ny, nx, dim_t)
    assume(len(tiles) > 1 and ex.kappa(ny, nx, dim_t) <= dim_t)
    note(f"kappa {ex.kappa(ny, nx, dim_t):.3f}, {len(tiles)} tiles")
    fields = [Field3D.random(case["shape"], dtype=case["dtype"],
                             seed=case["seed"] + i) for i in range(2)]

    # whole runs, twice on one executor: warm runners, a new shell
    for field in fields:
        out = ex.run(field, case["steps"])
        assert _sha(out) == _sha(run_naive(kernel, field, case["steps"]))
    assert _batched(ex) and not ex._contexts

    # one direct full round: src untouched, the per-tile oracle's traffic
    src, dst, traffic = _round(ex, fields[0], dim_t)
    assert src.data.tobytes() == fields[0].data.tobytes()
    assert any(r.src_data is src.data for r in _batched(ex))
    oracle = Blocking35D(wrap_kernel(kernel, "numpy"), dim_t, ty, tx)
    _, ref, ref_traffic = _round(oracle, fields[0], dim_t)
    assert dst.data.tobytes() == ref.data.tobytes()
    assert _traffic(traffic) == _traffic(ref_traffic)


class TestDispatch:
    """The sweep-serial round: 128^3 7pt f32, dim_T 4, tile 64."""

    def _ops(self, ex, field, tile):
        kernel = ex.kernel
        src, dst = field, field.like()
        if tile < 128:
            return len(kernel.sweep_runner(ex, src, dst, 4)._ops)
        # the full-plane round: one per-tile plan
        schedule = ex._get_schedule(128, 4)
        (whole,) = ex._plan_tiles(128, 128, 4)
        ctx = ex._tile_context(src, whole, 4)
        runner = kernel.tile_runner(ex, src, dst, ctx, schedule, 4)
        return len(runner._plan(None)[0])

    def test_round_dispatches_like_the_full_plane_plan(self):
        field = Field3D.random((128, 128, 128), dtype=np.float32, seed=1)
        kernel = wrap_kernel(SevenPointStencil(), "fused-numpy")
        batched = self._ops(Blocking35D(kernel, 4, 64, 64), field, 64)
        full = self._ops(Blocking35D(kernel, 4, 128, 128), field, 128)
        # 41,958 over nine per-tile plans before rounds were batched
        assert batched <= 1.5 * full
        assert batched <= 41958 / 4

    def test_runner_is_reused_across_runs_without_rebinding(self, monkeypatch):
        builds = []
        init = _BatchedRunner.__init__

        def counted(self, *args):
            builds.append(self)
            init(self, *args)

        monkeypatch.setattr(_BatchedRunner, "__init__", counted)
        kernel = SevenPointStencil()
        ex = Blocking35D(wrap_kernel(kernel, "fused-numpy"), 4, 64, 64)
        field = Field3D.random((12, 128, 128), dtype=np.float32, seed=1)
        ex.run(field, 4)
        assert len(builds) == 1
        runners = list(ex.sweep_runners)
        out = ex.run(field, 4)
        assert len(builds) == 1 and ex.sweep_runners == runners
        assert _sha(out) == _sha(run_naive(kernel, field, 4))


class TestBatchedRoundContract:
    def _executor(self, dim_t=2, tile=12):
        return Blocking35D(wrap_kernel(SevenPointStencil(), "fused-numpy"),
                           dim_t, tile, tile)

    def test_backend_compute_fires_once_per_round(self):
        field = Field3D.random((10, 24, 24), dtype=np.float32, seed=2)
        ex = self._executor(3, 14)  # kappa 2.25 < 3, then 1.78 < 2
        probe = FaultSpec("backend.compute", "fused-numpy", after=10**6)
        with FAULTS.injected(probe):
            out = ex.run(field, 5)
        assert 10**6 - probe.after == 2
        assert len(_batched(ex)) == 2
        assert _sha(out) == _sha(run_naive(SevenPointStencil(), field, 5))

    def test_traced_run_spans_each_round_once_with_identical_bits(self):
        field = Field3D.random((10, 24, 24), dtype=np.float32, seed=2)
        ex = self._executor()
        untraced = ex.run(field, 4)
        TRACE.arm()
        try:
            traced = ex.run(field, 4)
        finally:
            TRACE.disarm()
        spans = TRACE.events()
        TRACE.reset()
        assert _sha(traced) == _sha(untraced)
        names = [s.name for s in spans]
        assert names.count("batched_round") == names.count("round") == 2
        assert "tile" not in names and "z_iter" not in names
        (tiles,) = {s.attrs["tiles"] for s in spans
                    if s.name == "batched_round"}
        assert tiles == len(ex._plan_tiles(24, 24, 2)) > 1

    def test_ping_pong_share_one_scratch_and_clear_cache_drops_it(self):
        field = Field3D.random((10, 24, 24), dtype=np.float32, seed=2)
        ex = self._executor()
        ex.run(field, 4)
        runners = _batched(ex)
        assert len(runners) == 2
        assert runners[0]._scratch is runners[1]._scratch
        assert ex._contexts == {}  # no per-tile rings
        ex.clear_cache()
        assert ex.sweep_runners == []

    def test_shell_token_skips_the_constant_shell(self):
        kernel = SevenPointStencil()
        field = Field3D.random((10, 24, 24), dtype=np.float32, seed=3)
        ex = self._executor()
        src, dst = field.copy(), field.like()
        copy_shell(src, dst, 1)
        token = object()
        ex.sweep_round(src, dst, 2, _shell_token=token)
        first = dst.data.copy()
        src.data[:, 0] += 1.0  # a Z-shell plane the token says is resident
        ex.sweep_round(src, dst, 2, _shell_token=token)
        assert dst.data.tobytes() == first.tobytes()
        ex.sweep_round(src, dst, 2)  # no token: gathered afresh
        ref = run_naive(kernel, Field3D(src.data.copy()), 2)
        inner = (slice(None), slice(1, 9), slice(1, 23), slice(1, 23))
        assert dst.data[inner].tobytes() == ref.data[inner].tobytes()

    def test_clamped_inner_extents_restore_their_boundary_lanes(self):
        """Tile 8, dim_T 3 on 9 rows: the second tile's extent reaches row
        0, inside the expanded plane."""
        ex = Blocking35D(wrap_kernel(SevenPointStencil(), "fused-numpy"),
                         3, 8, 4)
        ys = list(dict.fromkeys(t.y for t in ex._plan_tiles(9, 4, 3)))
        off = np.cumsum([0] + [t.extent_size for t in ys]).tolist()
        assert _edge_bands(ys, off, 9, 1)
        field = Field3D.random((5, 9, 4), dtype=np.float32, seed=0)
        assert _sha(ex.run(field, 3)) == _sha(
            run_naive(SevenPointStencil(), field, 3))
        assert _batched(ex)
