"""Tests for the pluggable kernel backends and the zero-allocation hot path."""

import tracemalloc

import numpy as np
import pytest

from repro.core import Blocking4D, Blocking25D, Blocking35D, run_naive
from repro.perf import backends
from repro.perf.backends import (
    REPRO_BACKEND_ENV,
    Backend,
    BackendUnavailableError,
    InplaceKernel,
    available_backends,
    backend_availability,
    backend_names,
    bound_rung,
    default_backend_name,
    get_backend,
    wrap_kernel,
)
from repro.resilience.fallback import FALLBACK_ORDER
from repro.runtime import ParallelBlocking35D
from repro.stencils import Field3D, SevenPointStencil, TwentySevenPointStencil
from repro.stencils.generic import box_stencil, star_stencil

from .conftest import assert_fields_equal

#: steady-state allocations at least this large count as plane-sized
PLANE_BYTES = 16 * 1024


def _kernels():
    return {
        "7pt": SevenPointStencil(),
        "27pt": TwentySevenPointStencil(),
        "star-r2": star_stencil(2),
        "box-r1": box_stencil(1),
    }


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = backend_names()
        assert names == ["numpy", "numpy-inplace", "fused-numpy", "codegen"]

    def test_registry_matches_fallback_ladder(self):
        """Every built-in rung sits on the fallback ladder, and each one
        that can bind here reports itself as the rung it runs on."""
        assert sorted(backend_names()) == sorted(FALLBACK_ORDER)
        for name in FALLBACK_ORDER:
            if backend_availability(name)[0]:
                assert bound_rung(wrap_kernel(SevenPointStencil(), name)) == name

    def test_available_subset(self):
        assert set(available_backends()) <= set(backend_names())
        assert "numpy" in available_backends()
        assert "numpy-inplace" in available_backends()

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("no-such-backend")
        with pytest.raises(ValueError, match="unknown backend"):
            wrap_kernel(SevenPointStencil(), "no-such-backend")

    def test_unavailable_backend_raises(self, monkeypatch):
        """A backend whose probe says no stays listed but refuses to bind."""
        monkeypatch.setitem(backends._REGISTRY, "absent", Backend(
            name="absent", description="never binds", wrap=InplaceKernel,
            probe=lambda: (False, "widget not installed"),
        ))
        assert "absent" in backend_names()
        assert "absent" not in available_backends()
        assert backend_availability("absent") == (False, "widget not installed")
        with pytest.raises(BackendUnavailableError, match="widget not installed"):
            wrap_kernel(SevenPointStencil(), "absent")

    def test_env_var_default(self, monkeypatch):
        monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
        assert default_backend_name() == "fused-numpy"
        assert bound_rung(wrap_kernel(SevenPointStencil())) == "fused-numpy"
        monkeypatch.setenv(REPRO_BACKEND_ENV, "numpy")
        k = SevenPointStencil()
        assert wrap_kernel(k) is k  # the reference stays one variable away
        monkeypatch.setenv(REPRO_BACKEND_ENV, "numpy-inplace")
        assert default_backend_name() == "numpy-inplace"
        assert isinstance(wrap_kernel(SevenPointStencil()), InplaceKernel)

    def test_numpy_backend_is_identity(self):
        k = SevenPointStencil()
        assert wrap_kernel(k, "numpy") is k

    def test_inplace_wrap_is_flat(self):
        k = SevenPointStencil()
        wrapped = wrap_kernel(k, "numpy-inplace")
        assert isinstance(wrapped, InplaceKernel)
        # wrapping a wrapper must not stack adapters
        rewrapped = wrap_kernel(wrapped, "numpy-inplace")
        assert rewrapped.inner is k

    def test_inplace_preserves_contract(self):
        k = TwentySevenPointStencil()
        wrapped = wrap_kernel(k, "numpy-inplace")
        assert wrapped.radius == k.radius
        assert wrapped.ncomp == k.ncomp
        assert wrapped.ops_per_update == k.ops_per_update
        assert wrapped.element_size(np.float32) == k.element_size(np.float32)


class TestBitExactness:
    @pytest.mark.parametrize("backend", ["numpy", "numpy-inplace"])
    @pytest.mark.parametrize("kname", ["7pt", "27pt", "star-r2", "box-r1"])
    def test_all_executors_match_naive(self, backend, kname):
        k = _kernels()[kname]
        field = Field3D.random((14, 30, 30), dtype=np.float32, seed=3)
        ref = run_naive(k, field, 4)
        wk = wrap_kernel(k, backend)
        tile_z = 12 if k.radius > 1 else 8
        executors = [
            Blocking35D(wk, 2, 16, 16, validate=True),
            Blocking35D(wk, 2, 16, 16, concurrent=False, validate=True),
            Blocking25D(wk, 16, 16),
            Blocking4D(wk, 2, tile_z, 16, 16),
            ParallelBlocking35D(wk, 2, 16, 16, n_threads=3),
        ]
        for ex in executors:
            out = ex.run(field, 4)
            assert_fields_equal(out, ref)

    @pytest.mark.parametrize("n_threads", [2, 3, 5])
    def test_parallel_strip_rows_regression(self, n_threads):
        """A row band whose compute slice is empty must still fill its
        boundary-strip rows (regression: star-r2 edge tiles under banding)."""
        k = star_stencil(2)
        field = Field3D.random((14, 30, 30), dtype=np.float32, seed=3)
        ref = run_naive(k, field, 5)
        for backend in ("numpy", "numpy-inplace"):
            wk = wrap_kernel(k, backend)
            out = ParallelBlocking35D(wk, 2, 16, 16, n_threads=n_threads).run(field, 5)
            assert_fields_equal(out, ref)

    def test_lbm_backends_match(self):
        from repro.lbm import LBMKernel, Lattice

        shape = (10, 16, 16)
        rng = np.random.default_rng(9)
        lat = Lattice.from_moments(
            (1.0 + 0.02 * rng.random(shape)).astype(np.float32),
            (0.01 * (rng.random((3,) + shape) - 0.5)).astype(np.float32),
        )
        solid = np.zeros(shape, dtype=bool)
        solid[4:6, 6:9, 6:9] = True
        lat.set_solid(solid)
        k = LBMKernel(lat.flags, omega=1.2)
        ref = run_naive(k, lat.f, 3)
        for backend in ("numpy", "numpy-inplace"):
            wk = wrap_kernel(k, backend)
            out = Blocking35D(wk, 2, 12, 12).run(lat.f, 3)
            assert_fields_equal(out, ref)

    def test_seam_writable_promise_leaves_region_exact(self):
        """seam_writable=True may clobber seam columns but the target region
        must stay bit-identical to the non-hinted call."""
        k = SevenPointStencil()
        wk = InplaceKernel(k)
        rng = np.random.default_rng(5)
        planes = [rng.random((1, 12, 18)).astype(np.float32) for _ in range(3)]
        yr, xr = (2, 9), (3, 14)
        out_plain = np.zeros((1, 12, 18), dtype=np.float32)
        out_hint = np.zeros((1, 12, 18), dtype=np.float32)
        wk.compute_plane(out_plain, planes, yr, xr)
        wk.compute_plane(out_hint, planes, yr, xr, seam_writable=True)
        assert np.array_equal(
            out_hint[0, yr[0] : yr[1], xr[0] : xr[1]],
            out_plain[0, yr[0] : yr[1], xr[0] : xr[1]],
        )


class TestSteadyStateAllocations:
    def test_sweep_round_allocates_no_planes_once_warm(self):
        """After warm-up, an in-place 3.5D sweep's transient allocation peak
        stays far below one plane (the numpy backend churns several)."""
        k = wrap_kernel(SevenPointStencil(), "numpy-inplace")
        field = Field3D.random((24, 48, 48), dtype=np.float32, seed=21)
        ex = Blocking35D(k, 2, 48, 48)
        from repro.stencils.grid import copy_shell

        src, dst = field.copy(), field.like()
        copy_shell(src, dst, k.radius)
        ex.sweep_round(src, dst, 2)  # warm-up: rings, arenas, plans
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ex.sweep_round(src, dst, 2)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak - baseline < PLANE_BYTES

    def test_arena_reuses_buffers(self):
        k = wrap_kernel(SevenPointStencil(), "numpy-inplace")
        field = Field3D.random((12, 24, 24), dtype=np.float32, seed=22)
        ex = Blocking35D(k, 2, 24, 24)
        ex.run(field, 4)
        allocs_after_first = k.arena.allocations
        ex.run(field, 4)
        assert k.arena.allocations == allocs_after_first
        assert k.arena.hits > 0


class TestExecutorCacheReuse:
    @pytest.mark.parametrize("backend", ["numpy", "numpy-inplace"])
    def test_rerun_with_new_contents(self, backend):
        """Persistent tile state must not leak values between run() calls."""
        k = _kernels()["7pt"]
        wk = wrap_kernel(k, backend)
        ex = Blocking35D(wk, 2, 16, 16)
        for seed in (1, 2, 3):
            field = Field3D.random((12, 26, 26), dtype=np.float32, seed=seed)
            assert_fields_equal(ex.run(field, 4), run_naive(k, field, 4))

    def test_rerun_with_new_shape_and_dtype(self):
        k = _kernels()["7pt"]
        ex = Blocking35D(wrap_kernel(k, "numpy-inplace"), 2, 16, 16)
        for shape, dtype in [
            ((12, 26, 26), np.float32),
            ((10, 20, 32), np.float32),
            ((12, 26, 26), np.float64),
        ]:
            field = Field3D.random(shape, dtype=dtype, seed=4)
            assert_fields_equal(ex.run(field, 3), run_naive(k, field, 3))

    def test_clear_cache_still_correct(self):
        k = _kernels()["27pt"]
        ex = Blocking35D(wrap_kernel(k, "numpy-inplace"), 2, 16, 16)
        field = Field3D.random((12, 26, 26), dtype=np.float32, seed=6)
        ref = run_naive(k, field, 4)
        assert_fields_equal(ex.run(field, 4), ref)
        ex.clear_cache()
        assert_fields_equal(ex.run(field, 4), ref)


class TestRoundNotes:
    def test_35d_records_actual_round_t(self):
        from repro.core import TrafficStats

        k = SevenPointStencil()
        field = Field3D.random((10, 20, 20), dtype=np.float32, seed=8)
        traffic = TrafficStats()
        Blocking35D(k, 2, 20, 20).run(field, 3, traffic)
        # steps=3, dim_t=2: a full round then a remainder round
        assert traffic.notes["round_t"] == [2, 1]
        assert traffic.notes["dim_t"] == 2

    def test_parallel_35d_records_actual_round_t(self):
        from repro.core import TrafficStats

        k = SevenPointStencil()
        field = Field3D.random((10, 20, 20), dtype=np.float32, seed=8)
        traffic = TrafficStats()
        ParallelBlocking35D(k, 2, 20, 20, n_threads=2).run(field, 5, traffic=traffic)
        assert traffic.notes["round_t"] == [2, 2, 1]

    def test_4d_records_actual_round_t(self):
        from repro.core import TrafficStats

        k = SevenPointStencil()
        field = Field3D.random((12, 20, 20), dtype=np.float32, seed=8)
        traffic = TrafficStats()
        Blocking4D(k, 2, 8, 20, 20).run(field, 3, traffic)
        assert traffic.notes["round_t"] == [2, 1]


class TestAutotuneBackend:
    def test_autotune_accepts_backend(self):
        from repro.core import autotune_empirical
        from repro.machine import CORE_I7

        cands = autotune_empirical(
            SevenPointStencil(),
            CORE_I7,
            np.float32,
            probe_shape=(8, 24, 24),
            dim_t_candidates=(1, 2),
            tile_candidates=(24,),
            backend="numpy-inplace",
        )
        assert cands
        assert all(c.predicted_time_per_update > 0 for c in cands)

    def test_autotune_unknown_backend(self):
        from repro.core import autotune_empirical
        from repro.machine import CORE_I7

        with pytest.raises(ValueError, match="unknown backend"):
            autotune_empirical(
                SevenPointStencil(),
                CORE_I7,
                np.float32,
                probe_shape=(8, 24, 24),
                backend="no-such-backend",
            )
