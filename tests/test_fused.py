"""Tests for the fused z-iteration sweep layer and the wall-clock autotuner.

Fused sweeps (:mod:`repro.perf.fused`) must be *bit-identical* to the naive
reference for every executor, thread count, and dim_T — they re-order
nothing, they only pre-lower the per-step work into one instruction plan per
z-iteration.  The wall-clock autotuner must answer repeat invocations from
its persistent cache with zero probe runs.
"""

import numpy as np
import pytest

from repro.core import Blocking35D, TrafficStats, run_naive
from repro.core.autotune import (
    REPRO_TUNE_CACHE_ENV,
    TuningCache,
    autotune_empirical,
    autotune_wallclock,
    machine_fingerprint,
    shape_class,
)
from repro.machine import CORE_I7
from repro.perf.backends import (
    backend_availability,
    backend_names,
    wrap_kernel,
)
from repro.runtime import ParallelBlocking35D
from repro.stencils import (
    Field3D,
    SevenPointStencil,
    TwentySevenPointStencil,
    VariableCoefficientStencil,
)
from repro.stencils.generic import box_stencil, star_stencil

from .conftest import assert_fields_equal

def _varco(shape, dtype=np.float32):
    rng = np.random.default_rng(7)
    alpha = (0.8 + 0.4 * rng.random(shape)).astype(dtype)
    beta = (0.05 + 0.02 * rng.random(shape)).astype(dtype)
    return VariableCoefficientStencil(alpha=alpha, beta=beta)


def _kernels(shape):
    return {
        "7pt": SevenPointStencil(),
        "27pt": TwentySevenPointStencil(),
        "star-r2": star_stencil(2),
        "box-r1": box_stencil(1),
        "varco": _varco(shape),
    }


def _fused_backends():
    """fused-numpy, plus the compiled rung wherever codegen can bind."""
    names = ["fused-numpy"]
    if backend_availability("codegen")[0]:  # pragma: no cover - needs numba
        names.append("codegen")
    return names


class TestRegistry:
    def test_fused_backends_registered(self):
        assert {"fused-numpy", "codegen"} <= set(backend_names())
        assert backend_availability("fused-numpy") == (True, None)

    def test_wrapping_preserves_kernel_contract(self):
        k = wrap_kernel(star_stencil(2), "fused-numpy")
        assert k.radius == 2
        assert k.ncomp == 1
        inner = SevenPointStencil()
        w = wrap_kernel(inner, "fused-numpy")
        assert type(w.padded_for(1, (8, 8, 8))) is type(w)
        assert type(w.restricted_to(1, 7)) is type(w)


class TestFusedBitExactness:
    @pytest.mark.parametrize("backend", _fused_backends())
    @pytest.mark.parametrize("name", ["7pt", "27pt", "star-r2", "box-r1", "varco"])
    def test_serial_matches_naive(self, backend, name):
        shape = (10, 20, 20)
        kernel = _kernels(shape)[name]
        field = Field3D.random(shape, dtype=np.float32, seed=3)
        wrapped = wrap_kernel(kernel, backend)
        for dim_t, tile in ((1, 20), (2, 12), (3, 10)):
            if tile <= 2 * kernel.radius * dim_t:
                continue
            out = Blocking35D(wrapped, dim_t, tile, tile).run(field, 5)
            ref = run_naive(kernel, field, 5)
            assert_fields_equal(out, ref)

    @pytest.mark.parametrize("backend", _fused_backends())
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("name", ["7pt", "27pt", "star-r2", "varco"])
    def test_parallel_matches_naive(self, backend, threads, name):
        shape = (9, 18, 18)
        kernel = _kernels(shape)[name]
        field = Field3D.random(shape, dtype=np.float32, seed=4)
        wrapped = wrap_kernel(kernel, backend)
        ex = ParallelBlocking35D(wrapped, 2, 12, 12, threads)
        out = ex.run(field, 5)
        ref = run_naive(kernel, field, 5)
        assert_fields_equal(out, ref)

    @pytest.mark.parametrize("backend", _fused_backends())
    def test_double_precision(self, backend):
        field = Field3D.random((8, 16, 16), dtype=np.float64, seed=5)
        wrapped = wrap_kernel(SevenPointStencil(), backend)
        out = Blocking35D(wrapped, 2, 12, 12).run(field, 4)
        assert_fields_equal(out, run_naive(SevenPointStencil(), field, 4))

    @pytest.mark.parametrize("backend", _fused_backends())
    def test_full_plane_tile(self, backend):
        """tile >= plane exercises the direct-store (flat dst) path."""
        field = Field3D.random((8, 12, 12), dtype=np.float32, seed=6)
        wrapped = wrap_kernel(SevenPointStencil(), backend)
        out = Blocking35D(wrapped, 2, 12, 12).run(field, 4)
        assert_fields_equal(out, run_naive(SevenPointStencil(), field, 4))

    def test_multicomponent_fallback(self):
        """ncomp > 1 kernels (LBM) run through the per-plane fallback path."""
        kernel, f = _lbm_case()
        wrapped = wrap_kernel(kernel, "fused-numpy")
        out = Blocking35D(wrapped, 2, 8, 8).run(f, 4)
        assert_fields_equal(out, run_naive(kernel, f, 4))

    def test_traffic_parity_with_numpy_backend(self):
        """Fusing changes execution, not the external-traffic accounting."""
        kernel = SevenPointStencil()
        field = Field3D.random((10, 24, 24), dtype=np.float32, seed=1)
        t_ref, t_fused = TrafficStats(), TrafficStats()
        Blocking35D(wrap_kernel(kernel, "numpy"), 2, 16, 16).run(field, 4, t_ref)
        Blocking35D(wrap_kernel(kernel, "fused-numpy"), 2, 16, 16).run(
            field, 4, t_fused
        )
        assert t_fused.bytes_read == t_ref.bytes_read
        assert t_fused.bytes_written == t_ref.bytes_written
        assert t_fused.plane_loads == t_ref.plane_loads
        assert t_fused.plane_stores == t_ref.plane_stores

    def test_runner_cache_is_reused_across_runs(self):
        kernel = wrap_kernel(SevenPointStencil(), "fused-numpy")
        ex = Blocking35D(kernel, 2, 16, 16)
        field = Field3D.random((8, 16, 16), dtype=np.float32, seed=2)
        ex.run(field, 4)
        ctxs = [c for c in ex._contexts.values()]
        sizes = [len(c.fused) for c in ctxs if c.fused is not None]
        ex.run(field, 4)
        # the ping/pong buffers keep runner identity: no new runners appear
        assert sizes == [len(c.fused) for c in ctxs if c.fused is not None]


def _plan_operands(ex):
    """Per tile context: (runner count, distinct array operand objects)."""
    out = []
    for ctx in ex._contexts.values():
        runners = ctx.fused or []
        objs = {
            id(o): o
            for r in runners
            for ops, *_ in r._plans.values()
            for ins in ops
            for o in ins[1:]
            if isinstance(o, np.ndarray)
        }
        out.append((len(runners), list(objs.values())))
    return out


class TestInternedPlans:
    """Plans share operands: one object per distinct view of a tile."""

    @pytest.mark.parametrize("name", ["7pt", "27pt", "star-r2"])
    def test_operands_unique_and_grow_with_nz(self, name):
        counts = {}
        for nz in (16, 32):
            kernel = _kernels((nz, 24, 24))[name]
            # kappa under dim_T (1.36 radius 1, 1.78 radius 2): blocked.
            # The serial executor runs such multi-tile rounds batched; the
            # one-thread threaded executor keeps one plan per tile (its
            # single row span)
            tile = 16 if kernel.radius == 1 else 20
            ex = ParallelBlocking35D(wrap_kernel(kernel, "fused-numpy"), 2,
                                     tile, tile, n_threads=1)
            field = Field3D.random((nz, 24, 24), dtype=np.float32, seed=3)
            out = ex.run(field, 5)  # rounds of 2, 2, 1: ping and pong runners
            assert_fields_equal(out, run_naive(kernel, field, 5))
            tiles = _plan_operands(ex.inner)
            assert len(tiles) > 1
            assert max(n for n, _ in tiles) == 2
            for _, objs in tiles:
                mem = {
                    (o.__array_interface__["data"][0], o.shape, o.strides)
                    for o in objs
                }
                assert len(mem) == len(objs)  # no two objects alias a view
            counts[nz] = [(n, len(objs)) for n, objs in tiles]
        for (n, o16), (_, o32) in zip(counts[16], counts[32]):
            # only the grid views (one load source, one store target per
            # z and runner) are per plane; ring-side operands are shared
            assert o32 - o16 <= 2 * n * 16


def _lbm_case():
    from repro.lbm import LBMKernel, Lattice

    shape = (8, 10, 10)
    rng = np.random.default_rng(0)
    lat = Lattice.from_moments(
        (1.0 + 0.02 * rng.random(shape)).astype(np.float32),
        (0.01 * (rng.random((3,) + shape) - 0.5)).astype(np.float32),
    )
    return LBMKernel(lat.flags, omega=1.2), lat.f


def _replay_case(name, dtype):
    if name == "lbm":
        return _lbm_case()
    shape = (11, 20, 20)
    field = Field3D.random(shape, dtype=dtype, seed=8)
    return _kernels(shape)[name], field


def _traffic_fields(t: TrafficStats) -> tuple:
    return (t.bytes_read, t.bytes_written, t.updates, t.ops, t.plane_loads,
            t.plane_stores, t.notes)


class TestTileRoundReplay:
    """The serial executor replays each tile-round in one ``run_tile``
    call; per-z-iteration replay and the plain numpy rung must agree with
    it bit for bit and count for count."""

    @pytest.mark.parametrize(
        "name,dtype",
        [(n, np.float32)
         for n in ("7pt", "27pt", "star-r2", "box-r1", "varco", "lbm")]
        + [(n, np.float64) for n in ("7pt", "27pt", "box-r1", "varco")],
    )
    def test_matches_per_iteration_and_numpy_rung(
        self, name, dtype, monkeypatch
    ):
        from repro.perf.fused import _NumpyFusedRunner

        kernel, field = _replay_case(name, dtype)
        steps = 5  # a round of 3 and a partial 2
        # kappa stays under round_t, so every round is blocked: tile 12
        # (kappa 2.56 and 1.96) for the kernels without a flat lowering,
        # whose multi-tile rounds keep per-tile plans; one whole-plane tile
        # for the others (their multi-tile rounds run batched)
        tile = 12 if name in ("varco", "lbm") else 20

        def run(backend):
            traffic = TrafficStats()
            ex = Blocking35D(wrap_kernel(kernel, backend), 3, tile, tile)
            return ex.run(field, steps, traffic), traffic

        calls = []
        whole_tile = _NumpyFusedRunner.run_tile

        def counted(self, traffic=None):
            calls.append(self)
            whole_tile(self, traffic)

        monkeypatch.setattr(_NumpyFusedRunner, "run_tile", counted)
        out_tile, t_tile = run("fused-numpy")
        assert calls  # the untraced serial path took the whole-tile replay
        def per_iteration(self, traffic=None):
            for k in self.iteration_keys:
                self.run_iteration(k, traffic=traffic)

        monkeypatch.setattr(_NumpyFusedRunner, "run_tile", per_iteration)
        out_k, t_k = run("fused-numpy")
        out_ref, t_ref = run("numpy")
        assert_fields_equal(out_tile, out_k)
        assert_fields_equal(out_tile, out_ref)
        assert_fields_equal(out_tile, run_naive(kernel, field, steps))
        assert _traffic_fields(t_tile) == _traffic_fields(t_k)
        assert _traffic_fields(t_tile) == _traffic_fields(t_ref)

    def test_backend_compute_fires_once_per_tile_per_round(self):
        from repro.resilience.faultinject import FAULTS, FaultSpec

        # varco keeps per-tile plans on multi-tile rounds
        kernel = _varco((10, 24, 24))
        field = Field3D.random((10, 24, 24), dtype=np.float32, seed=2)
        # blocked rounds: kappa 2.25 < 3, then 1.78 < 2
        ex = Blocking35D(wrap_kernel(kernel, "fused-numpy"), 3, 14, 14)
        probe = FaultSpec("backend.compute", "fused-numpy", after=10**6)
        with FAULTS.injected(probe):
            ex.run(field, 5)
        expected = sum(len(ex._plan_tiles(24, 24, rt)) for rt in (3, 2))
        assert 10**6 - probe.after == expected

    def test_traced_run_spans_every_iteration_with_identical_bits(self):
        from repro.obs.trace import TRACE

        # varco keeps per-tile plans (and their spans) on multi-tile rounds
        kernel = _varco((10, 24, 24))
        field = Field3D.random((10, 24, 24), dtype=np.float32, seed=2)
        ex = Blocking35D(wrap_kernel(kernel, "fused-numpy"), 2, 12, 12)
        untraced = ex.run(field, 4)
        TRACE.arm()
        try:
            traced = ex.run(field, 4)
        finally:
            TRACE.disarm()
        spans = TRACE.events()
        TRACE.reset()
        assert_fields_equal(traced, untraced)
        tiles = [s for s in spans if s.name == "tile"]
        z_iters = [s for s in spans if s.name == "z_iter"]
        keys = len(ex._get_schedule(10, 2).iterations())
        assert len(tiles) == 2 * len(ex._plan_tiles(24, 24, 2))
        assert len(z_iters) == len(tiles) * keys
        assert all(s.attrs["fused"] for s in z_iters)


class TestMixedPrecisionVarco:
    """float64 coefficients over a float32 field, bound with a bare
    ``wrap_kernel`` (no fallback probe to catch a mismatch): the in-place
    rungs form the coefficient products and their sum in float64, as the
    reference does, so they stay bit-exact."""

    @pytest.mark.parametrize("backend", ["numpy-inplace", "fused-numpy"])
    def test_matches_naive(self, backend):
        shape = (9, 14, 13)
        kernel = _varco(shape, dtype=np.float64)
        field = Field3D.random(shape, dtype=np.float32, seed=11)
        ex = Blocking35D(wrap_kernel(kernel, backend), 2, 10, 10)
        out = ex.run(field, 5)
        assert out.data.dtype == np.float32
        assert_fields_equal(out, run_naive(kernel, field, 5))


class TestRingFlipSite:
    """``memory.flip=ring`` must inject on every rung, not only ``numpy``."""

    @pytest.mark.parametrize("backend", ["numpy", "fused-numpy", "codegen"])
    def test_flip_fires_once_with_identical_bits(
        self, backend, tmp_path, monkeypatch
    ):
        from repro.perf.codegen import CODEGEN_CACHE_ENV, CODEGEN_MODE_ENV
        from repro.resilience.faultinject import FAULTS

        monkeypatch.setenv(CODEGEN_MODE_ENV, "python")
        monkeypatch.setenv(CODEGEN_CACHE_ENV, str(tmp_path / "cg"))
        kernel = SevenPointStencil()
        field = Field3D.random((32, 32, 32), dtype=np.float32, seed=4)

        def flipped_run(name):
            ex = Blocking35D(wrap_kernel(kernel, name), 2, 16, 16)
            before = len(FAULTS.fired)
            with FAULTS.injected("memory.flip=ring:1@3"):
                out = ex.run(field, 4)
            fired = [s for s, _ in FAULTS.fired[before:] if s == "memory.flip"]
            return out, len(fired)

        out, fired = flipped_run(backend)
        ref, ref_fired = flipped_run("numpy")
        assert fired == ref_fired == 1
        assert_fields_equal(out, ref)  # the same bit lands in the same plane
        assert not np.array_equal(out.data, run_naive(kernel, field, 4).data)


class TestProbeValidation:
    def test_empirical_rejects_thin_probe(self):
        with pytest.raises(ValueError, match="no interior"):
            autotune_empirical(
                star_stencil(2), CORE_I7, probe_shape=(4, 64, 64)
            )

    def test_wallclock_rejects_thin_probe(self):
        with pytest.raises(ValueError, match="no interior"):
            autotune_wallclock(
                SevenPointStencil(), probe_shape=(12, 2, 96), use_cache=False
            )

    def test_valid_probe_accepted(self):
        results = autotune_empirical(
            SevenPointStencil(),
            CORE_I7,
            probe_shape=(8, 24, 24),
            dim_t_candidates=(1, 2),
            tile_candidates=(16, 24),
        )
        assert results


class TestTuningCache:
    def test_shape_class_buckets_to_pow2(self):
        assert shape_class((128, 128, 128)) == "128x128x128"
        assert shape_class((120, 100, 65)) == "128x128x128"
        assert shape_class((12, 96, 96)) == "16x128x128"

    def test_fingerprint_is_stable(self):
        assert machine_fingerprint() == machine_fingerprint()

    def test_round_trip(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        entry = {"fingerprint": "abc", "dim_t": 4, "tile": 32}
        cache.put("k", entry)
        reloaded = TuningCache(tmp_path / "tuning.json")
        assert reloaded.get("k", fingerprint="abc") == entry

    def test_fingerprint_mismatch_invalidates(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        cache.put("k", {"fingerprint": "abc", "dim_t": 4, "tile": 32})
        assert cache.get("k", fingerprint="other") is None

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(REPRO_TUNE_CACHE_ENV, str(tmp_path / "alt.json"))
        assert TuningCache().path == tmp_path / "alt.json"

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        path = tmp_path / "tuning.json"
        path.write_text("{not json")
        cache = TuningCache(path)
        assert cache.get("k", fingerprint="abc") is None
        cache.put("k", {"fingerprint": "abc"})  # overwrites cleanly
        assert cache.get("k", fingerprint="abc") is not None

    def test_half_written_file_is_quarantined(self, tmp_path):
        path = tmp_path / "tuning.json"
        path.write_text('{"k": {"fingerprint"')  # truncated by a crash
        cache = TuningCache(path)
        assert cache.get("k", fingerprint="abc") is None
        assert not path.exists()
        assert (tmp_path / "tuning.json.corrupt").exists()

    def test_put_crash_leaves_recoverable_state(self, tmp_path):
        from repro.resilience.faultinject import FAULTS

        path = tmp_path / "tuning.json"
        cache = TuningCache(path)
        with FAULTS.injected("cache.corrupt"):
            cache.put("k", {"fingerprint": "abc"})  # simulated mid-write crash
        # the torn file is quarantined at next load, never parsed as truth
        fresh = TuningCache(path)
        assert fresh.get("k", fingerprint="abc") is None
        assert (tmp_path / "tuning.json.corrupt").exists()
        # and a clean put uses write-then-rename: no temp file survives
        fresh.put("k", {"fingerprint": "abc", "dim_t": 2})
        assert fresh.get("k", fingerprint="abc") is not None
        assert not list(tmp_path.glob("*.tmp"))


class TestWallClockAutotune:
    _kwargs = dict(
        probe_shape=(8, 24, 24),
        dim_t_candidates=(1, 2),
        tile_candidates=(16, 24),
        repeats=2,
        warmup=1,
    )

    def test_cold_run_measures_and_persists(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        res = autotune_wallclock(SevenPointStencil(), cache=cache, **self._kwargs)
        assert not res.from_cache
        assert res.probe_runs > 0
        assert res.best.seconds_per_round > 0
        assert cache.get(res.cache_key) is not None

    def test_warm_cache_performs_zero_probe_runs(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        cold = autotune_wallclock(SevenPointStencil(), cache=cache, **self._kwargs)
        warm = autotune_wallclock(SevenPointStencil(), cache=cache, **self._kwargs)
        assert warm.from_cache
        assert warm.probe_runs == 0
        assert (warm.best.dim_t, warm.best.tile) == (cold.best.dim_t, cold.best.tile)

    def test_refresh_forces_remeasurement(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        autotune_wallclock(SevenPointStencil(), cache=cache, **self._kwargs)
        res = autotune_wallclock(
            SevenPointStencil(), cache=cache, refresh=True, **self._kwargs
        )
        assert not res.from_cache
        assert res.probe_runs > 0

    def test_candidates_ranked_by_measured_time(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        res = autotune_wallclock(SevenPointStencil(), cache=cache, **self._kwargs)
        fitting = [c.seconds_per_update for c in res.candidates if c.fits_capacity]
        assert fitting == sorted(fitting)

    def test_capacity_gate(self, tmp_path):
        cache = TuningCache(tmp_path / "tuning.json")
        res = autotune_wallclock(
            SevenPointStencil(), capacity=1, cache=cache, **self._kwargs
        )
        assert not any(c.fits_capacity for c in res.candidates)

    def test_cache_disabled(self):
        res = autotune_wallclock(
            SevenPointStencil(), use_cache=False, **self._kwargs
        )
        assert not res.from_cache
        assert res.probe_runs > 0


class TestCLI:
    def test_tune_wallclock_mode(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(REPRO_TUNE_CACHE_ENV, str(tmp_path / "tuning.json"))
        assert main(["tune", "--mode", "wallclock", "--kernel", "7pt"]) == 0
        out = capsys.readouterr().out
        assert "dim_T" in out and "wallclock" in out
        # warm repeat answers from the cache
        assert main(["tune", "--mode", "wallclock", "--kernel", "7pt"]) == 0
        assert "0 probe runs" in capsys.readouterr().out

    def test_run_with_wallclock_tuning(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(REPRO_TUNE_CACHE_ENV, str(tmp_path / "tuning.json"))
        rc = main(
            ["run", "--kernel", "7pt", "--grid", "16", "--steps", "2",
             "--tune", "wallclock", "--backend", "fused-numpy"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "autotuned" in out
        assert "bit-identical" in out
