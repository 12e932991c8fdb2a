"""Tests for plan-level codegen: whole-sweep generated kernels.

The ``codegen`` backend (:mod:`repro.perf.codegen`) lowers an entire 3.5D
round — tile loop, ring-buffer plane rotation, seam writes, all dim_T
z-iterations — into one generated kernel, disk-cached per machine
fingerprint + plan hash.  The generated code must be *bit-identical* to the
fused/naive paths for every supported stencil kind, on every executor, and
the cache must answer warm starts with zero regeneration while corrupt
entries are quarantined and rebuilt.

The suite pins ``REPRO_CODEGEN_MODE=python`` so the generated source runs
interpreted — the container has no numba — which exercises the identical
generated text the JIT would compile.
"""

import os

import numpy as np
import pytest

from repro.core import Blocking35D, TrafficStats, run_naive
from repro.core.autotune import machine_fingerprint
from repro.perf.backends import (
    backend_availability,
    bound_rung,
    get_backend,
    wrap_kernel,
)
from repro.perf.codegen import (
    CODEGEN_CACHE_ENV,
    CODEGEN_MODE_ENV,
    CODEGEN_STATS,
    CodegenCache,
    CodegenSweepKernel,
    clear_module_cache,
    codegen_available,
    codegen_mode,
    generate_sweep_source,
    plan_hash,
)
from repro.resilience import bind_with_fallback
from repro.runtime import ParallelBlocking35D
from repro.stencils import (
    Field3D,
    GenericStencil,
    SevenPointStencil,
    TwentySevenPointStencil,
    VariableCoefficientStencil,
)

from .conftest import assert_fields_equal

with pytest.MonkeyPatch.context() as _mp:
    _mp.delenv(CODEGEN_MODE_ENV, raising=False)
    #: whether codegen's default (numba) mode can bind here
    _NUMBA = codegen_available()[0]


@pytest.fixture(autouse=True)
def _codegen_env(tmp_path, monkeypatch):
    """Interpreted mode + per-test cache dir; fresh stats every test."""
    monkeypatch.setenv(CODEGEN_MODE_ENV, "python")
    monkeypatch.setenv(CODEGEN_CACHE_ENV, str(tmp_path / "cgcache"))
    clear_module_cache()
    CODEGEN_STATS.reset()
    yield
    clear_module_cache()
    CODEGEN_STATS.reset()


def _generic_r1():
    taps = {(0, 0, 0): np.float32(-6.0)}
    for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                       (0, 0, 1), (0, 0, -1)):
        taps[(dz, dy, dx)] = np.float32(1.0 + 0.01 * (dz + dy + dx))
    return GenericStencil(taps)


def _varco(shape, dtype=np.float32):
    rng = np.random.default_rng(7)
    return VariableCoefficientStencil(
        alpha=(0.8 + 0.4 * rng.random(shape)).astype(dtype),
        beta=(0.05 + 0.02 * rng.random(shape)).astype(dtype),
    )


def _kernels(shape):
    return {
        "7pt": SevenPointStencil(),
        "27pt": TwentySevenPointStencil(),
        "generic-r1": _generic_r1(),
        "varco": _varco(shape),
    }


class TestAvailability:
    def test_registered_with_dynamic_probe(self):
        b = get_backend("codegen")
        assert b.probe is not None
        ok, reason = backend_availability("codegen")
        assert ok and reason is None  # python mode forced by the fixture

    def test_python_mode_is_always_available(self):
        assert codegen_mode() == "python"
        assert codegen_available() == (True, None)

    @pytest.mark.skipif(_NUMBA, reason="numba installed: codegen is available")
    def test_numba_mode_unavailable_reason_is_actionable(self, monkeypatch):
        monkeypatch.delenv(CODEGEN_MODE_ENV, raising=False)
        ok, reason = codegen_available()
        assert not ok
        assert "pip install numba" in reason
        assert "REPRO_CODEGEN_MODE=python" in reason

    @pytest.mark.skipif(_NUMBA, reason="numba installed: codegen is available")
    def test_fallback_on_missing_numba(self, monkeypatch):
        from repro.resilience import DegradedExecutionWarning

        monkeypatch.delenv(CODEGEN_MODE_ENV, raising=False)
        with pytest.warns(DegradedExecutionWarning):
            bound = bind_with_fallback(SevenPointStencil(), "codegen")
        assert bound.used == "fused-numpy"
        assert bound.degraded
        assert bound.degradations[0].backend == "codegen"

    def test_wrap_preserves_kernel_contract(self):
        wrapped = wrap_kernel(SevenPointStencil(), "codegen")
        assert isinstance(wrapped, CodegenSweepKernel)
        assert wrapped.radius == 1
        assert bound_rung(wrapped) == "codegen"


class TestBitExactness:
    @pytest.mark.parametrize("name", ["7pt", "27pt", "generic-r1", "varco"])
    def test_serial_matches_naive(self, name):
        shape = (10, 20, 20)
        kernel = _kernels(shape)[name]
        field = Field3D.random(shape, dtype=np.float32, seed=3)
        wrapped = wrap_kernel(kernel, "codegen")
        for dim_t, tile in ((1, 20), (2, 12), (3, 10)):
            out = Blocking35D(wrapped, dim_t, tile, tile).run(field, 5)
            assert_fields_equal(out, run_naive(kernel, field, 5))

    @pytest.mark.parametrize("name", ["7pt", "27pt", "generic-r1", "varco"])
    def test_matches_fused_numpy_bitwise(self, name):
        shape = (9, 17, 19)
        kernel = _kernels(shape)[name]
        field = Field3D.random(shape, dtype=np.float32, seed=8)
        out_cg = Blocking35D(
            wrap_kernel(kernel, "codegen"), 2, 6, 8).run(field, 4)
        out_fn = Blocking35D(
            wrap_kernel(kernel, "fused-numpy"), 2, 6, 8).run(field, 4)
        assert_fields_equal(out_cg, out_fn)

    def test_non_dividing_tiles_seam_path(self):
        """Tile shapes that don't divide the plane exercise seam writes."""
        kernel = SevenPointStencil()
        field = Field3D.random((8, 19, 23), dtype=np.float32, seed=9)
        wrapped = wrap_kernel(kernel, "codegen")
        out = Blocking35D(wrapped, 2, 7, 5).run(field, 4)
        assert_fields_equal(out, run_naive(kernel, field, 4))

    def test_partial_final_round(self):
        kernel = SevenPointStencil()
        field = Field3D.random((10, 20, 20), dtype=np.float32, seed=10)
        out = Blocking35D(wrap_kernel(kernel, "codegen"), 3, 8, 8).run(field, 7)
        assert_fields_equal(out, run_naive(kernel, field, 7))

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("name", ["7pt", "27pt", "generic-r1", "varco"])
    def test_parallel_matches_naive(self, threads, name):
        shape = (9, 18, 18)
        kernel = _kernels(shape)[name]
        field = Field3D.random(shape, dtype=np.float32, seed=4)
        wrapped = wrap_kernel(kernel, "codegen")
        out = ParallelBlocking35D(wrapped, 2, 12, 12, threads).run(field, 5)
        assert_fields_equal(out, run_naive(kernel, field, 5))

    def test_double_precision(self):
        field = Field3D.random((8, 16, 16), dtype=np.float64, seed=5)
        wrapped = wrap_kernel(SevenPointStencil(), "codegen")
        out = Blocking35D(wrapped, 2, 12, 12).run(field, 4)
        assert_fields_equal(out, run_naive(SevenPointStencil(), field, 4))

    def test_multicomponent_falls_through_to_fused(self):
        """ncomp > 1 kernels (LBM) run on the inherited fused path."""
        from repro.lbm import LBMKernel, Lattice

        shape = (8, 10, 10)
        rng = np.random.default_rng(0)
        lat = Lattice.from_moments(
            (1.0 + 0.02 * rng.random(shape)).astype(np.float32),
            (0.01 * (rng.random((3,) + shape) - 0.5)).astype(np.float32),
        )
        kernel = LBMKernel(lat.flags, omega=1.2)
        wrapped = wrap_kernel(kernel, "codegen")
        ex = Blocking35D(wrapped, 2, 8, 8)
        out = ex.run(lat.f, 4)
        assert_fields_equal(out, run_naive(kernel, lat.f, 4))
        # no whole-sweep runner was built for a multicomponent kernel
        assert wrapped.sweep_runner(ex, lat.f, lat.f.like(), 2) is None

    def test_traffic_parity_with_fused_numpy(self):
        """Codegen changes execution, not the external-traffic accounting."""
        kernel = SevenPointStencil()
        field = Field3D.random((10, 24, 24), dtype=np.float32, seed=1)
        t_cg, t_fn = TrafficStats(), TrafficStats()
        Blocking35D(wrap_kernel(kernel, "codegen"), 2, 16, 16).run(
            field, 4, t_cg)
        Blocking35D(wrap_kernel(kernel, "fused-numpy"), 2, 16, 16).run(
            field, 4, t_fn)
        assert t_cg.bytes_read == t_fn.bytes_read
        assert t_cg.bytes_written == t_fn.bytes_written
        assert t_cg.plane_loads == t_fn.plane_loads
        assert t_cg.plane_stores == t_fn.plane_stores
        assert t_cg.updates == t_fn.updates
        assert t_cg.ops == t_fn.ops

    def test_guarded_sweep_and_trace_paths(self):
        from repro.obs import TRACE
        from repro.resilience import GuardedSweep

        kernel = SevenPointStencil()
        field = Field3D.random((8, 16, 16), dtype=np.float32, seed=13)
        ref = run_naive(kernel, field, 4)
        wrapped = wrap_kernel(kernel, "codegen")
        guard = GuardedSweep(Blocking35D(wrapped, 2, 12, 12))
        assert_fields_equal(guard.run(field, 4), ref)  # disarmed fast path
        TRACE.arm()
        try:
            assert_fields_equal(guard.run(field, 4), ref)
            names = {e.name for e in TRACE.events()}
            assert "codegen_round" in names
        finally:
            TRACE.disarm()


class TestSourceAndHash:
    def test_generated_source_is_plain_python(self):
        src = generate_sweep_source("7pt", parallel=False)
        compile(src, "<codegen>", "exec")  # must be syntactically valid
        assert "def sweep_py(" in src
        assert "prange" in src  # import guard is always emitted

    def test_parallel_variant_uses_prange_loop(self):
        ser = generate_sweep_source("7pt", parallel=False)
        par = generate_sweep_source("7pt", parallel=True)
        assert ser != par
        assert "in prange(ntiles)" in par

    def test_plan_hash_separates_kind_and_parallel(self):
        hashes = {
            plan_hash(kind, par)
            for kind in ("7pt", "27pt", "taps", "varco")
            for par in (False, True)
        }
        assert len(hashes) == 8

    def test_fingerprint_includes_cache_dir(self, tmp_path, monkeypatch):
        base = machine_fingerprint()
        monkeypatch.setenv(CODEGEN_CACHE_ENV, str(tmp_path / "elsewhere"))
        assert machine_fingerprint() != base


class TestDiskCache:
    def test_entry_written_under_fingerprint_dir(self):
        kernel = wrap_kernel(SevenPointStencil(), "codegen")
        field = Field3D.random((6, 12, 12), dtype=np.float32, seed=2)
        Blocking35D(kernel, 2, 8, 8).run(field, 2)
        cache = CodegenCache()
        assert cache.dir().name == machine_fingerprint()
        entries = cache.entries()
        assert len(entries) == 1
        name = entries[0].name
        assert name.startswith("sweep_7pt_ser_") and name.endswith(".py")

    def test_warm_start_performs_zero_generation(self):
        kernel = SevenPointStencil()
        field = Field3D.random((6, 12, 12), dtype=np.float32, seed=2)
        Blocking35D(wrap_kernel(kernel, "codegen"), 2, 8, 8).run(field, 2)
        assert CODEGEN_STATS.snapshot()["generated"] == 1
        # simulate a fresh process against the populated disk cache
        clear_module_cache()
        CODEGEN_STATS.reset()
        Blocking35D(wrap_kernel(kernel, "codegen"), 2, 8, 8).run(field, 2)
        snap = CODEGEN_STATS.snapshot()
        assert snap["generated"] == 0
        assert snap["loaded"] >= 1
        assert snap["quarantined"] == 0

    def test_corrupt_entry_quarantined_and_regenerated(self):
        kernel = SevenPointStencil()
        field = Field3D.random((6, 12, 12), dtype=np.float32, seed=2)
        ref = run_naive(kernel, field, 2)
        Blocking35D(wrap_kernel(kernel, "codegen"), 2, 8, 8).run(field, 2)
        path = CodegenCache().entries()[0]
        path.write_text("garbage not python {", encoding="utf-8")
        clear_module_cache()
        CODEGEN_STATS.reset()
        out = Blocking35D(wrap_kernel(kernel, "codegen"), 2, 8, 8).run(field, 2)
        assert_fields_equal(out, ref)
        snap = CODEGEN_STATS.snapshot()
        assert snap["quarantined"] == 1
        assert snap["generated"] == 1
        quarantined = list(CodegenCache().dir().glob("*.corrupt"))
        assert len(quarantined) == 1

    def test_repeat_corruption_keeps_distinct_evidence(self):
        kernel = SevenPointStencil()
        field = Field3D.random((6, 12, 12), dtype=np.float32, seed=2)
        for _ in range(2):
            Blocking35D(wrap_kernel(kernel, "codegen"), 2, 8, 8).run(field, 2)
            CodegenCache().entries()[0].write_text("garbage {", encoding="utf-8")
            clear_module_cache()
        CODEGEN_STATS.reset()
        out = Blocking35D(wrap_kernel(kernel, "codegen"), 2, 8, 8).run(field, 2)
        assert_fields_equal(out, run_naive(kernel, field, 2))
        assert CODEGEN_STATS.snapshot()["quarantined"] == 1
        quarantined = list(CodegenCache().dir().glob("*.corrupt"))
        assert len(quarantined) == 2  # unique names: the first sample survives

    def test_clear_removes_entries(self):
        kernel = wrap_kernel(SevenPointStencil(), "codegen")
        field = Field3D.random((6, 12, 12), dtype=np.float32, seed=2)
        Blocking35D(kernel, 2, 8, 8).run(field, 2)
        cache = CodegenCache()
        assert cache.entries()
        cache.clear()
        assert cache.entries() == []

    def test_runner_cache_reused_and_dropped_from_state(self):
        kernel = wrap_kernel(SevenPointStencil(), "codegen")
        ex = Blocking35D(kernel, 2, 8, 8)
        field = Field3D.random((6, 12, 12), dtype=np.float32, seed=2)
        ex.run(field, 4)
        runners = list(ex.sweep_runners)
        assert runners  # ping/pong pair bound once
        ex.run(field, 4)
        assert ex.sweep_runners == runners
        # bound runners hold grid-sized buffers + a loaded module: they live
        # on the executor, never in the kernel's state
        assert "_sweep_runners" not in vars(kernel)


class TestDistributedAndCLI:
    def test_distributed_per_rank_compute(self):
        from repro.distributed.runner import DistributedJacobi

        kernel = SevenPointStencil()
        field = Field3D.random((16, 14, 12), dtype=np.float32, seed=6)
        wrapped = wrap_kernel(kernel, "codegen")
        dj = DistributedJacobi(wrapped, n_ranks=3, dim_t=2, scheme="35d",
                               tile_y=8, tile_x=8)
        out, _comm = dj.run(field, 5)
        assert_fields_equal(out, run_naive(kernel, field, 5))

    def test_cli_run_backend_codegen(self, capsys):
        from repro.cli import main

        rc = main(["run", "--kernel", "7pt", "--grid", "16", "--steps", "2",
                   "--tile", "8", "--backend", "codegen"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "backend      : codegen" in captured.out
        assert "bit-identical" in captured.out

    def test_cli_info_lists_codegen(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "codegen" in out

    def test_cache_env_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CODEGEN_CACHE_ENV, str(tmp_path / "other"))
        cache = CodegenCache()
        assert str(cache.dir()).startswith(str(tmp_path / "other"))
        assert os.environ[CODEGEN_CACHE_ENV] == str(tmp_path / "other")
