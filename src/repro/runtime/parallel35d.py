"""Thread-parallel 3.5D executor (paper Sections V-D and V-E).

This is the paper's chosen parallelization — option (2) of Section V-D:

* every XY sub-plane (at every time instance) is divided row-wise across
  *all* threads, so each thread performs the same amount of external memory
  traffic and stencil computation (the load-balance property the tests
  assert);
* the ``2R+2``-plane (concurrent) ring layout makes the ``dim_T + 1`` steps
  of one z-iteration mutually independent, so threads sweep through an
  entire iteration without intermediate synchronization;
* one barrier separates consecutive z-iterations ("There is a barrier after
  each thread has finished its computation before moving to the next z").

Every thread reads from memory for ``t' = 0``, works in the cached buffers
for the intermediate instances, and writes to memory for ``t' = dim_T`` —
unlike wavefront schemes where dedicated threads own time instances and
bandwidth use is imbalanced (the Section II critique of Habich/Wellein).
"""

from __future__ import annotations

import numpy as np

from ..core.blocking35d import Blocking35D
from ..core.schedule import build_schedule
from ..core.traffic import TrafficStats
from ..obs.metrics import METRICS
from ..obs.trace import TRACE
from ..stencils.base import PlaneKernel
from ..stencils.grid import Field3D, copy_shell
from .partition import partition_span
from .threadpool import WorkerPool

__all__ = ["ParallelBlocking35D", "run_parallel_3_5d"]


class ParallelBlocking35D:
    """Row-partitioned threaded 3.5D executor.

    Numerically identical to the serial :class:`Blocking35D` (and hence the
    naive reference); the schedule requires the concurrent (2R+2 slot) ring
    configuration.
    """

    def __init__(
        self,
        kernel: PlaneKernel,
        dim_t: int,
        tile_y: int,
        tile_x: int,
        n_threads: int,
        pool: WorkerPool | None = None,
        validate: bool = False,
        spmd_deadline: float | None = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.inner = Blocking35D(
            kernel, dim_t, tile_y, tile_x, concurrent=True, validate=validate
        )
        self.kernel = kernel
        self.n_threads = n_threads
        self._pool = pool
        self._owns_pool = pool is None
        #: watchdog bound (seconds) on each SPMD launch — i.e. on each
        #: z-iteration barrier interval; ``None`` waits forever (the launch
        #: still fails fast if a worker thread dies).
        self.spmd_deadline = spmd_deadline

    @property
    def dim_t(self) -> int:
        """The temporal blocking factor (per-round step granularity)."""
        return self.inner.dim_t

    # ------------------------------------------------------------------
    def run(
        self,
        field: Field3D,
        steps: int,
        traffic: TrafficStats | None = None,
        per_thread_traffic: list[TrafficStats] | None = None,
    ) -> Field3D:
        """Advance ``field`` by ``steps``; optionally collect per-thread stats."""
        if steps < 0:
            raise ValueError("steps must be >= 0")
        if steps == 0:
            return field.copy()
        pool = self._pool or WorkerPool(self.n_threads)
        try:
            # Persistent ping/pong buffers (see Blocking35D._ping_pong): keeps
            # tile contexts and sweep runners bound across runs; the result
            # is copied out below, so returned fields stay independent.
            src, dst = self.inner._ping_pong(field)
            np.copyto(src.data, field.data)
            copy_shell(src, dst, self.kernel.radius)
            thread_stats = [TrafficStats() for _ in range(self.n_threads)]
            token = object()  # shell planes are loaded once per run
            with TRACE.span("sweep", executor="parallel35d", steps=steps,
                            dim_t=self.inner.dim_t, threads=self.n_threads):
                remaining = steps
                round_index = 0
                while remaining > 0:
                    round_t = min(self.inner.dim_t, remaining)
                    with TRACE.span("round", index=round_index,
                                    round_t=round_t):
                        self._sweep_round(
                            pool, src, dst, round_t, traffic, thread_stats,
                            token
                        )
                    src, dst = dst, src
                    remaining -= round_t
                    round_index += 1
            if traffic is not None:
                for ts in thread_stats:
                    traffic.merge(ts)
            if METRICS.armed:
                METRICS.merge_per_thread_traffic(thread_stats)
            if per_thread_traffic is not None:
                per_thread_traffic.extend(thread_stats)
            return src.copy()
        finally:
            if self._owns_pool:
                pool.shutdown()

    # ------------------------------------------------------------------
    def _sweep_round(
        self,
        pool: WorkerPool,
        src: Field3D,
        dst: Field3D,
        round_t: int,
        traffic: TrafficStats | None,
        thread_stats: list[TrafficStats],
        shell_token: object | None = None,
    ) -> None:
        inner = self.inner
        nz, ny, nx = src.shape
        tiles = inner._plan_tiles(ny, nx, round_t)
        schedule = inner._get_schedule(nz, round_t)
        if traffic is not None:
            traffic.notes.setdefault("tiles_per_round", len(tiles))
            traffic.notes.setdefault("threads", self.n_threads)
            traffic.notes.setdefault("round_t", []).append(round_t)
        # Whole-sweep codegen backends (repro.perf.codegen) execute the
        # entire round in one generated call whose tile loop is a numba
        # ``prange`` — the compiled threads replace the WorkerPool here, and
        # the aggregate traffic lands on thread 0's counters.  Every other
        # backend runs each tile stepwise, each worker on its row span.
        sweep_runner = getattr(self.kernel, "sweep_runner", None)
        if sweep_runner is not None:
            runner = sweep_runner(inner, src, dst, round_t, parallel=True)
            if runner is not None:
                if TRACE.armed:
                    with TRACE.span("codegen_round", tiles=len(tiles),
                                    round_t=round_t, threads=self.n_threads):
                        runner.run(shell_token, thread_stats[0])
                else:
                    runner.run(shell_token, thread_stats[0])
                return
        iterations = schedule.iterations()
        armed = TRACE.armed
        for tile in tiles:
            tile_span = TRACE.span(
                "tile", y0=tile.y.core[0], y1=tile.y.core[1],
                x0=tile.x.core[0], x1=tile.x.core[1],
            ) if armed else None
            if tile_span is not None:
                tile_span.__enter__()
            try:
                ctx = inner._tile_context(src, tile, round_t)
                inner._load_shell_planes(src, ctx, traffic, shell_token)
                rows = partition_span(ctx.ey[0], ctx.ey[1], self.n_threads)
                regions = inner.instance_regions(ctx, src.shape, round_t)
                for k in sorted(iterations):
                    steps_k = iterations[k]

                    def run_iteration(tid: int, steps_k=steps_k) -> None:
                        row = rows[tid]
                        if row[0] >= row[1]:
                            return
                        for step in steps_k:
                            inner.execute_step(
                                src, dst, ctx, step, regions,
                                thread_stats[tid], rows=row
                            )

                    # run_spmd joins all workers: the per-iteration barrier
                    if armed:
                        with TRACE.span("z_iter", k=k):
                            pool.run_spmd(
                                run_iteration, deadline=self.spmd_deadline
                            )
                    else:
                        pool.run_spmd(run_iteration, deadline=self.spmd_deadline)
            finally:
                if tile_span is not None:
                    tile_span.__exit__(None, None, None)


def run_parallel_3_5d(
    kernel: PlaneKernel,
    field: Field3D,
    steps: int,
    dim_t: int,
    tile_y: int,
    tile_x: int,
    n_threads: int = 4,
    *,
    traffic: TrafficStats | None = None,
    validate: bool = False,
) -> Field3D:
    """Convenience wrapper for :class:`ParallelBlocking35D`."""
    return ParallelBlocking35D(
        kernel, dim_t, tile_y, tile_x, n_threads, validate=validate
    ).run(field, steps, traffic)
