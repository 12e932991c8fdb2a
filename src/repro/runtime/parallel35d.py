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

from functools import partial

from ..core.blocking35d import Blocking35D
from ..core.rounds import run_rounds
from ..core.traffic import TrafficStats
from ..obs.metrics import METRICS
from ..obs.trace import TRACE
from ..stencils.base import PlaneKernel
from ..stencils.grid import Field3D
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
        self._thread_stats: list[TrafficStats] = []  # the run's, per thread
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
        """Advance ``field`` by ``steps``; optionally collect per-thread stats
        (GuardedSweep's loop over :meth:`open_rounds`, see :func:`run_rounds`)."""
        out = run_rounds(self, field, steps, traffic, executor="parallel35d",
                         threads=self.n_threads)
        if per_thread_traffic is not None:
            per_thread_traffic.extend(self._thread_stats)
        return out

    def open_rounds(self, field: Field3D, sdc=None):
        """GuardedSweep's hook: the serial executor's ping-pong buffers
        (see :meth:`PingPong.open`), stepped by the pool round.  Closing
        the run records its per-thread traffic in METRICS."""
        self._thread_stats = [TrafficStats() for _ in range(self.n_threads)]
        return self.inner.buffers.open(
            field, self.kernel.radius, self._sweep_round,
            partial(METRICS.merge_per_thread_traffic, self._thread_stats))

    def _sweep_round(self, src: Field3D, dst: Field3D, round_t: int,
                     traffic: TrafficStats | None = None, *,
                     _shell_token: object | None = None) -> None:
        """One round, each tile's z-iterations split row-wise over the
        worker pool.  A pool this executor creates lives for the round
        only, so no worker outlives a round that raises.  Per-thread
        traffic folds into ``traffic`` (this attempt's counter) and into
        the run's per-thread totals."""
        inner = self.inner
        nz, ny, nx = src.shape
        tiles = inner._plan_tiles(ny, nx, round_t)
        if traffic is not None:
            traffic.notes.setdefault("tiles_per_round", len(tiles))
            traffic.notes.setdefault("threads", self.n_threads)
            traffic.notes.setdefault("round_t", []).append(round_t)
        stats = [TrafficStats() for _ in range(self.n_threads)]
        # Whole-sweep codegen backends (repro.perf.codegen) execute the
        # entire round in one generated call whose tile loop is a numba
        # ``prange`` — the compiled threads replace the WorkerPool here, and
        # the aggregate traffic lands on thread 0's counters.  Every other
        # backend runs each tile stepwise, each worker on its row span.
        sweep_runner = getattr(self.kernel, "sweep_runner", None)
        runner = None if sweep_runner is None else sweep_runner(
            inner, src, dst, round_t, parallel=True)
        if runner is not None:
            with TRACE.span("codegen_round", tiles=len(tiles),
                            round_t=round_t, threads=self.n_threads):
                runner.run(_shell_token, stats[0])
        else:
            iterations = inner._get_schedule(nz, round_t).iterations()
            pool = self._pool or WorkerPool(self.n_threads)
            try:
                for tile in tiles:
                    with TRACE.span("tile", y0=tile.y.core[0],
                                    y1=tile.y.core[1], x0=tile.x.core[0],
                                    x1=tile.x.core[1]):
                        self._pool_tile(pool, src, dst, tile, iterations,
                                        round_t, traffic, stats, _shell_token)
            finally:
                if self._owns_pool:
                    pool.shutdown()
        for total, ts in zip(self._thread_stats, stats):
            total.merge(ts)
            if traffic is not None:
                traffic.merge(ts)

    def _pool_tile(self, pool, src, dst, tile, iterations, round_t, traffic,
                   stats, shell_token) -> None:
        """One tile's round, one SPMD launch per z-iteration."""
        inner = self.inner
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
                    inner.execute_step(src, dst, ctx, step, regions,
                                       stats[tid], rows=row)

            # run_spmd joins all workers: the per-iteration barrier
            with TRACE.span("z_iter", k=k):
                pool.run_spmd(run_iteration, deadline=self.spmd_deadline)


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
