"""The 3.5D blocking executor (paper Section V, especially V-C and V-E).

3.5D blocking = 2.5D spatial blocking (block the XY plane, stream through Z)
combined with 1D temporal blocking (execute ``dim_T`` time steps while the
working set is resident on chip).  Per round of ``dim_T`` steps each grid
element is read from and written to external memory once, cutting bandwidth
demand by ``dim_T / kappa`` where ``kappa`` is the ghost-layer
overestimation of Equation 2.

The implementation follows the paper's three phases — prolog, steady-state
stencil computation, epilog — by driving the explicit step schedule of
:mod:`repro.core.schedule` over the ring buffers of
:mod:`repro.core.buffer`:

* time instance 0 loads XY sub-planes of the source grid into its ring
  (**the** external-memory read),
* instances ``1 .. dim_T-1`` compute into their rings, each on a region that
  shrinks by R per instance away from cut tile edges (the trapezoid of
  :mod:`repro.core.regions`),
* instance ``dim_T`` computes the tile core and writes it straight to the
  destination grid (**the** external-memory write).

Planes in the fixed boundary shell (both the Z shell and the XY strips of
tiles that touch the grid edge) are constant in time; they are loaded once
per tile into persistent side buffers and served from there at every time
instance.

Executed single-threaded here; :mod:`repro.runtime.parallel35d` runs the same
schedule with each plane partitioned row-wise across a thread pool, which is
the paper's TLP scheme (Section V-D, option 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.trace import TRACE
from ..stencils.base import PlaneKernel
from ..stencils.grid import Field3D
from .buffer import RingSet
from .regions import Tile2D, compute_range, plan_tiles_2d
from .rounds import PingPong, run_rounds
from .schedule import Schedule, StepKind, build_schedule
from .traffic import TrafficStats

__all__ = ["Blocking35D", "run_3_5d", "TileContext"]

#: lazily bound process-wide fault injector (layering: core must not pull
#: in repro.resilience at import time — see TuningCache for the pattern)
_FAULTS = None


def _ring_flip_probe(slot: np.ndarray, entropy: list[int]) -> None:
    """The ``memory.flip=ring`` fault site: corrupt a freshly loaded ring
    plane (the 3.5D scheme's on-chip working set).

    The flip lands *between* the external-memory read and every compute
    that consumes the plane, so it propagates into the round's output —
    exactly the in-flight SDC the re-execution check of
    :mod:`repro.resilience.sdc` exists to catch.  The ``:times`` budget is
    the bit count, drained like :func:`~repro.resilience.sdc.inject_flips`.
    """
    global _FAULTS
    if _FAULTS is None:
        from ..resilience.faultinject import FAULTS

        _FAULTS = FAULTS
    if not _FAULTS.should("memory.flip", "ring"):
        return
    from ..resilience.sdc import MAX_FLIPS_PER_PROBE, flip_bits

    bits = 1
    while bits < MAX_FLIPS_PER_PROBE and _FAULTS.should("memory.flip", "ring"):
        bits += 1
    flip_bits(slot, bits, entropy=entropy)


@dataclass
class TileContext:
    """Per-tile working state: rings plus persistent boundary-plane copies.

    Contexts are cached by the executor across rounds and across ``run()``
    calls, so in the steady state a sweep allocates no plane-sized buffers:
    the rings and shell-plane copies are reused, only their *contents* are
    refreshed when a new source grid arrives.
    """

    tile: Tile2D
    rings: RingSet
    #: persistent copies of the Z-shell planes over this tile's extent,
    #: indexed by global plane number.
    shell_planes: dict[int, np.ndarray]
    #: identity of the run whose shell values currently fill ``shell_planes``;
    #: the shell is constant in time, so it is copied once per run, not per
    #: round (``None`` = stale, must be refreshed).
    shell_token: object | None = None
    #: bytes per grid point, cached here so the per-step traffic accounting
    #: does not re-derive it from the source field on every schedule step.
    esize: int = 0

    @property
    def ey(self) -> tuple[int, int]:
        return self.tile.y.extent

    @property
    def ex(self) -> tuple[int, int]:
        return self.tile.x.extent


class Blocking35D:
    """Reusable 3.5D executor bound to a kernel and blocking parameters.

    Parameters
    ----------
    kernel:
        Any :class:`~repro.stencils.base.PlaneKernel`.
    dim_t:
        Temporal blocking factor (the paper's ``dim_T``).
    tile_y, tile_x:
        On-chip blocking dimensions (the paper's ``dim_Y``, ``dim_X``).
    concurrent:
        ``True`` uses ``2R+2`` ring slots and the lag-(R+1) schedule whose
        per-iteration steps are mutually independent; ``False`` uses the
        minimal ``2R+1``-slot sequential schedule.
    validate:
        Validate the schedule's dependency/liveness invariants up front.
    """

    def __init__(
        self,
        kernel: PlaneKernel,
        dim_t: int,
        tile_y: int,
        tile_x: int,
        concurrent: bool = True,
        validate: bool = False,
    ) -> None:
        if dim_t < 1:
            raise ValueError("dim_t must be >= 1")
        self.kernel = kernel
        self.dim_t = dim_t
        self.tile_y = tile_y
        self.tile_x = tile_x
        self.concurrent = concurrent
        self.validate = validate
        # Steady-state caches: persistent per-tile contexts plus the tiling
        # and schedule plans, all keyed by the geometry that determines them.
        self._contexts: dict = {}
        self._tile_plans: dict = {}
        self._schedules: dict = {}
        #: persistent source/destination grids of every run
        self.buffers = PingPong()
        self._kappas: dict = {}
        #: whole-round runners bound by sweep-runner backends (codegen and
        #: fused-numpy batched and volume rounds), kept here so they live
        #: and die with the executor they bind.
        self.sweep_runners: list = []
        # Intermediate ring planes have dead seam positions (either refreshed
        # by the strip fill right after the compute, or outside every later
        # read window), so kernels that understand the seam-writable promise
        # can skip their copy-out there.
        self._seam_hint = bool(getattr(kernel, "accepts_seam_hint", False))

    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop all cached tile contexts, tilings, schedules, run buffers
        and bound sweep runners."""
        self._contexts.clear()
        self._tile_plans.clear()
        self._schedules.clear()
        self.buffers.clear()
        self._kappas.clear()
        self.sweep_runners.clear()

    # ------------------------------------------------------------------
    def run(
        self,
        field: Field3D,
        steps: int,
        traffic: TrafficStats | None = None,
    ) -> Field3D:
        """Advance ``field`` by ``steps`` time steps; input is untouched
        (GuardedSweep's loop over :meth:`open_rounds`, see :func:`run_rounds`)."""
        return run_rounds(self, field, steps, traffic, executor="blocking35d")

    def open_rounds(self, field: Field3D, sdc=None):
        """GuardedSweep's hook: ``(state, step, close)`` over this
        executor's persistent ping-pong buffers, one :meth:`sweep_round`
        per step (see :meth:`PingPong.open`)."""
        return self.buffers.open(field, self.kernel.radius, self.sweep_round)

    # ------------------------------------------------------------------
    def sweep_round(
        self,
        src: Field3D,
        dst: Field3D,
        round_t: int,
        traffic: TrafficStats | None = None,
        *,
        z_core: tuple[int, int] | None = None,
        _shell_token: object | None = None,
    ) -> None:
        """One blocked round: ``dst`` receives the state ``round_t`` steps ahead.

        ``z_core`` (local planes of ``src``) names the output planes the
        caller keeps; the round then computes only their dependence cone
        and writes only those planes of ``dst``.  A caller that cuts a
        larger grid along Z passes the planes that sit deep enough from
        its cuts, so nothing it throws away is computed.  ``None`` keeps
        every interior plane.

        ``_shell_token`` identifies the run whose (constant) boundary shell
        is in ``src``; direct callers may leave it ``None``, which refreshes
        the cached shell copies from ``src`` unconditionally.
        """
        token = _shell_token if _shell_token is not None else object()
        nz, ny, nx = src.shape
        tiles = self._plan_tiles(ny, nx, round_t)
        schedule = self._get_schedule(nz, round_t, z_core)
        if traffic is not None:
            traffic.notes.setdefault("tiles_per_round", len(tiles))
            traffic.notes.setdefault("dim_t", self.dim_t)
            # actual steps executed this round (may be < dim_t on the final
            # partial round), so traffic-model comparisons are not skewed
            traffic.notes.setdefault("round_t", []).append(round_t)
        # A sweep runner replaces the entire tile loop with one call per
        # round: codegen backends (repro.perf.codegen) run the blocked
        # round as one generated kernel, and fused-numpy runs it as one
        # batched round over every tile, or as whole-volume sweeps when
        # Eq. 2 says blocking cannot pay (repro.perf.fused, see ``kappa``).
        # Rounds a backend declines run the stepwise path below.
        sweep_runner = getattr(self.kernel, "sweep_runner", None)
        if sweep_runner is not None:
            runner = sweep_runner(self, src, dst, round_t, z_core=z_core)
            if runner is not None:
                with TRACE.span(runner.span, tiles=len(tiles), round_t=round_t):
                    runner.run(token, traffic)
                return
        for tile in tiles:
            with TRACE.span("tile", y0=tile.y.core[0], y1=tile.y.core[1],
                            x0=tile.x.core[0], x1=tile.x.core[1]):
                ctx = self._tile_context(src, tile, round_t)
                self._load_shell_planes(src, ctx, traffic, token)
                self._run_schedule(src, dst, ctx, schedule, round_t, traffic)

    # ------------------------------------------------------------------
    def _plan_tiles(self, ny: int, nx: int, round_t: int) -> list[Tile2D]:
        key = (ny, nx, round_t)
        tiles = self._tile_plans.get(key)
        if tiles is None:
            r = self.kernel.radius
            tiles = plan_tiles_2d(ny, nx, r, round_t, self.tile_y, self.tile_x)
            self._tile_plans[key] = tiles
        return tiles

    def kappa(self, ny: int, nx: int, round_t: int) -> float:
        """Eq. 2's ghost overestimation of a round's tile plan: the summed
        loaded-extent area of its tiles over the plane area (1.0 for one
        whole-plane tile).  A round cuts bandwidth by ``round_t / kappa``."""
        key = (ny, nx, round_t)
        kappa = self._kappas.get(key)
        if kappa is None:
            tiles = self._plan_tiles(ny, nx, round_t)
            kappa = sum(t.extent_points for t in tiles) / (ny * nx)
            self._kappas[key] = kappa
        return kappa

    def _get_schedule(
        self, nz: int, round_t: int, z_core: tuple[int, int] | None = None
    ) -> Schedule:
        key = (nz, round_t, z_core)
        schedule = self._schedules.get(key)
        if schedule is None:
            schedule = build_schedule(nz, self.kernel.radius, round_t,
                                      self.concurrent, z_core)
            if self.validate:
                schedule.validate()
            self._schedules[key] = schedule
        return schedule

    def _tile_context(self, src: Field3D, tile: Tile2D, round_t: int) -> TileContext:
        """The persistent context for ``tile``, rings reset for a new round."""
        key = (tile, round_t, src.nz, src.ncomp, src.dtype)
        ctx = self._contexts.get(key)
        if ctx is None:
            ey, ex = tile.y.extent, tile.x.extent
            rings = RingSet(
                dim_t=round_t,
                radius=self.kernel.radius,
                ncomp=src.ncomp,
                ny=ey[1] - ey[0],
                nx=ex[1] - ex[0],
                dtype=src.dtype,
                concurrent=self.concurrent,
            )
            ctx = TileContext(
                tile=tile,
                rings=rings,
                shell_planes={},
                esize=src.element_size(),
            )
            self._contexts[key] = ctx
        else:
            ctx.rings.reset()
        return ctx

    def _load_shell_planes(
        self,
        src: Field3D,
        ctx: TileContext,
        traffic: TrafficStats | None,
        token: object | None = None,
    ) -> None:
        """Copy the constant Z-shell planes of this tile's extent on chip.

        The copy is skipped when ``ctx`` already holds this run's shell
        (``token`` matches); the modeled external-memory traffic is recorded
        either way, because a capacity-limited machine re-reads the shell
        every time the tile pass returns to it.
        """
        r = self.kernel.radius
        nz = src.nz
        (ey0, ey1), (ex0, ex1) = ctx.ey, ctx.ex
        esize = ctx.esize
        refresh = token is None or ctx.shell_token is not token
        for z in list(range(r)) + list(range(nz - r, nz)):
            if refresh:
                buf = ctx.shell_planes.get(z)
                if buf is None:
                    ctx.shell_planes[z] = src.data[:, z, ey0:ey1, ex0:ex1].copy()
                else:
                    np.copyto(buf, src.data[:, z, ey0:ey1, ex0:ex1])
            if traffic is not None:
                traffic.read((ey1 - ey0) * (ex1 - ex0) * esize, planes=1)
        ctx.shell_token = token

    # ------------------------------------------------------------------
    def _fetch(self, ctx: TileContext, t: int, z: int) -> np.ndarray:
        """Plane ``z`` as seen by time instance ``t`` (local extent coords)."""
        if z in ctx.shell_planes:
            return ctx.shell_planes[z]
        return ctx.rings.ring(t).get(z)

    def instance_regions(
        self, ctx: TileContext, shape: tuple[int, int, int], round_t: int
    ) -> dict[int, tuple[tuple[int, int], tuple[int, int]]]:
        """Per-instance computable XY regions, global coords (constant in z)."""
        _, ny, nx = shape
        r = self.kernel.radius
        return {
            t: (
                compute_range(ctx.tile.y.core, ny, r, round_t, t),
                compute_range(ctx.tile.x.core, nx, r, round_t, t),
            )
            for t in range(1, round_t + 1)
        }

    def execute_step(
        self,
        src: Field3D,
        dst: Field3D,
        ctx: TileContext,
        step,
        regions,
        traffic: TrafficStats | None = None,
        rows: tuple[int, int] | None = None,
    ) -> None:
        """Execute one schedule step, optionally restricted to global rows.

        ``rows`` is a half-open global-Y interval; the paper's thread-level
        parallelization assigns each thread a row slice of every sub-plane
        (Section V-D option 2), so a step is complete once all row slices
        have run.  ``rows=None`` executes the full step.
        """
        kernel = self.kernel
        r = kernel.radius
        nz, ny, nx = src.shape
        (ey0, ey1), (ex0, ex1) = ctx.ey, ctx.ex
        esize = ctx.esize
        z = step.z

        if step.kind is StepKind.LOAD:
            if z in ctx.shell_planes:
                return  # already resident (loaded in _load_shell_planes)
            ly0, ly1 = ey0, ey1
            if rows is not None:
                ly0, ly1 = max(ey0, rows[0]), min(ey1, rows[1])
                if ly0 >= ly1:
                    return
            slot = ctx.rings.ring(0).slot_for(z)
            slot[:, ly0 - ey0 : ly1 - ey0, :] = src.data[:, z, ly0:ly1, ex0:ex1]
            _ring_flip_probe(slot, entropy=[z, ey0, ex0])
            if traffic is not None:
                traffic.read(
                    (ly1 - ly0) * (ex1 - ex0) * esize, planes=1 if rows is None else 0
                )
            return

        t = step.t
        (gy0, gy1), (gx0, gx1) = regions[t]
        if rows is not None:
            gy0, gy1 = max(gy0, rows[0]), min(gy1, rows[1])
        empty = gy0 >= gy1
        if step.kind is StepKind.STORE:
            if empty:
                return
            srcs = [self._fetch(ctx, t - 1, z + dz) for dz in range(-r, r + 1)]
            yr = (gy0 - ey0, gy1 - ey0)
            xr = (gx0 - ex0, gx1 - ex0)
            out = dst.data[:, z, ey0:ey1, ex0:ex1]
            kernel.compute_plane(out, srcs, yr, xr, gz=z, gy0=ey0, gx0=ex0)
            if traffic is not None:
                traffic.write((gy1 - gy0) * (gx1 - gx0) * esize, planes=1)
        else:
            # A row band whose slice of the compute region is empty may still
            # own boundary-strip rows of this plane, so the strip fill below
            # must run even when there is nothing to compute (otherwise a
            # thread whose band holds only strip rows leaves them stale).
            out = ctx.rings.ring(t).slot_for(z)
            prev = self._fetch(ctx, t - 1, z)
            if not empty:
                srcs = [self._fetch(ctx, t - 1, z + dz) for dz in range(-r, r + 1)]
                yr = (gy0 - ey0, gy1 - ey0)
                xr = (gx0 - ex0, gx1 - ex0)
                if self._seam_hint:
                    kernel.compute_plane(
                        out, srcs, yr, xr, gz=z, gy0=ey0, gx0=ex0,
                        seam_writable=True,
                    )
                else:
                    kernel.compute_plane(out, srcs, yr, xr, gz=z, gy0=ey0, gx0=ex0)
            # Boundary strips inside the extent are constant in time; refresh
            # them from the previous instance (which has them valid all the
            # way back to the loaded planes).
            self._fill_xy_strips(
                out, prev, (ey0, ey1), (ex0, ex1), ny, nx, rows=rows
            )
        if not empty and traffic is not None:
            traffic.update((gy1 - gy0) * (gx1 - gx0), kernel.ops_per_update)

    def _run_schedule(
        self,
        src: Field3D,
        dst: Field3D,
        ctx: TileContext,
        schedule: Schedule,
        round_t: int,
        traffic: TrafficStats | None,
    ) -> None:
        """The stepwise path: one tile's round, one schedule step at a
        time (rounds no sweep runner takes; see ``sweep_round``)."""
        regions = self.instance_regions(ctx, src.shape, round_t)
        if TRACE.armed:
            # the flat step order equals the per-iteration grouping (steps
            # are generated k-outer/t-inner), so spanning by iteration does
            # not reorder execution
            for k, iter_steps in schedule.iterations().items():
                with TRACE.span("z_iter", k=k):
                    for step in iter_steps:
                        self.execute_step(src, dst, ctx, step, regions, traffic)
        else:
            for step in schedule.steps:
                self.execute_step(src, dst, ctx, step, regions, traffic)

    def _fill_xy_strips(
        self,
        out: np.ndarray,
        prev: np.ndarray,
        ey: tuple[int, int],
        ex: tuple[int, int],
        ny: int,
        nx: int,
        rows: tuple[int, int] | None = None,
    ) -> None:
        """Copy grid-boundary strips (constant values) into a computed plane.

        With ``rows`` set, only the strip portions inside that global-Y slice
        are written, so row-partitioned threads touch disjoint memory.
        """
        r = self.kernel.radius
        ey0, ey1 = ey
        ex0, ex1 = ex
        ly0, ly1 = (0, ey1 - ey0)
        if rows is not None:
            ly0 = max(0, rows[0] - ey0)
            ly1 = min(ey1 - ey0, rows[1] - ey0)
            if ly0 >= ly1:
                return
        if ey0 < r:  # tile touches the low-Y grid boundary
            hi = min(r - ey0, ly1)
            if hi > ly0:
                out[:, ly0:hi, :] = prev[:, ly0:hi, :]
        if ey1 > ny - r:
            lo = max((ny - r) - ey0, ly0)
            if ly1 > lo:
                out[:, lo:ly1, :] = prev[:, lo:ly1, :]
        if ex0 < r:
            out[:, ly0:ly1, : r - ex0] = prev[:, ly0:ly1, : r - ex0]
        if ex1 > nx - r:
            k = ex1 - (nx - r)
            out[:, ly0:ly1, -k:] = prev[:, ly0:ly1, -k:]

    # ------------------------------------------------------------------
    def buffer_bytes(self, dtype, ncomp: int | None = None) -> int:
        """On-chip bytes the configuration needs (LHS of Equation 1)."""
        from .buffer import ring_slots

        ncomp = self.kernel.ncomp if ncomp is None else ncomp
        slots = ring_slots(self.kernel.radius, self.concurrent)
        return (
            np.dtype(dtype).itemsize
            * ncomp
            * slots
            * self.dim_t
            * self.tile_y
            * self.tile_x
        )


def run_3_5d(
    kernel: PlaneKernel,
    field: Field3D,
    steps: int,
    dim_t: int,
    tile_y: int,
    tile_x: int,
    *,
    concurrent: bool = True,
    validate: bool = False,
    traffic: TrafficStats | None = None,
) -> Field3D:
    """Convenience wrapper: advance ``field`` by ``steps`` with 3.5D blocking."""
    return Blocking35D(
        kernel, dim_t, tile_y, tile_x, concurrent=concurrent, validate=validate
    ).run(field, steps, traffic)
