"""4D blocking: 3D spatial tiles + 1D temporal trapezoids.

This is the comparison scheme of Sections V and VII ("a 4D (3D spatial +
temporal) blocking would have resulted in a computation overhead of 1.18X for
SP...", Section VI-A): because the ghost halo ``R * dim_T`` must be paid in
*three* dimensions and the 3D block side is only the cube root of the cache
capacity, the overestimation is far larger than 3.5D blocking's.  The paper
shows 4D blocking improves LBM by only ~8% where 3.5D gives ~2X (Figure 5a).
"""

from __future__ import annotations

from ..obs.trace import TRACE
from ..stencils.base import PlaneKernel, ScratchArena
from ..stencils.grid import Field3D
from .regions import axis_tiles
from .rounds import PingPong, run_rounds
from .temporal import advance_tile_trapezoid
from .traffic import TrafficStats

__all__ = ["Blocking4D", "run_4d"]


class Blocking4D:
    """4D blocking executor: trapezoidal space-time tiles."""

    def __init__(
        self,
        kernel: PlaneKernel,
        dim_t: int,
        tile_z: int,
        tile_y: int,
        tile_x: int,
    ) -> None:
        if dim_t < 1:
            raise ValueError("dim_t must be >= 1")
        self.kernel = kernel
        self.dim_t = dim_t
        self.tile_z = tile_z
        self.tile_y = tile_y
        self.tile_x = tile_x
        self.scratch = ScratchArena()
        self.buffers = PingPong()

    def clear_cache(self) -> None:
        """Drop the trapezoid scratch and the run buffers."""
        self.scratch.clear()
        self.buffers.clear()

    def run(
        self,
        field: Field3D,
        steps: int,
        traffic: TrafficStats | None = None,
    ) -> Field3D:
        """Advance ``field`` by ``steps`` time steps; input is untouched
        (GuardedSweep's loop over :meth:`open_rounds`, see :func:`run_rounds`)."""
        return run_rounds(self, field, steps, traffic, executor="blocking4d")

    def open_rounds(self, field: Field3D, sdc=None):
        """GuardedSweep's hook: ``(state, step, close)`` over persistent
        ping-pong buffers, one :meth:`sweep_round` per step."""
        return self.buffers.open(field, self.kernel.radius, self.sweep_round)

    def sweep_round(
        self,
        src: Field3D,
        dst: Field3D,
        round_t: int,
        traffic: TrafficStats | None = None,
        *,
        _shell_token: object | None = None,
    ) -> None:
        """One round of ``round_t`` time steps over all space-time tiles
        (a tile reads its shell from ``src``: ``_shell_token`` is unused)."""
        r = self.kernel.radius
        nz, ny, nx = src.shape
        if traffic is not None:
            traffic.notes.setdefault("dim_t", self.dim_t)
            traffic.notes.setdefault("round_t", []).append(round_t)
        for tz in axis_tiles(nz, r, round_t, self.tile_z):
            for ty in axis_tiles(ny, r, round_t, self.tile_y):
                for tx in axis_tiles(nx, r, round_t, self.tile_x):
                    with TRACE.span("tile", z0=tz.core[0], y0=ty.core[0],
                                    x0=tx.core[0]):
                        advance_tile_trapezoid(
                            self.kernel, src, dst, (tz.core, ty.core, tx.core),
                            round_t, traffic, scratch=self.scratch,
                        )


def run_4d(
    kernel: PlaneKernel,
    field: Field3D,
    steps: int,
    dim_t: int,
    tile_z: int,
    tile_y: int,
    tile_x: int,
    *,
    traffic: TrafficStats | None = None,
) -> Field3D:
    """Convenience wrapper for :class:`Blocking4D`."""
    return Blocking4D(kernel, dim_t, tile_z, tile_y, tile_x).run(
        field, steps, traffic
    )
