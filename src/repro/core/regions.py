"""Trapezoid region arithmetic for space-time blocking.

When ``dim_T`` time steps are executed on a tile held in on-chip memory, the
region with correct values shrinks by the stencil radius R per time step away
from every *cut* edge (an edge interior to the grid).  Edges that coincide
with the physical grid boundary do not shrink, because the boundary shell is
held constant in time (Section V-C: "z0 ... does not change with time").

This module provides the per-axis interval arithmetic used by every temporal
executor: the loaded extent of a tile, the computable region at each
intermediate time instance, and the decomposition of the grid interior into
tile cores (the ``dim - 2·R·dim_T`` valid regions of Equation 2).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "AxisTile",
    "axis_tiles",
    "compute_range",
    "cone_ranges",
    "loaded_extent",
    "Tile2D",
    "plan_tiles_2d",
    "SlabSplit",
    "split_slab",
]


@dataclass(frozen=True)
class AxisTile:
    """One tile along a single axis.

    ``core`` is the half-open range of final outputs this tile owns;
    ``extent`` is the half-open range of source data it loads (core plus a
    halo of ``radius * dim_t``, clipped to the axis).
    """

    core: tuple[int, int]
    extent: tuple[int, int]

    @property
    def core_size(self) -> int:
        return self.core[1] - self.core[0]

    @property
    def extent_size(self) -> int:
        return self.extent[1] - self.extent[0]


def loaded_extent(core: tuple[int, int], n: int, halo: int) -> tuple[int, int]:
    """Source extent needed for a tile core after ``halo`` total shrink steps."""
    return (max(0, core[0] - halo), min(n, core[1] + halo))


def compute_range(
    core: tuple[int, int],
    n: int,
    radius: int,
    dim_t: int,
    t: int,
) -> tuple[int, int]:
    """Computable range along one axis at time instance ``t`` (1-based).

    At ``t = dim_t`` this is exactly the core; at earlier instances it is the
    core expanded by ``radius * (dim_t - t)``, clamped to the grid interior
    ``[radius, n - radius)``.  The clamp encodes the no-shrink-at-boundary
    property: intermediate values adjacent to the physical boundary are exact
    because the boundary is constant in time.
    """
    if not 1 <= t <= dim_t:
        raise ValueError(f"time instance {t} outside [1, {dim_t}]")
    grow = radius * (dim_t - t)
    lo = max(radius, core[0] - grow)
    hi = min(n - radius, core[1] + grow)
    return (lo, hi)


def cone_ranges(
    core: tuple[int, int],
    n: int,
    radius: int,
    dim_t: int,
) -> list[tuple[int, int]]:
    """The dependence cone of the output planes ``core`` along one axis.

    Entry ``t`` is the half-open range time instance ``t`` of a blocked
    round touches: the planes it loads at ``t = 0`` (the core plus
    ``radius * dim_t``), then :func:`compute_range` at ``t = 1 .. dim_t``.
    ``core`` is clipped to the interior ``[radius, n - radius)`` first; a
    core with no interior plane has an empty cone.
    """
    core = (max(radius, core[0]), min(n - radius, core[1]))
    if core[0] >= core[1]:
        return [(0, 0)] * (dim_t + 1)
    return [loaded_extent(core, n, radius * dim_t)] + [
        compute_range(core, n, radius, dim_t, t) for t in range(1, dim_t + 1)
    ]


def axis_tiles(n: int, radius: int, dim_t: int, tile: int) -> list[AxisTile]:
    """Decompose the interior ``[R, n-R)`` of one axis into tile cores.

    ``tile`` is the on-chip blocking dimension (the paper's ``dim_X``); the
    usable core per tile is ``tile - 2·R·dim_T`` (Equation 2's numerator),
    except that cores touching the physical boundary need no halo on that
    side and may extend their loaded extent less.

    Raises ``ValueError`` when ``tile`` is too small to make progress.
    """
    halo = radius * dim_t
    core_size = tile - 2 * halo
    interior = (radius, n - radius)
    if interior[0] >= interior[1]:
        raise ValueError(f"axis of size {n} has no interior for radius {radius}")
    if tile >= n:
        # The whole axis fits on chip: a single boundary-to-boundary tile
        # with no cut edges and hence no ghost cells at all.
        return [AxisTile(core=interior, extent=(0, n))]
    if core_size < 1:
        raise ValueError(
            f"tile {tile} cannot host 2*R*dim_T = {2 * halo} ghost cells"
        )
    tiles: list[AxisTile] = []
    lo = interior[0]
    while lo < interior[1]:
        hi = min(lo + core_size, interior[1])
        core = (lo, hi)
        tiles.append(AxisTile(core=core, extent=loaded_extent(core, n, halo)))
        lo = hi
    return tiles


@dataclass(frozen=True)
class Tile2D:
    """An XY tile: the cross product of one Y axis tile and one X axis tile."""

    y: AxisTile
    x: AxisTile

    @property
    def core_points(self) -> int:
        return self.y.core_size * self.x.core_size

    @property
    def extent_points(self) -> int:
        return self.y.extent_size * self.x.extent_size


def plan_tiles_2d(
    ny: int,
    nx: int,
    radius: int,
    dim_t: int,
    tile_y: int,
    tile_x: int,
) -> list[Tile2D]:
    """All XY tiles covering the grid interior, in row-major order."""
    return [
        Tile2D(y=ty, x=tx)
        for ty in axis_tiles(ny, radius, dim_t, tile_y)
        for tx in axis_tiles(nx, radius, dim_t, tile_x)
    ]


@dataclass(frozen=True)
class SlabSplit:
    """A rank's Z slab split for comm/compute overlap.

    ``interior`` is the part of the owned range ``[z0, z1)`` that sits at
    least ``halo = R * dim_T`` planes from every *cut* edge, so a blocked
    round over it depends only on owned planes — it can run while halo
    messages are in flight.  ``lo_strip`` / ``hi_strip`` are the remaining
    boundary strips (``None`` at a physical boundary), each blocked on the
    matching ghost planes.  All three are :class:`AxisTile`\\ s along Z:
    ``core`` is the output planes the region owns, ``extent`` the source
    planes its blocked round must read.

    When the slab is too thin to leave any interior (``interior is None``)
    the split degenerates and the caller must fall back to the fused
    exchange-then-compute schedule for that rank.
    """

    z0: int
    z1: int
    halo: int
    interior: AxisTile | None
    lo_strip: AxisTile | None
    hi_strip: AxisTile | None
    lo_cut: bool = False
    hi_cut: bool = False

    @property
    def owned(self) -> int:
        return self.z1 - self.z0

    def split_extent_planes(self) -> int:
        """Plane-sweeps the split schedule performs (its working set in Z)."""
        return sum(
            r.extent_size
            for r in (self.interior, self.lo_strip, self.hi_strip)
            if r is not None
        )

    def fused_extent_planes(self) -> int:
        """Plane-sweeps of the fused exchange-then-compute schedule."""
        lo = self.halo if self.lo_strip is not None or self.interior is None else 0
        hi = self.halo if self.hi_strip is not None or self.interior is None else 0
        return self.owned + lo + hi

    def redundant_planes(self) -> int:
        """Extra plane-sweeps the split pays to decouple interior from halos.

        Each boundary strip re-reads ~``2*halo`` planes that the fused
        schedule would have swept once, the classic overlap overestimation
        (analogous to the ghost-cell overhead of Equation 2).  Zero when the
        split degenerated to the fused fallback.
        """
        if self.interior is None:
            return 0
        return self.split_extent_planes() - self.fused_extent_planes()

    def overestimation(self) -> float:
        """Redundant work as a fraction of the fused schedule's sweeps."""
        return self.redundant_planes() / self.fused_extent_planes()

    def cone_plane_updates(self, radius: int) -> int:
        """Plane-updates one cone-trimmed overlap round of this split
        performs, ``halo = radius * round_t``: the interior and each strip
        compute only the dependence cone of their core, the sum of the
        :func:`compute_range` widths over instances ``1 .. round_t``.  A
        slab too thin to leave an interior of ``2R + 1`` planes runs the
        fused schedule instead: the cone of its owned planes over the
        ghost-augmented slab."""
        round_t = self.halo // radius
        if self.interior is None or self.owned < 2 * radius + 1:
            regions = [AxisTile(core=(self.z0, self.z1),
                                extent=(self.z0 - self.halo * self.lo_cut,
                                        self.z1 + self.halo * self.hi_cut))]
        else:
            regions = [r for r in (self.interior, self.lo_strip, self.hi_strip)
                       if r is not None]
        total = 0
        for r in regions:
            e0, e1 = r.extent
            cone = cone_ranges((r.core[0] - e0, r.core[1] - e0), e1 - e0,
                               radius, round_t)
            total += sum(hi - lo for lo, hi in cone[1:])
        return total


def split_slab(
    z0: int,
    z1: int,
    nz: int,
    halo: int,
    lo_cut: bool,
    hi_cut: bool,
) -> SlabSplit:
    """Split an owned Z range into overlap interior plus boundary strips.

    ``halo = R * dim_T`` is the depth a blocked round's dependence cone
    reaches past a cut edge.  The interior core pulls in by ``halo`` per cut
    side only — a physical boundary (``lo_cut``/``hi_cut`` False) does not
    shrink, because the constant Dirichlet shell makes every plane next to
    it exact (the same no-shrink property :func:`compute_range` encodes).
    The interior's extent is exactly the owned planes: it never reads a
    ghost.  Strip extents are the usual core ± ``halo``, clipped to the
    grid, and land entirely inside owned ∪ ghost planes.
    """
    if z1 <= z0:
        raise ValueError(f"empty slab [{z0}, {z1})")
    if halo < 1:
        raise ValueError("halo must be >= 1")
    ilo = z0 + (halo if lo_cut else 0)
    ihi = z1 - (halo if hi_cut else 0)
    if ilo >= ihi:  # too thin: nothing computable before the halos arrive
        return SlabSplit(z0, z1, halo, None, None, None, lo_cut, hi_cut)
    interior = AxisTile(core=(ilo, ihi), extent=(z0, z1))
    lo_strip = (
        AxisTile(core=(z0, ilo), extent=loaded_extent((z0, ilo), nz, halo))
        if lo_cut
        else None
    )
    hi_strip = (
        AxisTile(core=(ihi, z1), extent=loaded_extent((ihi, z1), nz, halo))
        if hi_cut
        else None
    )
    return SlabSplit(z0, z1, halo, interior, lo_strip, hi_strip, lo_cut,
                     hi_cut)
