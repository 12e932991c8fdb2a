"""Unit tests for the trapezoid region arithmetic."""

import pytest

from repro.core import axis_tiles, compute_range, loaded_extent, plan_tiles_2d, split_slab


class TestLoadedExtent:
    def test_interior_tile(self):
        assert loaded_extent((10, 20), 100, 4) == (6, 24)

    def test_clips_at_edges(self):
        assert loaded_extent((1, 10), 100, 4) == (0, 14)
        assert loaded_extent((90, 99), 100, 4) == (86, 100)


class TestComputeRange:
    def test_final_instance_is_core(self):
        assert compute_range((10, 20), 100, 1, 3, 3) == (10, 20)

    def test_growth_per_instance(self):
        # at t the region grows by R*(dim_t - t) per side
        assert compute_range((10, 20), 100, 1, 3, 2) == (9, 21)
        assert compute_range((10, 20), 100, 1, 3, 1) == (8, 22)

    def test_clamped_at_physical_boundary(self):
        # a core starting at the interior edge never reaches below R
        assert compute_range((1, 10), 100, 1, 3, 1) == (1, 12)
        assert compute_range((90, 99), 100, 1, 3, 1) == (88, 99)

    def test_radius2(self):
        assert compute_range((20, 30), 100, 2, 2, 1) == (18, 32)

    def test_invalid_instance(self):
        with pytest.raises(ValueError):
            compute_range((10, 20), 100, 1, 3, 0)
        with pytest.raises(ValueError):
            compute_range((10, 20), 100, 1, 3, 4)


class TestAxisTiles:
    def test_cores_partition_interior(self):
        tiles = axis_tiles(100, 1, 2, 20)
        cores = [t.core for t in tiles]
        # cores are contiguous and cover exactly [R, n-R)
        assert cores[0][0] == 1
        assert cores[-1][1] == 99
        for a, b in zip(cores, cores[1:]):
            assert a[1] == b[0]

    def test_core_size_is_tile_minus_ghosts(self):
        tiles = axis_tiles(100, 1, 3, 20)
        assert tiles[0].core_size == 20 - 2 * 3

    def test_extents_include_halo(self):
        tiles = axis_tiles(100, 1, 2, 20)
        inner = tiles[1]
        assert inner.extent == (inner.core[0] - 2, inner.core[1] + 2)

    def test_single_tile_covers_whole_axis(self):
        tiles = axis_tiles(30, 1, 5, 30)
        assert len(tiles) == 1
        assert tiles[0].extent == (0, 30)
        assert tiles[0].core == (1, 29)

    def test_whole_axis_even_when_core_formula_fails(self):
        # tile >= n: no cut edges at all, so no ghosts are needed
        tiles = axis_tiles(10, 1, 10, 10)
        assert len(tiles) == 1

    def test_too_small_tile_rejected(self):
        with pytest.raises(ValueError):
            axis_tiles(100, 1, 5, 10)  # 2*R*dim_t = 10 >= tile

    def test_no_interior_rejected(self):
        with pytest.raises(ValueError):
            axis_tiles(4, 2, 1, 4)


class TestPlanTiles2D:
    def test_cross_product(self):
        tiles = plan_tiles_2d(50, 60, 1, 2, 20, 25)
        ny_tiles = len(axis_tiles(50, 1, 2, 20))
        nx_tiles = len(axis_tiles(60, 1, 2, 25))
        assert len(tiles) == ny_tiles * nx_tiles

    def test_cores_cover_interior_exactly_once(self):
        tiles = plan_tiles_2d(40, 40, 1, 2, 18, 14)
        covered = set()
        for t in tiles:
            for y in range(*t.y.core):
                for x in range(*t.x.core):
                    assert (y, x) not in covered
                    covered.add((y, x))
        assert covered == {(y, x) for y in range(1, 39) for x in range(1, 39)}

    def test_extent_points_exceed_core_points(self):
        tiles = plan_tiles_2d(60, 60, 1, 3, 30, 30)
        for t in tiles:
            assert t.extent_points >= t.core_points


class TestSplitSlab:
    def test_two_cut_sides(self):
        s = split_slab(10, 20, 40, halo=2, lo_cut=True, hi_cut=True)
        assert s.interior.core == (12, 18)
        assert s.interior.extent == (10, 20)  # owned planes only, no ghosts
        assert s.lo_strip.core == (10, 12)
        assert s.lo_strip.extent == (8, 14)
        assert s.hi_strip.core == (18, 20)
        assert s.hi_strip.extent == (16, 22)

    def test_cores_tile_the_owned_range(self):
        s = split_slab(10, 20, 40, halo=3, lo_cut=True, hi_cut=True)
        assert s.lo_strip.core[1] == s.interior.core[0]
        assert s.interior.core[1] == s.hi_strip.core[0]
        assert (s.lo_strip.core[0], s.hi_strip.core[1]) == (10, 20)

    def test_physical_boundary_does_not_shrink(self):
        lo = split_slab(0, 10, 40, halo=2, lo_cut=False, hi_cut=True)
        assert lo.interior.core == (0, 8)
        assert lo.lo_strip is None
        hi = split_slab(30, 40, 40, halo=2, lo_cut=True, hi_cut=False)
        assert hi.interior.core == (32, 40)
        assert hi.hi_strip is None

    def test_single_rank_no_cuts(self):
        s = split_slab(0, 40, 40, halo=2, lo_cut=False, hi_cut=False)
        assert s.interior.core == (0, 40)
        assert s.lo_strip is None and s.hi_strip is None
        assert s.redundant_planes() == 0

    def test_strip_extent_clipped_at_grid(self):
        # slab thinner than 2*halo but thicker than halo: the strip's far
        # side clips at the physical boundary instead of reading past it
        s = split_slab(37, 40, 40, halo=2, lo_cut=True, hi_cut=False)
        assert s.interior.core == (39, 40)
        assert s.lo_strip.core == (37, 39)
        assert s.lo_strip.extent == (35, 40)

    def test_too_thin_degenerates(self):
        s = split_slab(10, 14, 40, halo=2, lo_cut=True, hi_cut=True)
        assert s.interior is None
        assert s.lo_strip is None and s.hi_strip is None
        assert s.redundant_planes() == 0

    def test_redundancy_accounting(self):
        s = split_slab(10, 20, 40, halo=2, lo_cut=True, hi_cut=True)
        # split sweeps 10 + 6 + 6 planes; fused sweeps 10 + 2 + 2
        assert s.split_extent_planes() == 22
        assert s.fused_extent_planes() == 14
        assert s.redundant_planes() == 8  # 2 * 2*halo
        assert s.overestimation() == pytest.approx(8 / 14)

    def test_cone_plane_updates(self):
        # halo-4rank geometry: 128 planes, 4 ranks of 32, R 1, dim_T 4
        edge = split_slab(0, 32, 128, halo=4, lo_cut=False, hi_cut=True)
        mid = split_slab(32, 64, 128, halo=4, lo_cut=True, hi_cut=True)
        # interior: core (0, 28) clipped to (1, 28), widened by 3, 2, 1, 0
        # at t = 1..4 and clipped to (1, 31): 30 + 29 + 28 + 27
        # strip: core of 4 planes widened by 2R(4 - t): 10 + 8 + 6 + 4
        assert edge.cone_plane_updates(1) == 114 + 28
        assert mid.cone_plane_updates(1) == (30 + 28 + 26 + 24) + 2 * 28
        # so a round of the four ranks computes 2 * (142 + 164) = 612
        # plane-updates, where sweeping every non-shell plane of each
        # region at every instance computed 2 * 4 * (40 + 50) = 720

    def test_cone_plane_updates_of_a_thin_slab_is_the_fused_cone(self):
        s = split_slab(10, 14, 40, halo=2, lo_cut=True, hi_cut=True)
        # the owned planes (10, 14) out of (8, 16), widened by 2 then 0
        assert s.cone_plane_updates(1) == 6 + 4

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            split_slab(10, 10, 40, halo=2, lo_cut=True, hi_cut=True)
        with pytest.raises(ValueError):
            split_slab(10, 20, 40, halo=0, lo_cut=True, hi_cut=True)
