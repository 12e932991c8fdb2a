"""3D grid containers used by the stencil and LBM solvers.

The paper lays data out with X as the fastest-varying dimension followed by Y
and Z (Section V, Notation).  We use C-ordered NumPy arrays indexed
``[component, z, y, x]`` so that an XY *sub-plane* — the unit the 2.5D/3.5D
schemes stream through the cache — is a contiguous-ish 2D slice ``data[:, z]``.

A :class:`Field3D` carries ``ncomp`` values per grid point: 1 for PDE stencils
and 19 for the D3Q19 lattice (structure-of-arrays layout, Section III-B).

Boundary handling follows the paper's Jacobi setting: a shell of width equal
to the stencil radius is held fixed for all time ("z0 (boundary condition)
does not change with time", Section V-C).  Only interior points are updated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Field3D", "copy_shell", "interior_slices", "interior_points"]


@dataclass
class Field3D:
    """A multi-component scalar field on a 3D grid.

    Parameters
    ----------
    data:
        Array of shape ``(ncomp, nz, ny, nx)``.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != 4:
            raise ValueError(
                f"Field3D expects (ncomp, nz, ny, nx) data, got shape {self.data.shape}"
            )

    # -- constructors ------------------------------------------------------
    @classmethod
    def zeros(cls, shape: tuple[int, int, int], ncomp: int = 1, dtype=np.float64) -> "Field3D":
        """Allocate an all-zero field; ``shape`` is ``(nz, ny, nx)``."""
        nz, ny, nx = shape
        return cls(np.zeros((ncomp, nz, ny, nx), dtype=dtype))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Field3D":
        """Wrap a 3D array as a single-component field (no copy)."""
        if arr.ndim == 3:
            return cls(arr[np.newaxis])
        return cls(arr)

    @classmethod
    def random(
        cls,
        shape: tuple[int, int, int],
        ncomp: int = 1,
        dtype=np.float64,
        seed: int | None = None,
    ) -> "Field3D":
        """A field with uniform random values in [0, 1); useful in tests."""
        rng = np.random.default_rng(seed)
        nz, ny, nx = shape
        return cls(rng.random((ncomp, nz, ny, nx)).astype(dtype))

    # -- basic properties --------------------------------------------------
    @property
    def ncomp(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        """Grid shape ``(nz, ny, nx)``."""
        return self.data.shape[1:]

    @property
    def nz(self) -> int:
        return self.data.shape[1]

    @property
    def ny(self) -> int:
        return self.data.shape[2]

    @property
    def nx(self) -> int:
        return self.data.shape[3]

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def itemsize(self) -> int:
        return self.data.dtype.itemsize

    def element_size(self) -> int:
        """Bytes per grid point across all components (the paper's E)."""
        return self.ncomp * self.itemsize

    def nbytes_interior(self, radius: int) -> int:
        """Bytes occupied by the interior (updated) region for ``radius``."""
        return interior_points(self.shape, radius) * self.element_size()

    # -- views -------------------------------------------------------------
    def plane(self, z: int) -> np.ndarray:
        """View of the XY sub-plane at height ``z``, shape ``(ncomp, ny, nx)``."""
        return self.data[:, z]

    def copy(self) -> "Field3D":
        return Field3D(self.data.copy())

    def like(self) -> "Field3D":
        """An uninitialized field with identical shape/dtype."""
        return Field3D(np.empty_like(self.data))

    def __eq__(self, other: object) -> bool:  # pragma: no cover - convenience
        if not isinstance(other, Field3D):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.array_equal(self.data, other.data)
        )


def interior_slices(radius: int) -> tuple[slice, slice, slice]:
    """Slices selecting the updated interior ``[R, n-R)`` in z, y, x."""
    s = slice(radius, -radius if radius else None)
    return (s, s, s)


def interior_points(shape: tuple[int, int, int], radius: int) -> int:
    """Number of interior (updated) grid points for a radius-R kernel."""
    nz, ny, nx = shape
    iz, iy, ix = (max(0, n - 2 * radius) for n in (nz, ny, nx))
    return iz * iy * ix


def copy_shell(src: Field3D, dst: Field3D, radius: int) -> None:
    """Copy the fixed boundary shell of width ``radius`` from src to dst.

    Jacobi double-buffering keeps two grids; both must carry the (constant)
    boundary values.  Executors call this once per run, not per time step
    or round (see :class:`~repro.core.rounds.PingPong`).
    """
    if radius <= 0:
        return
    if src.data.shape != dst.data.shape:
        raise ValueError("shape mismatch")
    r = radius
    s, d = src.data, dst.data
    # Six slabs; overlapping corners are copied more than once, which is fine.
    d[:, :r, :, :] = s[:, :r, :, :]
    d[:, -r:, :, :] = s[:, -r:, :, :]
    d[:, :, :r, :] = s[:, :, :r, :]
    d[:, :, -r:, :] = s[:, :, -r:, :]
    d[:, :, :, :r] = s[:, :, :, :r]
    d[:, :, :, -r:] = s[:, :, :, -r:]
