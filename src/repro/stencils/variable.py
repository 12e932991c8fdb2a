"""Variable-coefficient 7-point stencil (heterogeneous-media diffusion).

PDE solvers over heterogeneous media (the paper's Section I application
list: diffusion, electromagnetics) carry per-cell coefficients:

.. math::

   B_{x} = \\alpha(x) A_{x} + \\beta(x) \\sum_{n \\in N(x)} A_n

The coefficient fields are auxiliary per-cell state addressed through the
kernel's global coordinates — the same mechanism the LBM flag field uses —
so this kernel doubles as a stress test of blocked executors' coordinate
plumbing: any off-by-one in a tile's global offset changes the answer.

Per-update cost: 7 loads + 2 coefficient loads + 1 store + 7 multiplies +
6 adds = 23 ops.  The element size relevant to blocking capacity includes
the two coefficient values (paper-E convention, like LBM's flag).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .base import PlaneKernel, ScratchArena, validate_footprint

__all__ = ["VariableCoefficientStencil"]


class VariableCoefficientStencil(PlaneKernel):
    """Radius-1 star stencil with per-cell alpha/beta coefficient fields."""

    radius = 1
    ncomp = 1
    ops_per_update = 23
    flops_per_update = 13

    def __init__(self, alpha: np.ndarray, beta: np.ndarray) -> None:
        if alpha.ndim != 3 or beta.shape != alpha.shape:
            raise ValueError("alpha and beta must be matching (nz, ny, nx) fields")
        self.alpha = alpha
        self.beta = beta

    @classmethod
    def layered(
        cls,
        shape: tuple[int, int, int],
        diffusivities: Sequence[float],
        dt_factor: float = 1.0 / 8.0,
        dtype=np.float64,
    ) -> "VariableCoefficientStencil":
        """Horizontally layered medium: diffusivity varies by z-layer.

        Each z-slab gets one of the given diffusivities D; the explicit
        Euler step uses beta = D * dt_factor, alpha = 1 - 6*beta.
        """
        nz = shape[0]
        beta = np.empty(shape, dtype=dtype)
        bands = np.array_split(np.arange(nz), len(diffusivities))
        for band, d in zip(bands, diffusivities):
            beta[band] = d * dt_factor
        alpha = 1.0 - 6.0 * beta
        return cls(alpha=alpha, beta=beta)

    def element_size(self, dtype) -> int:
        """Grid value plus the two resident coefficients (paper-E style)."""
        return 3 * np.dtype(dtype).itemsize

    def __repr__(self) -> str:
        return f"VariableCoefficientStencil(shape={self.alpha.shape})"

    def padded_for(self, halo: int, shape: tuple[int, int, int]):
        if self.alpha.shape != tuple(shape):
            raise ValueError(
                f"coefficient shape {self.alpha.shape} does not match grid {shape}"
            )
        if halo == 0:
            return self
        return VariableCoefficientStencil(
            np.pad(self.alpha, halo, mode="wrap"),
            np.pad(self.beta, halo, mode="wrap"),
        )

    def restricted_to(self, zlo: int, zhi: int) -> "VariableCoefficientStencil":
        """A kernel addressing only the Z slab ``[zlo, zhi)``."""
        if not 0 <= zlo < zhi <= self.alpha.shape[0]:
            raise ValueError(f"invalid slab [{zlo}, {zhi})")
        return VariableCoefficientStencil(
            self.alpha[zlo:zhi], self.beta[zlo:zhi]
        )

    def compute_plane(
        self,
        out: np.ndarray,
        src: Sequence[np.ndarray],
        yr: tuple[int, int],
        xr: tuple[int, int],
        gz: int = 0,
        gy0: int = 0,
        gx0: int = 0,
    ) -> None:
        validate_footprint(out.shape[1:], yr, xr, self.radius)
        y0, y1 = yr
        x0, x1 = xr
        ys = slice(y0, y1)
        xs = slice(x0, x1)
        below, mid, above = src[0][0], src[1][0], src[2][0]
        a = self.alpha[gz, gy0 + y0 : gy0 + y1, gx0 + x0 : gx0 + x1]
        b = self.beta[gz, gy0 + y0 : gy0 + y1, gx0 + x0 : gx0 + x1]
        acc = below[ys, xs] + above[ys, xs]
        acc += mid[slice(y0 - 1, y1 - 1), xs]
        acc += mid[slice(y0 + 1, y1 + 1), xs]
        acc += mid[ys, slice(x0 - 1, x1 - 1)]
        acc += mid[ys, slice(x0 + 1, x1 + 1)]
        out[0, ys, xs] = a * mid[ys, xs] + b * acc

    def compute_plane_inplace(
        self,
        out: np.ndarray,
        src: Sequence[np.ndarray],
        yr: tuple[int, int],
        xr: tuple[int, int],
        gz: int = 0,
        gy0: int = 0,
        gx0: int = 0,
        *,
        arena: ScratchArena,
        seam_writable: bool = False,
    ) -> None:
        # Same neighbor accumulation order as compute_plane; coefficient
        # slices are views, so only the two scratch planes are reused.
        # (seam_writable is accepted but unused: this path writes only the
        # target region already.)
        validate_footprint(out.shape[1:], yr, xr, self.radius)
        y0, y1 = yr
        x0, x1 = xr
        ys = slice(y0, y1)
        xs = slice(x0, x1)
        below, mid, above = src[0][0], src[1][0], src[2][0]
        a = self.alpha[gz, gy0 + y0 : gy0 + y1, gx0 + x0 : gx0 + x1]
        b = self.beta[gz, gy0 + y0 : gy0 + y1, gx0 + x0 : gx0 + x1]
        shape = (y1 - y0, x1 - x0)
        # the coefficient products and their sum live in the promoted dtype
        # (float64 coefficients over a float32 field), as in compute_plane
        ct = np.result_type(a, out)
        acc = arena.get("varco.acc", shape, out.dtype)
        tmp = arena.get("varco.tmp", shape, ct)
        prod = acc if ct == out.dtype else arena.get("varco.prod", shape, ct)
        np.add(below[ys, xs], above[ys, xs], out=acc)
        acc += mid[slice(y0 - 1, y1 - 1), xs]
        acc += mid[slice(y0 + 1, y1 + 1), xs]
        acc += mid[ys, slice(x0 - 1, x1 - 1)]
        acc += mid[ys, slice(x0 + 1, x1 + 1)]
        np.multiply(a, mid[ys, xs], out=tmp)
        np.multiply(b, acc, out=prod)
        np.add(tmp, prod, out=out[0, ys, xs])
