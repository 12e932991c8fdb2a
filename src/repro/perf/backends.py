"""Pluggable plane-kernel execution backends (the hot-path layer).

The blocking executors make stencils *bandwidth*-efficient, but on the NumPy
substrate the inner kernel itself can be *allocation*-bound: every
``compute_plane`` call of the reference kernels builds 4–6 plane-sized
temporaries.  AN5D and the wavefront-diamond line of work (PAPERS.md) both
show that temporal blocking only pays off once the inner kernel is fused or
compiled; this module provides that layering for the reproduction.

A *backend* is a strategy for executing a :class:`~repro.stencils.base.PlaneKernel`:

``numpy``
    The reference kernels exactly as written — allocating, and the bit-exact
    ground truth every other backend is tested against.
``numpy-inplace``
    Wraps a kernel so every ``compute_plane`` call routes to the kernel's
    ``compute_plane_inplace`` path: all temporaries come from a persistent
    per-kernel :class:`~repro.stencils.base.ScratchArena` and all arithmetic
    uses ``np.add/np.multiply(..., out=...)`` with the same operand pairing,
    so results stay bit-identical while the steady state allocates nothing.
``numba``
    Optional ``@njit``-compiled plane loops, auto-detected at import time.
    Kernels without a compiled specialization fall back to the in-place
    path.  Unavailable (but still listed) when numba is not installed.

Selection: explicitly by name, or via the ``REPRO_BACKEND`` environment
variable (the default when no name is given), or through the CLI's
``--backend`` flag and the empirical autotuner's ``backend=`` parameter.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..resilience.faultinject import FAULTS
from ..stencils.base import PlaneKernel, ScratchArena, validate_footprint

__all__ = [
    "REPRO_BACKEND_ENV",
    "Backend",
    "BackendUnavailableError",
    "InplaceKernel",
    "ScratchArena",
    "available_backends",
    "backend_availability",
    "backend_names",
    "bound_rung",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "wrap_kernel",
]

#: environment variable consulted when no backend name is given explicitly
REPRO_BACKEND_ENV = "REPRO_BACKEND"


class BackendUnavailableError(RuntimeError):
    """Raised when a registered backend cannot run in this environment."""


class InplaceKernel(PlaneKernel):
    """Adapter routing ``compute_plane`` to the wrapped kernel's in-place path.

    Owns a :class:`ScratchArena` so repeated calls on the same region shapes
    reuse the same buffers.  Delegates every other part of the
    :class:`PlaneKernel` contract (element size, padding, slab restriction)
    to the wrapped kernel, re-wrapping derived kernels so the in-place path
    survives periodic padding and distributed slab slicing.
    """

    #: executors that can promise dead seam positions on the target plane
    #: (intermediate ring slots) pass ``seam_writable=True`` to
    #: ``compute_plane`` when this attribute is set, letting the in-place
    #: fast paths skip their copy-out (see PlaneKernel.compute_plane_inplace).
    accepts_seam_hint = True

    def __init__(self, inner: PlaneKernel) -> None:
        if isinstance(inner, InplaceKernel):
            inner = inner.inner
        self.inner = inner
        self.radius = inner.radius
        self.ncomp = inner.ncomp
        self.ops_per_update = inner.ops_per_update
        self.flops_per_update = getattr(inner, "flops_per_update", 0)
        self.arena = ScratchArena()

    def __repr__(self) -> str:
        return f"InplaceKernel({self.inner!r})"

    def compute_plane(self, out, src, yr, xr, gz=0, gy0=0, gx0=0, seam_writable=False):
        FAULTS.fire("backend.compute", detail="numpy-inplace")
        self.inner.compute_plane_inplace(
            out, src, yr, xr, gz, gy0, gx0,
            arena=self.arena, seam_writable=seam_writable,
        )

    def compute_plane_inplace(
        self, out, src, yr, xr, gz=0, gy0=0, gx0=0, *, arena, seam_writable=False
    ):
        self.inner.compute_plane_inplace(
            out, src, yr, xr, gz, gy0, gx0,
            arena=arena, seam_writable=seam_writable,
        )

    def element_size(self, dtype) -> int:
        return self.inner.element_size(dtype)

    def padded_for(self, halo: int, shape: tuple[int, int, int]) -> PlaneKernel:
        inner = self.inner.padded_for(halo, shape)
        return self if inner is self.inner else InplaceKernel(inner)

    def restricted_to(self, zlo: int, zhi: int) -> PlaneKernel:
        inner = self.inner.restricted_to(zlo, zhi)
        return self if inner is self.inner else InplaceKernel(inner)


# ----------------------------------------------------------------------
# optional numba backend
# ----------------------------------------------------------------------

def _detect_numba() -> tuple[bool, str | None]:
    try:
        import numba  # noqa: F401
    except Exception as exc:  # pragma: no cover - depends on environment
        return False, (
            f"numba not importable: {exc}; install it with "
            "`pip install numba` (or `pip install 'repro[numba]'`)"
        )
    return True, None


_NUMBA_AVAILABLE, _NUMBA_REASON = _detect_numba()
_SEVEN_POINT_JIT = None
_TWENTY_SEVEN_JIT = None
_GENERIC_R1_JIT = None
_VARCO_JIT = None


def _seven_point_jit():  # pragma: no cover - requires numba
    """Compile (once) the scalar-loop 7-point plane update.

    The loop associates the neighbor sums exactly as the NumPy reference —
    ``((below+above) + (y-pair)) + (x-pair)`` — and numba's default
    ``fastmath=False`` forbids FMA contraction, so results are bit-identical.
    """
    global _SEVEN_POINT_JIT
    if _SEVEN_POINT_JIT is None:
        import numba

        @numba.njit(cache=False)
        def run(out, below, mid, above, y0, y1, x0, x1, alpha, beta):
            for y in range(y0, y1):
                for x in range(x0, x1):
                    acc = (
                        (below[y, x] + above[y, x])
                        + (mid[y - 1, x] + mid[y + 1, x])
                    ) + (mid[y, x - 1] + mid[y, x + 1])
                    out[y, x] = alpha * mid[y, x] + beta * acc

        _SEVEN_POINT_JIT = run
    return _SEVEN_POINT_JIT


def _twenty_seven_jit():  # pragma: no cover - requires numba
    """Compile (once) the scalar-loop 27-point plane update.

    Per point the four neighbor groups are summed in the reference
    generation order (``_FACES``/``_EDGES``/``_CORNERS``), each group
    starting from its first member, then weighted and accumulated onto
    ``center * mid`` — the exact association of
    ``TwentySevenPointStencil.compute_plane``.
    """
    global _TWENTY_SEVEN_JIT
    if _TWENTY_SEVEN_JIT is None:
        import numba

        @numba.njit(cache=False)
        def run(out, below, mid, above, y0, y1, x0, x1, offs,
                center, face, edge, corner):
            for y in range(y0, y1):
                for x in range(x0, x1):
                    sface = below[y + offs[0, 1], x + offs[0, 2]]
                    for j in range(1, 6):
                        dz = offs[j, 0]
                        yy = y + offs[j, 1]
                        xx = x + offs[j, 2]
                        if dz < 0:
                            sface += below[yy, xx]
                        elif dz > 0:
                            sface += above[yy, xx]
                        else:
                            sface += mid[yy, xx]
                    dz = offs[6, 0]
                    yy = y + offs[6, 1]
                    xx = x + offs[6, 2]
                    if dz < 0:
                        sedge = below[yy, xx]
                    elif dz > 0:
                        sedge = above[yy, xx]
                    else:
                        sedge = mid[yy, xx]
                    for j in range(7, 18):
                        dz = offs[j, 0]
                        yy = y + offs[j, 1]
                        xx = x + offs[j, 2]
                        if dz < 0:
                            sedge += below[yy, xx]
                        elif dz > 0:
                            sedge += above[yy, xx]
                        else:
                            sedge += mid[yy, xx]
                    dz = offs[18, 0]
                    yy = y + offs[18, 1]
                    xx = x + offs[18, 2]
                    if dz < 0:
                        scorner = below[yy, xx]
                    else:
                        scorner = above[yy, xx]
                    for j in range(19, 26):
                        dz = offs[j, 0]
                        yy = y + offs[j, 1]
                        xx = x + offs[j, 2]
                        if dz < 0:
                            scorner += below[yy, xx]
                        else:
                            scorner += above[yy, xx]
                    v = center * mid[y, x]
                    v += face * sface
                    v += edge * sedge
                    v += corner * scorner
                    out[y, x] = v

        _TWENTY_SEVEN_JIT = run
    return _TWENTY_SEVEN_JIT


def _generic_r1_jit():  # pragma: no cover - requires numba
    """Compile (once) the radius-1 generic-taps plane update.

    Accumulates taps in the kernel's sorted order starting from the first
    tap, matching ``GenericStencil.compute_plane``'s zero-initialized sum
    (identical up to the sign of exact zeros, which ``np.array_equal``
    treats as equal).
    """
    global _GENERIC_R1_JIT
    if _GENERIC_R1_JIT is None:
        import numba

        @numba.njit(cache=False)
        def run(out, below, mid, above, y0, y1, x0, x1, offs, weights):
            ntaps = offs.shape[0]
            for y in range(y0, y1):
                for x in range(x0, x1):
                    dz = offs[0, 0]
                    yy = y + offs[0, 1]
                    xx = x + offs[0, 2]
                    if dz < 0:
                        v = below[yy, xx]
                    elif dz > 0:
                        v = above[yy, xx]
                    else:
                        v = mid[yy, xx]
                    acc = weights[0] * v
                    for j in range(1, ntaps):
                        dz = offs[j, 0]
                        yy = y + offs[j, 1]
                        xx = x + offs[j, 2]
                        if dz < 0:
                            v = below[yy, xx]
                        elif dz > 0:
                            v = above[yy, xx]
                        else:
                            v = mid[yy, xx]
                        acc += weights[j] * v
                    out[y, x] = acc

        _GENERIC_R1_JIT = run
    return _GENERIC_R1_JIT


def _varco_jit():  # pragma: no cover - requires numba
    """Compile (once) the variable-coefficient 7-point plane update.

    Neighbor accumulation order matches
    ``VariableCoefficientStencil.compute_plane``: the z pair first, then the
    four unpaired in-plane neighbors, then ``a*mid + b*acc``.
    """
    global _VARCO_JIT
    if _VARCO_JIT is None:
        import numba

        @numba.njit(cache=False)
        def run(out, below, mid, above, y0, y1, x0, x1,
                coef_a, coef_b, gz, gy0, gx0):
            for y in range(y0, y1):
                for x in range(x0, x1):
                    acc = below[y, x] + above[y, x]
                    acc += mid[y - 1, x]
                    acc += mid[y + 1, x]
                    acc += mid[y, x - 1]
                    acc += mid[y, x + 1]
                    out[y, x] = (
                        coef_a[gz, gy0 + y, gx0 + x] * mid[y, x]
                        + coef_b[gz, gy0 + y, gx0 + x] * acc
                    )

        _VARCO_JIT = run
    return _VARCO_JIT


class _NumbaPlaneKernel(PlaneKernel):  # pragma: no cover - requires numba
    """Shared delegation shell for njit-compiled plane kernels."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.radius = inner.radius
        self.ncomp = inner.ncomp
        self.ops_per_update = inner.ops_per_update
        self.flops_per_update = getattr(inner, "flops_per_update", 0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.inner!r})"

    def element_size(self, dtype) -> int:
        return self.inner.element_size(dtype)

    def padded_for(self, halo: int, shape: tuple[int, int, int]) -> PlaneKernel:
        inner = self.inner.padded_for(halo, shape)
        return self if inner is self.inner else type(self)(inner)

    def restricted_to(self, zlo: int, zhi: int) -> PlaneKernel:
        inner = self.inner.restricted_to(zlo, zhi)
        return self if inner is self.inner else type(self)(inner)


class _NumbaSevenPoint(_NumbaPlaneKernel):  # pragma: no cover - requires numba
    """njit-compiled SevenPointStencil (same coefficients, same bits)."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self._fn = _seven_point_jit()

    def compute_plane(self, out, src, yr, xr, gz=0, gy0=0, gx0=0):
        validate_footprint(out.shape[1:], yr, xr, self.radius)
        dtype = out.dtype.type
        self._fn(
            out[0],
            src[0][0],
            src[1][0],
            src[2][0],
            yr[0],
            yr[1],
            xr[0],
            xr[1],
            dtype(self.inner.alpha),
            dtype(self.inner.beta),
        )


class _NumbaTwentySevenPoint(_NumbaPlaneKernel):  # pragma: no cover
    """njit-compiled TwentySevenPointStencil (same group order, same bits)."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        from ..stencils.twentyseven_point import _CORNERS, _EDGES, _FACES

        self._offs = np.array(
            list(_FACES) + list(_EDGES) + list(_CORNERS), dtype=np.int64
        )
        self._fn = _twenty_seven_jit()

    def compute_plane(self, out, src, yr, xr, gz=0, gy0=0, gx0=0):
        validate_footprint(out.shape[1:], yr, xr, self.radius)
        dtype = out.dtype.type
        self._fn(
            out[0], src[0][0], src[1][0], src[2][0],
            yr[0], yr[1], xr[0], xr[1], self._offs,
            dtype(self.inner.center), dtype(self.inner.face),
            dtype(self.inner.edge), dtype(self.inner.corner),
        )


class _NumbaGenericR1(_NumbaPlaneKernel):  # pragma: no cover - requires numba
    """njit-compiled radius-1 GenericStencil (sorted tap order, same bits)."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self._offs = np.array(inner._order, dtype=np.int64)
        self._weights: dict = {}
        self._fn = _generic_r1_jit()

    def compute_plane(self, out, src, yr, xr, gz=0, gy0=0, gx0=0):
        validate_footprint(out.shape[1:], yr, xr, self.radius)
        weights = self._weights.get(out.dtype)
        if weights is None:
            weights = self._weights[out.dtype] = np.array(
                [self.inner.taps[o] for o in self.inner._order], dtype=out.dtype
            )
        self._fn(
            out[0], src[0][0], src[1][0], src[2][0],
            yr[0], yr[1], xr[0], xr[1], self._offs, weights,
        )


class _NumbaVariableCoefficient(_NumbaPlaneKernel):  # pragma: no cover
    """njit-compiled VariableCoefficientStencil (same-dtype coefficients)."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self._fn = _varco_jit()
        self._fallback = InplaceKernel(inner)

    def compute_plane(self, out, src, yr, xr, gz=0, gy0=0, gx0=0):
        if self.inner.alpha.dtype != out.dtype:
            # mixed precision follows NumPy promotion in the reference;
            # delegate instead of silently changing the rounding
            self._fallback.compute_plane(out, src, yr, xr, gz, gy0, gx0)
            return
        validate_footprint(out.shape[1:], yr, xr, self.radius)
        self._fn(
            out[0], src[0][0], src[1][0], src[2][0],
            yr[0], yr[1], xr[0], xr[1],
            self.inner.alpha, self.inner.beta, gz, gy0, gx0,
        )


def _numba_specialize(kernel: PlaneKernel) -> PlaneKernel | None:  # pragma: no cover
    """The njit per-plane specialization for ``kernel``, or ``None``."""
    from ..stencils.generic import GenericStencil
    from ..stencils.seven_point import SevenPointStencil
    from ..stencils.twentyseven_point import TwentySevenPointStencil
    from ..stencils.variable import VariableCoefficientStencil

    if type(kernel) is SevenPointStencil:
        return _NumbaSevenPoint(kernel)
    if type(kernel) is TwentySevenPointStencil:
        return _NumbaTwentySevenPoint(kernel)
    if type(kernel) is GenericStencil and kernel.radius == 1:
        return _NumbaGenericR1(kernel)
    if type(kernel) is VariableCoefficientStencil:
        return _NumbaVariableCoefficient(kernel)
    return None


def _wrap_numba(kernel: PlaneKernel) -> PlaneKernel:  # pragma: no cover
    if not _NUMBA_AVAILABLE:
        raise BackendUnavailableError(f"backend 'numba' unavailable: {_NUMBA_REASON}")
    specialized = _numba_specialize(kernel)
    if specialized is not None:
        return specialized
    # no compiled specialization: the in-place path is the next-best hot path
    return InplaceKernel(kernel)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Backend:
    """A named kernel-execution strategy.

    ``available``/``unavailable_reason`` describe availability decided at
    import time; backends whose availability depends on mutable environment
    state (e.g. ``codegen``, whose ``REPRO_CODEGEN_MODE=python`` fallback
    can be enabled at any point) supply ``probe``, a callable re-evaluated
    on every availability query.
    """

    name: str
    description: str
    wrap: Callable[[PlaneKernel], PlaneKernel]
    available: bool = True
    unavailable_reason: str | None = None
    probe: Callable[[], tuple[bool, str | None]] | None = None


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> None:
    """Add (or replace) a backend in the registry."""
    _REGISTRY[backend.name] = backend


def backend_names() -> list[str]:
    """All registered backend names, available or not."""
    return list(_REGISTRY)


def backend_availability(name: str) -> tuple[bool, str | None]:
    """Current ``(available, reason)`` for a backend, probing dynamic ones."""
    b = get_backend(name)
    if b.probe is not None:
        return b.probe()
    return b.available, b.unavailable_reason


def available_backends() -> list[str]:
    """Names of the backends that can run in this environment."""
    return [name for name in _REGISTRY if backend_availability(name)[0]]


def get_backend(name: str) -> Backend:
    """Look up a backend by name; raises ``ValueError`` on unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def default_backend_name() -> str:
    """The backend used when none is named: ``$REPRO_BACKEND`` or
    ``fused-numpy``.

    ``fused-numpy`` binds for every kernel (kernels it cannot lower run its
    in-place plan) and is bit-identical to ``numpy``, so the default never
    degrades.  The compiled rungs stay opt-in.
    """
    return os.environ.get(REPRO_BACKEND_ENV, "fused-numpy")


def wrap_kernel(kernel: PlaneKernel, backend: str | None = None) -> PlaneKernel:
    """Bind ``kernel`` to a backend (default: :func:`default_backend_name`).

    Raises :class:`BackendUnavailableError` when the backend exists but
    cannot run here (e.g. ``numba`` without numba installed).  The
    ``backend.bind`` fault site fires here (detail = backend name), so the
    fallback chain's bind-failure path is testable on any machine.
    """
    b = get_backend(backend if backend is not None else default_backend_name())
    ok, reason = backend_availability(b.name)
    if not ok:
        raise BackendUnavailableError(
            f"backend {b.name!r} unavailable: {reason}"
        )
    FAULTS.fire("backend.bind", detail=b.name)
    return b.wrap(kernel)


register_backend(
    Backend(
        name="numpy",
        description="reference NumPy kernels (allocating; bit-exact ground truth)",
        wrap=lambda kernel: kernel,
    )
)
register_backend(
    Backend(
        name="numpy-inplace",
        description="preallocated scratch arena + out= ufuncs (bit-identical, "
        "allocation-free steady state)",
        wrap=InplaceKernel,
    )
)
register_backend(
    Backend(
        name="numba",
        description="njit-compiled plane loops (7pt/27pt/generic-R1/varco; "
        "other kernels fall back to the in-place path)",
        wrap=_wrap_numba,
        available=_NUMBA_AVAILABLE,
        unavailable_reason=_NUMBA_REASON,
    )
)


def _wrap_fused_numpy(kernel: PlaneKernel) -> PlaneKernel:
    from .fused import FusedSweepKernel  # deferred: fused imports this module

    return FusedSweepKernel(kernel)


def _wrap_fused_numba(kernel: PlaneKernel) -> PlaneKernel:  # pragma: no cover
    if not _NUMBA_AVAILABLE:
        raise BackendUnavailableError(
            f"backend 'fused-numba' unavailable: {_NUMBA_REASON}"
        )
    from .fused import FusedNumbaSweepKernel

    return FusedNumbaSweepKernel(kernel)


register_backend(
    Backend(
        name="fused-numpy",
        description="fused z-iteration sweeps via prebound ufunc instruction "
        "plans (per-time-instance loop and Python dispatch hoisted out of "
        "the 3.5D hot path)",
        wrap=_wrap_fused_numpy,
    )
)
register_backend(
    Backend(
        name="fused-numba",
        description="njit whole-z-iteration sweeps with prange row "
        "parallelism (7pt/27pt/generic/varco; other kernels use the fused "
        "numpy plan)",
        wrap=_wrap_fused_numba,
        available=_NUMBA_AVAILABLE,
        unavailable_reason=_NUMBA_REASON,
    )
)


def _wrap_codegen(kernel: PlaneKernel) -> PlaneKernel:
    from .codegen import CodegenSweepKernel, codegen_available

    ok, reason = codegen_available()
    if not ok:
        raise BackendUnavailableError(f"backend 'codegen' unavailable: {reason}")
    return CodegenSweepKernel(kernel)


def _codegen_probe() -> tuple[bool, str | None]:
    from .codegen import codegen_available

    return codegen_available()


register_backend(
    Backend(
        name="codegen",
        description="whole-sweep generated kernels, disk-cached per machine "
        "fingerprint + plan hash, prange over tiles (7pt/27pt/generic/varco; "
        "other kernels use the fused numpy plan)",
        wrap=_wrap_codegen,
        probe=_codegen_probe,
    )
)


def bound_rung(kernel: PlaneKernel) -> str:
    """The fallback-ladder rung a wrapped kernel actually executes on.

    Benchmarks record this next to the *requested* backend so trajectory
    plots attribute speedups to the rung that really ran.
    """
    engine = getattr(kernel, "engine", None)
    if engine == "codegen":
        return "codegen"
    if engine == "numba":
        return "fused-numba"
    if engine == "numpy":
        return "fused-numpy"
    if isinstance(kernel, _NumbaPlaneKernel):
        return "numba"
    if isinstance(kernel, InplaceKernel):
        return "numpy-inplace"
    return "numpy"
