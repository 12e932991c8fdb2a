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
``fused-numpy``
    The 3.5D executors' fused sweeps: prebound ufunc instruction plans per
    tile, batched and volume rounds (:mod:`repro.perf.fused`).  The default.
``codegen``
    The one compiled path: each 3.5D round's whole loop nest generated as
    source, ``@njit``-compiled and disk-cached (:mod:`repro.perf.codegen`).
    Listed but unavailable when numba is not installed.

Selection: explicitly by name, or via the ``REPRO_BACKEND`` environment
variable (the default when no name is given), or through the CLI's
``--backend`` flag and the empirical autotuner's ``backend=`` parameter.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass

from ..resilience.faultinject import FAULTS
from ..stencils.base import PlaneKernel, ScratchArena

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
# registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Backend:
    """A named kernel-execution strategy.

    ``probe``, when given, decides availability: it is re-evaluated on every
    availability query, so a backend whose availability depends on mutable
    environment state (``codegen``, whose ``REPRO_CODEGEN_MODE=python``
    fallback can be enabled at any point) is judged afresh each time.  A
    backend without a probe is always available.
    """

    name: str
    description: str
    wrap: Callable[[PlaneKernel], PlaneKernel]
    probe: Callable[[], tuple[bool, str | None]] | None = None


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> None:
    """Add (or replace) a backend in the registry."""
    _REGISTRY[backend.name] = backend


def backend_names() -> list[str]:
    """All registered backend names, available or not."""
    return list(_REGISTRY)


def backend_availability(name: str) -> tuple[bool, str | None]:
    """Current ``(available, reason)`` for a backend."""
    b = get_backend(name)
    return b.probe() if b.probe is not None else (True, None)


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
    degrades.  The compiled rung stays opt-in.
    """
    return os.environ.get(REPRO_BACKEND_ENV, "fused-numpy")


def wrap_kernel(kernel: PlaneKernel, backend: str | None = None) -> PlaneKernel:
    """Bind ``kernel`` to a backend (default: :func:`default_backend_name`).

    Raises :class:`BackendUnavailableError` when the backend exists but
    cannot run here (e.g. ``codegen`` without numba installed).  The
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


def _wrap_fused_numpy(kernel: PlaneKernel) -> PlaneKernel:
    from .fused import FusedSweepKernel  # deferred: fused imports this module

    return FusedSweepKernel(kernel)


def _wrap_codegen(kernel: PlaneKernel) -> PlaneKernel:
    from .codegen import CodegenSweepKernel

    return CodegenSweepKernel(kernel)


def _codegen_probe() -> tuple[bool, str | None]:
    from .codegen import codegen_available

    return codegen_available()


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
        name="fused-numpy",
        description="fused z-iteration sweeps via prebound ufunc instruction "
        "plans (per-time-instance loop and Python dispatch hoisted out of "
        "the 3.5D hot path)",
        wrap=_wrap_fused_numpy,
    )
)
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
    if engine == "numpy":
        return "fused-numpy"
    if isinstance(kernel, InplaceKernel):
        return "numpy-inplace"
    return "numpy"
