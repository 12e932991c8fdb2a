"""Backend fallback chains: degrade gracefully, never change the bits.

Every kernel backend in :mod:`repro.perf.backends` is bit-exact against the
reference NumPy kernels, so a backend failure is never a reason to abort a
sweep — it is a reason to step down to the next-simplest backend and keep
going.  The chain follows the performance ladder downward::

    codegen -> fused-numpy -> numpy-inplace -> numpy

:func:`bind_with_fallback` walks that chain.  A candidate is rejected when

* binding raises (backend unavailable, import error, injected
  ``backend.bind`` fault), or
* the optional *first-tile probe* — one real blocked step on the caller's
  grid, cross-checked bit-exactly against the reference kernel — raises or
  mismatches (JIT compile errors, injected ``backend.compute`` faults,
  silent miscompiles).

Each step down is recorded as a :class:`Degradation` and surfaced as a
structured :class:`DegradedExecutionWarning`; the CLI turns a degraded but
bit-correct run into exit code 3.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .faultinject import FAULTS, ResilienceError

__all__ = [
    "FALLBACK_ORDER",
    "BoundBackend",
    "Degradation",
    "DegradedExecutionWarning",
    "FallbackExhaustedError",
    "bind_with_fallback",
    "fallback_chain",
]

#: the performance ladder, fastest first; a failing backend falls to the
#: next entry to its right
FALLBACK_ORDER = ("codegen", "fused-numpy", "numpy-inplace", "numpy")


class FallbackExhaustedError(ResilienceError):
    """Every backend in the chain failed — including the reference."""


class DegradedExecutionWarning(UserWarning):
    """A sweep is running on a slower backend than requested (same bits)."""


@dataclass(frozen=True)
class Degradation:
    """One recorded step down the fallback chain."""

    stage: str  # "bind" or "probe"
    backend: str  # the backend that failed
    fallback: str  # the backend tried next
    reason: str

    def __str__(self) -> str:
        return (
            f"{self.backend} failed at {self.stage} ({self.reason}); "
            f"falling back to {self.fallback}"
        )


@dataclass
class BoundBackend:
    """Outcome of :func:`bind_with_fallback`."""

    kernel: object
    requested: str
    used: str
    degradations: list[Degradation] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)


def fallback_chain(name: str) -> list[str]:
    """Backends tried for a request of ``name``, in order.

    Known backends continue down :data:`FALLBACK_ORDER`; a custom registered
    backend falls straight to the reference.
    """
    if name in FALLBACK_ORDER:
        return list(FALLBACK_ORDER[FALLBACK_ORDER.index(name):])
    if name == "numpy":
        return ["numpy"]
    return [name, "numpy"]


def _probe_first_tile(wrapped, ref_kernel, name: str, probe_field) -> None:
    """Run one real blocked step and demand bit-exactness vs the reference.

    This is where lazily-failing backends (JIT compilation at first call,
    injected ``backend.compute`` faults) actually fail, and where a backend
    that runs but produces different bits is caught before it contaminates
    a long sweep.  ``memory.flip`` and ``grid.nan`` are held off meanwhile:
    they are for the sweep's integrity guard and health policy to catch, not
    backend faults, and spending them here would degrade a working backend.
    """
    from ..core.blocking35d import Blocking35D
    from ..core.naive import run_naive

    FAULTS.fire("backend.compute", detail=name)
    ny, nx = probe_field.ny, probe_field.nx
    with FAULTS.held("memory.flip"), FAULTS.held("grid.nan"):
        out = Blocking35D(wrapped, 1, ny, nx).run(probe_field, 1)
    ref = run_naive(ref_kernel, probe_field, 1)
    if not np.array_equal(out.data, ref.data):
        raise ResilienceError(
            f"backend {name!r} probe mismatched the reference kernel"
        )


def bind_with_fallback(
    kernel,
    backend: str | None = None,
    probe_field=None,
) -> BoundBackend:
    """Bind ``kernel`` to ``backend``, degrading down the chain on failure.

    ``probe_field`` enables the first-tile probe: one blocked step on that
    field per candidate, cross-checked against the reference (pass the real
    run's grid so stateful kernels — LBM flags, variable coefficients — see
    their own geometry).  Without it only bind-time failures degrade.

    Raises :class:`FallbackExhaustedError` when even the reference backend
    fails, and plain ``ValueError`` for unknown backend names (a usage
    error, not a fault).
    """
    from ..perf.backends import default_backend_name, get_backend, wrap_kernel

    name = backend if backend is not None else default_backend_name()
    get_backend(name)  # unknown names are usage errors: raise ValueError now
    chain = fallback_chain(name)
    degradations: list[Degradation] = []
    for i, cand in enumerate(chain):
        stage = "bind"
        try:
            wrapped = wrap_kernel(kernel, cand)
            if probe_field is not None and cand != "numpy":
                stage = "probe"
                _probe_first_tile(wrapped, kernel, cand, probe_field)
        except Exception as exc:
            if i + 1 >= len(chain):
                raise FallbackExhaustedError(
                    f"no working backend for request {name!r}: "
                    f"{cand} failed at {stage} ({exc})"
                ) from exc
            deg = Degradation(
                stage=stage,
                backend=cand,
                fallback=chain[i + 1],
                reason=f"{type(exc).__name__}: {exc}",
            )
            degradations.append(deg)
            warnings.warn(DegradedExecutionWarning(str(deg)), stacklevel=2)
            continue
        return BoundBackend(
            kernel=wrapped, requested=name, used=cand, degradations=degradations
        )
    raise FallbackExhaustedError(f"no working backend for request {name!r}")
