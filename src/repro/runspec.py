"""One run spec, one builder: every entry point constructs the same run.

:class:`RunSpec` holds the problem, the paper's plan (scheme, dim_T,
dim_X = dim_Y), the executor, the backend rung and the run policy that
:class:`GuardedSweep` owns; :meth:`RunSpec.validate` is the one place a
run is refused and :func:`build` the one place it is constructed.
``repro run``, the serve worker, the distributed and SDC chaos targets
and ``metered_sweep_metrics`` are adapters (see docs/architecture.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .perf.backends import get_backend
from .resilience.checkpoint import CheckpointStore
from .resilience.report import RunReport
from .resilience.sdc import INTEGRITY_TIERS
from .resilience.watchdog import GuardedSweep
from .stencils.grid import Field3D

__all__ = ["HEALTH_POLICIES", "INTEGRITY_TIERS", "KERNELS", "PRECISIONS",
           "SCHEMES", "RunSpec", "bind", "build", "make_executor",
           "make_field", "make_kernel"]

#: kernels a spec can name; each has radius 1
KERNELS = ("7pt", "27pt", "lbm")
SCHEMES = ("naive", "3d", "2.5d", "4d", "3.5d", "cache-oblivious")
PRECISIONS = ("sp", "dp")
HEALTH_POLICIES = ("off", "raise", "warn", "repair")
_CHOICES = (("kernel", KERNELS), ("scheme", SCHEMES),
            ("precision", PRECISIONS), ("integrity", INTEGRITY_TIERS),
            ("health", HEALTH_POLICIES))
#: a radius-1 stencil updates nothing on fewer than 2R+1 planes
_LEAST = (("grid", 3), ("steps", 1), ("dim_t", 1), ("tile", 1),
          ("threads", 1), ("ranks", 1), ("checkpoint_every", 1),
          ("comm_retries", 1), ("retries", 0))


@dataclass
class RunSpec:
    """One stencil run; which entry point sets which field is tabulated
    in docs/api.md."""

    kernel: str = "7pt"
    scheme: str = "3.5d"
    grid: int = 16
    steps: int = 4
    dim_t: int = 2
    tile: int = 8  # dim_X = dim_Y
    precision: str = "sp"
    seed: int = 0
    backend: str | None = None  # None: $REPRO_BACKEND or the default rung
    no_fallback: bool = False
    threads: int = 1
    #: watchdog bound on each threaded z-sweep launch, not a job budget
    spmd_deadline_s: float | None = None
    ranks: int = 1
    overlap: bool = True
    recover: bool = True
    loss: float = 0.0
    corruption: float = 0.0
    comm_latency_s: float = 0.0
    comm_bandwidth: float | None = None
    comm_retries: int = 3  # transport retries per message
    integrity: str = "off"
    health: str = "raise"
    retries: int = 0
    checkpoint: str | None = None  # snapshot file path
    checkpoint_every: int = 1
    resume: bool = False

    @property
    def dtype(self):
        return _dtype(self)

    @property
    def shape(self) -> tuple:
        """The grid's array shape: (components, nz, ny, nx)."""
        return (19 if self.kernel == "lbm" else 1,) + (self.grid,) * 3

    def validate(self) -> str | None:
        """Why no entry point can run this spec, or None when it is runnable."""
        for name, known in _CHOICES:
            value = getattr(self, name)
            if value not in known:
                return f"unknown {name} {value!r}; known: {', '.join(known)}"
        for name, least in _LEAST:
            value = getattr(self, name)
            if value < least:
                return f"{name} must be >= {least}, got {value}"
        if (self.scheme == "3.5d" and self.tile < self.grid
                and self.tile - 2 * self.dim_t < 1):
            return (f"tile {self.tile} cannot host 2*R*dim_T = "
                    f"{2 * self.dim_t} ghost cells")
        if self.backend is not None:
            try:
                get_backend(self.backend)
            except ValueError as exc:
                return str(exc)
        if self.ranks > 1:
            if self.scheme not in ("3.5d", "naive"):
                return "--ranks requires --scheme 3.5d or naive"
            if self.threads > 1:
                return "--ranks and --threads are mutually exclusive"
            from .distributed.decompose import decompose_z

            try:
                decompose_z(self.grid, self.ranks, self.dim_t)
            except ValueError as exc:
                return str(exc)
        elif self.loss or self.corruption:
            return "--loss/--corruption require --ranks > 1"
        elif self.comm_latency_s or self.comm_bandwidth:
            return "--comm-latency/--comm-bandwidth require --ranks > 1"
        if not (0.0 <= self.loss < 1.0 and 0.0 <= self.corruption < 1.0):
            return "loss and corruption are probabilities in [0, 1)"
        if self.spmd_deadline_s is not None:
            if self.threads <= 1:
                return ("--deadline bounds a threaded z-sweep; it requires "
                        "--threads > 1")
            if self.spmd_deadline_s <= 0:
                return "--deadline must be positive"
        if self.resume and not self.checkpoint:
            return "--resume requires --checkpoint"
        return None


def _dtype(spec):
    return np.float32 if spec.precision == "sp" else np.float64


def make_kernel(spec):
    """The reference kernel of ``spec`` (a RunSpec or a JobSpec); LBM
    runs an all-fluid lattice."""
    if spec.kernel == "lbm":
        from .lbm import LBMKernel

        return LBMKernel(np.zeros((spec.grid,) * 3, np.uint8), omega=1.2)
    from .stencils import SevenPointStencil, TwentySevenPointStencil

    return (TwentySevenPointStencil() if spec.kernel == "27pt"
            else SevenPointStencil())


def make_field(spec):
    """The deterministic initial grid of ``spec``: (kernel, grid,
    precision, seed); LBM starts at the equilibrium of seeded moments."""
    shape, dtype = (spec.grid,) * 3, _dtype(spec)
    if spec.kernel != "lbm":
        return Field3D.random(shape, dtype=dtype, seed=spec.seed)
    from .lbm import equilibrium

    rng = np.random.default_rng(spec.seed)
    rho = (1.0 + 0.02 * rng.random(shape)).astype(dtype)
    u = (0.01 * (rng.random((3,) + shape) - 0.5)).astype(dtype)
    return Field3D(np.ascontiguousarray(equilibrium(rho, u)))


def bind(spec: RunSpec, field, kernel=None):
    """The reference ``kernel`` (default ``make_kernel(spec)``) bound to
    the spec's backend, a ``BoundBackend``: directly under
    ``no_fallback``, else down the fallback chain probing on ``field``."""
    from .perf.backends import default_backend_name, wrap_kernel
    from .resilience.fallback import BoundBackend, bind_with_fallback

    ref = kernel if kernel is not None else make_kernel(spec)
    name = spec.backend if spec.backend is not None else default_backend_name()
    if spec.no_fallback:
        return BoundBackend(kernel=wrap_kernel(ref, name), requested=name,
                            used=name)
    return bind_with_fallback(ref, name, probe_field=field)


class _FnExecutor:
    """Function-style schemes in the executor ``run`` shape."""

    dim_t = 1

    def __init__(self, fn, kernel):
        self.fn, self.kernel = fn, kernel

    def run(self, field, steps, traffic=None):
        return self.fn(self.kernel, field, steps, traffic)


def make_executor(spec: RunSpec, kernel):
    """The unguarded executor of ``spec`` over the bound ``kernel``."""
    t = spec.tile
    if spec.ranks > 1:
        from .distributed.runner import DistributedJacobi

        return DistributedJacobi(
            kernel, spec.ranks, dim_t=spec.dim_t, tile_y=t, tile_x=t,
            scheme="35d" if spec.scheme == "3.5d" else "naive",
            loss=spec.loss, corruption=spec.corruption, comm_seed=spec.seed,
            max_retries=spec.comm_retries, recover=spec.recover,
            overlap=spec.overlap, latency_s=spec.comm_latency_s,
            bandwidth_bytes_s=spec.comm_bandwidth,
        )
    from . import core

    if spec.scheme == "naive":
        return _FnExecutor(core.run_naive, kernel)
    if spec.scheme == "cache-oblivious":
        return _FnExecutor(core.run_cache_oblivious, kernel)
    if spec.scheme == "3d":
        return core.Blocking3D(kernel, t, t, t)
    if spec.scheme == "2.5d":
        return core.Blocking25D(kernel, t, t)
    if spec.scheme == "4d":
        return core.Blocking4D(kernel, spec.dim_t, t, t, t)
    if spec.threads > 1:
        from .runtime.parallel35d import ParallelBlocking35D

        return ParallelBlocking35D(kernel, spec.dim_t, t, t, spec.threads,
                                   spmd_deadline=spec.spmd_deadline_s)
    return core.Blocking35D(kernel, spec.dim_t, t, t)


def build(spec: RunSpec, *, field=None, bound=None, executor=None,
          sweep=GuardedSweep, validated=False, **hooks):
    """The guarded run of ``spec``: a ``sweep`` (:class:`GuardedSweep` or a
    subclass) over the spec's executor on its bound backend.

    ``field`` is what the bind probes (default ``make_field(spec)``);
    ``bound`` (a ``BoundBackend``) and ``executor`` reuse a bind or a warm
    executor; ``hooks`` are further sweep arguments (``stop``, ``meta``,
    a subclass's own).  ``ValueError`` carries the spec's
    :meth:`~RunSpec.validate` reason, unless the caller ``validated`` the
    spec already; bind failures raise as in :func:`bind`.
    """
    reason = None if validated else spec.validate()
    if reason is not None:
        raise ValueError(reason)
    ref = None
    if bound is None:
        ref = make_kernel(spec)
        bound = bind(spec, field if field is not None else make_field(spec),
                     ref)
    if ref is None and spec.integrity != "off":
        ref = make_kernel(spec)
    if executor is None:
        executor = make_executor(spec, bound.kernel)
    if "meta" not in hooks:  # the run identity a resume checks
        hooks["meta"] = {k: getattr(spec, k) for k in
                         ("kernel", "scheme", "grid", "precision", "seed")}
    return sweep(
        executor, health=spec.health, max_retries=spec.retries,
        checkpoint=CheckpointStore(spec.checkpoint) if spec.checkpoint
        else None,
        checkpoint_every=spec.checkpoint_every,
        report=RunReport(requested_backend=bound.requested,
                         used_backend=bound.used,
                         degradations=list(bound.degradations)),
        sdc=spec.integrity, sdc_seed=spec.seed,
        # integrity replays run through the reference kernel, a different
        # rung of the bit-exact ladder than the bound backend
        kernel=ref, **hooks,
    )
