"""Empirical auto-tuning: pick blocking parameters by measurement.

The analytic tuner (:mod:`repro.core.tuner`) applies the paper's closed
forms.  The related work the paper compares against (Datta et al.) instead
*searches* the parameter space with measurements; this module provides that
style on top of our traffic counters: run one blocked round of each
candidate configuration on a small probe grid, measure the external traffic
and executed ops, convert both to a roofline time on the target machine,
and rank.

On the paper's configurations the empirical search lands on the same knee
as Equation 3/4 (the test suite checks this agreement) — the two tuners
cross-validate each other.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..stencils.base import PlaneKernel
from ..stencils.grid import Field3D, interior_points
from .blocking35d import Blocking35D
from .params import capacity_bytes_needed
from .traffic import TrafficStats

__all__ = [
    "Candidate",
    "DEFAULT_TUNE_CACHE_MAX_ENTRIES",
    "REPRO_TUNE_CACHE_ENV",
    "REPRO_TUNE_CACHE_MAX_ENV",
    "TuningCache",
    "WallClockCandidate",
    "WallClockResult",
    "autotune_empirical",
    "autotune_wallclock",
    "machine_fingerprint",
    "shape_class",
    "validate_probe_shape",
]

#: environment variable overriding the on-disk tuning-cache location
REPRO_TUNE_CACHE_ENV = "REPRO_TUNE_CACHE"

#: environment variable capping the number of cached tuning entries
REPRO_TUNE_CACHE_MAX_ENV = "REPRO_TUNE_CACHE_MAX_ENTRIES"

#: default entry cap — generous for interactive use, finite for a daemon
DEFAULT_TUNE_CACHE_MAX_ENTRIES = 256


def validate_probe_shape(
    probe_shape: tuple[int, int, int], kernel: PlaneKernel
) -> None:
    """Reject probe grids with no interior for the kernel's radius.

    A radius-R kernel updates only ``[R, n-R)`` of each axis; a probe axis
    of ``2R`` or less therefore has an *empty* interior, which silently
    makes every per-update statistic a division by zero (or, one point
    wider, a grid that is all edge effects and misleads the ranking).
    """
    r = kernel.radius
    if len(probe_shape) != 3:
        raise ValueError(f"probe_shape must be (nz, ny, nx), got {probe_shape!r}")
    if min(probe_shape) <= 2 * r:
        raise ValueError(
            f"probe_shape {probe_shape} has no interior for kernel radius "
            f"{r}: every axis must exceed 2*R = {2 * r} "
            f"(got minimum {min(probe_shape)})"
        )


@dataclass(frozen=True)
class Candidate:
    """One measured configuration, ranked by predicted roofline time."""

    dim_t: int
    tile: int
    bytes_per_update: float
    ops_per_update: float
    predicted_time_per_update: float
    buffer_bytes: int
    fits_capacity: bool


def autotune_empirical(
    kernel: PlaneKernel,
    machine,
    dtype=np.float32,
    probe_shape: tuple[int, int, int] = (12, 96, 96),
    dim_t_candidates: tuple[int, ...] = (1, 2, 3, 4, 6),
    tile_candidates: tuple[int, ...] | None = None,
    capacity: int | None = None,
    precision: str | None = None,
    seed: int = 0,
    backend: str | None = None,
) -> list[Candidate]:
    """Measure candidate (dim_T, tile) configurations; best first.

    Predicted time per update is the roofline
    ``max(bytes / achievable_BW, ops / stencil_ops_rate)`` using *measured*
    bytes and ops per update (so the probe grid's real edge effects and κ
    are included).  Configurations whose Equation-1 buffer exceeds the
    capacity are measured but marked and ranked after fitting ones.

    ``backend`` names a kernel backend from :mod:`repro.perf.backends` to run
    the probe sweeps with (the traffic model is backend-independent, but the
    wall-clock of the search itself benefits from the hot-path backends).
    """
    validate_probe_shape(probe_shape, kernel)
    if precision is None:
        precision = "sp" if np.dtype(dtype).itemsize == 4 else "dp"
    if backend is not None:
        # lazy import: repro.core must not depend on repro.perf at module level
        from ..perf.backends import wrap_kernel

        kernel = wrap_kernel(kernel, backend)
    cap = machine.blocking_capacity if capacity is None else capacity
    esize = kernel.element_size(dtype)
    field = Field3D.random(probe_shape, ncomp=kernel.ncomp, dtype=dtype, seed=seed)
    npts = interior_points(probe_shape, kernel.radius)
    bw = machine.achievable_bandwidth
    ops_rate = machine.stencil_ops(precision)

    if tile_candidates is None:
        tile_candidates = tuple(
            t for t in (16, 24, 32, 48, 64, 96) if t <= min(probe_shape[1:])
        )

    results: list[Candidate] = []
    for dim_t in dim_t_candidates:
        for tile in tile_candidates:
            if tile <= 2 * kernel.radius * dim_t:
                continue
            traffic = TrafficStats()
            try:
                Blocking35D(kernel, dim_t, tile, tile).run(field, dim_t, traffic)
            except ValueError:
                continue
            bpu = traffic.total_bytes / (npts * dim_t)
            opu = traffic.ops / (npts * dim_t)
            time_pu = max(bpu / bw, opu / ops_rate)
            buf = capacity_bytes_needed(esize, kernel.radius, dim_t, tile, tile)
            results.append(
                Candidate(
                    dim_t=dim_t,
                    tile=tile,
                    bytes_per_update=bpu,
                    ops_per_update=opu,
                    predicted_time_per_update=time_pu,
                    buffer_bytes=buf,
                    fits_capacity=buf <= cap,
                )
            )
    if not results:
        raise ValueError("no feasible candidate configurations")
    results.sort(key=lambda c: (not c.fits_capacity, c.predicted_time_per_update))
    return results


# ----------------------------------------------------------------------
# Wall-clock auto-tuning with a persistent on-disk cache
# ----------------------------------------------------------------------


def machine_fingerprint() -> str:
    """Short stable hash identifying the measuring machine + toolchain.

    Cached tuning results are only valid on the host (and library stack)
    that produced them, so cache entries carry this fingerprint and are
    invalidated when it changes.
    """
    try:
        import numba  # noqa: F401

        numba_version = numba.__version__
    except Exception:
        numba_version = "none"
    try:
        # lazy import: repro.core must not depend on repro.perf at module
        # level.  The compiled-kernel cache location is part of the
        # fingerprint so retargeting the codegen cache (or a toolchain
        # change relocating it) invalidates tuning entries that were
        # measured against differently-cached compiled kernels.
        from ..perf.codegen import codegen_cache_dir

        codegen_dir = str(codegen_cache_dir())
    except Exception:  # pragma: no cover - defensive
        codegen_dir = "none"
    blob = "|".join(
        (
            platform.machine(),
            platform.processor() or "",
            platform.python_version(),
            str(os.cpu_count() or 0),
            np.__version__,
            numba_version,
            codegen_dir,
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def shape_class(shape: tuple[int, ...]) -> str:
    """Bucket a grid shape per-axis to the next power of two.

    Wall-clock winners transfer well between nearby sizes, so the cache is
    keyed by this coarse class rather than the exact shape — a 120^3 and a
    128^3 probe share the entry, a 512^3 one does not.
    """
    return "x".join(
        str(1 << max(0, int(n - 1).bit_length())) for n in shape
    )


class TuningCache:
    """Persistent JSON store of wall-clock tuning winners.

    Location: explicit ``path`` argument, else ``$REPRO_TUNE_CACHE``, else
    ``$XDG_CACHE_HOME/repro/tuning.json`` (default ``~/.cache/repro``).
    Entries are keyed by ``kernel|backend|dtype|shape-class`` and carry the
    :func:`machine_fingerprint` of the measuring host; a lookup with a
    different fingerprint is a miss, so stale entries self-invalidate.

    The store is **bounded**: every :meth:`put` stamps a monotonic ``seq``
    and evicts the least-recently-written entries beyond ``max_entries``
    (``$REPRO_TUNE_CACHE_MAX_ENTRIES``, default
    :data:`DEFAULT_TUNE_CACHE_MAX_ENTRIES`), so a long-lived daemon that
    tunes many job shapes cannot grow the file without bound.
    :meth:`prune` applies the same policy on demand (``repro tune
    --prune``).
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        max_entries: int | None = None,
    ) -> None:
        if path is None:
            path = os.environ.get(REPRO_TUNE_CACHE_ENV)
        if path is None:
            base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
                os.path.expanduser("~"), ".cache"
            )
            path = os.path.join(base, "repro", "tuning.json")
        self.path = Path(path)
        if max_entries is None:
            try:
                max_entries = int(
                    os.environ.get(REPRO_TUNE_CACHE_MAX_ENV, "")
                    or DEFAULT_TUNE_CACHE_MAX_ENTRIES
                )
            except ValueError:
                max_entries = DEFAULT_TUNE_CACHE_MAX_ENTRIES
        self.max_entries = max(1, max_entries)

    @staticmethod
    def key(
        kernel: PlaneKernel, backend: str, dtype, shape: tuple[int, ...]
    ) -> str:
        name = type(getattr(kernel, "inner", kernel)).__name__
        return "|".join(
            (name, backend, np.dtype(dtype).name, shape_class(shape))
        )

    def _load(self) -> dict:
        """The cache contents; malformed files are quarantined, never fatal.

        A truncated or corrupt JSON file (a crash mid-write, a bad disk) is
        renamed to ``*.corrupt`` and treated as empty, so a poisoned cache
        can neither kill ``run --tune wallclock`` at startup nor keep
        re-poisoning every later run.
        """
        try:
            with open(self.path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError:
            return {}
        except ValueError:
            self._quarantine()
            return {}
        if not isinstance(data, dict):
            self._quarantine()
            return {}
        return data

    def _quarantine(self) -> None:
        # in-function import: core stays free of a module-level resilience
        # dependency (same layering as the FAULTS probe in save())
        from ..resilience.quarantine import quarantine

        # unique .corrupt evidence, count-capped GC of the cache directory
        quarantine(self.path)

    def get(self, key: str, fingerprint: str | None = None) -> dict | None:
        """Return the entry for ``key`` if its fingerprint matches."""
        if fingerprint is None:
            fingerprint = machine_fingerprint()
        entry = self._load().get(key)
        if not isinstance(entry, dict):
            return None
        if entry.get("fingerprint") != fingerprint:
            return None
        # ``seq`` is the LRU bookkeeping stamp, not part of the entry
        return {k: v for k, v in entry.items() if k != "seq"}

    def put(self, key: str, entry: dict) -> None:
        """Insert/replace ``key``; crash-safe via write-to-temp + rename.

        The temp file is flushed and fsynced before the atomic
        ``os.replace``, so a crash at any point leaves either the old
        complete file or the new complete file — never a truncated one.
        (The ``cache.corrupt`` fault site simulates the crash a *non*-atomic
        writer would suffer, for the quarantine tests.)
        """
        from ..resilience.atomic import atomic_write
        from ..resilience.faultinject import FAULTS

        data = self._load()
        entry = dict(entry)
        entry["seq"] = 1 + max(
            (
                int(e.get("seq", 0))
                for e in data.values()
                if isinstance(e, dict)
            ),
            default=0,
        )
        data[key] = entry
        self._evict(data)
        serialized = json.dumps(data, indent=2, sort_keys=True) + "\n"
        if FAULTS.should("cache.corrupt"):
            # simulated crash mid-write: a half-written JSON at the real path
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(serialized[: max(1, len(serialized) // 2)])
            return
        atomic_write(self.path, serialized)

    def _evict(self, data: dict) -> int:
        """Drop least-recently-written entries beyond ``max_entries``."""
        evicted = 0
        while len(data) > self.max_entries:
            victim = min(
                data,
                key=lambda k: int(data[k].get("seq", 0))
                if isinstance(data[k], dict)
                else -1,
            )
            del data[victim]
            evicted += 1
        return evicted

    def prune(self, max_entries: int | None = None) -> tuple[int, int]:
        """Apply the entry cap now; returns ``(removed, remaining)``.

        ``max_entries`` overrides the configured cap for this call (``repro
        tune --prune --cache-max N``).  A no-op prune leaves the file
        untouched.
        """
        if max_entries is not None:
            self.max_entries = max(1, max_entries)
        data = self._load()
        removed = self._evict(data)
        if removed:
            from ..resilience.atomic import atomic_write

            atomic_write(
                self.path, json.dumps(data, indent=2, sort_keys=True) + "\n"
            )
        return removed, len(data)

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass


@dataclass(frozen=True)
class WallClockCandidate:
    """One configuration timed on the probe grid (best-first in results)."""

    dim_t: int
    tile: int
    seconds_per_round: float
    seconds_per_update: float
    buffer_bytes: int
    fits_capacity: bool


@dataclass
class WallClockResult:
    """Outcome of :func:`autotune_wallclock`.

    ``probe_runs`` counts every timed/warmup sweep executed; a warm-cache
    invocation answers from disk with ``probe_runs == 0``.
    """

    best: WallClockCandidate
    candidates: list[WallClockCandidate] = field(default_factory=list)
    probe_runs: int = 0
    from_cache: bool = False
    cache_key: str = ""
    backend: str = ""


def autotune_wallclock(
    kernel: PlaneKernel,
    machine=None,
    dtype=np.float32,
    probe_shape: tuple[int, int, int] = (12, 96, 96),
    dim_t_candidates: tuple[int, ...] = (1, 2, 3, 4, 6),
    tile_candidates: tuple[int, ...] | None = None,
    capacity: int | None = None,
    seed: int = 0,
    backend: str = "fused-numpy",
    repeats: int = 3,
    warmup: int = 1,
    probe_field: Field3D | None = None,
    cache: TuningCache | None = None,
    use_cache: bool = True,
    refresh: bool = False,
) -> WallClockResult:
    """Pick (dim_T, tile) by timing real fused sweeps; persist the winner.

    Unlike :func:`autotune_empirical` (roofline on *modelled* machines) this
    ranks candidates by measured wall-clock on *this* host: each feasible
    configuration runs ``warmup`` untimed rounds then ``repeats`` timed ones
    through the requested backend, and the median seconds-per-round decides.

    Winners are persisted in a :class:`TuningCache` keyed by
    (kernel, backend, dtype, shape-class, machine fingerprint); a repeat
    invocation with a warm cache performs **zero** probe runs
    (``result.from_cache`` is True, ``result.probe_runs == 0``).  Pass
    ``refresh=True`` to force re-measurement, ``use_cache=False`` to bypass
    the cache entirely.

    ``machine``/``capacity`` only gate the Equation-1 capacity flag; with
    neither given every candidate is considered fitting (the measurement
    itself already reflects the real cache hierarchy).
    """
    if probe_field is not None:
        probe_shape = probe_field.shape
    validate_probe_shape(probe_shape, kernel)
    fingerprint = machine_fingerprint()
    if cache is None and use_cache:
        cache = TuningCache()
    key = TuningCache.key(kernel, backend, dtype, probe_shape)

    if use_cache and cache is not None and not refresh:
        entry = cache.get(key, fingerprint)
        if entry is not None:
            best = WallClockCandidate(
                dim_t=int(entry["dim_t"]),
                tile=int(entry["tile"]),
                seconds_per_round=float(entry["seconds_per_round"]),
                seconds_per_update=float(entry["seconds_per_update"]),
                buffer_bytes=int(entry["buffer_bytes"]),
                fits_capacity=bool(entry["fits_capacity"]),
            )
            return WallClockResult(
                best=best,
                candidates=[best],
                probe_runs=0,
                from_cache=True,
                cache_key=key,
                backend=backend,
            )

    # lazy import: repro.core must not depend on repro.perf at module level
    from ..perf.backends import wrap_kernel

    run_kernel = wrap_kernel(kernel, backend)
    if capacity is None and machine is not None:
        capacity = machine.blocking_capacity
    esize = run_kernel.element_size(dtype)
    if probe_field is None:
        probe_field = Field3D.random(
            probe_shape, ncomp=kernel.ncomp, dtype=dtype, seed=seed
        )
    npts = interior_points(probe_shape, kernel.radius)

    if tile_candidates is None:
        tile_candidates = tuple(
            t for t in (16, 24, 32, 48, 64, 96) if t <= min(probe_shape[1:])
        )

    probe_runs = 0
    results: list[WallClockCandidate] = []
    for dim_t in dim_t_candidates:
        for tile in tile_candidates:
            if tile <= 2 * kernel.radius * dim_t:
                continue
            try:
                executor = Blocking35D(run_kernel, dim_t, tile, tile)
                times = []
                for rep in range(warmup + repeats):
                    t0 = time.perf_counter()
                    executor.run(probe_field, dim_t)
                    elapsed = time.perf_counter() - t0
                    probe_runs += 1
                    if rep >= warmup:
                        times.append(elapsed)
            except ValueError:
                continue
            sec = float(np.median(times))
            buf = capacity_bytes_needed(esize, kernel.radius, dim_t, tile, tile)
            results.append(
                WallClockCandidate(
                    dim_t=dim_t,
                    tile=tile,
                    seconds_per_round=sec,
                    seconds_per_update=sec / (npts * dim_t),
                    buffer_bytes=buf,
                    fits_capacity=capacity is None or buf <= capacity,
                )
            )
    if not results:
        raise ValueError("no feasible candidate configurations")
    results.sort(key=lambda c: (not c.fits_capacity, c.seconds_per_update))
    best = results[0]

    if use_cache and cache is not None:
        cache.put(
            key,
            {
                "fingerprint": fingerprint,
                "dim_t": best.dim_t,
                "tile": best.tile,
                "seconds_per_round": best.seconds_per_round,
                "seconds_per_update": best.seconds_per_update,
                "buffer_bytes": best.buffer_bytes,
                "fits_capacity": best.fits_capacity,
                "probe_shape": list(probe_shape),
            },
        )
    return WallClockResult(
        best=best,
        candidates=results,
        probe_runs=probe_runs,
        from_cache=False,
        cache_key=key,
        backend=backend,
    )
