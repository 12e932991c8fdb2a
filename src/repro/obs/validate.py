"""Model-validation report: measured counters vs analytic predictions.

Joins the traffic actually accounted by an executor run against the
paper's models — Eq. 2's overestimation factor κ
(:mod:`repro.core.overestimation`), the trapezoid compute
overestimation, and optionally the roofline throughput of
:mod:`repro.machine.roofline` — plus the per-thread load-imbalance
ratio that backs the paper's "every thread does identical traffic"
argument.

κ conventions
-------------
Eq. 2 models the *read-side* amplification of one blocked round: the
grid must be read once per round compulsorily, and ghost layers inflate
that by κ.  We therefore report

``kappa_measured = bytes_read / (rounds * grid_bytes)``

as the headline figure, directly comparable to :func:`kappa_35d`.  The
write side has no ghost traffic (each point is stored exactly once per
round), so the total-bytes amplification sits between 1 and κ and is
reported separately as ``kappa_total_measured``.  Edge tiles clamp at
the domain boundary instead of loading ghosts, so measured κ is
expected to sit *below* the prediction — the prediction is an upper
bound that becomes tight as grid/tile grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.overestimation import compute_overestimation_35d, kappa_35d

__all__ = ["ModelValidation", "validate_35d", "load_imbalance", "metered_sweep_metrics"]


def _effective_kappa(radius: int, dim_t: int, tile_x: int, tile_y: int,
                     nx: int, ny: int) -> float:
    """Eq. 2 κ with uncut axes contributing no ghost factor.

    A tile spanning the whole axis loads no ghosts on that axis (the
    shell clamps at the domain boundary), so its factor is 1.
    """
    dx = tile_x if tile_x < nx else None
    dy = tile_y if tile_y < ny else None
    if dx is None and dy is None:
        return 1.0
    if dx is None:
        return kappa_35d(radius, dim_t, dy)  # one cut axis only
    if dy is None:
        return kappa_35d(radius, dim_t, dx)
    return kappa_35d(radius, dim_t, dx, dy)


def load_imbalance(per_thread_bytes: list[int]) -> float | None:
    """max/mean ratio of per-thread traffic; 1.0 is perfect balance."""
    if not per_thread_bytes:
        return None
    mean = sum(per_thread_bytes) / len(per_thread_bytes)
    if mean <= 0:
        return None
    return max(per_thread_bytes) / mean


@dataclass
class ModelValidation:
    """Measured-vs-predicted join for one executor run."""

    executor: str
    rounds: int
    grid_bytes: int
    kappa_measured: float
    kappa_predicted: float
    kappa_total_measured: float
    compute_overestimation_measured: float
    compute_overestimation_predicted: float
    load_imbalance: float | None = None
    per_thread_bytes: list[int] = field(default_factory=list)
    achieved_mupdates_per_s: float | None = None
    roofline_mupdates_per_s: float | None = None

    @property
    def kappa_ratio(self) -> float:
        """measured/predicted; 1.0 means the model is exact."""
        return self.kappa_measured / self.kappa_predicted

    def within(self, tol: float = 0.15) -> bool:
        """Is measured κ within ``tol`` relative error of the prediction?"""
        return abs(self.kappa_ratio - 1.0) <= tol

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "executor": self.executor,
            "rounds": self.rounds,
            "grid_bytes": self.grid_bytes,
            "kappa_measured": self.kappa_measured,
            "kappa_predicted": self.kappa_predicted,
            "kappa_ratio": self.kappa_ratio,
            "kappa_total_measured": self.kappa_total_measured,
            "compute_overestimation_measured":
                self.compute_overestimation_measured,
            "compute_overestimation_predicted":
                self.compute_overestimation_predicted,
        }
        if self.load_imbalance is not None:
            doc["load_imbalance"] = self.load_imbalance
        if self.per_thread_bytes:
            doc["per_thread_bytes"] = self.per_thread_bytes
        if self.achieved_mupdates_per_s is not None:
            doc["achieved_mupdates_per_s"] = self.achieved_mupdates_per_s
        if self.roofline_mupdates_per_s is not None:
            doc["roofline_mupdates_per_s"] = self.roofline_mupdates_per_s
        return doc

    def lines(self) -> list[str]:
        out = [
            f"model validation ({self.executor}):",
            f"  kappa measured {self.kappa_measured:.4f} vs predicted "
            f"{self.kappa_predicted:.4f} (ratio {self.kappa_ratio:.3f}, "
            f"total-bytes {self.kappa_total_measured:.4f})",
            f"  compute overestimation measured "
            f"{self.compute_overestimation_measured:.4f} vs predicted "
            f"{self.compute_overestimation_predicted:.4f}",
        ]
        if self.load_imbalance is not None:
            out.append(f"  per-thread load imbalance (max/mean) "
                       f"{self.load_imbalance:.3f}")
        if (self.achieved_mupdates_per_s is not None
                and self.roofline_mupdates_per_s is not None):
            pct = 100 * self.achieved_mupdates_per_s / self.roofline_mupdates_per_s
            out.append(f"  achieved {self.achieved_mupdates_per_s:.1f} "
                       f"MUpdates/s = {pct:.0f}% of roofline "
                       f"{self.roofline_mupdates_per_s:.1f}")
        return out


def validate_35d(
    kernel: Any,
    field3d: Any,
    steps: int,
    traffic: Any,
    *,
    dim_t: int,
    tile_y: int,
    tile_x: int,
    executor: str = "blocking35d",
    per_thread_bytes: list[int] | None = None,
    machine: Any = None,
    precision: str = "sp",
    elapsed_s: float | None = None,
) -> ModelValidation:
    """Join one 3.5D run's measured TrafficStats against the paper models.

    ``traffic`` must come from the run being validated (one executor,
    ``steps`` time steps on ``field3d``).  ``per_thread_bytes`` enables
    the load-imbalance ratio; ``machine`` + ``elapsed_s`` enable the
    roofline join.
    """
    radius = kernel.radius
    rounds = max(1, -(-steps // dim_t)) if steps else 1
    nvox = field3d.nz * field3d.ny * field3d.nx
    grid_bytes = nvox * field3d.element_size()
    ty = min(tile_y, field3d.ny)
    tx = min(tile_x, field3d.nx)

    kappa_measured = traffic.bytes_read / (rounds * grid_bytes)
    kappa_total = traffic.total_bytes / (rounds * 2 * grid_bytes)
    kappa_predicted = _effective_kappa(
        radius, dim_t, tx, ty, field3d.nx, field3d.ny)

    # only interior points are ever updated (the shell is constant), so the
    # compulsory update count excludes the radius-R boundary
    interior = ((field3d.nz - 2 * radius) * (field3d.ny - 2 * radius)
                * (field3d.nx - 2 * radius))
    ideal_updates = interior * steps
    comp_measured = traffic.updates / ideal_updates if ideal_updates else 1.0
    try:
        dx_eff = tx if tx < field3d.nx else 10**9
        dy_eff = ty if ty < field3d.ny else 10**9
        comp_predicted = compute_overestimation_35d(radius, dim_t, dx_eff, dy_eff)
    except ValueError:
        comp_predicted = float("nan")

    achieved = None
    roofline = None
    if elapsed_s and elapsed_s > 0 and traffic.updates:
        achieved = traffic.updates / elapsed_s / 1e6
    if machine is not None and traffic.updates:
        from ..machine.roofline import attainable_updates

        point = attainable_updates(
            machine,
            precision,
            ops_per_update=traffic.ops / traffic.updates,
            bytes_per_update=traffic.total_bytes / traffic.updates,
        )
        roofline = point.mupdates_per_s

    return ModelValidation(
        executor=executor,
        rounds=rounds,
        grid_bytes=grid_bytes,
        kappa_measured=kappa_measured,
        kappa_predicted=kappa_predicted,
        kappa_total_measured=kappa_total,
        compute_overestimation_measured=comp_measured,
        compute_overestimation_predicted=comp_predicted,
        load_imbalance=load_imbalance(per_thread_bytes or []),
        per_thread_bytes=per_thread_bytes or [],
        achieved_mupdates_per_s=achieved,
        roofline_mupdates_per_s=roofline,
    )


def metered_sweep_metrics(
    kernel: Any,
    field3d: Any,
    steps: int,
    *,
    dim_t: int,
    tile: int,
    threads: int = 1,
) -> dict[str, Any]:
    """One metered 3.5D sweep; returns the flat block the benches embed.

    Arms the global metrics registry for the duration of a single run of
    the 3.5D executor :func:`repro.runspec.make_executor` builds over the
    already-bound ``kernel``, and joins the measured traffic against
    Eq. 2.  The block carries bytes, measured-vs-predicted κ, and — for
    threaded runs — the barrier-wait fraction.
    """
    import time

    from ..core.traffic import TrafficStats
    from ..runspec import RunSpec, make_executor
    from .metrics import METRICS

    executor = make_executor(
        RunSpec(dim_t=dim_t, tile=tile, threads=threads), kernel)
    METRICS.arm()
    try:
        traffic = TrafficStats()
        t0 = time.perf_counter()
        executor.run(field3d, steps, traffic)
        elapsed = time.perf_counter() - t0
        METRICS.merge_traffic(traffic)
        v = validate_35d(
            kernel, field3d, steps, traffic,
            dim_t=dim_t, tile_y=tile, tile_x=tile,
            executor="parallel35d" if threads > 1 else "blocking35d",
            elapsed_s=elapsed,
        )
        return {
            "bytes_read": traffic.bytes_read,
            "bytes_written": traffic.bytes_written,
            "updates": traffic.updates,
            "kappa_measured": v.kappa_measured,
            "kappa_predicted": v.kappa_predicted,
            "kappa_ratio": v.kappa_ratio,
            "barrier_wait_fraction": METRICS.barrier_wait_fraction(),
            "achieved_mupdates_per_s": v.achieved_mupdates_per_s,
            "threads": threads,
        }
    finally:
        METRICS.disarm()
