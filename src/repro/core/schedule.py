"""Step schedule for the 3.5D computation flow (paper Section V-C, Figure 3a).

A *step* :math:`S_i` computes (or loads, or stores) one XY sub-plane at one
time instance.  For stencil radius R the schedule advances every time
instance by one plane per z-iteration, with instance ``t`` trailing instance
``t-1`` by a fixed *lag* of planes:

* **sequential** variant — lag R, ``2R+1`` ring slots.  Steps inside one
  iteration depend on each other (instance t reads planes instance t-1
  produced in the same iteration) and must run in instance order, with a
  barrier after each step.
* **concurrent** variant — lag R+1, ``2R+2`` ring slots.  All ``dim_T + 1``
  steps of an iteration are mutually independent and can run in parallel,
  which is the paper's extension that multiplies the available parallelism
  by ``dim_T`` (at R = 1 the lag is 2, matching the paper's
  ``z_s = z + 2R(dim_T - t'')`` schedule).

The executor in :mod:`repro.core.blocking35d` inlines this iteration; the
explicit schedule object here exists so tests, examples, and the GPU planner
can inspect, validate, and visualize the exact step order of Figure 3(a).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .regions import cone_ranges

__all__ = ["StepKind", "Step", "Schedule", "build_schedule", "lag_for"]


class StepKind(enum.Enum):
    LOAD = "load"        # t = 0: read an XY sub-plane from external memory
    COMPUTE = "compute"  # 0 < t < dim_t: stencil into an on-chip ring
    STORE = "store"      # t = dim_t: stencil + write result to external memory


@dataclass(frozen=True)
class Step:
    """One schedule step: plane ``z`` at time instance ``t`` in iteration ``k``."""

    index: int
    iteration: int
    t: int
    z: int
    kind: StepKind

    def reads(self, radius: int) -> list[tuple[int, int]]:
        """(instance, plane) pairs this step consumes."""
        if self.kind is StepKind.LOAD:
            return []
        return [(self.t - 1, self.z + dz) for dz in range(-radius, radius + 1)]


def lag_for(radius: int, concurrent: bool) -> int:
    """Planes by which instance t trails instance t-1."""
    return radius + 1 if concurrent else radius


@dataclass
class Schedule:
    """The complete ordered step list for one tile sweep."""

    nz: int
    radius: int
    dim_t: int
    concurrent: bool
    steps: list[Step]

    @property
    def lag(self) -> int:
        return lag_for(self.radius, self.concurrent)

    def iterations(self) -> dict[int, list[Step]]:
        """Steps grouped by z-iteration (the unit between barriers)."""
        out: dict[int, list[Step]] = {}
        for s in self.steps:
            out.setdefault(s.iteration, []).append(s)
        return out

    def validate(self) -> None:
        """Check dependency ordering and ring-slot liveness.

        Raises ``AssertionError`` on any violation.  Dependencies on planes in
        the fixed boundary shell are satisfied by persistent shell copies and
        are exempt from ring liveness.
        """
        from .buffer import ring_slots

        slots = ring_slots(self.radius, self.concurrent)
        produced: dict[tuple[int, int], int] = {}  # (instance, plane) -> step idx
        recycled: dict[tuple[int, int], int] = {}  # overwrite step idx
        shell = set(range(self.radius)) | set(range(self.nz - self.radius, self.nz))
        for s in self.steps:
            if s.kind is not StepKind.STORE:
                key = (s.t, s.z)
                old = (s.t, s.z - slots)
                if old in produced:
                    recycled[old] = s.index
                produced[key] = s.index
            for t_src, z_src in s.reads(self.radius):
                if z_src in shell:
                    continue  # served by the persistent boundary-plane copies
                key = (t_src, z_src)
                assert key in produced, (
                    f"step {s} reads ({t_src}, z={z_src}) which was never produced"
                )
                if self.concurrent:
                    assert produced[key] < s.index and not _same_iteration(
                        self.steps[produced[key]], s
                    ), f"concurrent step {s} depends on same-iteration step"
                else:
                    assert produced[key] < s.index
                assert key not in recycled or recycled[key] > s.index, (
                    f"step {s} reads ({t_src}, z={z_src}) after its slot was recycled"
                )

    def phase_of(self, step: Step) -> str:
        """Classify a step into the paper's prolog/steady/epilog phases."""
        first_store = next(s.iteration for s in self.steps if s.kind is StepKind.STORE)
        last_load = max(s.iteration for s in self.steps if s.kind is StepKind.LOAD)
        if step.iteration < first_store:
            return "prolog"
        if step.iteration > last_load:
            return "epilog"
        return "steady"


def _same_iteration(a: Step, b: Step) -> bool:
    return a.iteration == b.iteration


def schedule_to_text(schedule: Schedule, max_iterations: int | None = None) -> str:
    """Render the schedule as a Figure-3(a)-style table.

    Rows are time instances (t' = 0 loads, t' = dim_T stores), columns are
    z-iterations; each cell shows the plane index handled at that step.
    """
    iters = schedule.iterations()
    keys = sorted(iters)
    if max_iterations is not None:
        keys = keys[:max_iterations]
    header = "t'\\iter |" + "".join(f"{k:>5}" for k in keys)
    lines = [header, "-" * len(header)]
    for t in range(schedule.dim_t + 1):
        cells = []
        for k in keys:
            step = next((s for s in iters[k] if s.t == t), None)
            cells.append(f"{step.z:>5}" if step else "    .")
        kind = "load " if t == 0 else ("store" if t == schedule.dim_t else "comp ")
        lines.append(f"t'={t} {kind}|" + "".join(cells))
    return "\n".join(lines)


def build_schedule(
    nz: int,
    radius: int,
    dim_t: int,
    concurrent: bool = True,
    z_core: tuple[int, int] | None = None,
) -> Schedule:
    """Build the step schedule for a z-axis of ``nz`` planes.

    Instance 0 loads plane ``k`` at iteration ``k``; instance ``t`` computes
    plane ``k - lag*t``.  By default loads cover ``[0, nz)`` and
    computes/stores the interior ``[R, nz - R)``.  With ``z_core`` (the
    output planes the caller keeps) each instance covers only the
    dependence cone of those planes (:func:`~repro.core.regions.cone_ranges`):
    the planes outside it would be thrown away, so they are not computed.
    Iterations continue until the final instance has stored its last plane.
    """
    if nz < 2 * radius + 1:
        raise ValueError(f"nz={nz} too small for radius {radius}")
    lag = lag_for(radius, concurrent)
    spans = cone_ranges(
        (radius, nz - radius) if z_core is None else z_core, nz, radius, dim_t
    )
    kinds = [StepKind.LOAD] + [StepKind.COMPUTE] * (dim_t - 1) + [StepKind.STORE]
    steps: list[Step] = []
    for k in range(nz + lag * dim_t):
        for t, ((lo, hi), kind) in enumerate(zip(spans, kinds)):
            z = k - lag * t
            if lo <= z < hi:
                steps.append(Step(len(steps), k, t, z, kind))
    return Schedule(nz=nz, radius=radius, dim_t=dim_t, concurrent=concurrent, steps=steps)
