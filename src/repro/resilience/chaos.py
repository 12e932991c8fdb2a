"""Chaos soak harness: randomized seeded fault schedules, bit-exact or bust.

Hand-written tests cannot earn the claim that a run under *any* survivable
fault schedule ends bit-identical to the fault-free naive oracle; a soak
can.  :func:`run_soak` is the one seeded loop ``repro chaos`` drives: a
:class:`ChaosTarget` derives a reproducible case (run shape + fault
schedule) from each seed and judges its run against the oracle, so every
seed is a complete repro recipe.  The targets differ only in what they
draw and judge: :data:`DISTRIBUTED` (here: rank crashes and a lossy
transport under ``DistributedJacobi``), :data:`repro.resilience.sdc.SDC`
(memory flips and checkpoint bitrot) and :data:`repro.serve.chaos.SERVE`
(the serve daemon under admission, journal and kill faults).  A failing
case's **repro bundle** (:func:`write_bundle`) is the artifact CI uploads
so a red soak is debuggable offline.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, ClassVar

import numpy as np

from ..obs.trace import TRACE
from .faultinject import FAULTS, ResilienceError

__all__ = [
    "DISTRIBUTED",
    "ChaosResult",
    "ChaosTarget",
    "DistributedChaosCase",
    "run_soak",
    "seeded_problem",
    "write_bundle",
]


@dataclass
class ChaosResult:
    """Outcome of one soak iteration, everything needed to judge and debug."""

    case: Any
    ok: bool
    bit_exact: bool
    error: str | None
    #: the per-seed detail ``repro chaos`` prints, in order: an int value
    #: prints as "<value> <label>", a str value prints as it is
    counts: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    #: judgement inputs the detail line leaves out (failed ranks, hash
    #: mismatches, the traceback of a case that raised, ...)
    facts: dict = field(default_factory=dict)
    #: chrome trace of the case when it ran traced, else None
    trace: dict | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        doc = asdict(self)
        del doc["trace"]
        return doc


class ChaosTarget:
    """One system a soak can hammer: seeds in, judged results out.

    A target sets the class attributes and implements :meth:`draw` (seed +
    shape -> case, whose ``spec()`` is the spec its run is built from) and
    :meth:`run` (case -> :class:`ChaosResult` judged against the
    fault-free naive oracle); :meth:`make` validates every target's cases.
    """

    name: ClassVar[str]
    #: every fault family the target's schedule generator can draw
    schedules: ClassVar[tuple[str, ...]]
    #: the run shape of a case when the caller leaves it out
    defaults: ClassVar[dict]
    #: ``repro chaos`` header: its label, and its text after "N seed(s), "
    #: (formatted with the shape)
    title: ClassVar[str]
    headline: ClassVar[str]
    #: ``repro chaos`` verdict after "all N seed(s) " when every seed passes
    verdict: ClassVar[str]

    def make(self, seed: int, schedules=None, **shape):
        """Derive the case of ``seed``; ``ValueError`` on an unknown
        schedule or a shape no run could execute (e.g. ``steps=0``, which
        would judge nothing and pass), with the reason the case's
        ``spec().validate()`` gives."""
        schedules = self.schedules if schedules is None else tuple(schedules)
        unknown = set(schedules) - set(self.schedules)
        if unknown:
            raise ValueError(
                f"unknown chaos schedule(s) {', '.join(sorted(unknown))} for "
                f"target {self.name}; known: {', '.join(self.schedules)}"
            )
        shape = {**self.defaults, **shape}
        for key, value in shape.items():
            if isinstance(value, int) and value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        case = self.draw(seed, schedules, **shape)
        reason = case.spec().validate()
        if reason is not None:
            raise ValueError(reason)
        return case

    def draw(self, seed: int, schedules: tuple[str, ...], **shape):
        raise NotImplementedError

    def run(self, case) -> ChaosResult:
        raise NotImplementedError


def seeded_problem(spec):
    """The seeded initial field of the run ``spec`` and its fault-free
    naive reference after ``spec.steps`` steps."""
    from ..core.naive import run_naive
    from ..runspec import make_field, make_kernel

    fld = make_field(spec)
    return fld, run_naive(make_kernel(spec), fld, spec.steps)


def run_soak(target: ChaosTarget, seeds, *, schedules=None,
             trace: bool = False, **shape):
    """Make every seed's case, then return an iterator of judged results.

    Cases are made up front, so an invalid shape or schedule raises
    ``ValueError`` before anything runs; results are then produced one
    case at a time, in seed order.  A case that raises becomes a red
    result carrying ``error`` (later seeds still run); ``KeyboardInterrupt``
    propagates.  ``trace=True`` arms the span tracer around each case only.
    """
    cases = [target.make(seed, schedules, **shape) for seed in seeds]
    return (_run_case(target, case, trace) for case in cases)


def _run_case(target: ChaosTarget, case, trace: bool) -> ChaosResult:
    from ..obs.export import chrome_trace

    if trace:
        TRACE.arm()
    t0 = time.perf_counter()
    try:
        result = target.run(case)
    except Exception as exc:
        result = ChaosResult(
            case=case, ok=False, bit_exact=False,
            error=f"{type(exc).__name__}: {exc}",
            facts={"traceback": traceback.format_exc()},
        )
    finally:
        if trace:
            TRACE.disarm()
    result.elapsed_s = time.perf_counter() - t0
    if trace:
        result.trace = chrome_trace()
    return result


def write_bundle(result: ChaosResult, directory) -> Path:
    """Dump a failing seed's repro bundle; returns the bundle directory.

    Contents: ``case.json`` (the full result, including the fault specs
    that reproduce the failure), ``faults.txt`` (the ``$REPRO_FAULTS``
    value to re-arm the schedule by hand), and — only when this case ran
    traced — ``trace.json`` with its spans.
    """
    case = result.case
    bundle = Path(directory) / f"{case.bundle_prefix}{case.seed}"
    bundle.mkdir(parents=True, exist_ok=True)
    with open(bundle / "case.json", "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")
    with open(bundle / "faults.txt", "w", encoding="utf-8") as fh:
        fh.write(",".join(case.specs) + "\n")
    if result.trace is not None:
        with open(bundle / "trace.json", "w", encoding="utf-8") as fh:
            json.dump(result.trace, fh, indent=1)
            fh.write("\n")
    return bundle


# ----------------------------------------------------------------------
# the distributed target: rank crashes and a lossy transport
# ----------------------------------------------------------------------

@dataclass
class DistributedChaosCase:
    """One seeded soak iteration: the run shape plus its fault schedule."""

    bundle_prefix: ClassVar[str] = "seed-"

    seed: int
    ranks: int
    grid: int
    steps: int
    dim_t: int
    specs: list[str] = field(default_factory=list)
    loss: float = 0.0
    corruption: float = 0.0
    #: run the overlapped (post -> interior -> wait -> boundary) schedule,
    #: so crashes land mid-``wait`` and soak the pending-handle purge path
    overlap: bool = True
    latency_s: float = 0.0

    def spec(self):
        """The run: the reference rung, health off, transport retries that
        a lossy link never exhausts; one rank carries no transport."""
        from ..runspec import RunSpec

        comm = (dict(loss=self.loss, corruption=self.corruption,
                     comm_latency_s=self.latency_s) if self.ranks > 1 else {})
        return RunSpec(grid=self.grid, steps=self.steps, dim_t=self.dim_t,
                       tile=self.grid, ranks=self.ranks, seed=self.seed,
                       overlap=self.overlap, backend="numpy", health="off",
                       comm_retries=64, **comm)

    def describe(self) -> str:
        faults = ", ".join(self.specs) if self.specs else "no injected faults"
        return (
            f"seed {self.seed}: {self.ranks} ranks, {self.grid}^3 x "
            f"{self.steps} steps (dim_T={self.dim_t}); {faults}; "
            f"loss={self.loss} corruption={self.corruption}; "
            f"{'overlap' if self.overlap else 'no overlap'}"
            f" latency={self.latency_s}"
        )


class DistributedTarget(ChaosTarget):
    """``DistributedJacobi`` under rank crashes and a faulty transport."""

    name = "distributed"
    schedules = ("crash", "loss", "corruption", "delay")
    defaults = {"ranks": 4, "grid": 24, "steps": 6, "dim_t": 2}
    title = "chaos soak"
    headline = "{ranks} ranks, {grid}^3 x {steps} steps (dim_T={dim_t})"
    verdict = "bit-exact"

    def draw(self, seed, schedules, *, ranks, grid, steps, dim_t):
        """``crash`` kills one uniformly-chosen rank at a uniformly-chosen
        round (via the ``rank.crash`` heartbeat site — always a
        *survivable* single failure, the buddy scheme's design point);
        ``loss``/``corruption`` draw per-message probabilities for the
        transport; ``delay`` arms a burst of delayed acks."""
        rng = np.random.default_rng(seed)
        rounds = -(-steps // dim_t)
        specs: list[str] = []
        loss = corruption = 0.0
        if "crash" in schedules and ranks >= 2:
            victim = int(rng.integers(0, ranks))
            when = int(rng.integers(0, rounds))
            specs.append(f"rank.crash={victim}" + (f"@{when}" if when else ""))
        if "loss" in schedules:
            loss = round(float(rng.uniform(0.02, 0.15)), 3)
        if "corruption" in schedules:
            corruption = round(float(rng.uniform(0.02, 0.10)), 3)
        if "delay" in schedules:
            times = int(rng.integers(1, 4))
            after = int(rng.integers(0, 6))
            specs.append(f"comm.delay:{times}" + (f"@{after}" if after else ""))
        # mostly soak the overlapped schedule (crashes detected mid-wait,
        # with handles pending); 1-in-5 cases keep the fused path covered
        overlap = bool(rng.random() < 0.8)
        latency_s = round(float(rng.uniform(1e-6, 1e-4)), 9)
        return DistributedChaosCase(
            seed=seed, ranks=ranks, grid=grid, steps=steps, dim_t=dim_t,
            specs=specs, loss=loss, corruption=corruption,
            overlap=overlap, latency_s=latency_s,
        )

    def run(self, case: DistributedChaosCase) -> ChaosResult:
        """The distributed run under the schedule, compared bit-for-bit
        against a fault-free serial naive run of the same field."""
        from ..distributed.comm import CommStats
        from ..runspec import build
        from .rankrecovery import RecoveryReport

        spec = case.spec()
        fld, ref = seeded_problem(spec)
        guard = build(spec, field=fld)
        error = None
        out = None
        try:
            with FAULTS.injected(*case.specs):
                out = guard.run(fld, spec.steps)
        except ResilienceError as exc:
            error = f"{type(exc).__name__}: {exc}"

        bit_exact = out is not None and bool(np.array_equal(out.data, ref.data))
        # a one-rank case runs serially: no transport, no rank to lose
        comm = getattr(guard.executor, "comm", None) if error is None else None
        total = comm.total_stats() if comm is not None else CommStats()
        rep = getattr(guard.executor, "recovery", RecoveryReport())
        return ChaosResult(
            case=case,
            ok=error is None and bit_exact,
            bit_exact=bit_exact,
            error=error,
            counts={
                "recoveries": rep.recoveries,
                "retries": total.retries,
                "dropped": total.dropped,
                "corrupted": total.corrupted,
                "delayed": total.delayed,
            },
            facts={
                "replayed_rounds": rep.replayed_rounds,
                "failed_ranks": list(rep.failed_ranks),
            },
        )


DISTRIBUTED = DistributedTarget()
