"""Chaos soak for the serve daemon: seeded fault schedules, zero silent loss.

The daemon's contract is stronger than "doesn't crash": every accepted job
must reach a terminal status with an honest verdict, every *completed* job
must be bit-exact against the fault-free naive reference, and every
refused job must carry an explicit reason.  This soak earns that contract
the same way :mod:`repro.resilience.chaos` earns the rank-recovery one —
derive a random-but-reproducible fault schedule from a seed (accept drops,
worker stalls, journal tears, deadline storms, a mid-run hard kill with
restart-and-recover), run a batch of jobs through a real
:class:`~repro.serve.server.ServeCore` under it, and judge the wreckage.

Entry points mirror the distributed soak: :func:`make_serve_case`,
:func:`run_serve_case`, :func:`run_serve_soak`; ``repro chaos --target
serve`` and the serve CI job drive them.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.naive import run_naive
from ..resilience.checkpoint import data_digest
from ..resilience.faultinject import FAULTS
from .protocol import JobSpec
from .server import ServeCore, make_field, make_kernel

__all__ = [
    "SERVE_SCHEDULES",
    "ServeChaosCase",
    "ServeChaosResult",
    "make_serve_case",
    "run_serve_case",
    "run_serve_soak",
]

#: every fault family the serve schedule generator knows how to draw
SERVE_SCHEDULES = ("accept", "stall", "journal", "deadline", "kill")


@dataclass
class ServeChaosCase:
    """One seeded soak iteration: the job mix plus its fault schedule."""

    seed: int
    jobs: int
    grid: int
    steps: int
    dim_t: int
    workers: int
    queue_cap: int
    specs: list[str] = field(default_factory=list)
    #: hard-kill the daemon after this many submissions, then restart on
    #: the same state dir and recover (0 = no kill)
    kill_after: int = 0
    deadline_s: float | None = None

    def describe(self) -> str:
        faults = ", ".join(self.specs) if self.specs else "no injected faults"
        kill = f"; kill after {self.kill_after} submits" if self.kill_after else ""
        return (
            f"seed {self.seed}: {self.jobs} jobs of {self.grid}^3 x "
            f"{self.steps} steps (dim_T={self.dim_t}), {self.workers} "
            f"workers, queue {self.queue_cap}; {faults}{kill}"
        )


@dataclass
class ServeChaosResult:
    """Outcome of one soak iteration."""

    case: ServeChaosCase
    ok: bool
    error: str | None
    submitted: int
    accepted: int
    refused: int
    completed: int
    degraded: int
    failed: int
    shed: int
    non_terminal: int
    hash_mismatches: int
    missing_reasons: int
    #: billing-vs-metering disagreements on the surviving core (the ledger
    #: and the counters are both per-core, so after a kill+restart the
    #: reconciliation covers everything the recovered core executed)
    ledger_mismatches: int
    recovered: int
    resumes: int
    quarantined_records: int
    elapsed_s: float

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["case"] = asdict(self.case)
        return doc


def make_serve_case(
    seed: int,
    *,
    jobs: int = 12,
    grid: int = 12,
    steps: int = 6,
    dim_t: int = 2,
    workers: int = 2,
    queue_cap: int = 6,
    schedules: tuple[str, ...] = SERVE_SCHEDULES,
) -> ServeChaosCase:
    """Derive a deterministic serve fault schedule from ``seed``."""
    unknown = set(schedules) - set(SERVE_SCHEDULES)
    if unknown:
        raise ValueError(
            f"unknown serve chaos schedule(s) {sorted(unknown)}; "
            f"known: {', '.join(SERVE_SCHEDULES)}"
        )
    rng = np.random.default_rng(seed)
    specs: list[str] = []
    kill_after = 0
    deadline_s: float | None = None
    if "accept" in schedules:
        after = int(rng.integers(0, jobs))
        specs.append("serve.accept" + (f"@{after}" if after else ""))
    if "stall" in schedules:
        times = int(rng.integers(1, 4))
        specs.append(f"serve.stall:{times}")
    if "journal" in schedules:
        # tear a non-commit record: "accepted" is exempt by design (the
        # fsync-before-reply commit point), so aim at progress/terminal
        # events — a torn "done" means the job re-runs on restart, which
        # recovery must absorb bit-exactly
        event = ("done", "requeued", "started")[int(rng.integers(0, 3))]
        specs.append(f"serve.journal={event}")
    if "deadline" in schedules:
        specs.append("serve.deadline")
        deadline_s = 30.0
    if "kill" in schedules:
        kill_after = int(rng.integers(2, max(3, jobs - 1)))
    return ServeChaosCase(
        seed=seed, jobs=jobs, grid=grid, steps=steps, dim_t=dim_t,
        workers=workers, queue_cap=queue_cap, specs=specs,
        kill_after=kill_after, deadline_s=deadline_s,
    )


def _reference_sha(spec: JobSpec, cache: dict) -> str:
    """Fault-free naive result hash for a spec (memoized across jobs)."""
    key = (spec.kernel, spec.grid, spec.steps, spec.precision, spec.seed)
    if key not in cache:
        out = run_naive(make_kernel(spec), make_field(spec), spec.steps)
        cache[key] = data_digest(out.data)
    return cache[key]


def _new_core(case: ServeChaosCase, state_dir: str) -> ServeCore:
    core = ServeCore(
        state_dir,
        workers=case.workers,
        queue_cap=case.queue_cap,
        rate=1000.0,
        burst=1000.0,
        tenant_quota=case.jobs + 1,
        fsync=False,  # soak I/O; durability is exercised by the unit tests
    )
    core.start()
    return core


def _wait_all(core: ServeCore, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(r.terminal for r in core.jobs()):
            return True
        time.sleep(0.02)
    return False


def run_serve_case(case: ServeChaosCase, *, timeout: float = 60.0) -> ServeChaosResult:
    """One soak iteration: drive a job mix through a core under the schedule.

    Judgement: (a) every accepted job reaches a terminal status — across a
    hard kill + restart when the schedule includes one; (b) every completed
    (done/degraded) job's result hash equals the fault-free naive
    reference; (c) every refused/shed/failed job carries a non-empty
    reason.  Deadline misses and injected accept-drops are *correct*
    outcomes, not failures — the soak fails only on silent loss, hangs, or
    wrong bits.
    """
    rng = np.random.default_rng(case.seed)
    state_dir = tempfile.mkdtemp(prefix="repro-serve-chaos-")
    refs: dict = {}
    refused = 0
    error = None
    t0 = time.perf_counter()
    try:
        with FAULTS.injected(*case.specs):
            core = _new_core(case, state_dir)
            for i in range(case.jobs):
                spec = JobSpec(
                    kernel="7pt",
                    grid=case.grid,
                    steps=case.steps,
                    dim_t=case.dim_t,
                    tile=8,
                    seed=int(rng.integers(0, 3)),
                    priority=int(rng.integers(0, 3)),
                    tenant=f"t{int(rng.integers(0, 2))}",
                    deadline_s=case.deadline_s,
                    verify=False,  # bit-exactness is judged against refs below
                )
                reply = core.submit(spec.to_dict())
                if not reply.get("ok"):
                    refused += 1
                    if not reply.get("reason"):
                        error = f"refusal without a reason: {reply!r}"
                if case.kill_after and i + 1 == case.kill_after:
                    time.sleep(0.05)  # let some work start
                    core.kill()
                    core = _new_core(case, state_dir)
            if not _wait_all(core, timeout):
                error = error or "timeout: accepted jobs never drained"
            core.drain(timeout=timeout)
        records = core.jobs()
        completed = [r for r in records if r.status in ("done", "degraded")]
        hash_mismatches = sum(
            1 for r in completed if r.sha256 != _reference_sha(r.spec, refs)
        )
        missing_reasons = sum(
            1
            for r in records
            if r.status in ("failed", "shed", "cancelled") and not r.reason
        )
        non_terminal = sum(1 for r in records if not r.terminal)
        ledger_bad = core.ledger_reconciliation()
        if ledger_bad and error is None:
            error = "ledger/counter mismatch: " + "; ".join(ledger_bad)
        result = ServeChaosResult(
            case=case,
            ok=(
                error is None
                and non_terminal == 0
                and hash_mismatches == 0
                and missing_reasons == 0
                and not ledger_bad
            ),
            error=error,
            submitted=case.jobs,
            accepted=len(records),
            refused=refused,
            completed=sum(1 for r in records if r.status == "done"),
            degraded=sum(1 for r in records if r.status == "degraded"),
            failed=sum(1 for r in records if r.status == "failed"),
            shed=sum(1 for r in records if r.status == "shed"),
            non_terminal=non_terminal,
            hash_mismatches=hash_mismatches,
            missing_reasons=missing_reasons,
            ledger_mismatches=len(ledger_bad),
            recovered=core.counters["recovered"],
            resumes=core.counters["resumes"],
            quarantined_records=core.replay_info.get("quarantined_records", 0),
            elapsed_s=time.perf_counter() - t0,
        )
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    return result


def run_serve_soak(
    seeds,
    *,
    jobs: int = 12,
    grid: int = 12,
    steps: int = 6,
    dim_t: int = 2,
    workers: int = 2,
    queue_cap: int = 6,
    schedules: tuple[str, ...] = SERVE_SCHEDULES,
    timeout: float = 60.0,
) -> list[ServeChaosResult]:
    """One :func:`run_serve_case` per seed; callers inspect ``result.ok``."""
    return [
        run_serve_case(
            make_serve_case(
                seed, jobs=jobs, grid=grid, steps=steps, dim_t=dim_t,
                workers=workers, queue_cap=queue_cap, schedules=schedules,
            ),
            timeout=timeout,
        )
        for seed in seeds
    ]
