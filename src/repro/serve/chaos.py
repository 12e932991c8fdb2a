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

:data:`SERVE` is that soak's :class:`~repro.resilience.chaos.ChaosTarget`;
``repro chaos --target serve`` and the serve CI job drive it through the
one seeded loop, :func:`~repro.resilience.chaos.run_soak`.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..core.naive import run_naive
from ..resilience.chaos import ChaosResult, ChaosTarget
from ..resilience.checkpoint import data_digest
from ..resilience.faultinject import FAULTS
from .protocol import JobSpec
from .server import ServeCore, make_field, make_kernel

__all__ = ["SERVE", "ServeChaosCase"]

#: how long a case waits for its accepted jobs to drain
_DRAIN_TIMEOUT_S = 60.0


@dataclass
class ServeChaosCase:
    """One seeded soak iteration: the job mix plus its fault schedule."""

    bundle_prefix: ClassVar[str] = "serve-seed-"

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

    def spec(self, **serve) -> JobSpec:
        """A job of the mix; ``serve`` fills its seed and serve fields."""
        return JobSpec(kernel="7pt", grid=self.grid, steps=self.steps,
                       dim_t=self.dim_t, tile=8, verify=False, **serve)

    def describe(self) -> str:
        faults = ", ".join(self.specs) if self.specs else "no injected faults"
        kill = f"; kill after {self.kill_after} submits" if self.kill_after else ""
        return (
            f"seed {self.seed}: {self.jobs} jobs of {self.grid}^3 x "
            f"{self.steps} steps (dim_T={self.dim_t}), {self.workers} "
            f"workers, queue {self.queue_cap}; {faults}{kill}"
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


class ServeTarget(ChaosTarget):
    """A real :class:`ServeCore` under admission, journal and kill faults."""

    name = "serve"
    schedules = ("accept", "stall", "journal", "deadline", "kill")
    defaults = {"jobs": 12, "grid": 12, "steps": 6, "dim_t": 2,
                "workers": 2, "queue_cap": 6}
    title = "serve soak"
    headline = "{jobs} jobs of {grid}^3 x {steps} steps (dim_T={dim_t})"
    verdict = "clean (no silent loss, completed jobs bit-exact)"

    def draw(self, seed, schedules, *, jobs, grid, steps, dim_t, workers,
             queue_cap):
        """Derive a deterministic serve fault schedule from ``seed``."""
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
            # events — a torn "done" means the job re-runs on restart,
            # which recovery must absorb bit-exactly
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

    def run(self, case: ServeChaosCase) -> ChaosResult:
        """Drive a job mix through a core under the schedule.

        Judgement: (a) every accepted job reaches a terminal status —
        across a hard kill + restart when the schedule includes one; (b)
        every completed (done/degraded) job's result hash equals the
        fault-free naive reference; (c) every refused/shed/failed job
        carries a non-empty reason; (d) the usage ledger reconciles with
        the core's counters.  Deadline misses and injected accept-drops
        are *correct* outcomes, not failures — the soak fails only on
        silent loss, hangs, or wrong bits.
        """
        rng = np.random.default_rng(case.seed)
        state_dir = tempfile.mkdtemp(prefix="repro-serve-chaos-")
        refs: dict = {}
        refused = 0
        error = None
        core = None
        try:
            with FAULTS.injected(*case.specs):
                core = _new_core(case, state_dir)
                for i in range(case.jobs):
                    # unverified: judged against refs below
                    spec = case.spec(
                        seed=int(rng.integers(0, 3)),
                        priority=int(rng.integers(0, 3)),
                        tenant=f"t{int(rng.integers(0, 2))}",
                        deadline_s=case.deadline_s,
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
                if not _wait_all(core, _DRAIN_TIMEOUT_S):
                    error = error or "timeout: accepted jobs never drained"
                core.drain(timeout=_DRAIN_TIMEOUT_S)
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
            # the ledger and the counters are both per-core, so after a
            # kill+restart the reconciliation covers everything the
            # recovered core executed
            ledger_bad = core.ledger_reconciliation()
        finally:
            # a case that raised leaves workers running: stop them before
            # their state dir goes away (after a drain this is a no-op)
            if core is not None:
                core.kill()
            shutil.rmtree(state_dir, ignore_errors=True)
        # the first broken promise is the seed's error
        for bad, why in (
            (ledger_bad, "ledger/counter mismatch: " + "; ".join(ledger_bad)),
            (hash_mismatches, f"{hash_mismatches} completed job(s) differ "
                              "from the fault-free reference"),
            (non_terminal, f"{non_terminal} accepted job(s) never reached a "
                           "terminal status"),
            (missing_reasons, f"{missing_reasons} failed/shed/cancelled "
                              "job(s) carry no reason"),
        ):
            if bad and error is None:
                error = why
        status = Counter(r.status for r in records)
        return ChaosResult(
            case=case,
            ok=error is None,
            bit_exact=hash_mismatches == 0,
            error=error,
            counts={
                "accepted": len(records),
                "refused": refused,
                "done": status["done"],
                "degraded": status["degraded"],
                "failed": status["failed"],
                "recovered": core.counters["recovered"],
                "quarantined": core.replay_info.get("quarantined_records", 0),
            },
            facts={
                "shed": status["shed"],
                "non_terminal": non_terminal,
                "hash_mismatches": hash_mismatches,
                "resumes": core.counters["resumes"],
            },
        )


SERVE = ServeTarget()
