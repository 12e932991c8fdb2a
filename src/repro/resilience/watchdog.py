"""Guarded sweep execution: the one round loop of every entry point.

:class:`GuardedSweep` wraps any executor with a ``run(field, steps[,
traffic])`` method (the blocking executors, the threaded 3.5D executor, or
a plain function adapter) and drives it **round by round** — chunks of
``round_steps`` time steps, the executor's natural ``dim_T`` granularity.
Driving rounds externally is bit-exact (each round reads only the full
grid state of the previous one) and is what makes the guards possible.
``repro run``, every serve job and
:class:`~repro.distributed.DistributedJacobi` run through this loop:

* after every round the grid is health-checked for NaN/Inf; the ``health``
  policy decides whether a poisoned grid raises
  (:class:`HealthCheckError`), warns and continues, or **repairs** — rolls
  back one round, to its verified input, and re-executes it;
* a round that *raises* a transient error (an injected fault, a flaky
  backend) is retried up to ``max_retries`` times with exponential
  backoff before :class:`SweepRetriesExhaustedError` surfaces the original
  exception;
* every ``checkpoint_every`` rounds the state is snapshotted atomically to
  a :class:`~repro.resilience.checkpoint.CheckpointStore`, and ``run``
  resumes from a matching snapshot — the crash/restart path of long sweeps.

The trusted base that a repair and the integrity replays read is the
verified input of the current round, held by reference: executors leave
their input untouched and return a private field.  The ``grid.nan`` fault
site fires here (poisoning one plane after a round) so every policy is
testable without a genuinely unstable kernel.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from ..obs.metrics import METRICS
from ..obs.trace import TRACE
from .checkpoint import CheckpointError, CheckpointStore
from .faultinject import FAULTS, ResilienceError
from .report import RunReport
from .sdc import SdcGuard, SplitField, grid_is_finite

__all__ = [
    "GuardedSweep",
    "HealthCheckError",
    "HealthWarning",
    "SweepInterruptedError",
    "SweepRetriesExhaustedError",
    "grid_is_finite",
]


class HealthCheckError(ResilienceError):
    """A round produced non-finite values and the policy is ``raise`` (or
    repair was impossible/exhausted)."""


class HealthWarning(UserWarning):
    """A round produced non-finite values and the policy is ``warn``."""


class SweepRetriesExhaustedError(ResilienceError):
    """A round kept failing after every allowed retry."""


class SweepInterruptedError(ResilienceError):
    """The sweep stopped cooperatively at a round boundary (``stop`` set).

    Raised only between rounds, so the carried ``state`` is a complete,
    consistent grid at ``step`` applied time steps — resuming the remaining
    ``steps - step`` rounds from it is bit-identical to the uninterrupted
    run.  When the sweep has a checkpoint store, a final snapshot of that
    state is written before this is raised.
    """

    def __init__(self, step: int, state=None, checkpointed: bool = False):
        self.step = step
        self.state = state
        self.checkpointed = checkpointed
        suffix = "; final checkpoint written" if checkpointed else ""
        super().__init__(
            f"sweep interrupted at a round boundary after {step} step(s)"
            f"{suffix}"
        )


class GuardedSweep:
    """Watchdog wrapper around an executor's ``run`` method.

    Parameters
    ----------
    executor:
        Anything with ``run(field, steps, traffic=None) -> Field3D`` that
        leaves ``field`` untouched, or an executor that keeps its own
        buffers and supplies ``open_rounds`` (see :meth:`_open`).
    round_steps:
        Steps advanced per guarded round; defaults to ``executor.dim_t``
        (falling back to 1), the granularity at which chunked execution is
        bit-identical to a single call.
    health:
        ``"off"``, ``"raise"``, ``"warn"``, ``"repair"`` or ``"sdc"``
        (NaN/Inf raise plus silent-data-corruption guarding at the
        ``spot`` tier unless ``sdc`` names a stronger one).
    sdc / sdc_seed / sdc_sample / sdc_max_heals:
        Integrity tier (``off``/``spot``/``seal``/``full``, see
        :mod:`repro.resilience.sdc`) plus the spot-check sampling seed,
        bands sampled per round, and the surgical-heal budget.  An
        active tier CRC-seals the grid after every round, verifies the
        seals at the next round boundary, re-executes Z bands from the
        round's verified input through the naive reference rung, and
        heals detected corruption by replaying only its propagation cone.
        The ``memory.flip`` fault site fires here (after sealing, so
        flips are *resting* corruption the next verify must catch).
    kernel:
        The stencil kernel, required by an active ``sdc`` tier for the
        re-execution/heal replays; defaults to ``executor.kernel``.
    max_retries:
        Retries per round for rounds that raise; 0 disables catching.
    backoff / backoff_factor:
        First retry delay in seconds and its growth per retry.
    checkpoint / checkpoint_every:
        Optional :class:`CheckpointStore` and snapshot period in rounds.
    meta:
        Run identity stored in checkpoints; a resume refuses a snapshot
        whose metadata differs.
    report:
        A :class:`RunReport` accumulating degradations/retries/repairs.
    stop:
        Optional ``threading.Event``-like object (anything with
        ``is_set()``).  Checked at every round boundary, after the seal
        verify; when set, the sweep writes a final checkpoint (if a store
        is configured) and raises :class:`SweepInterruptedError` carrying
        the consistent state — the cooperative-cancellation hook behind
        graceful SIGINT/SIGTERM in ``repro run`` and job cancellation,
        deadlines and preemption in the serve daemon.
    sleep:
        Injection point for the backoff clock (tests pass a no-op).
    """

    def __init__(
        self,
        executor,
        *,
        round_steps: int | None = None,
        health: str = "raise",
        max_retries: int = 0,
        backoff: float = 0.05,
        backoff_factor: float = 2.0,
        checkpoint: CheckpointStore | None = None,
        checkpoint_every: int = 1,
        meta: dict | None = None,
        report: RunReport | None = None,
        stop=None,
        sleep=time.sleep,
        sdc: str = "off",
        sdc_seed: int = 0,
        sdc_sample: int = 2,
        sdc_max_heals: int = 3,
        kernel=None,
    ) -> None:
        if health not in ("off", "raise", "warn", "repair", "sdc"):
            raise ValueError(f"unknown health policy {health!r}")
        if health == "sdc":
            # SDC guarding beside the NaN/Inf check: strictest NaN policy,
            # integrity at least at the spot tier
            health = "raise"
            if sdc == "off":
                sdc = "spot"
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.executor = executor
        self.round_steps = round_steps or getattr(executor, "dim_t", 1)
        self.health = health
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_factor = backoff_factor
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.meta = dict(meta or {})
        self.report = report if report is not None else RunReport()
        self.stop = stop
        self._sleep = sleep
        self.sdc_seed = sdc_seed
        self.kernel = kernel if kernel is not None else getattr(
            executor, "kernel", None
        )
        if sdc != "off" and self.kernel is None:
            raise ValueError(
                "an active sdc tier needs the stencil kernel for its "
                "re-execution replays; pass kernel= or use an executor "
                "with a .kernel attribute"
            )
        self.sdc = SdcGuard(
            self.kernel,
            tier=sdc,
            seed=sdc_seed,
            sample_bands=sdc_sample,
            max_heals=sdc_max_heals,
        ) if sdc != "off" else None
        if self.sdc is not None:
            self.report.sdc = self.sdc.report

    # ------------------------------------------------------------------
    def run(self, field, steps: int, traffic=None, resume: bool = False):
        """Advance ``field`` by ``steps`` under the configured guards.

        The result is the executor's own output, not a further copy:
        executors leave their input untouched and return a private field.
        """
        if steps < 0:
            raise ValueError("steps must be >= 0")
        state, done = field, 0
        if resume:
            state, done = self._try_resume(field, steps)
        state, step, close = self._open(state)
        if steps == 0 or done >= steps:
            return state.copy() if close is None else close(state)

        sdc = self.sdc
        # the trusted base: the verified input of the current round, held
        # by reference.  The SDC replays and a repair rollback read it.
        good, good_done = state, done
        repairs_left = max(1, self.max_retries) if self.health == "repair" else 0
        rounds_since_snapshot = 0
        retries_before = self.report.retries
        repairs_before = self.report.repairs
        round_index = 0
        with TRACE.span("guarded_run", steps=steps, health=self.health):
            while done < steps:
                if sdc is not None:
                    # resting corruption since the last seal (the window the
                    # memory.flip probe below opens) heals here, before this
                    # round consumes it or a stop checkpoints it
                    state = self._integrity(
                        sdc.verify_seals, state, done, good, good_done
                    )
                if self.stop is not None and self.stop.is_set():
                    self._interrupt(state, done)
                good, good_done = state, done
                round_t = min(self.round_steps, steps - done)
                with TRACE.span("guard_round", done=done, round_t=round_t):
                    state = self._round_with_retry(step, state, round_t,
                                                   traffic)
                done += round_t
                self.report.rounds += 1
                round_index += 1
                view = SplitField.of(state)
                if FAULTS.should("grid.nan"):
                    z = view.shape[0] // 2
                    view.planes(z, z + 1)[...] = np.nan  # a view: one part
                if self.health != "off" and not view.finite():
                    repairs_left = self._unhealthy(done, repairs_left)
                    if self.health == "repair":
                        # roll back one round: re-execute it from its input
                        state, done = good.copy(), good_done
                    if sdc is not None:
                        sdc.invalidate()  # the seals describe a lost state
                    continue
                if sdc is not None:
                    # compute-side SDC: re-execute bands from the trusted
                    # base through the naive rung, then seal the verified
                    # grid for the next round's resting-corruption check
                    state = self._integrity(
                        sdc.check_round, state, done, good, good_done,
                        round_index - 1,
                    )
                rounds_since_snapshot += 1
                if rounds_since_snapshot >= self.checkpoint_every and done < steps:
                    rounds_since_snapshot = 0
                    if self.checkpoint is not None:
                        self._save(view, done)
                if sdc is not None:
                    # the memory.flip probe: resting bit flips land after
                    # sealing, so they are in-window for the next verify
                    view.flip(round_index - 1, seed=self.sdc_seed)
            if sdc is not None:
                # final verify: flips injected after the last round's seal
                # stay in-window
                state = self._integrity(
                    sdc.verify_seals, state, done, good, good_done
                )
        if METRICS.armed:
            METRICS.inc("resilience.retries",
                        self.report.retries - retries_before)
            METRICS.inc("resilience.repairs",
                        self.report.repairs - repairs_before)
            METRICS.set_gauge("resilience.degradations",
                              len(self.report.degradations))
        return state if close is None else close(state)

    # -- what an entry point overrides ---------------------------------
    def _open(self, state):
        """``(state, step, close)`` of a run.

        An executor that keeps its own buffers across rounds supplies them
        through ``open_rounds(field, sdc)``: the state is its view of them
        (a :class:`SplitField`), ``step(state, round_t, traffic)`` runs one
        round and ``close(state)`` returns the result field.  Any other
        executor steps through ``run`` and its output is the result.
        """
        open_rounds = getattr(self.executor, "open_rounds", None)
        if open_rounds is None:
            return state, self.executor.run, None
        return open_rounds(state, self.sdc)

    def _integrity(self, hook, *args):
        """Run one :class:`SdcGuard` hook (the serve daemon meters it)."""
        return hook(*args)

    # ------------------------------------------------------------------
    def _save(self, state, done: int) -> None:
        view = SplitField.of(state)
        data = view.planes(0, view.shape[0])
        self.checkpoint.save(data, done, self.meta)
        self.report.checkpoints_written += 1
        METRICS.inc("resilience.checkpoint_bytes", data.nbytes)

    def _interrupt(self, state, done: int) -> None:
        """Cooperative stop at a round boundary: final checkpoint, then raise."""
        checkpointed = self.checkpoint is not None
        if checkpointed:
            self._save(state, done)
        raise SweepInterruptedError(
            done, state=state.copy(), checkpointed=checkpointed
        )

    # ------------------------------------------------------------------
    def _try_resume(self, field, steps: int):
        """State/step to restart from, validated against this run's identity."""
        if self.checkpoint is None:
            return field, 0
        try:
            snap = self.checkpoint.load(
                expected_shape=field.data.shape,
                expected_dtype=field.data.dtype,
            )
        except CheckpointError as exc:
            # a versioned/geometry refusal is actionable but not fatal to a
            # guarded run: say why and start from scratch
            warnings.warn(HealthWarning(str(exc)), stacklevel=3)
            self.report.warnings.append(str(exc))
            return field, 0
        if snap is None:
            return field, 0
        if (
            snap.data.shape != field.data.shape
            or snap.data.dtype != field.data.dtype
            or snap.meta != self.meta
            or snap.step > steps
        ):
            warnings.warn(
                HealthWarning(
                    f"checkpoint {self.checkpoint.path} does not match this "
                    "run (shape/dtype/meta/steps); starting from scratch"
                ),
                stacklevel=3,
            )
            return field, 0
        resumed = field.like()
        np.copyto(resumed.data, snap.data)
        self.report.resumed_from = snap.step
        return resumed, snap.step

    def _round_with_retry(self, step, state, round_t: int, traffic):
        """One round, retried with exponential backoff."""
        if self.max_retries == 0:
            return step(state, round_t, traffic)
        delay = self.backoff
        attempt = 0
        while True:
            # per-attempt traffic: merged only on success so retried rounds
            # are not double counted
            attempt_traffic = None
            if traffic is not None:
                attempt_traffic = type(traffic)()
            try:
                out = step(state, round_t, attempt_traffic)
            except Exception as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise SweepRetriesExhaustedError(
                        f"round failed {attempt} time(s), retries exhausted: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                self.report.retries += 1
                self._sleep(delay)
                delay *= self.backoff_factor
                continue
            if traffic is not None:
                traffic.merge(attempt_traffic)
            return out

    def _unhealthy(self, done: int, repairs_left: int) -> int:
        """Apply the health policy to a non-finite grid; returns the repair
        budget left (the caller rolls a repaired round back)."""
        msg = f"non-finite values in the grid after step {done}"
        if self.health == "warn":
            warnings.warn(HealthWarning(msg), stacklevel=3)
            self.report.warnings.append(msg)
            return repairs_left
        if self.health == "repair" and repairs_left > 0:
            self.report.repairs += 1
            return repairs_left - 1
        raise HealthCheckError(
            msg
            + (
                " (repair attempts exhausted)"
                if self.health == "repair"
                else ""
            )
        )
