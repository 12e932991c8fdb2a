"""Resilient execution layer: fault injection, fallback, watchdog, restart.

The paper's 3.5D schedule keeps N persistent threads in lockstep with one
barrier per z-iteration and assumes every backend, worker and cache file
behaves perfectly.  This package is the part of the reproduction that
drops that assumption:

* :mod:`~repro.resilience.faultinject` — deterministic named fault sites
  (armed via :data:`FAULTS` or ``$REPRO_FAULTS``) so every failure mode is
  testable;
* :mod:`~repro.resilience.fallback` — the bit-exact backend fallback chain
  ``codegen -> fused-numpy -> numpy-inplace -> numpy``;
* :mod:`~repro.resilience.watchdog` — :class:`GuardedSweep` per-round
  NaN/Inf health checks, retry with exponential backoff, repair from the
  last good state;
* :mod:`~repro.resilience.checkpoint` — atomic grid+step snapshots and
  bit-exact restart;
* :mod:`~repro.resilience.rankrecovery` — rank-failure tolerance for the
  distributed driver: in-memory buddy checkpoints, elastic
  re-decomposition over the survivors, at most one replayed round;
* :mod:`~repro.resilience.chaos` — the one seeded chaos soak loop over
  three targets (``DISTRIBUTED``, ``SDC``, ``repro.serve.chaos.SERVE``);
* :mod:`~repro.resilience.sdc` — silent-data-corruption defense:
  per-plane CRC seals, re-execution spot checks through the naive rung,
  and surgical cone-bounded healing (integrity tiers
  ``off``/``spot``/``seal``/``full``);
* :mod:`~repro.resilience.quarantine` — unique-name ``*.corrupt``
  quarantining with a count-capped GC (``$REPRO_CORRUPT_KEEP``);
* :mod:`~repro.resilience.atomic` — :func:`atomic_write`, the one
  temp -> fsync -> ``os.replace`` file write of every durable store;
* :mod:`~repro.resilience.report` — the structured record of every
  degradation, mapped to the CLI's exit codes (0 clean, 3 degraded-but-
  correct, 4 failed).

See ``docs/robustness.md`` for the full contract.
"""

from .atomic import atomic_write
from .chaos import (
    DISTRIBUTED,
    ChaosResult,
    ChaosTarget,
    run_soak,
    write_bundle,
)
from .checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    data_digest,
)
from .fallback import (
    FALLBACK_ORDER,
    BoundBackend,
    Degradation,
    DegradedExecutionWarning,
    FallbackExhaustedError,
    bind_with_fallback,
    fallback_chain,
)
from .faultinject import (
    FAULTS,
    REPRO_FAULTS_ENV,
    SITES,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    ResilienceError,
)
from .quarantine import (
    DEFAULT_CORRUPT_KEEP,
    REPRO_CORRUPT_KEEP_ENV,
    corrupt_keep,
    gc_corrupt,
    quarantine,
)
from .rankrecovery import (
    BuddySnapshot,
    BuddyStore,
    RankDeadError,
    RecoveryReport,
    UnrecoverableRankFailureError,
    buddy_of,
)
from .report import RunReport
from .sdc import (
    INTEGRITY_TIERS,
    SDC,
    SdcError,
    SdcGuard,
    SdcReport,
    SdcUnhealableError,
    flip_bits,
    inject_flips,
    plane_crcs,
    rot_file,
)
from .watchdog import (
    GuardedSweep,
    HealthCheckError,
    HealthWarning,
    SweepInterruptedError,
    SweepRetriesExhaustedError,
    grid_is_finite,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "DEFAULT_CORRUPT_KEEP",
    "DISTRIBUTED",
    "FAULTS",
    "INTEGRITY_TIERS",
    "REPRO_CORRUPT_KEEP_ENV",
    "REPRO_FAULTS_ENV",
    "SDC",
    "SITES",
    "FALLBACK_ORDER",
    "BoundBackend",
    "BuddySnapshot",
    "BuddyStore",
    "ChaosResult",
    "ChaosTarget",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "Degradation",
    "DegradedExecutionWarning",
    "FallbackExhaustedError",
    "FaultInjector",
    "FaultSpec",
    "GuardedSweep",
    "HealthCheckError",
    "HealthWarning",
    "InjectedFault",
    "RankDeadError",
    "RecoveryReport",
    "ResilienceError",
    "RunReport",
    "SdcError",
    "SdcGuard",
    "SdcReport",
    "SdcUnhealableError",
    "SweepInterruptedError",
    "SweepRetriesExhaustedError",
    "UnrecoverableRankFailureError",
    "atomic_write",
    "bind_with_fallback",
    "buddy_of",
    "corrupt_keep",
    "data_digest",
    "fallback_chain",
    "flip_bits",
    "gc_corrupt",
    "grid_is_finite",
    "inject_flips",
    "plane_crcs",
    "quarantine",
    "rot_file",
    "run_soak",
    "write_bundle",
]
