"""Rank-failure tolerance: buddy checkpoints and elastic re-decomposition.

The distributed 3.5D driver exchanges ``h = R * dim_T`` halo planes once
per blocked round, so a round is also the natural *recovery* granularity:
between rounds the only distributed state is each rank's owned slab plus
the round index.  This module provides the pieces that let a sweep survive
ranks dying mid-run:

* :class:`RankDeadError` — the typed detection signal.  A dead rank is
  noticed at the next halo exchange (``SimComm.recv`` from a dead source),
  never by hanging;
* :class:`BuddyStore` — diskless in-memory checkpointing.  At the start of
  every round each rank keeps its own slab snapshot *and* replicates it to
  a buddy (the next live rank in the ring), so losing any single rank loses
  no state and recovery replays at most the interrupted round;
* :class:`RecoveryReport` — the machine-checkable record of every crash,
  recovery and replayed round, mirrored into the ``resilience.*`` counters
  (``recoveries``, ``replayed_rounds``, ``buddy_bytes``, ``rank_failures``)
  and the ``rank_recovery`` trace span.

The recovery state machine lives in
:meth:`repro.distributed.runner.DistributedJacobi.run`:

    detect (``RankDeadError`` at halo exchange)
      -> re-decompose (``decompose_z`` over the surviving ranks)
      -> buddy-restore (round-start slabs from :class:`BuddyStore`)
      -> replay (re-run the interrupted round on the new slab map)

Losing a rank *and* its buddy in the same round loses the round-start
snapshot and is unrecoverable (:class:`UnrecoverableRankFailureError`) —
the classic buddy-checkpointing failure model.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .faultinject import ResilienceError

__all__ = [
    "BuddySnapshot",
    "BuddyStore",
    "RankDeadError",
    "RecoveryReport",
    "UnrecoverableRankFailureError",
    "buddy_of",
]


class RankDeadError(ResilienceError):
    """A halo exchange touched a rank that is no longer alive."""

    def __init__(self, rank: int, message: str | None = None) -> None:
        self.rank = rank
        super().__init__(message or f"rank {rank} is dead")


class UnrecoverableRankFailureError(ResilienceError):
    """Rank failure(s) the buddy scheme cannot recover from: a rank and its
    buddy died in the same round, every rank died, or the survivors are too
    few to hold ``halo``-wide slabs."""


@dataclass
class BuddySnapshot:
    """One rank's round-start state: slab data plus enough metadata to
    restore it into a rebuilt decomposition."""

    owner: int
    round_index: int
    z0: int
    z1: int
    data: np.ndarray  # (ncomp, z1 - z0, ny, nx) slab copy
    meta: dict = field(default_factory=dict)
    #: CRC32 of ``data``, stamped by the store at checkpoint time and
    #: re-verified at restore — a replica that rotted in the holder's
    #: memory is refused, never replayed from
    crc32: int | None = None


class BuddyStore:
    """In-memory buddy checkpointing: own copy + replica on a neighbor.

    ``checkpoint(snap, holder)`` records the owner's own snapshot and, when
    ``holder`` is given, a replica conceptually resident in the holder
    rank's memory.  ``restore(owner, alive)`` models what recovery can
    actually reach: a live owner serves its own copy; a dead owner's state
    survives only while its holder does.  No disk is involved — losing a
    rank costs one round of replay, not an I/O round-trip.
    """

    def __init__(self) -> None:
        self._own: dict[int, BuddySnapshot] = {}
        self._replica: dict[int, tuple[int, BuddySnapshot]] = {}
        self.bytes_replicated = 0
        self.snapshots = 0

    def checkpoint(self, snap: BuddySnapshot, holder: int | None) -> None:
        """Record ``snap`` as the owner's round-start state; replicate to
        ``holder`` when one is given (counted in ``bytes_replicated``).

        Both copies are stamped with a CRC32 of the slab, the checksum the
        SDC plane seals use: a snapshot lives in memory for one round, and
        what can rot it there is bit flips, not an adversary.
        :meth:`restore` re-verifies it so state that rotted between
        checkpoint and recovery is refused instead of replayed from.
        """
        if snap.crc32 is None:
            snap.crc32 = _slab_crc(snap.data)
        self._own[snap.owner] = snap
        self.snapshots += 1
        if holder is None:
            self._replica.pop(snap.owner, None)
            return
        if holder == snap.owner:
            raise ValueError("a rank cannot be its own buddy")
        replica = BuddySnapshot(
            owner=snap.owner,
            round_index=snap.round_index,
            z0=snap.z0,
            z1=snap.z1,
            data=snap.data.copy(),
            meta=dict(snap.meta),
            crc32=snap.crc32,
        )
        self._replica[snap.owner] = (holder, replica)
        self.bytes_replicated += replica.data.nbytes

    def holder_of(self, owner: int) -> int | None:
        """The rank holding ``owner``'s replica, or ``None``."""
        entry = self._replica.get(owner)
        return entry[0] if entry else None

    def restore(self, owner: int, alive) -> BuddySnapshot:
        """The reachable round-start snapshot of ``owner``.

        ``alive`` is a ``rank -> bool`` predicate.  A live owner serves its
        own copy; a dead owner is restored from its buddy replica — and if
        that buddy is dead too, the state is gone
        (:class:`UnrecoverableRankFailureError`).
        """
        own = self._own.get(owner)
        if own is not None and alive(owner):
            return self._verified(own, "own snapshot")
        entry = self._replica.get(owner)
        if entry is None:
            raise UnrecoverableRankFailureError(
                f"rank {owner} died with no buddy replica of its slab"
            )
        holder, replica = entry
        if not alive(holder):
            raise UnrecoverableRankFailureError(
                f"rank {owner} and its buddy {holder} both died in the same "
                "round; the round-start slab is lost"
            )
        return self._verified(replica, f"replica held by rank {holder}")

    @staticmethod
    def _verified(snap: BuddySnapshot, kind: str) -> BuddySnapshot:
        """Refuse a snapshot whose payload no longer matches its CRC32."""
        if snap.crc32 is not None and _slab_crc(snap.data) != snap.crc32:
            raise UnrecoverableRankFailureError(
                f"rank {snap.owner}'s {kind} (round {snap.round_index}) "
                "failed its crc32 check — the round-start slab rotted "
                "after checkpointing and cannot be replayed from"
            )
        return snap


def _slab_crc(data: np.ndarray) -> int:
    """CRC32 of a slab's raw bytes (C order)."""
    return zlib.crc32(np.ascontiguousarray(data))


def buddy_of(rank: int, live: list[int]) -> int | None:
    """The next live rank after ``rank`` in cyclic order (``None`` if alone)."""
    if len(live) < 2:
        return None
    i = live.index(rank)
    return live[(i + 1) % len(live)]


@dataclass
class RecoveryReport:
    """Accumulated rank-failure events of one distributed run."""

    initial_ranks: int = 0
    final_ranks: int = 0
    #: (round_index, rank) per detected crash
    failed_ranks: list = field(default_factory=list)
    recoveries: int = 0
    replayed_rounds: int = 0
    buddy_bytes: int = 0
    buddy_snapshots: int = 0
    purged_messages: int = 0

    @property
    def degraded(self) -> bool:
        """True when the run finished but lost ranks along the way."""
        return self.recoveries > 0

    def lines(self) -> list[str]:
        """Human-readable summary lines (empty for a failure-free run)."""
        if not self.recoveries:
            return []
        crashes = ", ".join(
            f"rank {rank} at round {rnd}" for rnd, rank in self.failed_ranks
        )
        return [
            f"rank crashes : {crashes}",
            f"recoveries   : {self.recoveries} "
            f"(replayed {self.replayed_rounds} round(s), finished on "
            f"{self.final_ranks} of {self.initial_ranks} ranks)",
            f"buddy state  : {self.buddy_bytes / 1e6:.1f} MB replicated over "
            f"{self.buddy_snapshots} snapshot(s)",
        ]
