"""A simulated message-passing communicator (the mpi4py stand-in).

The paper's temporal-blocking lineage extends to distributed memory
(Wittmann, Hager & Wellein, cited in Section II): blocking ``dim_T`` steps
per halo exchange trades message *frequency* for ghost-zone width.  No MPI
runtime is available here, so this module provides a deterministic
in-process communicator with the mpi4py buffer-protocol flavor —
``send``/``recv`` of NumPy arrays by (source, dest, tag) — plus the
accounting a performance study needs: per-rank message and byte counters
and a latency/bandwidth cost model.

Ranks execute sequentially inside the driver (a valid schedule of the real
parallel execution); all sends of a phase complete before the matching
receives, like buffered MPI sends.

Long-running sweeps must survive imperfect transport, so the communicator
also models it: a deterministic per-transmission *loss/corruption* mode
(``loss``/``corruption`` probabilities under a seeded RNG, plus the
``comm.drop``/``comm.corrupt`` fault sites) with a simple ack/retry
protocol on top.  Every payload travels with a checksum; a receiver that
finds the message dropped or checksummed wrong requests a retransmission
from the sender's reliable outbox, up to ``max_retries`` times, before
:class:`CommFailedError` surfaces.  Retries are counted per rank in
:class:`CommStats`, so the cost of an unreliable link is measurable.  The
``comm.delay`` fault site models an ack delayed past its timeout: the
payload is fine but the receiver requests a redundant retransmission.

Ranks can also *die*.  :meth:`SimComm.kill` marks a rank dead, and
:meth:`SimComm.heartbeat` — probed once per rank per blocked round by the
distributed driver — is where the ``rank.crash[=rank][@rounds]`` fault
site fires.  A dead rank never hangs its peers: any receive from (or send
by) a dead rank raises :class:`~repro.resilience.rankrecovery.RankDeadError`
immediately, so failure detection happens at the next halo exchange and
the driver's buddy-checkpoint recovery path takes over (see
:mod:`repro.resilience.rankrecovery`).

Nonblocking operations and the in-flight latency model
------------------------------------------------------
:meth:`SimComm.isend` / :meth:`SimComm.irecv` return :class:`CommRequest`
handles completed by :meth:`SimComm.wait` / :meth:`SimComm.waitall` (or
polled with :meth:`SimComm.test`), mirroring MPI's
``Isend``/``Irecv``/``Wait``.  What makes overlap *measurable* rather than
assumed is the communicator's simulated clock: each rank owns a clock
(nanoseconds), every message posted at sender-time ``t`` becomes ready at
``t + latency + nbytes/bandwidth``, and the compute a rank performs while
messages are in flight is reported via :meth:`SimComm.advance`.  When the
receiver finally waits, the part of the transfer that its own clock has
already moved past is **overlapped** (hidden) time and the remainder —
plus every retransmission the ack/retry protocol needs — is **exposed**
stall time; both are accumulated per rank in
:attr:`CommStats.overlapped_ns` / :attr:`CommStats.exposed_ns`.  A
blocking :meth:`SimComm.recv` is an ``irecv`` waited on immediately, so
its transfer time is fully exposed — exactly the baseline an
exchange-then-compute schedule pays.  The model composes with the fault
sites: a ``comm.delay``-forced redundant retransmission, or a
drop/corruption retry, each costs one more latency+bandwidth term of
exposed time.  With the default ``latency_s=0`` the clock never moves and
every timing counter stays zero.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..resilience.faultinject import FAULTS, ResilienceError
from ..resilience.rankrecovery import RankDeadError

__all__ = [
    "CommFailedError",
    "CommRequest",
    "CommStats",
    "RankDeadError",
    "SimComm",
    "transfer_time",
]


class CommFailedError(ResilienceError):
    """A message stayed undeliverable after every allowed retransmission."""


@dataclass
class CommStats:
    """Per-rank communication counters."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    dropped: int = 0
    corrupted: int = 0
    delayed: int = 0
    retries: int = 0
    #: nonblocking requests posted (isend + irecv) and completed
    posted: int = 0
    completed: int = 0
    #: simulated transfer time hidden behind compute vs exposed as stalls
    overlapped_ns: int = 0
    exposed_ns: int = 0

    def merge(self, other: "CommStats") -> None:
        self.messages_sent += other.messages_sent
        self.messages_received += other.messages_received
        self.bytes_sent += other.bytes_sent
        self.bytes_received += other.bytes_received
        self.dropped += other.dropped
        self.corrupted += other.corrupted
        self.delayed += other.delayed
        self.retries += other.retries
        self.posted += other.posted
        self.completed += other.completed
        self.overlapped_ns += other.overlapped_ns
        self.exposed_ns += other.exposed_ns

    def overlap_fraction(self) -> float | None:
        """Hidden share of the simulated comm time (``None`` if untimed)."""
        total = self.overlapped_ns + self.exposed_ns
        if total == 0:
            return None
        return self.overlapped_ns / total


class _Message:
    """One in-flight message: pristine retransmit copy plus the wire state."""

    __slots__ = ("pristine", "wire", "checksum", "ready_ns", "transfer_ns")

    def __init__(self, pristine: np.ndarray, wire: np.ndarray | None,
                 checksum: int, ready_ns: int = 0, transfer_ns: int = 0) -> None:
        self.pristine = pristine
        self.wire = wire  # None = lost in flight
        self.checksum = checksum
        #: simulated-clock instant the first wire copy arrives at the receiver
        self.ready_ns = ready_ns
        #: latency + bytes/bandwidth cost of one transmission of this payload
        self.transfer_ns = transfer_ns


class CommRequest:
    """Handle for one nonblocking operation (mpi4py ``Request`` stand-in).

    Returned by :meth:`SimComm.isend` / :meth:`SimComm.irecv`; completed by
    :meth:`SimComm.wait` (which returns the payload for receives, ``None``
    for sends) or polled by :meth:`SimComm.test`.  A recovery
    :meth:`SimComm.purge` *cancels* every outstanding request so a crashed
    round can never be hung on — waiting on a cancelled handle raises
    :class:`CommFailedError` instead of blocking forever.
    """

    __slots__ = ("kind", "src", "dst", "tag", "done", "cancelled", "result")

    def __init__(self, kind: str, src: int, dst: int, tag: int) -> None:
        self.kind = kind  # "send" | "recv"
        self.src = src
        self.dst = dst
        self.tag = tag
        self.done = False
        self.cancelled = False
        self.result: np.ndarray | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.cancelled
                 else "done" if self.done else "pending")
        return (f"<CommRequest {self.kind} {self.src}->{self.dst} "
                f"tag={self.tag} {state}>")


def _checksum(array: np.ndarray) -> int:
    """CRC32 of ``array``'s bytes in C order, read through the buffer
    protocol: a contiguous payload is not copied, a strided view once."""
    return zlib.crc32(np.ascontiguousarray(array))


class SimComm:
    """An in-process communicator for ``size`` ranks.

    ``loss`` and ``corruption`` are per-transmission probabilities drawn
    from a ``seed``-initialized RNG (deterministic across runs); the
    ``comm.drop``/``comm.corrupt`` fault sites force the same fates
    regardless of the probabilities.  ``max_retries`` bounds the
    retransmissions the ack/retry protocol attempts per message.

    ``latency_s`` / ``bandwidth_bytes_s`` arm the in-flight cost model:
    one transmission of ``n`` bytes occupies the simulated wire for
    ``latency_s + n / bandwidth_bytes_s`` seconds (``bandwidth_bytes_s=None``
    means infinitely fast, so only the per-message latency counts).  With
    the default ``latency_s=0`` every transfer is instantaneous and the
    overlap accounting stays silent.
    """

    def __init__(
        self,
        size: int,
        *,
        loss: float = 0.0,
        corruption: float = 0.0,
        seed: int = 0,
        max_retries: int = 3,
        latency_s: float = 0.0,
        bandwidth_bytes_s: float | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        if not 0.0 <= loss < 1.0 or not 0.0 <= corruption < 1.0:
            raise ValueError("loss/corruption must be probabilities in [0, 1)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        if bandwidth_bytes_s is not None and bandwidth_bytes_s <= 0:
            raise ValueError("bandwidth_bytes_s must be > 0 (or None)")
        self.size = size
        self.loss = loss
        self.corruption = corruption
        self.max_retries = max_retries
        self.latency_s = latency_s
        self.bandwidth_bytes_s = bandwidth_bytes_s
        self._latency_ns = int(round(latency_s * 1e9))
        self._ns_per_byte = (1e9 / bandwidth_bytes_s) if bandwidth_bytes_s else 0.0
        self._rng = np.random.default_rng(seed)
        self._mail: dict[tuple[int, int, int], deque[_Message]] = {}
        self._dead: set[int] = set()
        self._clock_ns = [0] * size
        self._requests: list[CommRequest] = []
        self.stats = [CommStats() for _ in range(size)]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside [0, {self.size})")

    # -- simulated clock -----------------------------------------------
    def transfer_ns(self, nbytes: int) -> int:
        """Simulated wire time of one transmission of ``nbytes``."""
        return self._latency_ns + int(round(nbytes * self._ns_per_byte))

    def now_ns(self, rank: int) -> int:
        """The rank's simulated-clock reading."""
        self._check_rank(rank)
        return self._clock_ns[rank]

    def advance(self, rank: int, dur_ns: int) -> None:
        """Move a rank's clock forward by ``dur_ns`` of local compute.

        This is how overlap becomes measurable: the driver reports the wall
        time of the interior sweep it ran between posting receives and
        waiting on them, and any transfer time the clock has moved past is
        counted as hidden when the wait happens.
        """
        self._check_rank(rank)
        if dur_ns < 0:
            raise ValueError("dur_ns must be >= 0")
        self._clock_ns[rank] += dur_ns

    def sync_clocks(self) -> None:
        """Round barrier: align every rank's clock to the furthest one."""
        top = max(self._clock_ns)
        self._clock_ns = [top] * self.size

    # -- liveness ------------------------------------------------------
    @property
    def dead(self) -> frozenset[int]:
        """The ranks that have died so far."""
        return frozenset(self._dead)

    def alive(self, rank: int) -> bool:
        self._check_rank(rank)
        return rank not in self._dead

    def live_ranks(self) -> list[int]:
        return [r for r in range(self.size) if r not in self._dead]

    def kill(self, rank: int) -> None:
        """Mark ``rank`` dead.  Its pending mail stays queued but any
        receive from it raises :class:`RankDeadError` — peers detect the
        death at their next exchange instead of hanging on a message that
        will never arrive."""
        self._check_rank(rank)
        self._dead.add(rank)

    def heartbeat(self, rank: int) -> bool:
        """One liveness probe, fired per rank per blocked round.

        The ``rank.crash`` fault site is consulted here (``arg`` = rank id,
        ``@after`` = heartbeats survived, i.e. rounds), so deterministic
        mid-run crashes are expressible as ``rank.crash=2@3``.  Returns
        whether the rank is (still) alive.
        """
        self._check_rank(rank)
        if rank in self._dead:
            return False
        if FAULTS.should("rank.crash", detail=str(rank)):
            self.kill(rank)
            return False
        return True

    def purge(self) -> int:
        """Drop all undelivered mail (recovery abandons the broken round);
        returns the number of messages discarded.

        Every outstanding nonblocking request is *cancelled* at the same
        time, so no handle posted before the crash can ever be hung on:
        waiting on a cancelled request raises :class:`CommFailedError`.
        """
        count = sum(len(q) for q in self._mail.values())
        self._mail.clear()
        for req in self._requests:
            if not req.done:
                req.cancelled = True
        self._requests.clear()
        return count

    # -- transport -----------------------------------------------------
    def _transmit(self, src: int, payload: np.ndarray) -> np.ndarray | None:
        """One transmission attempt: the wire copy, corrupted, or ``None``.

        The fault sites are consulted first (so tests can force fates
        deterministically), then the seeded RNG applies the configured
        loss/corruption probabilities.
        """
        if FAULTS.should("comm.drop", detail=str(src)):
            fate = "drop"
        elif FAULTS.should("comm.corrupt", detail=str(src)):
            fate = "corrupt"
        elif self.loss and self._rng.random() < self.loss:
            fate = "drop"
        elif self.corruption and self._rng.random() < self.corruption:
            fate = "corrupt"
        else:
            return payload
        if fate == "drop":
            self.stats[src].dropped += 1
            return None
        wire = payload.copy()
        flat = wire.reshape(-1).view(np.uint8)
        if flat.size == 0:  # nothing to corrupt: treat as a drop
            self.stats[src].dropped += 1
            return None
        flat[int(self._rng.integers(flat.size))] ^= 0xFF  # single bit-level hit
        self.stats[src].corrupted += 1
        return wire

    def send(self, src: int, dst: int, tag: int, array: np.ndarray) -> None:
        """Buffered send: the payload is copied at send time (MPI semantics).

        The pristine copy stays in the sender's outbox until delivery, so
        the receiver-driven retry protocol can retransmit it.  A dead rank
        cannot send; sending *to* a dead rank completes locally (buffered
        semantics — the payload is purged during recovery).
        """
        self._check_rank(src)
        self._check_rank(dst)
        if src in self._dead:
            raise RankDeadError(src, f"dead rank {src} cannot send")
        payload = np.ascontiguousarray(array).copy()
        wire = self._transmit(src, payload)
        cost = self.transfer_ns(payload.nbytes)
        msg = _Message(payload, wire, _checksum(payload),
                       ready_ns=self._clock_ns[src] + cost, transfer_ns=cost)
        self._mail.setdefault((src, dst, tag), deque()).append(msg)
        self.stats[src].messages_sent += 1
        self.stats[src].bytes_sent += payload.nbytes

    def recv(self, src: int, dst: int, tag: int) -> np.ndarray:
        """Receive the oldest matching message; raises if none is pending.

        A dropped or corrupted wire copy triggers the ack/retry protocol:
        the receiver requests a retransmission of the pristine payload
        (each resend counted against both ranks) until it checksums clean
        or ``max_retries`` is exhausted (:class:`CommFailedError`).

        Receiving from a dead rank raises :class:`RankDeadError` at once —
        this is the failure-detection point of the distributed driver: a
        crashed neighbor is noticed at the next halo exchange, never waited
        on.  The ``comm.delay`` fault site fires here too: the ack timer
        expires on a healthy payload and a redundant retransmission is
        requested (counted as ``delayed`` + one retry).

        A blocking receive performs no compute between post and completion,
        so its whole simulated transfer time lands in ``exposed_ns``.
        """
        return self._deliver(src, dst, tag)

    def _deliver(self, src: int, dst: int, tag: int) -> np.ndarray:
        """Complete one receive: retries, byte accounting, clock movement."""
        self._check_rank(src)
        self._check_rank(dst)
        if src in self._dead:
            raise RankDeadError(
                src, f"rank {src} died; detected by rank {dst} at halo exchange"
            )
        if dst in self._dead:
            raise RankDeadError(dst, f"dead rank {dst} cannot receive")
        box = self._mail.get((src, dst, tag))
        if not box:
            raise LookupError(
                f"no message from rank {src} to rank {dst} with tag {tag}"
            )
        msg = box.popleft()
        wire = msg.wire
        if wire is not None and FAULTS.should("comm.delay", detail=str(src)):
            # the ack never made it back in time: discard the (healthy)
            # wire copy and let the retry protocol fetch it again
            self.stats[dst].delayed += 1
            wire = None
        attempts = 0
        while wire is None or _checksum(wire) != msg.checksum:
            if attempts >= self.max_retries:
                raise CommFailedError(
                    f"message {src}->{dst} (tag {tag}) undeliverable after "
                    f"{attempts} retransmission(s)"
                )
            attempts += 1
            self.stats[dst].retries += 1
            # nack + retransmit from the sender's reliable outbox
            self.stats[src].messages_sent += 1
            self.stats[src].bytes_sent += msg.pristine.nbytes
            wire = self._transmit(src, msg.pristine)
        # -- simulated-clock accounting --------------------------------
        # Stall until the first copy arrives; whatever share of the wire
        # time the receiver's clock already moved past was hidden behind
        # its compute.  Every retransmission is a synchronous round trip
        # discovered only at delivery, so retries are always exposed.
        now = self._clock_ns[dst]
        stall = max(0, msg.ready_ns - now)
        hidden = min(max(msg.transfer_ns - stall, 0), msg.transfer_ns)
        retry_ns = attempts * msg.transfer_ns
        self._clock_ns[dst] = max(now, msg.ready_ns) + retry_ns
        self.stats[dst].exposed_ns += stall + retry_ns
        self.stats[dst].overlapped_ns += hidden
        self.stats[dst].messages_received += 1
        self.stats[dst].bytes_received += wire.nbytes
        return wire

    # -- nonblocking operations ----------------------------------------
    def isend(self, src: int, dst: int, tag: int,
              array: np.ndarray) -> CommRequest:
        """Nonblocking send; completes locally at once (buffered semantics).

        The payload is copied into the outbox immediately — like MPI's
        buffered mode, the send-side request is already complete and
        :meth:`wait` on it is free.  The *transfer* still takes simulated
        time: the message becomes ready at the receiver only
        ``transfer_ns`` after the sender's clock at post time.
        """
        self.send(src, dst, tag, array)
        req = CommRequest("send", src, dst, tag)
        req.done = True
        self.stats[src].posted += 1
        self.stats[src].completed += 1
        return req

    def irecv(self, src: int, dst: int, tag: int) -> CommRequest:
        """Post a nonblocking receive; match and deliver at :meth:`wait`.

        Nothing is checked against the mailbox yet — like a real
        ``MPI_Irecv``, the request only records the envelope.  Rank death
        is therefore detected at the *wait*, which is exactly where the
        overlapped driver's recovery path expects it.
        """
        self._check_rank(src)
        self._check_rank(dst)
        req = CommRequest("recv", src, dst, tag)
        self._requests.append(req)
        self.stats[dst].posted += 1
        return req

    def wait(self, req: CommRequest) -> np.ndarray | None:
        """Block until ``req`` completes; returns the payload for receives.

        Raises :class:`RankDeadError` when the peer died since the post
        (the overlap path's failure-detection point),
        :class:`CommFailedError` when the request was cancelled by a
        recovery :meth:`purge` or retries are exhausted, and
        :class:`LookupError` when no matching message was ever posted.
        """
        if req.cancelled:
            raise CommFailedError(
                f"request {req.kind} {req.src}->{req.dst} (tag {req.tag}) "
                "was cancelled by a recovery purge"
            )
        if req.done:
            return req.result
        req.result = self._deliver(req.src, req.dst, req.tag)
        req.done = True
        try:
            self._requests.remove(req)
        except ValueError:  # pragma: no cover - defensive
            pass
        self.stats[req.dst].completed += 1
        return req.result

    def waitall(self, reqs) -> list[np.ndarray | None]:
        """Complete every request, in order; returns their payloads."""
        return [self.wait(r) for r in reqs]

    def test(self, req: CommRequest) -> tuple[bool, np.ndarray | None]:
        """Poll a request: ``(done, payload|None)`` without blocking.

        A receive whose message has not been posted, or whose wire copy
        has not *arrived* on the simulated clock yet, reports ``False``
        without advancing time.  A testable-complete request is delivered
        exactly as :meth:`wait` would.
        """
        if req.cancelled:
            raise CommFailedError(
                f"request {req.kind} {req.src}->{req.dst} (tag {req.tag}) "
                "was cancelled by a recovery purge"
            )
        if req.done:
            return True, req.result
        if req.src in self._dead:
            raise RankDeadError(
                req.src,
                f"rank {req.src} died; detected by rank {req.dst} at test",
            )
        box = self._mail.get((req.src, req.dst, req.tag))
        if not box:
            return False, None
        if box[0].ready_ns > self._clock_ns[req.dst]:
            return False, None
        return True, self.wait(req)

    def outstanding(self) -> int:
        """Nonblocking requests posted but neither completed nor cancelled."""
        return sum(1 for r in self._requests if not r.done and not r.cancelled)

    def sendrecv(
        self,
        rank: int,
        dest: int,
        send_array: np.ndarray,
        source: int,
        tag: int,
    ) -> np.ndarray:
        """Exchange with two partners, the halo-exchange primitive."""
        self.send(rank, dest, tag, send_array)
        return self.recv(source, rank, tag)

    def pending(self) -> int:
        """Messages sent but not yet received (0 after a clean exchange)."""
        return sum(len(q) for q in self._mail.values())

    def total_stats(self) -> CommStats:
        total = CommStats()
        for s in self.stats:
            total.merge(s)
        return total


def transfer_time(
    messages: int,
    nbytes: int,
    latency_s: float = 1e-6,
    bandwidth_bytes_s: float = 10e9,
) -> float:
    """Alpha-beta communication cost: messages*latency + bytes/bandwidth.

    Temporal blocking keeps the byte term constant (the same planes cross
    per simulated time step) while dividing the latency term by ``dim_T``.
    """
    return messages * latency_s + nbytes / bandwidth_bytes_s
