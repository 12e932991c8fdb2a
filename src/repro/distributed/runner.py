"""Distributed Jacobi driver: slab-decomposed 3.5D blocking over SimComm.

Per blocked round of ``round_t`` time steps:

1. **halo exchange** — every rank sends its ``h = R * round_t`` boundary
   planes to each neighbor and receives the matching ghost planes (one
   ``sendrecv`` pair per internal boundary per round);
2. **local compute** — each rank runs one 3.5D round (or ``round_t`` naive
   sweeps) on its ghost-augmented slab.  By the depth induction of
   :mod:`repro.core.periodic`, every owned plane sits at depth ``>= h``
   from the slab cuts and is therefore exact.  The 3.5D round computes
   only the dependence cone of the owned planes (``Blocking35D``'s Z
   core), so nothing nearer the cut is computed; the naive sweeps compute
   it and throw it away;
3. the rank's two buffers swap roles: the one just written holds the
   owned state of the next round.

Each rank keeps two persistent ping-pong buffers laid out
``[lo ghost | owned | hi ghost]``; the ghost slots are ``H = R * dim_T``
planes wide and exist only on cut sides.  Received ghosts are copied
straight into the source buffer's slots, and every region of a round (the
fused slab, or the overlap interior and its boundary strips) is a view of
those buffers swept by one :class:`Blocking35D` kept per rank, region and
halo depth — so, as in the paper's ring buffers, the working set is
allocated once and then only refilled.  An instance is driven by one
thread at a time: the warm executors' fused plans bind the building
thread's scratch arena.

The naive scheme exchanges width-R halos every time step; temporal blocking
sends the *same total volume* in ``1/dim_T`` as many messages — the
latency-term reduction that distributed temporal blocking exists for
(Wittmann et al., Section II), which `transfer_time` makes quantitative.

**Comm/compute overlap** (``overlap=True``, the default) takes the rest of
the win: the round becomes *post → interior → wait → boundary*.  Every
rank posts its halo sends and receives up front (``isend``/``irecv``),
then immediately runs the blocked round on the *interior* of its slab —
the part :func:`repro.core.regions.split_slab` proves computable from
owned planes alone (pulled in by ``h`` per cut side; physical boundaries
don't shrink).  Only then does it ``wait`` on the ghost planes and finish
the two boundary strips.  The interior sweep's wall time is reported to
the communicator's simulated clock, so the transfer time it covers is
counted as *hidden* (``CommStats.overlapped_ns``) and only the remainder
as an exposed stall — measured, not assumed.  Results are bit-identical
to the exchange-then-compute schedule (and hence to the naive oracle): the
interior planes satisfy the same depth induction, and each strip's extent
lands entirely inside owned ∪ ghost planes.  A slab too thin to leave an
interior falls back to the fused schedule for that rank, still through
the nonblocking handles.

The driver is also **rank-failure tolerant** (``recover=True``).  Each
round starts with a buddy checkpoint — every rank replicates its
round-start slab in-memory to the next live rank — and a heartbeat probe
per rank (the ``rank.crash`` fault site).  A rank that dies is detected at
the next halo exchange (:class:`RankDeadError` from ``SimComm.recv``, not
a hang), and the run recovers instead of aborting:

    detect -> re-decompose -> buddy-restore -> replay

The surviving ranks rebuild the slab map over themselves
(:func:`decompose_z` with explicit rank ids), restore every round-start
slab from the :class:`~repro.resilience.rankrecovery.BuddyStore` (the dead
rank's from its buddy replica), purge the half-exchanged mail, and replay
the interrupted round — at most one blocked round of work is lost, and the
final field is bit-identical to a fault-free run because each round reads
only the full grid state of the previous one.  Every recovery is recorded
in :attr:`DistributedJacobi.recovery`, the ``resilience.*`` counters, and
a ``rank_recovery`` trace span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.blocking35d import Blocking35D
from ..core.naive import naive_sweep
from ..core.regions import AxisTile, split_slab
from ..core.traffic import TrafficStats
from ..obs.metrics import METRICS
from ..obs.trace import TRACE
from ..resilience.rankrecovery import (
    BuddySnapshot,
    BuddyStore,
    RankDeadError,
    RecoveryReport,
    UnrecoverableRankFailureError,
    buddy_of,
)
from ..resilience.sdc import (
    INTEGRITY_TIERS,
    SdcError,
    SdcGuard,
    SdcReport,
    SplitField,
    plane_crcs,
)
from ..resilience.watchdog import GuardedSweep
from ..stencils.base import PlaneKernel
from ..stencils.grid import Field3D, copy_shell
from .comm import SimComm
from .decompose import Slab, decompose_z

__all__ = ["DistributedJacobi"]

_TAG_UP = 1  # planes travelling toward higher z
_TAG_DOWN = 2


@dataclass
class _Region:
    """One region of a rank's round, bound once and reused every round.

    ``views[i]`` are the region's planes in buffer ``i``.  A round reads
    ``views[cur]`` and writes only the region's ``core`` planes
    (region-local indices) of ``views[1 - cur]``: the blocked round
    computes just their dependence cone, so the other planes it reads —
    ghosts, or owned planes another region produces — are never written.
    """

    kernel: PlaneKernel
    views: tuple[Field3D, Field3D]
    executor: Blocking35D | None  # None: the naive reference scheme
    core: tuple[int, int]


class _RankSlab:
    """One rank's persistent ping-pong buffers ``[lo ghost | owned | hi ghost]``.

    The ghost slots are ``halo`` planes wide and exist only on cut sides.
    A round reads buffer ``cur`` (owned planes plus the ghosts received into
    its slots) and writes the owned planes of the other one; then ``cur``
    flips.  The owned planes of the source buffer are never written during
    a round, and the ghost slots lie outside the owned view.
    """

    def __init__(self, slab: Slab, halo: int, like: np.ndarray) -> None:
        ncomp, _, ny, nx = like.shape
        self.slab = slab
        self.lo = halo if slab.lo_cut else 0
        #: global z of buffer plane 0
        self.base = slab.z0 - self.lo
        depth = self.lo + slab.owned + (halo if slab.hi_cut else 0)
        self.bufs = tuple(
            np.zeros((ncomp, depth, ny, nx), like.dtype) for _ in range(2)
        )
        self.cur = 0  # the buffer holding the live state
        self.owned_views = tuple(
            Field3D(b[:, self.lo : self.lo + slab.owned]) for b in self.bufs
        )
        #: (region name, halo depth) -> _Region
        self.regions: dict[tuple[str, int], _Region] = {}

    @property
    def owned(self) -> np.ndarray:
        """The rank's live state: the owned planes of the current buffer."""
        return self.owned_views[self.cur].data

    def fill(self, data: np.ndarray, radius: int) -> None:
        """Load the owned planes of buffer 0 from ``data``; give buffer 1
        the constant boundary shell no sweep writes.  Every run starts on
        buffer 0, so each run binds the same (src, dst) pairs."""
        self.cur = 0
        np.copyto(self.owned_views[0].data, data)
        copy_shell(self.owned_views[0], self.owned_views[1], radius)

    def store_ghosts(self, lo: np.ndarray | None,
                     hi: np.ndarray | None) -> None:
        """Copy received ghost planes into the current buffer's slots."""
        buf, z = self.bufs[self.cur], self.lo + self.slab.owned
        if lo is not None:
            buf[:, self.lo - lo.shape[1] : self.lo] = lo
        if hi is not None:
            buf[:, z : z + hi.shape[1]] = hi


class DistributedJacobi:
    """Slab-parallel Jacobi with per-round halo exchange.

    Parameters
    ----------
    kernel:
        Any :class:`PlaneKernel`; kernels with per-cell state must
        implement ``restricted_to``.
    n_ranks:
        Number of simulated ranks (Z slabs).
    dim_t:
        Temporal blocking factor; 1 reproduces the classic
        exchange-every-step scheme.
    scheme:
        ``"35d"`` runs a 3.5D round per exchange; ``"naive"`` runs plain
        sweeps (still ``dim_t`` per exchange — set ``dim_t=1`` for the
        classic baseline).
    recover:
        When True (default), rank failures are survived via buddy
        checkpoints and elastic re-decomposition; when False, the first
        dead rank surfaces as :class:`RankDeadError`.
    overlap:
        When True (default), each round runs post → interior → wait →
        boundary, hiding in-flight transfer time behind the interior
        sweep; when False, the classic exchange-then-compute schedule.
        Both produce bit-identical results.
    latency_s / bandwidth_bytes_s:
        The communicator's in-flight cost model (see :class:`SimComm`);
        with the default ``latency_s=0`` transfers are instantaneous and
        the hidden/exposed accounting stays zero.
    integrity:
        Silent-data-corruption tier (``off``/``spot``/``seal``/``full``,
        see :mod:`repro.resilience.sdc`) of :meth:`run`, which drives the
        rounds through :class:`GuardedSweep`'s loop: any active tier
        seals the rank buffers' planes after each round, verifies them at
        the top of the next and re-executes the round from its input
        (the non-current ping-pong buffers), healing detected planes by
        cone replay.  ``seal`` and ``full`` additionally run the
        cross-rank halo handshake: each received ghost plane is
        checksummed against the sender's *seal-time* CRC, catching
        compute-side corruption of the boundary planes — distinct from
        the transport CRC inside :class:`SimComm`, which only covers the
        wire.  The ``memory.flip`` fault site fires per rank per round
        (detail ``"rank:round"``) after sealing.
    """

    def __init__(
        self,
        kernel: PlaneKernel,
        n_ranks: int,
        dim_t: int = 1,
        tile_y: int | None = None,
        tile_x: int | None = None,
        scheme: str = "35d",
        loss: float = 0.0,
        corruption: float = 0.0,
        comm_seed: int = 0,
        max_retries: int = 3,
        recover: bool = True,
        overlap: bool = True,
        latency_s: float = 0.0,
        bandwidth_bytes_s: float | None = None,
        integrity: str = "off",
        sdc_seed: int = 0,
        sdc_max_heals: int = 3,
    ) -> None:
        if scheme not in ("35d", "naive"):
            raise ValueError(f"unknown scheme {scheme!r}")
        if dim_t < 1:
            raise ValueError("dim_t must be >= 1")
        if integrity not in INTEGRITY_TIERS:
            raise ValueError(
                f"unknown integrity tier {integrity!r}; known: "
                f"{', '.join(INTEGRITY_TIERS)}"
            )
        self.kernel = kernel
        self.n_ranks = n_ranks
        self.dim_t = dim_t
        self.tile_y = tile_y
        self.tile_x = tile_x
        self.scheme = scheme
        # transport imperfection model, forwarded to SimComm: halo exchanges
        # survive injected/random drops via its ack/retry protocol
        self.loss = loss
        self.corruption = corruption
        self.comm_seed = comm_seed
        self.max_retries = max_retries
        self.recover = recover
        self.overlap = overlap
        self.latency_s = latency_s
        self.bandwidth_bytes_s = bandwidth_bytes_s
        self.integrity = integrity
        self.sdc_seed = sdc_seed
        self.sdc_max_heals = sdc_max_heals
        self.sdc_report = SdcReport(tier=integrity)
        self.recovery = RecoveryReport(initial_ranks=n_ranks,
                                       final_ranks=n_ranks)
        #: the last run's communicator
        self.comm: SimComm | None = None
        #: persistent per-rank buffers, valid for the layout ``_layout``
        self._layout: tuple | None = None
        self._ranks: dict[int, _RankSlab] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        field: Field3D,
        steps: int,
        traffic: TrafficStats | None = None,
    ) -> tuple[Field3D, SimComm]:
        """Advance ``field`` by ``steps``; returns (result, communicator).

        The rounds run in :class:`GuardedSweep`'s loop with health off and
        the ``integrity`` tier.  The communicator carries the per-rank
        message/byte statistics; :attr:`recovery` carries the rank-failure
        record of this run and :attr:`sdc_report` its integrity record.
        """
        out = GuardedSweep(
            self, health="off", sdc=self.integrity, sdc_seed=self.sdc_seed,
            sdc_max_heals=self.sdc_max_heals,
        ).run(field, steps, traffic)
        return out, self.comm

    def open_rounds(self, field: Field3D, sdc: SdcGuard | None):
        """Start a run over ``field`` for :class:`GuardedSweep`'s loop:
        returns (view of the rank buffers, step, close).

        The view is a :class:`SplitField` with one part per rank: the
        owned planes of its current buffer.  The step leaves them alone
        and writes the other buffer, so the loop's trusted base, the
        round's input view, is the non-current buffer after the round.
        ``sdc`` is the loop's guard, whose seals the halo handshake reads.
        """
        live = list(range(self.n_ranks))
        self._live = live
        self._slabs = decompose_z(field.nz, len(live),
                                  self.kernel.radius * self.dim_t, ranks=live)
        self.comm = SimComm(
            self.n_ranks,
            loss=self.loss,
            corruption=self.corruption,
            seed=self.comm_seed,
            max_retries=self.max_retries,
            latency_s=self.latency_s,
            bandwidth_bytes_s=self.bandwidth_bytes_s,
        )
        self._bind(field.data, self._slabs)
        self._buddies = BuddyStore()
        self.recovery = RecoveryReport(initial_ranks=self.n_ranks,
                                       final_ranks=self.n_ranks)
        self._sdc = sdc
        self.sdc_report = sdc.report if sdc is not None else SdcReport()
        self._round_index = 0
        self._state = self._view()
        return self._state, self._round, self._close

    def _view(self) -> SplitField:
        return SplitField([(s.rank, s.z0, self._ranks[s.rank].owned)
                           for s in self._slabs])

    def _round(self, view, round_t: int,
               traffic: TrafficStats | None = None) -> SplitField:
        """One blocked round of every live rank: buddy checkpoint,
        heartbeats, halo exchange and compute, then the buffers swap.

        A rank found dead is recovered (re-decompose, buddy-restore) and
        the round replayed inside the step.  A ``view`` that is not the
        last one returned (a repair's rolled-back copy) refills the
        buffers first.
        """
        comm = self.comm
        if view is not self._state:
            self._bind(view.copy().data, self._slabs)
        if comm.pending() or comm.outstanding():
            comm.purge()  # mail of a failed attempt the loop retries
        while True:
            if self.recover and len(self._live) > 1:
                self._buddy_checkpoint()
            for rank in self._live:
                comm.heartbeat(rank)
            if all(not comm.alive(rank) for rank in self._live):
                raise UnrecoverableRankFailureError(
                    f"all {len(self._live)} remaining rank(s) crashed at "
                    f"round {self._round_index}"
                )
            try:
                with TRACE.span("round", index=self._round_index,
                                round_t=round_t, ranks=len(self._live)):
                    if self.overlap:
                        self._exchange_and_compute_overlap(
                            round_t, traffic, view.shape[0])
                    else:
                        self._exchange_and_compute(round_t, traffic)
                break
            except RankDeadError:
                if not self.recover:
                    raise
                self._recover(view)  # then replay the interrupted round
        for rs in self._ranks.values():
            rs.cur ^= 1  # the buffers just written are now live
        self._round_index += 1
        self._state = self._view()
        return self._state

    def _close(self, view: SplitField) -> Field3D:
        """The run's result field; finishes the comm and recovery records."""
        report = self.recovery
        report.buddy_bytes = self._buddies.bytes_replicated
        report.buddy_snapshots = self._buddies.snapshots
        report.final_ranks = len(self._live)
        assert self.comm.pending() == 0
        if METRICS.armed:
            METRICS.merge_comm(self.comm)
            METRICS.merge_recovery(report)
        return view.copy()

    # ------------------------------------------------------------------
    def _bind(
        self, data: np.ndarray, slabs: list[Slab]
    ) -> dict[int, _RankSlab]:
        """The persistent rank buffers for ``slabs``, filled from ``data``.

        Buffers, region views and warm executors are kept while the slab
        map, shape, dtype and ncomp stay the same (a rank recovery's
        re-decomposition is a change); only their contents are refilled.
        """
        halo = self.kernel.radius * self.dim_t
        layout = (tuple(slabs), data.shape, data.dtype, halo)
        if layout != self._layout:
            self._ranks = {s.rank: _RankSlab(s, halo, data) for s in slabs}
            self._layout = layout
        for s in slabs:
            self._ranks[s.rank].fill(data[:, s.z0 : s.z1], self.kernel.radius)
        return self._ranks

    def _buddy_checkpoint(self) -> None:
        """Replicate every rank's round-start slab to its buddy (in memory).

        The owner's own snapshot aliases the owned view of the rank's
        current buffer.  That is safe because a round reads that buffer and
        writes the other one, so its owned planes are not written before
        the next checkpoint replaces the snapshot, and the ghost slots a
        round fills lie outside the owned view.  Only the buddy replica
        costs a copy — that copy is the modeled inter-rank transfer, counted
        in ``buddy_bytes`` rather than in the halo-exchange comm stats.
        """
        for s in self._slabs:
            self._buddies.checkpoint(
                BuddySnapshot(
                    owner=s.rank,
                    round_index=self._round_index,
                    z0=s.z0,
                    z1=s.z1,
                    data=self._ranks[s.rank].owned,
                    meta={"scheme": self.scheme, "dim_t": self.dim_t},
                ),
                holder=buddy_of(s.rank, self._live),
            )

    def _recover(self, view: SplitField) -> None:
        """The recovery path: re-decompose, buddy-restore, ready to replay.

        Reconstructs the *round-start* global state from the buddy
        snapshots (survivors serve their own copies; each dead rank's slab
        comes from its buddy replica), rebuilds the slab map over the
        surviving rank ids, and purges the half-exchanged mail of the
        aborted round.  The caller then replays the round — at most one
        blocked round of compute is lost per failure.
        """
        comm, report, round_index = self.comm, self.recovery, self._round_index
        dead_now = [rank for rank in self._live if not comm.alive(rank)]
        survivors = [rank for rank in self._live if comm.alive(rank)]
        with TRACE.span("rank_recovery", round=round_index,
                        dead=",".join(map(str, dead_now)),
                        survivors=len(survivors)):
            if not survivors:
                raise UnrecoverableRankFailureError(
                    f"no rank survived round {round_index}"
                )
            # round-start global state, slab by slab from the buddy store
            restored = np.concatenate(
                [self._buddies.restore(s.rank, comm.alive).data
                 for s in self._slabs], axis=1,
            )
            try:
                self._slabs = decompose_z(
                    view.shape[0], len(survivors),
                    self.kernel.radius * self.dim_t, ranks=survivors,
                )
            except ValueError as exc:
                raise UnrecoverableRankFailureError(
                    f"cannot re-decompose over {len(survivors)} surviving "
                    f"rank(s): {exc}"
                ) from exc
            self._bind(restored, self._slabs)
            self._live = survivors
            purged = comm.purge()
            report.failed_ranks.extend((round_index, r) for r in dead_now)
            report.recoveries += 1
            report.replayed_rounds += 1
            report.purged_messages += purged
            report.final_ranks = len(survivors)

    # ------------------------------------------------------------------
    def _sdc_handshake(self, ghost: np.ndarray, z0: int, sender: int) -> None:
        """Cross-rank halo handshake (``seal``/``full`` tiers).

        The ghost planes received from ``sender``, global planes from
        ``z0`` on, must reproduce their *seal-time* CRCs — compute-side
        corruption of the boundary planes is caught at the receiver,
        which the transport CRC inside :class:`SimComm` (wire coverage
        only) cannot see.
        """
        sdc = self._sdc
        if sdc is None or sdc.tier not in ("seal", "full") or sdc.seals is None:
            return
        report = sdc.report
        report.checks += 1
        if METRICS.armed:
            METRICS.inc("sdc.checks", 1)
        expect = sdc.seals[z0 : z0 + ghost.shape[1]]
        bad = [i for i, (a, b) in enumerate(zip(plane_crcs(ghost), expect))
               if a != b]
        if not bad:
            return
        report.detections += 1
        report.detected_planes += len(bad)
        if METRICS.armed:
            METRICS.inc("sdc.detected", 1)
        with TRACE.span("sdc_detected", channel="handshake",
                        sender=sender, planes=len(bad)):
            pass
        raise SdcError(
            f"halo handshake failed: {len(bad)} ghost plane(s) received "
            f"from rank {sender} do not match its seal-time CRCs — "
            "compute-side corruption of the boundary planes"
        )

    # ------------------------------------------------------------------
    def _exchange_and_compute(
        self, round_t: int, traffic: TrafficStats | None
    ) -> None:
        comm, ranks = self.comm, self._ranks
        h = self.kernel.radius * round_t
        # phase A: every live rank posts its boundary planes (a dead rank
        # posts nothing — that silence is what its neighbors detect)
        with TRACE.span("halo_exchange", phase="send", halo=h):
            for s in self._slabs:
                if not comm.alive(s.rank):
                    continue
                owned = ranks[s.rank].owned
                if s.hi_neighbor is not None:
                    comm.send(s.rank, s.hi_neighbor, _TAG_UP, owned[:, -h:])
                if s.lo_neighbor is not None:
                    comm.send(s.rank, s.lo_neighbor, _TAG_DOWN, owned[:, :h])
        # phase B: every rank receives its ghosts into its buffer slots and
        # computes; a receive from a dead neighbor raises RankDeadError
        for s in self._slabs:
            if not comm.alive(s.rank):
                continue
            rs = ranks[s.rank]
            with TRACE.span("halo_exchange", phase="recv", rank=s.rank):
                lo_ghost = hi_ghost = None
                if s.lo_neighbor is not None:
                    lo_ghost = comm.recv(s.lo_neighbor, s.rank, _TAG_UP)
                if s.hi_neighbor is not None:
                    hi_ghost = comm.recv(s.hi_neighbor, s.rank, _TAG_DOWN)
                self._store_ghosts(s, rs, lo_ghost, hi_ghost)
            with TRACE.span("rank_compute", rank=s.rank):
                self._sweep(rs, self._fused(rs, h), round_t, traffic)

    # ------------------------------------------------------------------
    def _exchange_and_compute_overlap(
        self, round_t: int, traffic: TrafficStats | None, nz: int
    ) -> None:
        """One overlapped round: post → interior → wait → boundary.

        Every live rank posts its halo sends *and* receives before anyone
        computes, then each rank runs the blocked round on its slab
        interior (owned planes only, so no ghost needed), reports that
        sweep's wall time to the communicator's clock, waits on the ghost
        planes (``halo_wait`` — the failure-detection point of the overlap
        path), and finishes the two boundary strips.  A slab too thin to
        leave an interior falls back to the fused schedule through the
        same handles; no compute ran between its post and wait, so its
        transfer time is fully exposed — correctly so, nothing was hidden.
        """
        comm, ranks = self.comm, self._ranks
        r = self.kernel.radius
        h = r * round_t
        comm.sync_clocks()  # round barrier: in-flight time starts here
        with TRACE.span("halo_exchange", phase="post", halo=h):
            for s in self._slabs:
                if not comm.alive(s.rank):
                    continue
                owned = ranks[s.rank].owned
                if s.hi_neighbor is not None:
                    comm.isend(s.rank, s.hi_neighbor, _TAG_UP, owned[:, -h:])
                if s.lo_neighbor is not None:
                    comm.isend(s.rank, s.lo_neighbor, _TAG_DOWN, owned[:, :h])
            recvs: dict[int, tuple] = {}
            for s in self._slabs:
                if not comm.alive(s.rank):
                    continue
                lo_req = (comm.irecv(s.lo_neighbor, s.rank, _TAG_UP)
                          if s.lo_neighbor is not None else None)
                hi_req = (comm.irecv(s.hi_neighbor, s.rank, _TAG_DOWN)
                          if s.hi_neighbor is not None else None)
                recvs[s.rank] = (lo_req, hi_req)
        for s in self._slabs:
            if not comm.alive(s.rank):
                continue
            rs = ranks[s.rank]
            lo_req, hi_req = recvs[s.rank]
            split = split_slab(s.z0, s.z1, nz, h, s.lo_cut, s.hi_cut)
            if split.interior is None or s.owned < 2 * r + 1:
                with TRACE.span("halo_wait", rank=s.rank, fallback="thin-slab"):
                    self._wait_ghosts(s, rs, lo_req, hi_req)
                with TRACE.span("rank_compute", rank=s.rank, phase="fused"):
                    self._sweep(rs, self._fused(rs, h), round_t, traffic)
                continue
            with TRACE.span("rank_compute", rank=s.rank, phase="interior"):
                t0 = time.perf_counter_ns()
                reg = self._region(rs, "interior", h, split.interior)
                self._sweep(rs, reg, round_t, traffic)
                comm.advance(s.rank, time.perf_counter_ns() - t0)
            with TRACE.span("halo_wait", rank=s.rank):
                self._wait_ghosts(s, rs, lo_req, hi_req)
            with TRACE.span("rank_compute", rank=s.rank, phase="boundary"):
                for name, strip in (("lo", split.lo_strip),
                                    ("hi", split.hi_strip)):
                    if strip is not None:
                        reg = self._region(rs, name, h, strip)
                        self._sweep(rs, reg, round_t, traffic)

    def _wait_ghosts(self, s: Slab, rs: _RankSlab, lo_req, hi_req) -> None:
        """Complete a rank's ghost receives into its current buffer."""
        comm = self.comm
        lo_ghost = comm.wait(lo_req) if lo_req is not None else None
        hi_ghost = comm.wait(hi_req) if hi_req is not None else None
        self._store_ghosts(s, rs, lo_ghost, hi_ghost)

    def _store_ghosts(self, s: Slab, rs: _RankSlab, lo_ghost, hi_ghost) -> None:
        """Handshake received ghost planes, then copy them into the slots."""
        if lo_ghost is not None:
            self._sdc_handshake(lo_ghost, s.z0 - lo_ghost.shape[1],
                                s.lo_neighbor)
        if hi_ghost is not None:
            self._sdc_handshake(hi_ghost, s.z1, s.hi_neighbor)
        rs.store_ghosts(lo_ghost, hi_ghost)

    # ------------------------------------------------------------------
    def _fused(self, rs: _RankSlab, h: int) -> _Region:
        """The owned planes out of the whole ghost-augmented slab (``h``
        ghosts per cut side): the non-overlap and thin-slab region."""
        s = rs.slab
        return self._region(rs, "fused", h, AxisTile(
            core=(s.z0, s.z1),
            extent=(s.z0 - h * s.lo_cut, s.z1 + h * s.hi_cut),
        ))

    def _region(
        self, rs: _RankSlab, name: str, h: int, planes: AxisTile
    ) -> _Region:
        """The region ``name`` of ``rs`` at halo depth ``h``, bound once:
        it reads the global planes ``planes.extent`` and produces
        ``planes.core``."""
        reg = rs.regions.get((name, h))
        if reg is not None:
            return reg
        e0, e1 = planes.extent
        b0, b1 = e0 - rs.base, e1 - rs.base
        views = (Field3D(rs.bufs[0][:, b0:b1]), Field3D(rs.bufs[1][:, b0:b1]))
        kernel = self.kernel.restricted_to(e0, e1)
        executor = None
        if self.scheme == "35d":
            _, _, ny, nx = rs.bufs[0].shape
            executor = Blocking35D(kernel, dim_t=h // kernel.radius,
                                   tile_y=self.tile_y or ny,
                                   tile_x=self.tile_x or nx)
        core = (planes.core[0] - e0, planes.core[1] - e0)
        reg = rs.regions[(name, h)] = _Region(kernel, views, executor, core)
        return reg

    def _sweep(
        self,
        rs: _RankSlab,
        reg: _Region,
        round_t: int,
        traffic: TrafficStats | None,
    ) -> None:
        """Advance one region's core planes by ``round_t`` steps into the
        other buffer.

        The blocked round computes only the core's dependence cone and
        writes only the core; the other buffer's owned planes already
        carry the constant shell.  The naive scheme sweeps the whole
        region and keeps the core planes.  A region thinner than
        ``2R + 1`` planes has no computable plane: its owned planes are all
        physical shell, which the other buffer already holds, so the round
        leaves it as is.
        """
        src, dst = reg.views[rs.cur], reg.views[1 - rs.cur]
        if src.nz < 2 * reg.kernel.radius + 1:
            return
        if reg.executor is not None:
            reg.executor.sweep_round(src, dst, round_t, traffic,
                                     z_core=reg.core)
            return
        a, b = src.copy(), src.like()
        copy_shell(a, b, reg.kernel.radius)
        for _ in range(round_t):
            naive_sweep(reg.kernel, a, b, traffic)
            a, b = b, a
        k0, k1 = reg.core
        np.copyto(dst.data[:, k0:k1], a.data[:, k0:k1])

    # ------------------------------------------------------------------
    def expected_messages(self, nz: int, steps: int) -> int:
        """Messages a full run generates: 2 per internal boundary per round."""
        rounds = -(-steps // self.dim_t)
        return 2 * (self.n_ranks - 1) * rounds

    def expected_bytes(self, field: Field3D, steps: int) -> int:
        """Total exchanged payload: volume is dim_T-independent."""
        r = self.kernel.radius
        per_round_planes = r * self.dim_t
        rounds, rem = divmod(steps, self.dim_t)
        plane = field.ny * field.nx * field.element_size()
        total = 2 * (self.n_ranks - 1) * per_round_planes * plane * rounds
        if rem:
            total += 2 * (self.n_ranks - 1) * r * rem * plane
        return total
