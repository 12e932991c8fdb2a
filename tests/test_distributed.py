"""Tests for the distributed (simulated-MPI) layer."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import run_naive
from repro.distributed import (
    CommFailedError,
    DistributedJacobi,
    RankDeadError,
    SimComm,
    decompose_z,
    transfer_time,
)
from repro.resilience import GuardedSweep
from repro.stencils import (
    Field3D,
    SevenPointStencil,
    VariableCoefficientStencil,
    star_stencil,
)


class TestSimComm:
    def test_send_recv_roundtrip(self):
        comm = SimComm(2)
        payload = np.arange(6.0).reshape(2, 3)
        comm.send(0, 1, tag=7, array=payload)
        out = comm.recv(0, 1, tag=7)
        assert np.array_equal(out, payload)
        assert comm.stats[0].bytes_sent == payload.nbytes
        assert comm.stats[1].bytes_received == payload.nbytes

    def test_send_copies_payload(self):
        comm = SimComm(2)
        payload = np.zeros(4)
        comm.send(0, 1, 0, payload)
        payload[:] = 99  # mutation after send must not leak (MPI semantics)
        assert not comm.recv(0, 1, 0).any()

    def test_fifo_per_channel(self):
        comm = SimComm(2)
        comm.send(0, 1, 0, np.array([1.0]))
        comm.send(0, 1, 0, np.array([2.0]))
        assert comm.recv(0, 1, 0)[0] == 1.0
        assert comm.recv(0, 1, 0)[0] == 2.0

    def test_missing_message_raises(self):
        comm = SimComm(2)
        with pytest.raises(LookupError):
            comm.recv(0, 1, 0)

    def test_rank_validation(self):
        comm = SimComm(2)
        with pytest.raises(ValueError):
            comm.send(0, 5, 0, np.zeros(1))
        with pytest.raises(ValueError):
            SimComm(0)

    def test_sendrecv(self):
        comm = SimComm(3)
        # ring shift: every rank sends right, receives from left
        for r in range(3):
            comm.send(r, (r + 1) % 3, 0, np.array([float(r)]))
        for r in range(3):
            got = comm.recv((r - 1) % 3, r, 0)
            assert got[0] == (r - 1) % 3
        assert comm.pending() == 0

    def test_transfer_time_model(self):
        few_big = transfer_time(messages=2, nbytes=1 << 20)
        many_small = transfer_time(messages=20, nbytes=1 << 20)
        assert few_big < many_small  # same volume, fewer messages wins


class TestDecompose:
    def test_partition_covers_axis(self):
        slabs = decompose_z(30, 4, halo=2)
        assert slabs[0].z0 == 0 and slabs[-1].z1 == 30
        for a, b in zip(slabs, slabs[1:]):
            assert a.z1 == b.z0

    def test_neighbors(self):
        slabs = decompose_z(30, 3, halo=2)
        assert slabs[0].lo_neighbor is None
        assert slabs[0].hi_neighbor == 1
        assert slabs[1].lo_neighbor == 0 and slabs[1].hi_neighbor == 2
        assert slabs[2].hi_neighbor is None

    def test_too_thin_slabs_rejected(self):
        with pytest.raises(ValueError, match="fewer ranks"):
            decompose_z(10, 5, halo=3)

    def test_single_rank(self):
        (slab,) = decompose_z(10, 1, halo=3)
        assert (slab.z0, slab.z1) == (0, 10)
        assert slab.lo_neighbor is None and slab.hi_neighbor is None


class TestDistributedCorrectness:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 5])
    @pytest.mark.parametrize("scheme,dim_t", [("naive", 1), ("35d", 2), ("35d", 3)])
    def test_matches_serial_naive(self, n_ranks, scheme, dim_t):
        k = SevenPointStencil()
        f = Field3D.random((24, 12, 14), seed=n_ranks * 10 + dim_t)
        ref = run_naive(k, f, 6)
        out, comm = DistributedJacobi(k, n_ranks, dim_t=dim_t, scheme=scheme).run(f, 6)
        assert np.array_equal(out.data, ref.data)
        assert comm.pending() == 0

    def test_remainder_steps(self):
        k = SevenPointStencil()
        f = Field3D.random((20, 10, 10), seed=3)
        ref = run_naive(k, f, 7)
        out, _ = DistributedJacobi(k, 3, dim_t=3).run(f, 7)
        assert np.array_equal(out.data, ref.data)

    def test_radius2(self):
        k = star_stencil(2, center=0.3, arm=0.02)
        f = Field3D.random((24, 12, 12), seed=4)
        ref = run_naive(k, f, 4)
        out, _ = DistributedJacobi(k, 2, dim_t=2).run(f, 4)
        assert np.array_equal(out.data, ref.data)

    def test_lbm_with_obstacles(self):
        from repro.lbm import Lattice, channel_with_sphere, make_kernel, run_lbm

        flags = channel_with_sphere((16, 12, 14), 2.0)
        rng = np.random.default_rng(5)
        lat = Lattice.from_moments(
            1.0 + 0.05 * rng.random((16, 12, 14)),
            0.02 * (rng.random((3, 16, 12, 14)) - 0.5),
            flags,
        )
        kernel = make_kernel(lat, omega=1.3)
        ref = run_lbm(lat, 4, omega=1.3)
        out, _ = DistributedJacobi(kernel, 3, dim_t=2).run(lat.f, 4)
        assert np.array_equal(out.data, ref.f.data)

    def test_variable_coefficients(self):
        k = VariableCoefficientStencil.layered((18, 10, 10), [0.2, 1.0, 0.6])
        f = Field3D.random((18, 10, 10), seed=6)
        ref = run_naive(k, f, 4)
        out, _ = DistributedJacobi(k, 3, dim_t=2).run(f, 4)
        assert np.array_equal(out.data, ref.data)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_slab_of_shell_planes_only(self, overlap):
        # 3 planes over 2 ranks: rank 1 owns only the top shell plane, so
        # its ghost-augmented slab (2 planes) has nothing to compute
        k = SevenPointStencil()
        f = Field3D.random((3, 4, 4), seed=0)
        out, _ = DistributedJacobi(k, 2, dim_t=1, overlap=overlap).run(f, 1)
        assert np.array_equal(out.data, run_naive(k, f, 1).data)

    def test_too_many_ranks_rejected(self):
        k = SevenPointStencil()
        f = Field3D.random((8, 8, 8), seed=7)
        with pytest.raises(ValueError):
            DistributedJacobi(k, 6, dim_t=3).run(f, 3)


class TestCommunicationAccounting:
    def test_message_count_reduced_by_dim_t(self):
        """Temporal blocking sends 1/dim_T as many messages."""
        k = SevenPointStencil()
        f = Field3D.random((24, 10, 10), seed=8)
        _, comm1 = DistributedJacobi(k, 4, dim_t=1).run(f, 6)
        _, comm3 = DistributedJacobi(k, 4, dim_t=3).run(f, 6)
        m1 = comm1.total_stats().messages_sent
        m3 = comm3.total_stats().messages_sent
        assert m1 == 3 * m3

    def test_volume_independent_of_dim_t(self):
        k = SevenPointStencil()
        f = Field3D.random((24, 10, 10), seed=9)
        _, comm1 = DistributedJacobi(k, 4, dim_t=1).run(f, 6)
        _, comm3 = DistributedJacobi(k, 4, dim_t=3).run(f, 6)
        assert comm1.total_stats().bytes_sent == comm3.total_stats().bytes_sent

    def test_expected_counters_match(self):
        k = SevenPointStencil()
        f = Field3D.random((24, 10, 10), seed=10)
        dj = DistributedJacobi(k, 3, dim_t=2)
        _, comm = dj.run(f, 6)
        total = comm.total_stats()
        assert total.messages_sent == dj.expected_messages(f.nz, 6)
        assert total.bytes_sent == dj.expected_bytes(f, 6)

    def test_edge_ranks_send_less(self):
        k = SevenPointStencil()
        f = Field3D.random((24, 10, 10), seed=11)
        _, comm = DistributedJacobi(k, 4, dim_t=2).run(f, 4)
        sent = [s.messages_sent for s in comm.stats]
        assert sent[0] == sent[-1]
        assert sent[1] == sent[2] == 2 * sent[0]  # interior ranks: two neighbors


class TestLossyTransport:
    """The ack/retry protocol: imperfect links, bit-perfect delivery."""

    def test_forced_drop_is_retransmitted(self):
        from repro.resilience.faultinject import FAULTS

        comm = SimComm(2, max_retries=3)
        payload = np.arange(5.0)
        with FAULTS.injected("comm.drop"):
            comm.send(0, 1, 0, payload)
            out = comm.recv(0, 1, 0)
        assert np.array_equal(out, payload)
        assert comm.stats[0].dropped == 1
        assert comm.stats[1].retries == 1

    def test_corruption_caught_by_checksum(self):
        from repro.resilience.faultinject import FAULTS

        comm = SimComm(2, max_retries=3)
        payload = np.arange(5.0)
        with FAULTS.injected("comm.corrupt"):
            comm.send(0, 1, 0, payload)
            out = comm.recv(0, 1, 0)
        assert np.array_equal(out, payload)  # the retransmission, bit-exact
        assert comm.stats[0].corrupted == 1
        assert comm.stats[1].retries == 1

    def test_persistent_loss_exhausts_retries(self):
        from repro.distributed import CommFailedError
        from repro.resilience.faultinject import FAULTS

        comm = SimComm(2, max_retries=2)
        with FAULTS.injected("comm.drop:*"):
            comm.send(0, 1, 0, np.arange(3.0))
            with pytest.raises(CommFailedError, match="undeliverable"):
                comm.recv(0, 1, 0)
        FAULTS.disarm()

    def test_random_loss_is_seed_deterministic(self):
        def total_retries(seed):
            comm = SimComm(2, loss=0.4, seed=seed, max_retries=16)
            for i in range(10):
                comm.send(0, 1, i, np.arange(4.0))
                comm.recv(0, 1, i)
            return comm.total_stats().retries

        assert total_retries(3) == total_retries(3)
        assert total_retries(3) > 0

    def test_invalid_transport_config_rejected(self):
        with pytest.raises(ValueError):
            SimComm(2, loss=1.5)
        with pytest.raises(ValueError):
            SimComm(2, max_retries=-1)

    def test_lossy_halo_exchange_stays_bit_exact(self):
        """A 30%-lossy link changes the stats, never the physics."""
        k = SevenPointStencil()
        f = Field3D.random((24, 10, 10), seed=12)
        lossy = DistributedJacobi(
            k, 3, dim_t=2, loss=0.3, corruption=0.1, comm_seed=5,
            max_retries=32,
        )
        out, comm = lossy.run(f, 6)
        assert np.array_equal(out.data, run_naive(k, f, 6).data)
        total = comm.total_stats()
        assert total.retries > 0
        assert total.dropped + total.corrupted > 0


class TestNonblocking:
    def test_isend_irecv_wait_roundtrip(self):
        comm = SimComm(2)
        payload = np.arange(6.0).reshape(2, 3)
        sreq = comm.isend(0, 1, 7, payload)
        rreq = comm.irecv(0, 1, 7)
        assert sreq.done  # buffered send completes locally at once
        assert not rreq.done
        got = comm.wait(rreq)
        assert np.array_equal(got, payload)
        assert rreq.done
        assert comm.wait(rreq) is got  # waiting again returns the cache
        assert comm.pending() == 0 and comm.outstanding() == 0

    def test_posted_completed_accounting(self):
        comm = SimComm(2)
        comm.isend(0, 1, 0, np.zeros(3))
        req = comm.irecv(0, 1, 0)
        assert comm.stats[0].posted == comm.stats[0].completed == 1
        assert comm.stats[1].posted == 1 and comm.stats[1].completed == 0
        comm.wait(req)
        assert comm.stats[1].completed == 1

    def test_waitall_preserves_order(self):
        comm = SimComm(2)
        for v in (1.0, 2.0, 3.0):
            comm.isend(0, 1, 0, np.array([v]))
        reqs = [comm.irecv(0, 1, 0) for _ in range(3)]
        got = comm.waitall(reqs)
        assert [g[0] for g in got] == [1.0, 2.0, 3.0]

    def test_test_polls_without_blocking(self):
        comm = SimComm(2, latency_s=1e-6)
        req = comm.irecv(0, 1, 0)
        assert comm.test(req) == (False, None)  # nothing posted yet
        comm.isend(0, 1, 0, np.array([5.0]))
        done, _ = comm.test(req)
        assert not done  # posted, but not arrived on the simulated clock
        comm.advance(1, comm.transfer_ns(8))
        done, got = comm.test(req)
        assert done and got[0] == 5.0
        assert comm.test(req) == (True, got)

    def test_wait_detects_dead_rank(self):
        comm = SimComm(2)
        req = comm.irecv(0, 1, 0)  # posting against a live rank is fine
        comm.kill(0)
        with pytest.raises(RankDeadError):
            comm.wait(req)

    def test_purge_cancels_pending_handles(self):
        comm = SimComm(2)
        comm.isend(0, 1, 0, np.zeros(2))
        req = comm.irecv(0, 1, 0)
        assert comm.outstanding() == 1
        comm.purge()
        assert comm.outstanding() == 0
        with pytest.raises(CommFailedError):
            comm.wait(req)  # a purged round can never be hung on
        with pytest.raises(CommFailedError):
            comm.test(req)

    def test_blocking_recv_still_works_alongside(self):
        comm = SimComm(2)
        comm.isend(0, 1, 0, np.array([1.0]))
        assert comm.recv(0, 1, 0)[0] == 1.0


class TestOverlapTiming:
    def test_untimed_comm_keeps_counters_silent(self):
        comm = SimComm(2)
        comm.isend(0, 1, 0, np.zeros(4))
        comm.wait(comm.irecv(0, 1, 0))
        total = comm.total_stats()
        assert total.overlapped_ns == total.exposed_ns == 0
        assert total.overlap_fraction() is None

    def test_transfer_cost_model(self):
        comm = SimComm(2, latency_s=1e-6, bandwidth_bytes_s=1e9)
        assert comm.transfer_ns(0) == 1000  # latency only
        assert comm.transfer_ns(1000) == 2000  # + bytes/bandwidth
        assert SimComm(2, latency_s=1e-6).transfer_ns(10**9) == 1000

    def test_blocking_recv_is_fully_exposed(self):
        comm = SimComm(2, latency_s=1e-6)
        comm.send(0, 1, 0, np.zeros(4))
        comm.recv(0, 1, 0)
        cost = comm.transfer_ns(32)
        assert comm.stats[1].exposed_ns == cost
        assert comm.stats[1].overlapped_ns == 0
        assert comm.total_stats().overlap_fraction() == 0.0

    def test_compute_past_transfer_hides_everything(self):
        comm = SimComm(2, latency_s=1e-6)
        comm.isend(0, 1, 0, np.zeros(4))
        req = comm.irecv(0, 1, 0)
        cost = comm.transfer_ns(32)
        comm.advance(1, cost + 500)  # interior compute outlasts the wire
        comm.wait(req)
        assert comm.stats[1].overlapped_ns == cost
        assert comm.stats[1].exposed_ns == 0
        assert comm.total_stats().overlap_fraction() == 1.0

    def test_partial_overlap_splits_the_transfer(self):
        comm = SimComm(2, latency_s=1e-6)
        comm.isend(0, 1, 0, np.zeros(4))
        req = comm.irecv(0, 1, 0)
        cost = comm.transfer_ns(32)
        comm.advance(1, cost // 4)
        comm.wait(req)
        assert comm.stats[1].overlapped_ns == cost // 4
        assert comm.stats[1].exposed_ns == cost - cost // 4

    def test_retries_are_always_exposed(self):
        from repro.resilience.faultinject import FAULTS

        comm = SimComm(2, latency_s=1e-6)
        comm.isend(0, 1, 0, np.zeros(4))
        req = comm.irecv(0, 1, 0)
        cost = comm.transfer_ns(32)
        comm.advance(1, 10 * cost)  # transfer fully hidden...
        with FAULTS.injected("comm.delay:1"):
            comm.wait(req)
        # ...but the delayed-ack retransmission is a synchronous round trip
        assert comm.stats[1].overlapped_ns == cost
        assert comm.stats[1].exposed_ns == cost
        assert comm.stats[1].delayed == 1

    def test_sync_clocks_aligns_ranks(self):
        comm = SimComm(3, latency_s=1e-6)
        comm.advance(1, 700)
        comm.sync_clocks()
        assert [comm.now_ns(r) for r in range(3)] == [700, 700, 700]

    def test_invalid_timing_config_rejected(self):
        with pytest.raises(ValueError):
            SimComm(2, latency_s=-1.0)
        with pytest.raises(ValueError):
            SimComm(2, bandwidth_bytes_s=0)
        with pytest.raises(ValueError):
            SimComm(2).advance(0, -5)


class TestDecomposeEdgeCases:
    def test_nz_barely_above_ranks_times_halo(self):
        # 13 planes, 4 ranks, halo 3: min slab owns exactly halo planes
        slabs = decompose_z(13, 4, halo=3)
        assert sum(s.owned for s in slabs) == 13
        assert min(s.owned for s in slabs) == 3
        assert slabs[0].z0 == 0 and slabs[-1].z1 == 13

    def test_exactly_ranks_times_halo(self):
        slabs = decompose_z(12, 4, halo=3)
        assert all(s.owned == 3 for s in slabs)

    def test_one_plane_short_is_rejected(self):
        with pytest.raises(ValueError, match="fewer ranks"):
            decompose_z(11, 4, halo=3)

    def test_maximally_uneven_slabs(self):
        # partition_span spreads the remainder: sizes differ by at most 1
        slabs = decompose_z(17, 5, halo=3)
        sizes = sorted(s.owned for s in slabs)
        assert sizes == [3, 3, 3, 4, 4]
        for a, b in zip(slabs, slabs[1:]):
            assert a.z1 == b.z0  # still contiguous

    def test_cut_flags_match_neighbors(self):
        slabs = decompose_z(30, 3, halo=2)
        assert not slabs[0].lo_cut and slabs[0].hi_cut
        assert slabs[1].lo_cut and slabs[1].hi_cut
        assert slabs[2].lo_cut and not slabs[2].hi_cut

    def test_single_rank_never_too_thin(self):
        (slab,) = decompose_z(2, 1, halo=5)
        assert slab.owned == 2 and not slab.lo_cut and not slab.hi_cut


class TestOverlapCorrectness:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 5])
    @pytest.mark.parametrize("scheme,dim_t", [("naive", 1), ("35d", 2), ("35d", 3)])
    def test_overlap_matches_serial_and_fused(self, n_ranks, scheme, dim_t):
        k = SevenPointStencil()
        f = Field3D.random((24, 12, 14), seed=n_ranks * 10 + dim_t)
        ref = run_naive(k, f, 6)
        on, comm = DistributedJacobi(
            k, n_ranks, dim_t=dim_t, scheme=scheme,
            overlap=True, latency_s=1e-6,
        ).run(f, 6)
        off, _ = DistributedJacobi(
            k, n_ranks, dim_t=dim_t, scheme=scheme, overlap=False,
        ).run(f, 6)
        assert np.array_equal(on.data, ref.data)
        assert np.array_equal(on.data, off.data)
        assert comm.pending() == 0 and comm.outstanding() == 0

    def test_thin_slabs_fall_back_bit_exactly(self):
        # owned == halo on every rank: no interior anywhere, fused fallback
        k = SevenPointStencil()
        f = Field3D.random((8, 10, 10), seed=5)
        ref = run_naive(k, f, 4)
        out, comm = DistributedJacobi(
            k, 4, dim_t=2, overlap=True, latency_s=1e-6
        ).run(f, 4)
        assert np.array_equal(out.data, ref.data)
        assert comm.outstanding() == 0

    def test_overlap_radius2(self):
        k = star_stencil(2)
        f = Field3D.random((24, 10, 10), seed=3)
        ref = run_naive(k, f, 4)
        out, _ = DistributedJacobi(
            k, 3, dim_t=2, overlap=True, latency_s=1e-6
        ).run(f, 4)
        assert np.array_equal(out.data, ref.data)

    def test_overlap_hides_transfer_time(self):
        k = SevenPointStencil()
        f = Field3D.random((24, 12, 12), seed=1)
        _, comm = DistributedJacobi(
            k, 3, dim_t=2, overlap=True, latency_s=1e-9,
        ).run(f, 6)
        total = comm.total_stats()
        assert total.posted == total.completed > 0
        # 1 ns of latency vs real interior sweeps: always fully hidden
        assert total.overlap_fraction() == 1.0

    def test_overlap_survives_lossy_transport(self):
        k = SevenPointStencil()
        f = Field3D.random((20, 10, 10), seed=11)
        ref = run_naive(k, f, 6)
        out, comm = DistributedJacobi(
            k, 3, dim_t=2, overlap=True, latency_s=1e-6,
            loss=0.2, corruption=0.1, comm_seed=4, max_retries=64,
        ).run(f, 6)
        assert np.array_equal(out.data, ref.data)
        assert comm.total_stats().retries > 0

    def test_overlap_rank_crash_recovers_bit_exactly(self):
        from repro.resilience.faultinject import FAULTS

        k = SevenPointStencil()
        f = Field3D.random((24, 10, 10), seed=9)
        ref = run_naive(k, f, 8)
        dj = DistributedJacobi(k, 4, dim_t=2, overlap=True, latency_s=1e-6)
        with FAULTS.injected("rank.crash=2@2"):
            out, comm = dj.run(f, 8)
        assert np.array_equal(out.data, ref.data)
        assert dj.recovery.recoveries == 1
        assert dj.recovery.replayed_rounds == 1
        assert comm.pending() == 0 and comm.outstanding() == 0

    def test_overlap_emits_halo_wait_spans(self):
        from repro.obs.trace import TRACE

        k = SevenPointStencil()
        f = Field3D.random((24, 10, 10), seed=2)
        TRACE.arm()
        try:
            DistributedJacobi(
                k, 3, dim_t=2, overlap=True, latency_s=1e-6
            ).run(f, 4)
            names = {e.name for e in TRACE.events()}
        finally:
            TRACE.disarm()
        assert "halo_wait" in names
        assert "halo_exchange" in names and "rank_compute" in names


# ----------------------------------------------------------------------
# persistent per-rank buffers and warm region executors
# ----------------------------------------------------------------------

_KERNELS = ("7pt", "27pt", "varco", "lbm")


def _case_kernel(kind, shape):
    """The raw (reference-rung) kernel of one differential case."""
    from repro.lbm import LBMKernel, channel_with_sphere
    from repro.stencils import TwentySevenPointStencil

    if kind == "7pt":
        return SevenPointStencil()
    if kind == "27pt":
        return TwentySevenPointStencil()
    if kind == "varco":
        # float32 coefficients: the in-place rungs follow NumPy promotion
        # bit-exactly for f32 and f64 fields alike (f64 coefficients on an
        # f32 field are not bit-exact there; bind_with_fallback's probe
        # degrades that case to the reference rung)
        k = VariableCoefficientStencil.layered(shape, [0.2, 1.0, 0.6])
        return VariableCoefficientStencil(k.alpha.astype(np.float32),
                                          k.beta.astype(np.float32))
    return LBMKernel(channel_with_sphere(shape, 1.5), omega=1.3)


@st.composite
def _distributed_cases(draw):
    """A valid DistributedJacobi configuration, valid by construction.

    ``decompose_z`` needs every slab to own at least ``R * dim_t`` planes
    (the near-equal split's smallest slab is ``nz // n_ranks``), and a
    tile smaller than the plane must host ``2 * R * dim_t`` ghost cells.
    """
    kind = draw(st.sampled_from(_KERNELS))
    n_ranks = draw(st.integers(1, 5))
    dim_t = draw(st.integers(1, 3))
    halo = dim_t  # every drawn kernel has radius 1
    nz = draw(st.integers(max(3, n_ranks * halo), n_ranks * halo + 8))
    ny = draw(st.integers(2 * halo + 2, 2 * halo + 6))
    nx = draw(st.integers(2 * halo + 2, 2 * halo + 6))
    tiled = draw(st.booleans())
    return {
        "kind": kind,
        "shape": (nz, ny, nx),
        "dtype": draw(st.sampled_from([np.float32, np.float64])),
        "n_ranks": n_ranks,
        "dim_t": dim_t,
        "steps": draw(st.integers(0, 3 * dim_t)),
        "tile_y": draw(st.integers(2 * halo + 1, ny - 1)) if tiled else None,
        "tile_x": draw(st.integers(2 * halo + 1, nx - 1)) if tiled else None,
        "overlap": draw(st.booleans()),
        "integrity": draw(st.sampled_from(["off", "seal", "full"])),
        "backend": draw(st.sampled_from([None, "numpy"])),
        "seed": draw(st.integers(0, 2**16)),
    }


#: 5 ranks over 24 planes at dim_t 3: ranks 1-3 are thin (fused), rank 0's
#: high strip and rank 4's low strip are clipped to 8 and 7 planes, not 3h
_PINNED = {
    "kind": "7pt", "shape": (24, 12, 14), "dtype": np.float64, "n_ranks": 5,
    "dim_t": 3, "steps": 7, "tile_y": None, "tile_x": None, "overlap": True,
    "integrity": "off", "backend": None, "seed": 3,
}


def test_pinned_case_has_strips_that_are_not_3h():
    from repro.core.regions import split_slab

    h = 3
    extents = []
    for s in decompose_z(24, 5, h):
        split = split_slab(s.z0, s.z1, 24, h, s.lo_cut, s.hi_cut)
        extents += [st_.extent_size for st_ in (split.lo_strip, split.hi_strip)
                    if st_ is not None]
    assert extents and all(e != 3 * h for e in extents)


@settings(max_examples=30, deadline=None)
@example(case=_PINNED)
@given(case=_distributed_cases())
def test_one_instance_matches_naive_across_fields_and_shapes(case):
    """One instance, two fields, then a different layout — every output
    equals the naive oracle, so no state leaks across ``run()`` calls
    through the persistent rank buffers or warm executors."""
    from repro.perf.backends import wrap_kernel

    shape, dtype = case["shape"], case["dtype"]
    kernel = _case_kernel(case["kind"], shape)
    ncomp = kernel.ncomp
    dj = DistributedJacobi(
        wrap_kernel(kernel, case["backend"]), case["n_ranks"],
        dim_t=case["dim_t"], tile_y=case["tile_y"], tile_x=case["tile_x"],
        overlap=case["overlap"], latency_s=1e-6 if case["overlap"] else 0.0,
    )
    guard = GuardedSweep(dj, health="off", sdc=case["integrity"])
    if case["kind"] in ("7pt", "27pt"):
        # a different shape (still decomposable, tiles still fit)
        other = ((shape[0] + 1, shape[1] + 1, shape[2]), dtype)
    else:
        # kernels bound to their grid's geometry: change the dtype instead
        other = (shape, np.float64 if dtype == np.float32 else np.float32)
    seed = case["seed"]
    for i, (shp, dt) in enumerate([(shape, dtype), (shape, dtype), other]):
        field = Field3D.random(shp, ncomp=ncomp, dtype=dt, seed=seed + i)
        ref = run_naive(kernel if shp == shape else _case_kernel(
            case["kind"], shp), field, case["steps"])
        out = guard.run(field, case["steps"])
        assert out.data.dtype == ref.data.dtype
        assert np.array_equal(out.data, ref.data), (i, shp, dt)
        assert dj.comm.pending() == 0


class TestWarmRankBuffers:
    """A second ``run()`` of the same layout rebuilds nothing."""

    @staticmethod
    def _count(monkeypatch, cls, name, built):
        orig = getattr(cls, name)

        def counted(self, *args, **kwargs):
            built.append(self)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_second_run_builds_no_executor_and_no_plan(self, monkeypatch,
                                                       overlap):
        from repro.core.blocking35d import Blocking35D
        from repro.perf.backends import wrap_kernel
        from repro.perf.fused import _BatchedRunner, _VolumeRunner

        executors, plans = [], []
        self._count(monkeypatch, Blocking35D, "__init__", executors)
        self._count(monkeypatch, _BatchedRunner, "__init__", plans)
        self._count(monkeypatch, _VolumeRunner, "__init__", plans)
        k = SevenPointStencil()
        # tile 10 keeps the full rounds blocked (kappa 1.71 < 2), so they
        # build batched rounds (one tile or several per region); the
        # partial round runs as a volume round
        dj = DistributedJacobi(wrap_kernel(k, "fused-numpy"), 3, dim_t=2,
                               tile_y=10, tile_x=10, overlap=overlap)
        first = Field3D.random((24, 12, 14), dtype=np.float32, seed=1)
        dj.run(first, 5)  # full rounds plus a partial one
        assert executors and plans
        del executors[:], plans[:]
        second = Field3D.random((24, 12, 14), dtype=np.float32, seed=2)
        out, _ = dj.run(second, 5)
        assert executors == [] and plans == []
        assert np.array_equal(out.data, run_naive(k, second, 5).data)

    def test_codegen_sweep_runners_are_reused(self, monkeypatch, tmp_path):
        from repro.core.blocking35d import Blocking35D
        from repro.perf.backends import wrap_kernel
        from repro.perf.codegen import (
            CODEGEN_CACHE_ENV,
            CODEGEN_MODE_ENV,
            _CodegenSweepRunner,
        )

        monkeypatch.setenv(CODEGEN_MODE_ENV, "python")
        monkeypatch.setenv(CODEGEN_CACHE_ENV, str(tmp_path / "cg"))
        executors = []
        self._count(monkeypatch, Blocking35D, "__init__", executors)
        k = SevenPointStencil()
        dj = DistributedJacobi(wrap_kernel(k, "codegen"), 3, dim_t=2,
                               tile_y=8, tile_x=8)
        dj.run(Field3D.random((24, 12, 14), dtype=np.float32, seed=1), 4)
        runners = {id(ex): list(ex.sweep_runners) for ex in executors}
        assert all(runners.values())
        for ex in executors:  # ping/pong: at most two (src, dst) pairs
            pairs = {(id(r.src_data), id(r.dst_data))
                     for r in ex.sweep_runners}
            assert len(pairs) == len(ex.sweep_runners) <= 2
        built = []
        monkeypatch.setattr(
            _CodegenSweepRunner, "build",
            classmethod(lambda cls, *a: built.append(a) or None),
        )
        second = Field3D.random((24, 12, 14), dtype=np.float32, seed=2)
        out, _ = dj.run(second, 4)
        assert built == []
        assert {id(ex): list(ex.sweep_runners) for ex in executors} == runners
        assert np.array_equal(out.data, run_naive(k, second, 4).data)

    def test_crash_then_full_rank_rerun_is_bit_exact(self):
        from repro.resilience.faultinject import FAULTS

        k = SevenPointStencil()
        dj = DistributedJacobi(k, 4, dim_t=2, overlap=True, latency_s=1e-6)
        f = Field3D.random((24, 10, 10), seed=9)
        with FAULTS.injected("rank.crash=2@2"):
            out, _ = dj.run(f, 8)
        assert dj.recovery.recoveries == 1 and dj.recovery.final_ranks == 3
        assert np.array_equal(out.data, run_naive(k, f, 8).data)
        g = Field3D.random((24, 10, 10), seed=10)
        out, _ = dj.run(g, 8)  # back at four ranks: the layout rebuilds
        assert dj.recovery.recoveries == 0 and dj.recovery.final_ranks == 4
        assert np.array_equal(out.data, run_naive(k, g, 8).data)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_late_flip_heals_from_snapshots_aliasing_the_buffers(
        self, monkeypatch, overlap
    ):
        from repro.resilience.faultinject import FAULTS
        from repro.resilience.rankrecovery import BuddyStore

        owns = []
        orig = BuddyStore.checkpoint

        def checkpoint(store, snap, holder):
            owns.append(snap.data)
            return orig(store, snap, holder)

        monkeypatch.setattr(BuddyStore, "checkpoint", checkpoint)
        k = SevenPointStencil()
        f = Field3D.random((16, 12, 12), seed=4)
        dj = DistributedJacobi(k, 4, dim_t=2, overlap=overlap)
        guard = GuardedSweep(dj, health="off", sdc="seal", sdc_seed=3)
        with FAULTS.injected("memory.flip=1:2:2"):  # rank 1, after round 2
            out = guard.run(f, 10)
        assert guard.report.sdc.heals == 1
        assert np.array_equal(out.data, run_naive(k, f, 10).data)
        # the owners' snapshots are views of the ping-pong buffers
        bufs = [b for rs in dj._ranks.values() for b in rs.bufs]
        assert owns and all(
            any(np.shares_memory(o, b) for b in bufs) for o in owns
        )


# ----------------------------------------------------------------------
# cone-trimmed rounds: each region computes only its core's dependence cone
# ----------------------------------------------------------------------

#: (layout, tile for a dim_t): one whole-plane tile; several tiles whose
#: plan has kappa <= dim_t (fused-numpy's batched round); tiles so small
#: that kappa > dim_t (its volume round).  Planes are 16 x 16.
_CONE_LAYOUTS = {
    "single": lambda dim_t: None,
    "batched": lambda dim_t: 14,
    "volume": lambda dim_t: 2 * dim_t + 2,
}


def _cone_cases():
    """Every kernel x rung x layout once; ranks, dim_t and overlap cycle
    so that each value meets several kernels, rungs and layouts."""
    cases = []
    for k, kind in enumerate(("7pt", "27pt", "varco")):
        for g, rung in enumerate(("fused-numpy", "numpy", "codegen")):
            for layout_i, layout in enumerate(_CONE_LAYOUTS):
                cases.append(_cone_case(kind, rung, layout, k, g, layout_i))
    return cases


def _cone_case(kind, rung, layout, k, g, layout_i):
    n_ranks = 2 + (layout_i + g) % 3
    if layout == "batched":  # a multi-tile plan with kappa <= dim_t
        dim_t = 2 + (g + k) % 3
    else:
        dim_t = 1 + (layout_i + 2 * g + k) % 4
    steps = dim_t + 1  # a full round, then a partial one when dim_t > 1
    overlap = (k + g + layout_i) % 2 == 0
    return pytest.param(
        kind, rung, layout, n_ranks, dim_t, steps, overlap,
        id=f"{kind}-{rung}-{layout}-r{n_ranks}-t{dim_t}-"
        f"{'overlap' if overlap else 'fused'}",
    )


def _cone_run(kind, rung, layout, n_ranks, dim_t, steps, overlap,
              integrity="off"):
    from repro.perf.backends import wrap_kernel

    h = dim_t  # every kernel here has radius 1
    shape = (n_ranks * (2 * h + 2) + 1, 16, 16)
    kernel = _case_kernel(kind, shape)
    tile = _CONE_LAYOUTS[layout](dim_t)
    dj = DistributedJacobi(wrap_kernel(kernel, rung), n_ranks, dim_t=dim_t,
                           tile_y=tile, tile_x=tile, overlap=overlap)
    field = Field3D.random(shape, dtype=np.float32, seed=n_ranks + dim_t)
    guard = GuardedSweep(dj, health="off", sdc=integrity)
    out = guard.run(field, steps)
    return guard, out, run_naive(kernel, field, steps)


@pytest.mark.parametrize(
    "kind,rung,layout,n_ranks,dim_t,steps,overlap", _cone_cases())
def test_cone_trimmed_rounds_match_naive(monkeypatch, tmp_path, kind, rung,
                                         layout, n_ranks, dim_t, steps,
                                         overlap):
    from repro.perf.codegen import (
        CODEGEN_CACHE_ENV,
        CODEGEN_MODE_ENV,
        _CodegenSweepRunner,
    )
    from repro.perf.fused import _BatchedRunner, _VolumeRunner

    monkeypatch.setenv(CODEGEN_MODE_ENV, "python")
    monkeypatch.setenv(CODEGEN_CACHE_ENV, str(tmp_path / "cg"))
    guard, out, ref = _cone_run(kind, rung, layout, n_ranks, dim_t, steps,
                                overlap)
    assert np.array_equal(out.data, ref.data)
    # the layout really ran the path it names (full rounds only: a
    # partial round has its own tile plan)
    executors = [reg.executor for rs in guard.executor._ranks.values()
                 for (_, h), reg in rs.regions.items() if h == dim_t]
    runners = {type(r) for ex in executors for r in ex.sweep_runners}
    if rung == "codegen":
        assert runners == {_CodegenSweepRunner}
    elif rung == "fused-numpy":
        # varco has no volume lowering: its rounds all run batched
        volume = layout == "volume" and kind != "varco"
        assert runners == {_VolumeRunner if volume else _BatchedRunner}
    else:  # the reference rung: stepwise
        assert runners == set()


@pytest.mark.parametrize("layout", sorted(_CONE_LAYOUTS))
def test_cone_trimmed_stepwise_round_matches_naive(layout):
    """An armed ``memory.flip`` keeps the fused rungs on the stepwise
    schedule path (its ring site lives there); this flip is armed but out
    of reach, so the trimmed schedule must reproduce the oracle."""
    from repro.resilience.faultinject import FAULTS

    with FAULTS.injected("memory.flip=ring:1@1000000000"):
        _, out, ref = _cone_run("7pt", "fused-numpy", layout, 3, 2, 5, True)
    assert np.array_equal(out.data, ref.data)


def test_cone_trimmed_ring_flip_is_healed_bit_exact():
    from repro.resilience.faultinject import FAULTS

    detected = 0
    for skip in range(0, 40, 8):
        with FAULTS.injected(f"memory.flip=ring:1@{skip}"):
            guard, out, ref = _cone_run("7pt", "fused-numpy", "single", 3, 2,
                                        5, True, integrity="full")
        assert np.array_equal(out.data, ref.data)
        sdc = guard.report.sdc
        assert sdc.heals == sdc.detections
        detected += sdc.detections
    assert detected >= 1


def _cone_updates(shape, n_ranks, dim_t, steps, r=1):
    """The closed form: per round, each rank's overlap split computes the
    cone of every region's core (``SlabSplit.cone_plane_updates``) over
    the whole XY interior (one whole-plane tile)."""
    from repro.core.regions import split_slab

    nz, ny, nx = shape
    rounds = [dim_t] * (steps // dim_t) + [steps % dim_t] * (steps % dim_t > 0)
    planes = 0
    for round_t in rounds:
        for s in decompose_z(nz, n_ranks, r * dim_t):
            split = split_slab(s.z0, s.z1, nz, r * round_t, s.lo_cut,
                               s.hi_cut)
            planes += split.cone_plane_updates(r)
    return planes * (ny - 2 * r) * (nx - 2 * r)


class TestConeTrimmedCounts:
    def test_halo_4rank_updates_equal_the_closed_form(self):
        from repro.core.traffic import TrafficStats
        from repro.perf.backends import wrap_kernel

        k = SevenPointStencil()
        f = Field3D.random((128, 128, 128), dtype=np.float32, seed=1)
        dj = DistributedJacobi(wrap_kernel(k, "fused-numpy"), 4, dim_t=4,
                               tile_y=128, tile_x=128, overlap=True,
                               latency_s=2e-4, bandwidth_bytes_s=2e9)
        traffic = TrafficStats()
        out, comm = dj.run(f, 8, traffic)
        assert traffic.updates == _cone_updates(f.shape, 4, 4, 8)
        assert traffic.updates == 19_432_224  # 612 plane-updates per round
        # exchange unchanged by the trim: 3 boundaries x 2 directions x 2
        # rounds of 4-plane halos
        total = comm.total_stats()
        assert total.messages_sent == dj.expected_messages(f.nz, 8) == 12
        assert total.bytes_sent == dj.expected_bytes(f, 8) == 3_145_728
        assert np.array_equal(out.data, run_naive(k, f, 8).data)

    @pytest.mark.parametrize("n_ranks,dim_t,steps,nz", [
        (2, 1, 3, 11), (2, 3, 7, 14), (3, 2, 5, 24), (4, 4, 9, 40),
        (4, 2, 5, 9),  # slabs too thin for an interior: fused rounds
    ])
    @pytest.mark.parametrize("rung", ["fused-numpy", "numpy"])
    def test_updates_equal_the_closed_form(self, n_ranks, dim_t, steps, nz,
                                           rung):
        from repro.core.traffic import TrafficStats
        from repro.perf.backends import wrap_kernel

        k = SevenPointStencil()
        f = Field3D.random((nz, 9, 10), dtype=np.float32, seed=nz)
        dj = DistributedJacobi(wrap_kernel(k, rung), n_ranks, dim_t=dim_t,
                               overlap=True)
        traffic = TrafficStats()
        out, _ = dj.run(f, steps, traffic)
        assert traffic.updates == _cone_updates(f.shape, n_ranks, dim_t,
                                                steps)
        assert np.array_equal(out.data, run_naive(k, f, steps).data)
