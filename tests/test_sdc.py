"""Tests for the silent-data-corruption defense (repro.resilience.sdc).

The claims under test are end-to-end: seeded ``memory.flip`` /
``disk.bitrot`` faults must be *detected* (never silently absorbed),
healing must be *surgical* (cone replay, not a full restart) and
*bit-exact* (the healed grid equals the fault-free oracle), durable
artifacts must refuse rotted payloads, and the serving layer must meter,
shed and report integrity work like any other degradable feature.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import Blocking35D, run_naive
from repro.core.buffer import PlaneRing
from repro.distributed import DistributedJacobi
from repro.resilience import (
    FAULTS,
    CheckpointError,
    CheckpointStore,
    GuardedSweep,
    RunReport,
)
from repro.resilience.quarantine import gc_corrupt, quarantine
from repro.resilience.rankrecovery import (
    BuddySnapshot,
    BuddyStore,
    UnrecoverableRankFailureError,
)
from repro.resilience.sdc import (
    INTEGRITY_TIERS,
    MAX_FLIPS_PER_PROBE,
    SdcError,
    SdcGuard,
    SdcReport,
    SdcUnhealableError,
    flip_bits,
    inject_flips,
    make_sdc_case,
    plane_crcs,
    rot_file,
    run_sdc_case,
    write_sdc_bundle,
)
from repro.obs.serving import prometheus_exposition
from repro.serve import JobSpec, ServeCore
from repro.stencils import Field3D, SevenPointStencil

from .conftest import assert_fields_equal
from .test_serve import reference_sha, wait_terminal


@pytest.fixture(autouse=True)
def _clean_faults():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


def guarded(kernel, *, tile=8, dim_t=2, **kw):
    return GuardedSweep(Blocking35D(kernel, dim_t, tile, tile), **kw)


class TestPrimitives:
    def test_plane_crcs_change_with_any_plane(self):
        data = np.zeros((1, 4, 3, 3), dtype=np.float64)
        base = plane_crcs(data)
        assert len(base) == 4
        data[0, 2, 1, 1] = 1.0
        after = plane_crcs(data)
        assert after[2] != base[2]
        assert [after[z] for z in (0, 1, 3)] == [base[z] for z in (0, 1, 3)]

    def test_flip_bits_distinct_finite_and_reversible(self):
        data = np.random.default_rng(0).random((2, 3, 4, 5))
        orig = data.copy()
        flipped = flip_bits(data, 8, entropy=[1, 2])
        assert len({(idx, bit) for idx, bit in flipped}) == 8
        assert np.isfinite(data).all()  # mantissa-only: silent, not loud
        assert not np.array_equal(data, orig)
        flip_bits(data, 8, entropy=[1, 2])  # same entropy: same positions
        np.testing.assert_array_equal(data, orig)

    def test_inject_flips_detail_grammar_and_budget(self):
        data = np.ones((1, 4, 4, 4))
        with FAULTS.injected("memory.flip=0:2:3"):
            assert inject_flips(data, rank=0, round_index=1) == 0
            assert inject_flips(data, rank=1, round_index=2) == 0
            assert inject_flips(data, rank=0, round_index=2) == 3
            assert inject_flips(data, rank=0, round_index=2) == 0  # drained

    def test_inject_flips_unbounded_spec_is_capped(self):
        data = np.ones((1, 8, 8, 8))
        with FAULTS.injected("memory.flip:*"):
            assert inject_flips(data, rank=0, round_index=0) == \
                MAX_FLIPS_PER_PROBE

    def test_rot_file_flips_one_byte(self, tmp_path):
        p = tmp_path / "payload.bin"
        p.write_bytes(b"\x00" * 64)
        assert rot_file(p)
        raw = p.read_bytes()
        assert len(raw) == 64 and raw.count(b"\x40") == 1
        assert not rot_file(tmp_path / "missing.bin")


class TestSdcGuard:
    def _setup(self, tier="spot", steps=2, **kw):
        kernel = SevenPointStencil()
        good = Field3D.random((8, 6, 6), dtype=np.float64, seed=3)
        state = run_naive(kernel, good, steps)
        guard = SdcGuard(kernel, tier=tier, **kw)
        return kernel, guard, good, state, steps

    def test_rejects_unknown_tier(self):
        with pytest.raises(ValueError, match="unknown integrity tier"):
            SdcGuard(SevenPointStencil(), tier="paranoid")
        assert INTEGRITY_TIERS == ("off", "spot", "seal", "full")

    def test_off_tier_is_inert(self):
        _, guard, good, state, s = self._setup(tier="off")
        guard.seal(state)
        guard.verify_seals(state, s, good, 0)
        guard.check_round(state, s, good, 0, 0)
        assert guard.report.checks == 0 and not guard.active

    def test_clean_state_verifies_clean(self):
        _, guard, good, state, s = self._setup()
        guard.seal(state)
        guard.verify_seals(state, s, good, 0)
        guard.check_round(state, s, good, 0, 0)
        assert guard.report.detections == 0
        assert guard.report.checks == 2

    def test_resting_flip_detected_and_healed_bit_exact(self):
        _, guard, good, state, s = self._setup()
        pristine = Field3D(state.data.copy())
        guard.seal(state)
        flip_bits(state.data, 2, entropy=[9])
        guard.verify_seals(state, s, good, 0)
        r = guard.report
        assert r.detections == 1 and r.heals == 1
        assert r.detected_at == [s]
        assert_fields_equal(state, pristine)

    def test_heal_is_surgical_not_full_grid(self):
        kernel, guard, good, state, s = self._setup()
        guard.seal(state)
        state.data[0, 4, 2, 2] += 1e-9  # one plane corrupted
        guard.verify_seals(state, s, good, 0)
        nz, ny, nx = state.shape
        cone = (1 + 2 * kernel.radius * s) * ny * nx * s
        assert 0 < guard.report.replayed_cells <= cone
        assert guard.report.replayed_cells < nz * ny * nx * s

    def test_full_tier_compute_side_corruption_interior_plane(self):
        # regression: check_round passes its whole-grid replay into _heal,
        # whose patch slice must use the replay's own offset (0), not the
        # cone extent's e0 — for an interior plane (e0 > 0) the old code
        # patched with *shifted* planes, corrupting instead of healing
        _, guard, good, state, s = self._setup(tier="full")
        pristine = Field3D(state.data.copy())
        state.data[0, 5, 3, 3] += 1e-9  # interior: cone extent starts > 0
        guard.check_round(state, s, good, 0, 0)
        assert guard.report.detections == 1
        assert_fields_equal(state, pristine)

    def test_heal_budget_exhaustion_raises(self):
        _, guard, good, state, s = self._setup(max_heals=0)
        guard.seal(state)
        flip_bits(state.data, 1, entropy=[4])
        with pytest.raises(SdcUnhealableError, match="heal budget"):
            guard.verify_seals(state, s, good, 0)
        assert guard.report.unhealable == 1

    def test_no_trusted_base_raises(self):
        _, guard, good, state, s = self._setup()
        guard.seal(state)
        flip_bits(state.data, 1, entropy=[4])
        with pytest.raises(SdcUnhealableError, match="no trusted base"):
            guard.verify_seals(state, s, good, good_done=s + 1)

    def test_invalidate_drops_seals(self):
        _, guard, good, state, s = self._setup()
        guard.seal(state)
        guard.invalidate()
        flip_bits(state.data, 1, entropy=[4])
        guard.verify_seals(state, s, good, 0)  # no seals -> no verdict
        assert guard.report.detections == 0

    def test_report_lines_and_degraded(self):
        r = SdcReport(tier="spot")
        assert not r.degraded and r.lines() == []
        r.detections, r.detected_planes, r.heals = 1, 2, 1
        r.detected_at.append(4)
        assert r.degraded
        assert any("sdc detected" in line for line in r.lines())


class TestGuardedSweepIntegrity:
    @pytest.mark.parametrize("tier", ["spot", "seal", "full"])
    def test_flip_healed_bit_exact_every_tier(self, seven_point, tier):
        field = Field3D.random((12, 10, 10), dtype=np.float64, seed=5)
        oracle = run_naive(seven_point, field, 8)
        guard = guarded(seven_point, tile=10, sdc=tier, sdc_seed=7)
        with FAULTS.injected("memory.flip=0:1:2"):
            out = guard.run(field, 8)
        r = guard.sdc.report
        assert r.detections >= 1 and r.heals >= 1
        assert_fields_equal(out, oracle)

    def test_flip_after_final_seal_is_in_window(self, seven_point):
        field = Field3D.random((10, 8, 8), dtype=np.float64, seed=2)
        oracle = run_naive(seven_point, field, 6)
        guard = guarded(seven_point, sdc="full", sdc_seed=1)
        # rounds are 0..2; a flip at the last round lands after its seal
        # and only the post-loop verify can catch it
        with FAULTS.injected("memory.flip=0:2:1"):
            out = guard.run(field, 6)
        assert guard.sdc.report.detections == 1
        assert_fields_equal(out, oracle)

    def test_clean_run_reports_clean(self, seven_point, small_field):
        guard = guarded(seven_point, sdc="full")
        guard.run(small_field, 4)
        r = guard.sdc.report
        assert r.detections == 0 and r.heals == 0
        assert r.checks > 0 and r.sealed_planes > 0

    def test_health_sdc_policy_implies_spot(self, seven_point):
        guard = guarded(seven_point, health="sdc")
        assert guard.sdc is not None and guard.sdc.tier == "spot"

    def test_report_carries_sdc_and_degrades_exit(self, seven_point):
        report = RunReport()
        guard = guarded(seven_point, sdc="full", report=report)
        field = Field3D.random((10, 8, 8), dtype=np.float64, seed=6)
        with FAULTS.injected("memory.flip=0:0:1"):
            guard.run(field, 4)
        assert report.sdc is guard.sdc.report
        assert report.degraded  # healed-but-not-clean maps to exit 3
        assert any("sdc detected" in line for line in report.lines())

    def test_persistent_corruption_raises_unhealable(self, seven_point):
        field = Field3D.random((10, 8, 8), dtype=np.float64, seed=8)
        guard = guarded(seven_point, sdc="full", sdc_max_heals=1)
        with FAULTS.injected("memory.flip:*"):
            with pytest.raises(SdcUnhealableError):
                guard.run(field, 8)


class TestRingIntegrity:
    def test_plane_ring_seal_and_check(self):
        ring = PlaneRing(4, 1, 3, 3, np.float64)
        ring.slot_for(5)[:] = 1.5
        ring.seal(5)
        assert ring.check(5)
        ring.data[5 % 4][0, 1, 1] = 2.0  # a resting flip in ring memory
        assert not ring.check(5)
        assert not ring.check(9)  # recycled slot: liveness miss, not match
        ring.reset()
        assert not ring.check(5)

    def test_ring_flips_at_tile_seams_healed_bit_exact(self, seven_point):
        # tile 6 on an 8-wide axis: multiple XY tiles with loaded seam
        # planes.  The @skip sweep walks the flip probe across every
        # tile's ring loads (interior, seam-adjacent and boundary).  The
        # contract is no *silent* corruption: every run must end
        # bit-exact, and any flip that actually perturbed the sweep must
        # show up as a detection+heal.  (A flip can land in the unused
        # tail of a reused max-size ring slot — harmless by construction,
        # nothing to detect.)
        fired_total = detected = 0
        for skip in range(0, 24, 2):
            field = Field3D.random((6, 8, 8), dtype=np.float64, seed=skip)
            oracle = run_naive(seven_point, field, 4)
            guard = guarded(seven_point, tile=6, sdc="full", sdc_seed=skip)
            fired_before = len(FAULTS.fired)
            with FAULTS.injected(f"memory.flip=ring:1@{skip}"):
                out = guard.run(field, 4)
            fired = sum(
                1 for site, _ in FAULTS.fired[fired_before:]
                if site == "memory.flip"
            )
            assert_fields_equal(out, oracle)
            fired_total += 1 if fired else 0
            detected += 1 if guard.sdc.report.detections else 0
            assert guard.sdc.report.heals == guard.sdc.report.detections
        assert fired_total >= 6  # the sweep really exercised the probe
        assert detected >= 1  # and some flips landed where they matter


class TestDurableDigests:
    def test_checkpoint_roundtrip_keeps_digest(self, tmp_path):
        store = CheckpointStore(tmp_path / "snap.npz")
        data = np.random.default_rng(1).random((1, 6, 5, 5))
        store.save(data, 4)
        snap = store.load()
        assert snap is not None and snap.step == 4
        np.testing.assert_array_equal(snap.data, data)

    def test_bitrot_refused_and_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path / "snap.npz")
        data = np.random.default_rng(1).random((1, 6, 5, 5))
        with FAULTS.injected("disk.bitrot"):
            store.save(data, 4)
        # the rotted byte either survives container parsing (payload
        # digest mismatch -> loud CheckpointError) or breaks the npz
        # framing (quarantined -> None); both refuse to resume from rot
        try:
            snap = store.load()
        except CheckpointError as exc:
            assert "digest" in str(exc)
        else:
            assert snap is None
        assert not store.path.exists()
        assert list(tmp_path.glob("*.corrupt"))

    def test_buddy_replica_digest_verified(self):
        store = BuddyStore()
        data = np.ones((1, 4, 3, 3))
        store.checkpoint(
            BuddySnapshot(owner=0, round_index=1, z0=0, z1=4, data=data),
            holder=1,
        )
        restored = store.restore(0, alive=lambda r: True)
        np.testing.assert_array_equal(restored.data, data)
        data[0, 2, 1, 1] += 1e-12  # rot the owner's copy in place
        with pytest.raises(UnrecoverableRankFailureError, match="crc32"):
            store.restore(0, alive=lambda r: True)
        # the replica was copied before the rot: still restorable
        replica = store.restore(0, alive=lambda r: r != 0)
        assert replica.crc32 and not np.shares_memory(replica.data, data)

    @pytest.mark.parametrize("offset", ["first", "middle", "last"])
    def test_buddy_replica_rotted_in_place_refused(self, offset):
        store = BuddyStore()
        data = np.random.default_rng(5).random((1, 4, 3, 3))
        store.checkpoint(
            BuddySnapshot(owner=0, round_index=2, z0=0, z1=4, data=data),
            holder=1,
        )
        owner_dead = lambda r: r != 0  # noqa: E731
        replica = store.restore(0, alive=owner_dead)
        raw = replica.data.reshape(-1).view(np.uint8)
        i = {"first": 0, "middle": raw.size // 2, "last": raw.size - 1}[offset]
        raw[i] ^= 0x10  # one flipped bit in the holder's memory
        with pytest.raises(UnrecoverableRankFailureError, match="crc32"):
            store.restore(0, alive=owner_dead)
        # the owner's own copy is intact: a live owner still restores
        np.testing.assert_array_equal(
            store.restore(0, alive=lambda r: True).data, data)


class TestQuarantineGC:
    def test_quarantine_names_are_unique(self, tmp_path):
        paths = []
        for _ in range(3):
            f = tmp_path / "store.json"
            f.write_text("junk")
            paths.append(quarantine(f, keep=10))
        names = [p.name for p in paths]
        assert len(set(names)) == 3
        assert all(n.endswith(".corrupt") for n in names)

    def test_gc_keeps_newest_n(self, tmp_path, monkeypatch):
        import os

        for i in range(6):
            p = tmp_path / f"f{i}.corrupt"
            p.write_text(str(i))
            t = 1_700_000_000 + i
            os.utime(p, (t, t))
        removed = gc_corrupt(tmp_path, keep=2)
        assert len(removed) == 4
        survivors = sorted(p.name for p in tmp_path.glob("*.corrupt"))
        assert survivors == ["f4.corrupt", "f5.corrupt"]
        monkeypatch.setenv("REPRO_CORRUPT_KEEP", "0")
        gc_corrupt(tmp_path)
        assert not list(tmp_path.glob("*.corrupt"))


class TestSdcChaos:
    def test_case_derivation_is_deterministic(self):
        a = make_sdc_case(7)
        b = make_sdc_case(7)
        assert a == b
        assert a.specs and all(
            s.startswith(("memory.flip", "disk.bitrot")) for s in a.specs
        )
        with pytest.raises(ValueError, match="active tier"):
            make_sdc_case(0, tier="off")
        with pytest.raises(ValueError, match="unknown sdc chaos"):
            make_sdc_case(0, schedules=("gamma-ray",))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_soak_seeds_no_silent_corruption(self, seed):
        result = run_sdc_case(
            make_sdc_case(seed, grid=14, steps=6, dim_t=2)
        )
        assert result.ok, (
            f"seed {seed}: {result.error or 'silent corruption'} "
            f"({result.detections}/{result.flip_rounds_fired} detected)"
        )
        assert result.bit_exact
        if result.flips_fired:
            assert result.detections >= result.flip_rounds_fired
        if result.case.bitrot:
            assert result.bitrot_detected

    def test_bundle_written_for_failures(self, tmp_path):
        result = run_sdc_case(make_sdc_case(1, grid=12, steps=4, dim_t=2))
        bundle = write_sdc_bundle(result, tmp_path)
        assert (bundle / "case.json").exists()
        assert (bundle / "faults.txt").read_text().strip() == \
            ",".join(result.case.specs)


class TestDistributedIntegrity:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_flip_healed_bit_exact(self, seven_point, overlap):
        field = Field3D.random((16, 16, 16), dtype=np.float64, seed=1)
        oracle = run_naive(seven_point, field, 8)
        dj = DistributedJacobi(
            seven_point, 4, dim_t=2, integrity="seal", sdc_seed=3,
            overlap=overlap,
        )
        with FAULTS.injected("memory.flip=1:1:2"):
            out, _ = dj.run(Field3D(field.data.copy()), 8)
        assert dj.sdc_report.detections >= 1
        assert dj.sdc_report.heals >= 1
        assert_fields_equal(out, oracle)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_halo_handshake_is_a_second_line_of_defense(
        self, seven_point, overlap, monkeypatch
    ):
        # disable the seal verification so corrupt planes survive to the
        # halo exchange: the cross-rank checksum handshake must still
        # refuse to consume them (defense in depth; healing needs the
        # seals, so refusal is the contract here)
        monkeypatch.setattr(SdcGuard, "verify_seals",
                            lambda self, state, *args: state)
        dj = DistributedJacobi(
            seven_point, 4, dim_t=2, integrity="seal", sdc_seed=0,
            overlap=overlap,
        )
        field = Field3D.random((16, 16, 16), dtype=np.float64, seed=2)
        with FAULTS.injected("memory.flip=1:0:64"):
            with pytest.raises(SdcError):
                dj.run(field, 8)

    def test_unhealable_when_budget_exhausted(self, seven_point):
        dj = DistributedJacobi(
            seven_point, 4, dim_t=2, integrity="seal", sdc_max_heals=0,
        )
        field = Field3D.random((16, 16, 16), dtype=np.float64, seed=3)
        with FAULTS.injected("memory.flip=2:1:1"):
            with pytest.raises(SdcUnhealableError):
                dj.run(field, 8)

    def test_flip_and_crash_coexist(self, seven_point):
        # rank recovery (crash) and SDC healing (flip) are independent
        # defenses; a run suffering both must still end bit-exact
        field = Field3D.random((16, 16, 16), dtype=np.float64, seed=4)
        oracle = run_naive(seven_point, field, 8)
        dj = DistributedJacobi(
            seven_point, 4, dim_t=2, integrity="seal", sdc_seed=5,
        )
        with FAULTS.injected("rank.crash=3@1", "memory.flip=0:2:1"):
            out, _ = dj.run(Field3D(field.data.copy()), 8)
        assert_fields_equal(out, oracle)


class TestServeIntegrity:
    def test_full_tier_heals_meters_and_traces(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        spec = JobSpec(grid=12, steps=6, dim_t=2, integrity="full",
                       verify=False, tenant="acme", trace_id="t-sdc")
        with FAULTS.injected("memory.flip=0:1:1"):
            jid = core.submit(spec.to_dict())["id"]
            wait_terminal(core)
        record = core.status(jid)
        assert record.status == "degraded" and record.code == 3
        assert any("healed surgically" in d for d in record.degradations)
        # healed output is bit-identical to the fault-free oracle
        assert record.sha256 == reference_sha(record.spec)
        stats = core.stats()
        counters = stats["metrics"]["counters"]
        for name in ("sdc.checks", "sdc.detected", "sdc.healed",
                     "sdc.replayed_cells"):
            assert counters.get(name, 0) >= 1, name
        assert stats["tenants"]["acme"]["verify_cpu_ns"] > 0
        assert stats["ledger_mismatches"] == []
        # the counters ride the normal stats -> prometheus path
        prom = prometheus_exposition(stats["metrics"])
        assert "repro_sdc_detected_total" in prom
        assert "repro_sdc_replayed_cells_total" in prom
        names = [s["name"] for s in core.spans(jid)]
        assert "sdc_check" in names and "sdc_heal" in names
        assert core.drain()

    def test_clean_full_tier_job_is_not_degraded(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        spec = JobSpec(grid=12, steps=4, integrity="full", tenant="acme")
        jid = core.submit(spec.to_dict())["id"]
        wait_terminal(core)
        record = core.status(jid)
        assert record.status == "done" and record.code == 0
        # verification work is still metered even when nothing is found
        assert core.stats()["tenants"]["acme"]["verify_cpu_ns"] > 0
        assert core.drain()

    def test_amber_overload_sheds_integrity_tier(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=1, queue_cap=2,
                         degrade_at=0.0, fsync=False)
        core.start()  # degrade_at=0: any queue depth counts as amber
        jid = core.submit(JobSpec(grid=12, steps=4, integrity="full",
                                  verify=False).to_dict())["id"]
        core.submit(JobSpec(grid=12, steps=4, seed=1,
                            verify=False).to_dict())
        wait_terminal(core)
        record = core.status(jid)
        assert record.status == "degraded" and record.code == 3
        assert any("integrity tier full shed" in d
                   for d in record.degradations)
        assert record.sha256 == reference_sha(record.spec)
        assert core.counters["sdc_shed"] >= 1
        assert core.drain()

    def test_unknown_tier_rejected_at_submit(self, tmp_path):
        core = ServeCore(tmp_path / "s", workers=1, fsync=False)
        core.start()
        doc = JobSpec(grid=10, steps=2).to_dict()
        doc["integrity"] = "paranoid"
        reply = core.submit(doc)
        assert not reply["ok"]
        assert "integrity" in reply["reason"]
        assert core.drain()


class TestCliSdc:
    def test_run_verify_full_heals_and_exits_degraded(self, capsys):
        with FAULTS.injected("memory.flip=0:1:1"):
            rc = cli_main([
                "run", "--grid", "12", "--steps", "6", "--dim-t", "2",
                "--verify", "full",
            ])
        out = capsys.readouterr().out
        assert rc == 3
        assert "bit-identical to the naive reference" in out
        assert "sdc detected" in out

    def test_run_verify_full_unhealable_exits_failed(self, capsys):
        with FAULTS.injected("memory.flip:*"):
            rc = cli_main([
                "run", "--grid", "12", "--steps", "6", "--dim-t", "2",
                "--verify", "full",
            ])
        assert rc == 4

    def test_faults_env_is_honored(self, capsys, monkeypatch):
        # the CI smoke arms sites via $REPRO_FAULTS with no CLI plumbing
        monkeypatch.setenv("REPRO_FAULTS", "memory.flip=0:1:1")
        rc = cli_main([
            "run", "--grid", "12", "--steps", "6", "--dim-t", "2",
            "--verify", "full",
        ])
        assert rc == 3

    @pytest.mark.parametrize("ranks", [[], ["--ranks", "2"]])
    def test_ring_flip_is_left_for_the_guard_not_the_bind_probe(
        self, capsys, monkeypatch, ranks
    ):
        # the first-tile probe holds memory.flip off: the default rung
        # binds, and the sweep's guard detects and heals the flip
        monkeypatch.setenv("REPRO_FAULTS", "memory.flip=ring:1")
        rc = cli_main([
            "run", *ranks, "--grid", "24", "--steps", "8", "--dim-t", "2",
            "--tile", "24", "--verify", "full",
        ])
        out = capsys.readouterr().out
        assert rc == 3
        assert "backend      : fused-numpy" in out
        assert "backend used" not in out  # no degradation
        assert "sdc detected" in out and "sdc healed" in out
        assert "bit-identical to the naive reference" in out

    def test_bind_probe_keeps_backend_faults_armed(self):
        from repro.resilience import (
            DegradedExecutionWarning,
            bind_with_fallback,
        )

        probe = Field3D.random((10, 10, 10), seed=1)
        # @1 skips the probe's own entry fire, so the fault fires in the
        # fused tile runner, inside the memory.flip hold
        with FAULTS.injected("memory.flip=ring:1",
                             "backend.compute=fused-numpy@1"):
            with pytest.warns(DegradedExecutionWarning):
                bound = bind_with_fallback(SevenPointStencil(), "fused-numpy",
                                           probe_field=probe)
            assert FAULTS.armed("memory.flip")  # budget left for the sweep
        assert bound.used == "numpy-inplace"
        assert [d.stage for d in bound.degradations] == ["probe"]

    def test_faults_list_documents_sdc_sites(self, capsys):
        assert cli_main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "memory.flip" in out and "disk.bitrot" in out
        assert "memory.flip=ring" in out  # the grammar examples

    def test_chaos_target_sdc_clean_seed(self, capsys):
        rc = cli_main([
            "chaos", "--target", "sdc", "--seeds", "1", "--grid", "14",
            "--steps", "6",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean" in out

    def test_tune_prune_sweeps_quarantine(self, tmp_path, capsys,
                                          monkeypatch):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(cache_dir / "tuning.json"))
        monkeypatch.setenv("REPRO_CORRUPT_KEEP", "2")
        for i in range(5):
            (cache_dir / f"old{i}.corrupt").write_text("x")
        rc = cli_main(["tune", "--prune"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "quarantine" in out
        assert len(list(cache_dir.glob("*.corrupt"))) == 2
