"""Tests for the chaos soak harness: one seeded loop, three targets."""

import json

import pytest

from repro.cli import main
from repro.obs import TRACE
from repro.resilience import (
    DISTRIBUTED,
    FAULTS,
    SDC,
    ChaosResult,
    run_soak,
    write_bundle,
)
from repro.serve.chaos import SERVE


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    FAULTS.disarm()
    TRACE.disarm()


def make_case(seed, **kw):
    return DISTRIBUTED.make(seed, kw.pop("schedules", None), **kw)


def soak(seeds, **kw):
    return list(run_soak(DISTRIBUTED, seeds, **kw))


class TestMakeCase:
    def test_same_seed_same_schedule(self):
        a, b = make_case(42), make_case(42)
        assert a == b

    def test_different_seeds_differ(self):
        cases = [make_case(s) for s in range(8)]
        assert len({tuple(c.specs) + (c.loss, c.corruption) for c in cases}) > 1

    def test_schedule_subset(self):
        case = make_case(0, schedules=("loss",))
        assert case.specs == []
        assert case.loss > 0
        assert case.corruption == 0.0

    def test_crash_schedule_targets_valid_rank_and_round(self):
        for seed in range(12):
            case = make_case(seed, ranks=4, steps=6, dim_t=2)
            crash = [s for s in case.specs if s.startswith("rank.crash")]
            assert len(crash) == 1
            body = crash[0].split("=", 1)[1]
            victim = int(body.split("@")[0])
            assert 0 <= victim < 4

    def test_crash_skipped_on_single_rank(self):
        case = make_case(0, ranks=1, schedules=("crash",))
        assert case.specs == []

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos schedule"):
            make_case(0, schedules=("crash", "gamma-rays"))

    def test_describe_mentions_everything(self):
        text = make_case(3).describe()
        assert "seed 3" in text and "ranks" in text and "loss=" in text

    def test_slab_thinner_than_halo_rejected(self):
        with pytest.raises(ValueError, match="halo"):
            make_case(0, grid=4, ranks=4)


class TestRunCase:
    def test_green_case_is_bit_exact(self):
        [result] = soak([0], grid=20, steps=4)
        assert result.ok and result.bit_exact and result.error is None
        assert result.counts["recoveries"] == 1  # seed 0 draws a crash
        assert result.facts["replayed_rounds"] <= 1

    def test_fault_free_case(self):
        [result] = soak([0], schedules=())
        assert result.ok and result.counts["recoveries"] == 0

    def test_result_roundtrips_to_json(self):
        [result] = soak([1], grid=16, steps=4)
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["case"]["seed"] == 1
        assert doc["ok"] is True

    def test_soak_multiple_seeds(self):
        results = soak(range(3), grid=16, steps=4)
        assert len(results) == 3
        assert all(r.ok for r in results)
        # seeds are independent: same seed re-run reproduces exactly
        again = soak([0], grid=16, steps=4)[0]
        assert again.counts["recoveries"] == results[0].counts["recoveries"]
        assert again.counts["dropped"] == results[0].counts["dropped"]

    def test_faults_disarmed_after_case(self):
        soak([0], grid=16, steps=4)
        assert not FAULTS.armed()

    def test_soak_bit_exact_and_recovers(self):
        # any survivable schedule ends bit-identical to the fault-free
        # reference, replaying at most one blocked round per failure
        results = soak(range(6), ranks=4, grid=20, steps=6, dim_t=2)
        assert [r.case.seed for r in results] == list(range(6))
        for r in results:
            assert r.ok, f"seed {r.case.seed} failed: {r.error or 'bit mismatch'}"
            assert r.facts["replayed_rounds"] <= len(r.facts["failed_ranks"])
        # the seed range must actually exercise recovery
        assert sum(r.counts["recoveries"] for r in results) > 0


class TestWriteBundle:
    def test_bundle_contents(self, tmp_path):
        [result] = soak([2], grid=16, steps=4, trace=True)
        bundle = write_bundle(result, tmp_path)
        assert bundle == tmp_path / "seed-2"
        case_doc = json.loads((bundle / "case.json").read_text())
        assert case_doc["case"]["specs"] == result.case.specs
        faults = (bundle / "faults.txt").read_text().strip()
        assert faults == ",".join(result.case.specs)
        assert (bundle / "trace.json").exists()

    def test_bundle_without_trace(self, tmp_path):
        TRACE.disarm()
        [result] = soak([2], grid=16, steps=4)
        bundle = write_bundle(result, tmp_path)
        assert (bundle / "case.json").exists()
        assert not (bundle / "trace.json").exists()

    def test_schedules_constant_is_complete(self):
        assert set(DISTRIBUTED.schedules) == {
            "crash", "loss", "corruption", "delay"
        }

    def test_tracer_disarmed_after_traced_soak(self):
        results = soak([1, 2], grid=12, trace=True)
        assert not TRACE.armed
        assert all(r.trace is not None for r in results)

    def test_trace_only_in_bundle_of_traced_case(self, tmp_path):
        [traced] = soak([1], grid=12, trace=True)
        [untraced] = soak([2], grid=12)
        assert untraced.trace is None
        assert (write_bundle(traced, tmp_path) / "trace.json").exists()
        assert not (write_bundle(untraced, tmp_path) / "trace.json").exists()


#: small shapes (and their CLI flags) so every target soaks in about a second
SMALL = {
    "distributed": ({"grid": 16, "steps": 4}, ["--grid", "16", "--steps", "4"]),
    "sdc": ({"grid": 12, "steps": 4}, ["--grid", "12", "--steps", "4"]),
    "serve": (
        {"jobs": 6, "grid": 10, "steps": 4},
        ["--jobs", "6", "--grid", "10", "--steps", "4"],
    ),
}


def _raise_on_first_seed(monkeypatch, target, exc):
    real = type(target).run

    def run(self, case):
        if case.seed == 0:
            raise exc
        return real(self, case)

    monkeypatch.setattr(type(target), "run", run)


@pytest.mark.parametrize(
    "target", [DISTRIBUTED, SDC, SERVE], ids=lambda t: t.name
)
class TestEveryTarget:
    def test_same_seed_same_case(self, target):
        shape, _ = SMALL[target.name]
        assert target.make(7, **shape) == target.make(7, **shape)
        assert target.make(7, **shape).specs

    def test_unknown_schedule_rejected(self, target):
        with pytest.raises(ValueError, match="unknown chaos schedule"):
            target.make(0, ("gamma-rays",))

    @pytest.mark.parametrize("key", ["steps", "dim_t", "grid"])
    def test_unrunnable_shape_rejected(self, target, key):
        with pytest.raises(ValueError, match=key):
            target.make(0, **{key: 0})

    def test_result_roundtrips_and_faults_disarmed(self, target):
        shape, _ = SMALL[target.name]
        [result] = run_soak(target, [1], **shape)
        assert result.ok, result.error
        assert not FAULTS.armed()
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["case"]["seed"] == 1
        assert doc["ok"] is True
        assert list(doc["counts"]) == list(result.counts)

    def test_raising_case_is_red_with_bundle(self, target, monkeypatch,
                                             tmp_path):
        shape, _ = SMALL[target.name]
        _raise_on_first_seed(monkeypatch, target, IndexError("boom"))
        red, _green = run_soak(target, [0, 1], trace=True, **shape)
        assert isinstance(red, ChaosResult)
        assert not red.ok and red.error == "IndexError: boom"
        assert "IndexError" in red.facts["traceback"]
        assert not TRACE.armed
        bundle = write_bundle(red, tmp_path)
        assert bundle.name == f"{red.case.bundle_prefix}0"
        case_doc = json.loads((bundle / "case.json").read_text())
        assert case_doc["ok"] is False
        assert case_doc["case"]["specs"] == red.case.specs
        faults = (bundle / "faults.txt").read_text().strip()
        assert faults == ",".join(red.case.specs)

    def test_cli_raising_case_keeps_soaking(self, target, monkeypatch,
                                            tmp_path, capsys):
        _, flags = SMALL[target.name]
        _raise_on_first_seed(monkeypatch, target, IndexError("boom"))
        rc = main(["chaos", "--target", target.name, "--seeds", "2",
                   "--bundle", str(tmp_path), *flags])
        out = capsys.readouterr().out
        assert rc == 4
        assert "seed 0       : FAIL [" in out
        assert "! IndexError: boom" in out
        assert "seed 1       : ok (" in out
        assert "verdict      : 1/2 seed(s) FAILED" in out
        prefix = {"distributed": "seed-", "sdc": "sdc-seed-",
                  "serve": "serve-seed-"}[target.name]
        assert (tmp_path / f"{prefix}0" / "case.json").exists()
        assert not (tmp_path / f"{prefix}1").exists()

    def test_keyboard_interrupt_propagates(self, target, monkeypatch):
        shape, _ = SMALL[target.name]
        _raise_on_first_seed(monkeypatch, target, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            list(run_soak(target, [0, 1], trace=True, **shape))
        assert not TRACE.armed
