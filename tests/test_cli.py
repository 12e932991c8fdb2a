"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.kernel == "7pt"
        assert args.scheme == "3.5d"

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "bogus"])


class TestRunCommand:
    @pytest.mark.parametrize(
        "scheme", ["naive", "3d", "2.5d", "4d", "3.5d", "cache-oblivious"]
    )
    def test_all_schemes_verify(self, scheme, capsys):
        rc = main(
            ["run", "--kernel", "7pt", "--grid", "16", "--steps", "2",
             "--scheme", scheme, "--tile", "12", "--dim-t", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        if scheme != "naive":
            assert "bit-identical" in out

    def test_threaded_run(self, capsys):
        rc = main(
            ["run", "--grid", "16", "--steps", "2", "--tile", "12",
             "--threads", "2"]
        )
        assert rc == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_lbm_run(self, capsys):
        rc = main(
            ["run", "--kernel", "lbm", "--grid", "12", "--steps", "2",
             "--tile", "10", "--scheme", "3.5d"]
        )
        assert rc == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_no_check_skips_verification(self, capsys):
        rc = main(
            ["run", "--grid", "12", "--steps", "1", "--tile", "10", "--no-check"]
        )
        assert rc == 0
        assert "bit-identical" not in capsys.readouterr().out

    def test_traffic_reported(self, capsys):
        main(["run", "--grid", "16", "--steps", "2", "--tile", "12"])
        out = capsys.readouterr().out
        assert "bytes/update" in out
        assert "MB" in out


class TestTuneCommand:
    def test_paper_config_7pt(self, capsys):
        rc = main(["tune", "--kernel", "7pt", "--machine", "corei7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dim_T    : 2" in out
        assert "dim_X=Y  : 360" in out

    def test_lbm_gpu_infeasible(self, capsys):
        rc = main(
            ["tune", "--kernel", "lbm", "--machine", "gtx285",
             "--capacity", str(16 << 10)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "infeasible" in out

    def test_27pt_spatial_only(self, capsys):
        main(["tune", "--kernel", "27pt", "--machine", "corei7"])
        assert "2.5d" in capsys.readouterr().out


class TestReproduceCommand:
    @pytest.mark.parametrize(
        "artifact", ["table1", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "comparisons"]
    )
    def test_each_artifact(self, artifact, capsys):
        rc = main(["reproduce", artifact])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(out.splitlines()) > 3

    def test_all(self, capsys):
        rc = main(["reproduce"])
        out = capsys.readouterr().out
        assert rc == 0
        for marker in ("Table I", "Figure 4(a)", "Figure 5(b)", "Section VII-D"):
            assert marker in out


class TestInfoCommand:
    def test_info(self, capsys):
        rc = main(["info"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Core i7" in out
        assert "GTX 285" in out


class TestScheduleCommand:
    def test_renders_schedule(self, capsys):
        rc = main(["schedule", "--nz", "10", "--dim-t", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "t'=0 load" in out
        assert "t'=2 store" in out
        assert "validated" in out

    def test_sequential_variant(self, capsys):
        rc = main(["schedule", "--nz", "10", "--dim-t", "2", "--sequential"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sequential" in out
        assert "lag=1" in out

    def test_radius2(self, capsys):
        rc = main(["schedule", "--nz", "12", "--radius", "2", "--dim-t", "2"])
        assert rc == 0
        assert "lag=3" in capsys.readouterr().out


class TestResilienceExitCodes:
    """The run contract: 0 clean, 2 usage, 3 degraded-but-correct, 4 failed."""

    _base = ["run", "--grid", "12", "--steps", "2", "--tile", "10", "--dim-t", "2"]

    def test_unknown_backend_is_usage_error(self, capsys):
        rc = main(self._base + ["--backend", "bogus"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,env", [("fused-numba", None), (None, "numba")]
    )
    def test_retired_backend_names_are_unknown(
        self, flag, env, capsys, monkeypatch
    ):
        from repro.perf.backends import REPRO_BACKEND_ENV

        if env is None:
            monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
        else:
            monkeypatch.setenv(REPRO_BACKEND_ENV, env)
        rc = main(self._base + (["--backend", flag] if flag else []))
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown backend" in err
        assert "numpy, numpy-inplace, fused-numpy, codegen" in err

    def test_resume_requires_checkpoint(self, capsys):
        rc = main(self._base + ["--resume"])
        assert rc == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_degraded_backend_exits_3_but_verifies(self, capsys):
        from repro.resilience import DegradedExecutionWarning
        from repro.resilience.faultinject import FAULTS

        with FAULTS.injected("backend.bind=fused-numpy"):
            with pytest.warns(DegradedExecutionWarning):
                rc = main(self._base + ["--backend", "fused-numpy"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "bit-identical" in out
        assert "degraded" in out
        assert "backend used : numpy-inplace" in out

    @pytest.mark.parametrize("kernel", ["7pt", "lbm"])
    def test_default_backend_is_fused_and_clean(self, kernel, capsys, monkeypatch):
        import warnings

        from repro.perf.backends import REPRO_BACKEND_ENV
        from repro.resilience import DegradedExecutionWarning

        monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedExecutionWarning)
            rc = main(self._base + ["--kernel", kernel])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend      : fused-numpy" in out
        assert "bit-identical" in out

    def test_no_fallback_fails_with_4(self, capsys):
        from repro.resilience.faultinject import FAULTS

        with FAULTS.injected("backend.bind=fused-numpy"):
            rc = main(
                self._base + ["--backend", "fused-numpy", "--no-fallback"]
            )
        assert rc == 4
        assert "InjectedFault" in capsys.readouterr().err

    def test_health_failure_exits_4(self, capsys):
        from repro.resilience.faultinject import FAULTS

        with FAULTS.injected("grid.nan"):
            rc = main(list(self._base))
        assert rc == 4
        assert "HealthCheckError" in capsys.readouterr().err

    def test_nan_under_warn_policy_fails_the_check(self, capsys):
        from repro.resilience import HealthWarning
        from repro.resilience.faultinject import FAULTS

        with FAULTS.injected("grid.nan"):
            with pytest.warns(HealthWarning):
                rc = main(self._base + ["--health", "warn"])
        assert rc == 4
        assert "MISMATCH" in capsys.readouterr().out

    def test_repair_policy_recovers_with_3(self, capsys):
        from repro.resilience.faultinject import FAULTS

        with FAULTS.injected("grid.nan@1"):
            rc = main(
                ["run", "--grid", "12", "--steps", "6", "--tile", "10",
                 "--dim-t", "2", "--health", "repair"]
            )
        out = capsys.readouterr().out
        assert rc == 3
        assert "bit-identical" in out
        assert "repairs" in out

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        ck = str(tmp_path / "snap.npz")
        base = ["run", "--grid", "12", "--steps", "4", "--tile", "10",
                "--dim-t", "2", "--checkpoint", ck]
        assert main(base) == 0
        capsys.readouterr()
        rc = main(base + ["--resume"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resumed      : from step 2" in out
        assert "bit-identical" in out


class TestObservabilityCLI:
    """--trace/--metrics emission and the `repro trace` summary command."""

    # one whole-plane tile (kappa 1.0): rounds run the per-tile plan, so
    # the trace carries tile and z_iter spans (multi-tile rounds run
    # batched, see test_multi_tile_round_is_one_batched_span)
    _base = ["run", "--grid", "16", "--steps", "2", "--tile", "16",
             "--dim-t", "2"]

    def test_trace_and_metrics_files_validate(self, tmp_path, capsys):
        import json

        from repro.obs.schema import validate_file

        tr = str(tmp_path / "trace.json")
        mx = str(tmp_path / "metrics.json")
        rc = main(self._base + ["--trace", tr, "--metrics", mx])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bit-identical" in out
        assert "kappa measured" in out
        assert validate_file(tr) == []
        assert validate_file(mx) == []
        doc = json.loads(open(tr).read())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"sweep", "round", "z_iter", "tile"} <= names
        mdoc = json.loads(open(mx).read())
        assert mdoc["counters"]["traffic.bytes_read"] > 0
        assert mdoc["validation"]["kappa_ratio"] == pytest.approx(
            mdoc["validation"]["kappa_measured"]
            / mdoc["validation"]["kappa_predicted"])
        assert mdoc["run"]["kernel"] == "7pt"

    def test_multi_tile_round_is_one_batched_span(self, tmp_path, capsys):
        import json

        tr = str(tmp_path / "trace.json")
        # tile 12 keeps kappa (1.56) under dim_T: blocked, four tiles
        rc = main(["run", "--grid", "16", "--steps", "2", "--tile", "12",
                   "--dim-t", "2", "--trace", tr])
        assert rc == 0
        assert "bit-identical" in capsys.readouterr().out
        doc = json.loads(open(tr).read())
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names.count("batched_round") == 1
        assert "tile" not in names and "z_iter" not in names

    def test_threaded_metrics_report_barrier_wait(self, tmp_path, capsys):
        import json

        mx = str(tmp_path / "metrics.json")
        rc = main(self._base + ["--threads", "2", "--metrics", mx])
        out = capsys.readouterr().out
        assert rc == 0
        assert "barrier wait" in out
        mdoc = json.loads(open(mx).read())
        assert "barrier_wait_fraction" in mdoc.get("derived", {})
        assert len(mdoc["per_thread"]["traffic.bytes_read.per_thread"]) == 2
        assert "load_imbalance" in mdoc["validation"]

    def test_tracer_disarmed_after_run(self, tmp_path):
        from repro.obs import METRICS, TRACE

        tr = str(tmp_path / "trace.json")
        assert main(self._base + ["--trace", tr, "--metrics",
                                  str(tmp_path / "m.json")]) == 0
        assert not TRACE.armed
        assert not METRICS.armed

    def test_trace_summary_command(self, tmp_path, capsys):
        tr = str(tmp_path / "trace.json")
        main(self._base + ["--trace", tr])
        capsys.readouterr()
        rc = main(["trace", tr])
        out = capsys.readouterr().out
        assert rc == 0
        assert "z_iter" in out
        assert "self %" in out

    def test_trace_summary_missing_file(self, capsys):
        rc = main(["trace", "/nonexistent/trace.json"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestDistributedCLI:
    _base = ["run", "--grid", "16", "--steps", "2", "--tile", "8",
             "--dim-t", "2"]

    def test_ranks_run_verifies(self, capsys):
        rc = main(self._base + ["--ranks", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "distributed, 2 ranks" in out
        assert "comm         :" in out
        assert "bit-identical" in out

    def test_lossy_run_recovers(self, capsys):
        rc = main(["run", "--grid", "16", "--steps", "4", "--tile", "8",
                   "--dim-t", "2", "--ranks", "4", "--loss", "0.3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all recovered" in out
        assert "bit-identical" in out

    def test_loss_without_ranks_is_usage_error(self, capsys):
        rc = main(self._base + ["--loss", "0.05"])
        assert rc == 2
        assert "--ranks" in capsys.readouterr().err

    def test_ranks_metrics_include_comm(self, tmp_path, capsys):
        import json

        mx = str(tmp_path / "metrics.json")
        rc = main(self._base + ["--ranks", "2", "--metrics", mx])
        assert rc == 0
        mdoc = json.loads(open(mx).read())
        assert mdoc["counters"]["comm.messages"] > 0

    # --ranks runs through the same guarded round loop as a serial run, so
    # every run flag is honoured (or refused with exit 2)
    _ranks = ["run", "--grid", "16", "--steps", "4", "--tile", "16",
              "--dim-t", "2", "--ranks", "2"]

    def test_ranks_checkpoint_writes_the_file(self, tmp_path, capsys):
        ck = tmp_path / "snap.npz"
        assert main(self._ranks + ["--checkpoint", str(ck)]) == 0
        assert ck.exists()
        assert "bit-identical" in capsys.readouterr().out

    def test_ranks_resume_continues_from_the_checkpoint(self, tmp_path,
                                                        capsys):
        ck = str(tmp_path / "snap.npz")
        assert main(self._ranks + ["--checkpoint", ck]) == 0
        capsys.readouterr()
        rc = main(self._ranks + ["--checkpoint", ck, "--resume"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resumed      : from step 2" in out
        assert "bit-identical" in out

    def test_ranks_health_raise_fails_with_4(self, capsys):
        from repro.resilience.faultinject import FAULTS

        with FAULTS.injected("grid.nan"):
            rc = main(self._ranks + ["--health", "raise"])
        assert rc == 4
        assert "HealthCheckError" in capsys.readouterr().err

    def test_ranks_health_repair_recovers_with_3(self, capsys):
        from repro.resilience.faultinject import FAULTS

        with FAULTS.injected("grid.nan@1"):
            rc = main(self._ranks + ["--steps", "6", "--health", "repair"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "bit-identical" in out and "repairs" in out

    def test_ranks_retries_recover_a_failed_round(self, capsys):
        from repro.resilience.faultinject import FAULTS

        args = self._ranks + ["--backend", "numpy-inplace", "--no-fallback"]
        with FAULTS.injected("backend.compute=numpy-inplace:1"):
            assert main(args) == 4
        capsys.readouterr()
        with FAULTS.injected("backend.compute=numpy-inplace:1"):
            rc = main(args + ["--retries", "2"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "bit-identical" in out and "retries      : 1" in out

    def test_ranks_sigint_checkpoints_and_exits_4(self, tmp_path, capsys):
        import os
        import signal
        import threading

        ck = tmp_path / "ck.npz"
        timer = threading.Timer(1.0, lambda: os.kill(os.getpid(),
                                                     signal.SIGINT))
        timer.start()
        try:
            rc = main(["run", "--grid", "24", "--steps", "40000", "--dim-t",
                       "2", "--tile", "8", "--ranks", "2", "--checkpoint",
                       str(ck), "--no-check"])
        finally:
            timer.cancel()
        err = capsys.readouterr().err
        assert rc == 4
        assert "interrupted" in err and "final checkpoint written" in err
        assert ck.exists()

    def test_ranks_with_threads_is_usage_error(self, capsys):
        assert main(self._ranks + ["--threads", "2"]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_ranks_with_deadline_is_usage_error(self, capsys):
        # the SPMD deadline only bounds threaded sweeps; a rank run used
        # to ignore it silently
        assert main(self._ranks + ["--deadline", "1"]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_ranks_with_a_spatial_scheme_is_usage_error(self, capsys):
        assert main(self._ranks + ["--scheme", "3d"]) == 2
        assert "--scheme" in capsys.readouterr().err


class TestFaultsCommand:
    def test_lists_every_site(self, capsys):
        from repro.resilience import SITES

        rc = main(["faults", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for site in SITES:
            assert site in out
        assert "site[=arg][:times][@after]" in out
        assert "REPRO_FAULTS" in out

    def test_list_flag_optional(self, capsys):
        assert main(["faults"]) == 0
        assert "rank.crash" in capsys.readouterr().out


class TestChaosCommand:
    _base = ["chaos", "--ranks", "4", "--grid", "16", "--steps", "4",
             "--dim-t", "2"]

    def test_soak_all_green(self, capsys):
        rc = main(self._base + ["--seeds", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all 2 seed(s) bit-exact" in out
        assert "seed 0" in out and "seed 1" in out

    def test_schedule_subset(self, capsys):
        rc = main(self._base + ["--seeds", "1", "--schedules", "loss"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "schedules    : loss" in out

    def test_unknown_schedule_is_usage_error(self, capsys):
        rc = main(self._base + ["--schedules", "crash,meteor"])
        assert rc == 2
        assert "meteor" in capsys.readouterr().err

    def test_zero_seeds_is_usage_error(self, capsys):
        rc = main(self._base + ["--seeds", "0"])
        assert rc == 2

    def test_seed_base_shifts_seeds(self, capsys):
        rc = main(self._base + ["--seeds", "1", "--seed-base", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed 7" in out


class TestRankRecoveryCLI:
    _base = ["run", "--grid", "24", "--steps", "8", "--tile", "12",
             "--dim-t", "2", "--ranks", "4"]

    @pytest.fixture(autouse=True)
    def _disarm(self):
        from repro.resilience import FAULTS

        yield
        FAULTS.disarm()

    def _crashing(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "rank.crash=2@2")
        from repro.resilience import FAULTS

        FAULTS.load_env()

    def test_recovered_run_is_degraded_but_correct(self, monkeypatch, capsys):
        self._crashing(monkeypatch)
        rc = main(self._base)
        out = capsys.readouterr().out
        assert rc == 3
        assert "rank crashes : rank 2 at round 2" in out
        assert "recoveries   : 1" in out
        assert "bit-identical" in out

    def test_no_recovery_fails_with_4(self, monkeypatch, capsys):
        self._crashing(monkeypatch)
        rc = main(self._base + ["--no-recovery"])
        assert rc == 4
        assert "RankDeadError" in capsys.readouterr().err

    def test_recovery_spans_reach_trace_summary(
        self, monkeypatch, tmp_path, capsys
    ):
        self._crashing(monkeypatch)
        tr = str(tmp_path / "trace.json")
        rc = main(self._base + ["--trace", tr])
        assert rc == 3
        capsys.readouterr()
        assert main(["trace", tr]) == 0
        assert "rank_recovery" in capsys.readouterr().out

    def test_recovery_counters_in_metrics(self, monkeypatch, tmp_path, capsys):
        import json

        self._crashing(monkeypatch)
        mx = str(tmp_path / "metrics.json")
        rc = main(self._base + ["--metrics", mx])
        assert rc == 3
        counters = json.loads(open(mx).read())["counters"]
        assert counters["resilience.recoveries"] == 1
        assert counters["resilience.replayed_rounds"] == 1
        assert counters["resilience.buddy_bytes"] > 0

    def test_clean_run_stays_exit_0(self, capsys):
        rc = main(self._base)
        out = capsys.readouterr().out
        assert rc == 0
        assert "rank crashes" not in out
