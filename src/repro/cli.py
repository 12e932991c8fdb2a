"""Command-line interface: run, tune, and reproduce from the shell.

Subcommands
-----------
``repro run``        execute a kernel with a chosen blocking scheme, verify
                     against the naive reference, and report traffic.
``repro tune``       print the Section VI decision for a kernel/machine.
``repro reproduce``  regenerate paper artifacts (tables/figures) as text.
``repro schedule``   render and validate the Figure-3a step schedule.
``repro trace``      summarize a chrome-trace JSON written by ``run --trace``.
``repro faults``     list the deterministic fault-injection sites and grammar.
``repro chaos``      seeded chaos soak: randomized fault schedules against the
                     distributed driver (``--target distributed``, default) or
                     the serve daemon (``--target serve``), asserting
                     bit-exactness (exit 4 on a red seed, with an optional
                     repro bundle).
``repro serve``      run the long-lived sweep daemon on a unix socket:
                     admission control, deadlines, graceful degradation,
                     journaled crash-safe lifecycle.
``repro submit``     submit one job to a running daemon (optionally wait for
                     its verdict; the exit code mirrors the job's 0/2/3/4).
                     ``--trace`` mints a trace_id and writes one merged
                     client+daemon Perfetto trace of the job's whole life.
``repro jobs``       list a running daemon's jobs or print its stats
                     (``--watch`` refreshes, ``--prom`` dumps Prometheus
                     text exposition).
``repro top``        live queue/tenant/SLO view of a running daemon.
``repro bench``      ``bench diff`` compares BENCH_*.json results against
                     committed baselines with noise-aware thresholds
                     (exit 4 on regression; the CI perf gate).
``repro info``       version, machine table, package inventory.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro.runspec import KERNELS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="3.5D blocking for stencil computations (Nguyen et al., SC'10)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a kernel with a blocking scheme")
    run.add_argument("--kernel", choices=KERNELS, default="7pt")
    run.add_argument(
        "--scheme",
        choices=["naive", "3d", "2.5d", "4d", "3.5d", "cache-oblivious"],
        default="3.5d",
    )
    run.add_argument("--grid", type=int, default=48, help="cubic grid side")
    run.add_argument("--steps", type=int, default=4)
    run.add_argument("--dim-t", type=int, default=2)
    run.add_argument("--tile", type=int, default=32, help="dim_X = dim_Y")
    run.add_argument("--precision", choices=["sp", "dp"], default="sp")
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--no-check", action="store_true", help="skip the naive cross-check"
    )
    run.add_argument(
        "--backend",
        default=None,
        help="kernel backend (default: $REPRO_BACKEND or 'fused-numpy'; "
        "'numpy' is the reference); 'codegen' compiles whole sweeps to "
        "cached parallel kernels; "
        "see 'repro info' for the registry",
    )
    run.add_argument(
        "--tune",
        choices=["wallclock"],
        default=None,
        help="auto-pick dim_T/tile before running (3.5d scheme only): "
        "'wallclock' times real sweeps and caches the winner on disk",
    )
    run.add_argument(
        "--no-fallback",
        action="store_true",
        help="bind the requested backend directly; a failure aborts instead "
        "of degrading down the fallback chain",
    )
    run.add_argument(
        "--health",
        choices=["off", "raise", "warn", "repair"],
        default="raise",
        help="per-round NaN/Inf policy (default 'raise'); 'repair' rolls "
        "the round back to its input and re-executes it",
    )
    run.add_argument(
        "--verify",
        choices=["off", "spot", "seal", "full"],
        default="off",
        help="silent-data-corruption integrity tier (default off): 'spot' "
        "CRC-seals planes per round plus sampled re-execution, 'seal' adds "
        "digest-enforced checkpoints and the cross-rank halo handshake, "
        "'full' re-derives every plane from the last trusted state; "
        "detected corruption is healed surgically (cone replay) and the "
        "run exits 3, unhealable corruption exits 4",
    )
    run.add_argument(
        "--retries", type=int, default=0,
        help="retries per round for rounds that raise (default 0)",
    )
    run.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="snapshot the grid to PATH every --checkpoint-every rounds",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="rounds between snapshots (default 1)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="restart from the --checkpoint snapshot if one matches this run",
    )
    run.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="watchdog deadline per threaded z-sweep (--threads > 1); a "
        "stalled worker raises with per-thread stack dumps",
    )
    run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record sweep/round/z_iter/tile spans and write a chrome-trace "
        "JSON to PATH (open with Perfetto or chrome://tracing)",
    )
    run.add_argument(
        "--metrics", nargs="?", const="metrics.json", default=None,
        metavar="PATH",
        help="collect counters (bytes, barrier wait, comm, resilience) and "
        "write a metrics JSON (default metrics.json), including the "
        "measured-vs-model kappa validation for the 3.5d scheme",
    )
    run.add_argument(
        "--ranks", type=int, default=1, metavar="N",
        help="simulate a distributed slab run over N ranks (SimComm halo "
        "exchange; schemes 3.5d and naive)",
    )
    run.add_argument(
        "--loss", type=float, default=0.0,
        help="per-message drop probability of the simulated transport "
        "(--ranks > 1); recovered via ack/retry and surfaced in the summary",
    )
    run.add_argument(
        "--corruption", type=float, default=0.0,
        help="per-message corruption probability of the simulated transport "
        "(--ranks > 1)",
    )
    run.add_argument(
        "--no-recovery", action="store_true",
        help="disable rank-failure tolerance (--ranks > 1): no buddy "
        "checkpoints, a dead rank aborts the run instead of recovering",
    )
    run.add_argument(
        "--overlap", action=argparse.BooleanOptionalAction, default=True,
        help="hide halo-exchange latency behind the interior sweep "
        "(post -> interior -> wait -> boundary; --ranks > 1, default on); "
        "--no-overlap restores exchange-then-compute",
    )
    run.add_argument(
        "--comm-latency", type=float, default=0.0, metavar="SECONDS",
        help="simulated per-message latency of the distributed transport "
        "(--ranks > 1); arms the hidden-vs-exposed comm accounting",
    )
    run.add_argument(
        "--comm-bandwidth", type=float, default=None, metavar="BYTES_PER_S",
        help="simulated transport bandwidth (--ranks > 1, default infinite)",
    )

    tune = sub.add_parser("tune", help="Section VI parameter selection")
    tune.add_argument("--kernel", choices=KERNELS, default="7pt")
    tune.add_argument("--machine", choices=["corei7", "gtx285"], default="corei7")
    tune.add_argument("--precision", choices=["sp", "dp"], default="sp")
    tune.add_argument("--capacity", type=int, default=None, help="override bytes")
    tune.add_argument(
        "--mode",
        choices=["analytic", "wallclock"],
        default="analytic",
        help="'analytic' applies the paper's closed forms; 'wallclock' times "
        "real sweeps on this host and persists the winner in the tuning cache",
    )
    tune.add_argument(
        "--backend",
        default=None,
        help="backend for wallclock probes (default 'fused-numpy')",
    )
    tune.add_argument(
        "--probe-grid", type=int, default=32,
        help="cubic probe side for wallclock LBM tuning (default 32)",
    )
    tune.add_argument(
        "--refresh", action="store_true",
        help="ignore cached wallclock winners and re-measure",
    )
    tune.add_argument(
        "--prune", action="store_true",
        help="LRU-prune the on-disk tuning cache down to the entry cap "
        "($REPRO_TUNE_CACHE_MAX_ENTRIES or --cache-max) and exit",
    )
    tune.add_argument(
        "--cache-max", type=int, default=None, metavar="N",
        help="entry cap used by --prune (default: the env var, else 256)",
    )

    rep = sub.add_parser("reproduce", help="regenerate paper artifacts")
    rep.add_argument(
        "artifact",
        nargs="?",
        default="all",
        choices=["all", "table1", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "comparisons"],
    )

    sched = sub.add_parser("schedule", help="print the Figure-3a step schedule")
    sched.add_argument("--nz", type=int, default=12)
    sched.add_argument("--dim-t", type=int, default=3)
    sched.add_argument("--radius", type=int, default=1)
    sched.add_argument("--sequential", action="store_true",
                       help="use the 2R+1-plane sequential variant")
    sched.add_argument("--iterations", type=int, default=None,
                       help="truncate the printout")

    trace = sub.add_parser(
        "trace", help="summarize a chrome-trace JSON written by run --trace"
    )
    trace.add_argument("file", help="path to a repro.trace/v1 JSON file")

    faults = sub.add_parser(
        "faults", help="list the deterministic fault-injection sites"
    )
    faults.add_argument(
        "--list", action="store_true", dest="list_sites",
        help="enumerate every fault site with the spec grammar (default)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded chaos soak (distributed driver or serve daemon)",
        description="Run randomized-but-reproducible fault schedules against "
        "the distributed 3.5D driver (rank crashes, message loss, corruption, "
        "delayed acks) or the serve daemon (accept drops, worker stalls, "
        "journal tears, deadline storms, hard kills) and assert results are "
        "bit-identical to a fault-free reference. Exit 0 when every seed "
        "passes, 4 when any seed fails.",
    )
    chaos.add_argument(
        "--target", choices=list(_CHAOS_TARGETS),
        default="distributed",
        help="what to soak (default: the distributed driver); 'sdc' soaks "
        "the silent-data-corruption defense with seeded memory.flip / "
        "disk.bitrot schedules",
    )
    chaos.add_argument("--seeds", type=int, default=3, metavar="N",
                       help="number of seeds to soak (default 3)")
    chaos.add_argument("--seed-base", type=int, default=0, metavar="S",
                       help="first seed; seeds are S..S+N-1 (default 0)")
    chaos.add_argument("--ranks", type=int, default=4)
    chaos.add_argument("--grid", type=int, default=None,
                       help="cubic grid side (default: 24 distributed, "
                       "20 sdc, 12 serve)")
    chaos.add_argument("--steps", type=int, default=6)
    chaos.add_argument("--dim-t", type=int, default=2)
    chaos.add_argument("--jobs", type=int, default=12, metavar="N",
                       help="jobs per seed (--target serve, default 12)")
    chaos.add_argument("--tier", choices=["spot", "seal", "full"],
                       default="full",
                       help="integrity tier to soak (--target sdc, "
                       "default full)")
    chaos.add_argument(
        "--schedules", default=None,
        help="comma-separated fault families to draw from (default: all "
        "families of the chosen target)",
    )
    chaos.add_argument(
        "--bundle", default=None, metavar="DIR",
        help="write a repro bundle (fault specs, case JSON, recovery trace) "
        "for every failing seed under DIR",
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-lived sweep daemon on a unix socket",
        description="Accept stencil jobs over a unix socket with token-bucket "
        "admission control, per-tenant quotas, a bounded priority queue, "
        "per-job deadlines, and a journaled crash-safe lifecycle. SIGTERM "
        "drains with zero accepted-job loss; restart after a hard kill "
        "recovers from the journal plus per-job checkpoints.",
    )
    serve.add_argument("--socket", default="repro-serve.sock", metavar="PATH",
                       help="unix socket path (default repro-serve.sock)")
    serve.add_argument("--state-dir", default=".repro-serve", metavar="DIR",
                       help="journal + checkpoint directory "
                       "(default .repro-serve)")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--rate", type=float, default=100.0,
                       help="sustained accepts/second (token bucket)")
    serve.add_argument("--burst", type=float, default=200.0,
                       help="token-bucket burst capacity")
    serve.add_argument("--queue-cap", type=int, default=16,
                       help="bounded queue capacity (default 16)")
    serve.add_argument("--tenant-quota", type=int, default=8,
                       help="max inflight jobs per tenant (default 8)")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-job deadline when the job sets none")
    serve.add_argument("--no-fsync", action="store_true",
                       help="skip journal fsyncs (tests only; weakens the "
                       "zero-loss guarantee)")

    submit = sub.add_parser(
        "submit", help="submit one job to a running serve daemon"
    )
    submit.add_argument("--socket", default="repro-serve.sock", metavar="PATH")
    submit.add_argument("--kernel", choices=KERNELS, default="7pt")
    submit.add_argument("--grid", type=int, default=16)
    submit.add_argument("--steps", type=int, default=4)
    submit.add_argument("--dim-t", type=int, default=2)
    submit.add_argument("--tile", type=int, default=8)
    submit.add_argument("--precision", choices=["sp", "dp"], default="sp")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--backend", default=None)
    submit.add_argument("--priority", type=int, default=1,
                        help="0 = highest; larger numbers shed first")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS")
    submit.add_argument("--no-verify", action="store_true",
                        help="run at --integrity alone; by default a job "
                        "is verified at least at the full tier")
    submit.add_argument("--integrity",
                        choices=["off", "spot", "seal", "full"],
                        default="off",
                        help="silent-data-corruption integrity tier for the "
                        "job (default off); verification cpu is metered to "
                        "the tenant and the tier is shed under amber "
                        "overload")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job is terminal; the exit code "
                        "mirrors the job's verdict (0/2/3/4)")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="--wait poll budget in seconds (default 300)")
    submit.add_argument("--trace", default=None, metavar="PATH",
                        help="mint a trace_id, collect the job's client- and "
                        "daemon-side spans, and write one merged Perfetto "
                        "trace to PATH (requires --wait)")

    jobs = sub.add_parser(
        "jobs", help="list a running serve daemon's jobs or stats"
    )
    jobs.add_argument("--socket", default="repro-serve.sock", metavar="PATH")
    jobs.add_argument("--stats", action="store_true",
                      help="print daemon stats instead of the job table")
    jobs.add_argument("--drain", action="store_true",
                      help="ask the daemon to drain and shut down")
    jobs.add_argument("--watch", action="store_true",
                      help="refresh the queue/tenant/SLO table until "
                      "interrupted")
    jobs.add_argument("--interval", type=float, default=2.0, metavar="S",
                      help="--watch refresh period in seconds (default 2)")
    jobs.add_argument("--iterations", type=int, default=0, metavar="N",
                      help="stop --watch after N refreshes (0 = forever)")
    jobs.add_argument("--prom", default=None, metavar="FILE",
                      help="write the daemon metrics as Prometheus text "
                      "exposition to FILE ('-' for stdout)")

    top = sub.add_parser(
        "top", help="live queue/tenant/SLO view of a running serve daemon"
    )
    top.add_argument("--socket", default="repro-serve.sock", metavar="PATH")
    top.add_argument("--interval", type=float, default=2.0, metavar="S")
    top.add_argument("--iterations", type=int, default=0, metavar="N",
                     help="stop after N refreshes (0 = forever)")

    bench = sub.add_parser(
        "bench", help="benchmark result tooling (regression diffing)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bdiff = bench_sub.add_parser(
        "diff",
        help="diff BENCH_*.json against committed baselines",
        description="Compare benchmark result files against the baselines "
        "committed under benchmarks/baselines/ using noise-aware per-metric "
        "thresholds (relative tolerance plus an absolute floor). Exit 0 "
        "clean, 2 when a baseline is missing, 4 on a regression.",
    )
    bdiff.add_argument("files", nargs="+", metavar="BENCH_FILE",
                       help="benchmark result JSON file(s) to judge")
    bdiff.add_argument("--baselines", default="benchmarks/baselines",
                       metavar="DIR",
                       help="baseline directory (default benchmarks/baselines)")
    bdiff.add_argument("--update", action="store_true",
                       help="refresh (or create) the baselines from the "
                       "current files instead of judging them")
    bdiff.add_argument("--json", default=None, metavar="OUT",
                       help="also write the verdicts as JSON to OUT")

    sub.add_parser("info", help="version and machine inventory")
    return parser


def _arm_obs(args) -> bool:
    """Arm tracer/metrics per the run flags; returns True if either armed."""
    from repro.obs import METRICS, TRACE

    if args.trace is not None:
        TRACE.arm()
    if args.metrics is not None:
        METRICS.arm()
    return args.trace is not None or args.metrics is not None


def _disarm_obs() -> None:
    from repro.obs import METRICS, TRACE

    TRACE.disarm()
    METRICS.disarm()


def _emit_obs_outputs(args, validation=None, run_info=None) -> None:
    """Write --trace / --metrics files and print their summary lines."""
    from repro.obs import METRICS
    from repro.obs.export import write_chrome_trace, write_metrics

    if args.metrics is not None:
        if validation is not None:
            for line in validation.lines():
                print(line)
        frac = METRICS.barrier_wait_fraction()
        if frac is not None:
            print(f"barrier wait : {100 * frac:.1f}% of worker time")
        write_metrics(args.metrics, validation=validation, run=run_info)
        print(f"metrics      : wrote {args.metrics}")
    if args.trace is not None:
        doc = write_chrome_trace(args.trace)
        n_spans = sum(1 for ev in doc["traceEvents"] if ev.get("ph") == "X")
        print(f"trace        : wrote {args.trace} ({n_spans} spans)")


def _metrics_validation(args, spec, ref_kernel, field, traffic, elapsed):
    """The measured-vs-model join for a 3.5d run, or None."""
    if args.metrics is None or spec.scheme != "3.5d":
        return None
    from repro.obs import METRICS
    from repro.obs.validate import validate_35d

    per_thread = None
    slots = METRICS.to_dict()["per_thread"]
    read = slots.get("traffic.bytes_read.per_thread")
    written = slots.get("traffic.bytes_written.per_thread")
    if read and written:
        per_thread = [r + w for r, w in zip(read, written)]
    executor = "parallel35d" if spec.threads > 1 else "blocking35d"
    return validate_35d(
        ref_kernel, field, spec.steps, traffic,
        dim_t=spec.dim_t, tile_y=spec.tile, tile_x=spec.tile,
        executor=executor, per_thread_bytes=per_thread, elapsed_s=elapsed,
    )


def _cmd_run(args) -> int:
    """Exit codes: 0 clean, 2 usage error, 3 degraded-but-correct, 4 failed."""
    import dataclasses
    import signal
    import threading
    import time

    from repro.core import TrafficStats, run_naive
    from repro.perf.backends import BackendUnavailableError
    from repro.resilience import ResilienceError, SweepInterruptedError
    from repro.resilience.checkpoint import data_digest
    from repro.runspec import RunSpec, bind, build, make_field, make_kernel

    spec = RunSpec(
        kernel=args.kernel, scheme=args.scheme, grid=args.grid,
        steps=args.steps, dim_t=args.dim_t, tile=args.tile,
        precision=args.precision, seed=args.seed, backend=args.backend,
        no_fallback=args.no_fallback, threads=args.threads,
        spmd_deadline_s=args.deadline, ranks=args.ranks,
        overlap=args.overlap, recover=not args.no_recovery, loss=args.loss,
        corruption=args.corruption, comm_latency_s=args.comm_latency,
        comm_bandwidth=args.comm_bandwidth, integrity=args.verify,
        health=args.health, retries=args.retries, checkpoint=args.checkpoint,
        checkpoint_every=args.checkpoint_every, resume=args.resume,
    )
    reason = spec.validate()
    if reason is not None:
        print(f"error: {reason}", file=sys.stderr)
        return 2
    ref_kernel, field = make_kernel(spec), make_field(spec)
    try:
        bound = bind(spec, field, ref_kernel)
    except (ValueError, BackendUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResilienceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    tuned = None
    if args.tune == "wallclock":
        if spec.scheme != "3.5d":
            print("note: --tune wallclock only applies to --scheme 3.5d; ignored",
                  file=sys.stderr)
        else:
            from repro.core.autotune import autotune_wallclock

            tuned = autotune_wallclock(
                ref_kernel, dtype=spec.dtype, backend=bound.used,
                probe_field=field, repeats=2,
            )
            spec = dataclasses.replace(spec, dim_t=tuned.best.dim_t,
                                       tile=tuned.best.tile)

    # SIGINT/SIGTERM request a *graceful* stop: the sweep halts at the next
    # round boundary, writes a final checkpoint (when --checkpoint is set),
    # flushes --trace/--metrics exporters, and exits 4
    stop = threading.Event()
    got_signal: list[int] = []

    def _on_signal(signum, frame):
        got_signal.append(signum)
        stop.set()

    old_handlers: dict = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            old_handlers[signum] = signal.signal(signum, _on_signal)
        except ValueError:  # not the main thread (embedded use)
            pass

    guard = build(spec, field=field, bound=bound, stop=stop)
    report = guard.report
    traffic = TrafficStats()
    _arm_obs(args)
    try:
        t0 = time.perf_counter()
        try:
            out = guard.run(field, spec.steps, traffic, resume=spec.resume)
        except SweepInterruptedError as exc:
            name = (signal.Signals(got_signal[0]).name if got_signal
                    else "stop request")
            ck = ("final checkpoint written; re-run with --resume to continue"
                  if exc.checkpointed else "no --checkpoint, progress lost")
            print(f"interrupted  : {name} after {exc.step}/{spec.steps} "
                  f"steps; {ck}", file=sys.stderr)
            _emit_obs_outputs(args)
            return 4
        except ResilienceError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 4
        elapsed = time.perf_counter() - t0

        if args.metrics is not None:
            from repro.obs import METRICS

            METRICS.merge_traffic(traffic)
        n_updates = spec.grid**3 * spec.steps
        print(f"kernel       : {spec.kernel} ({spec.precision.upper()})")
        print(f"scheme       : {spec.scheme}" + (
            f" (distributed, {spec.ranks} ranks)" if spec.ranks > 1 else ""))
        print(f"backend      : {report.used_backend}")
        if tuned is not None:
            origin = ("cache hit, 0 probe runs" if tuned.from_cache
                      else f"measured, {tuned.probe_runs} probe runs")
            print(f"autotuned    : dim_T={tuned.best.dim_t} tile={tuned.best.tile} "
                  f"({origin})")
        print(f"grid         : {spec.grid}^3 x {spec.steps} steps")
        print(f"wall time    : {elapsed:.3f} s "
              f"({n_updates / elapsed / 1e6:.1f} MU/s on the NumPy substrate)")
        print(f"ext. read    : {traffic.bytes_read / 1e6:.1f} MB")
        print(f"ext. write   : {traffic.bytes_written / 1e6:.1f} MB")
        print(f"bytes/update : {traffic.bytes_per_update():.2f}")
        degraded = report.degraded
        if spec.ranks > 1:
            _print_comm(args, guard.executor)
            # a run that survived rank failures is degraded-but-correct
            degraded = degraded or guard.executor.recovery.degraded
        if not args.no_check:
            # the cross-check always uses the reference (numpy) kernel
            ref = run_naive(ref_kernel, field, spec.steps)
            if np.array_equal(out.data, ref.data):
                print("check        : bit-identical to the naive reference")
            else:
                print("check        : MISMATCH against the naive reference")
                return 4
        print(f"result sha   : {data_digest(out.data)}")
        for line in report.lines():
            print(line)
        validation = (_metrics_validation(args, spec, ref_kernel, field,
                                          traffic, elapsed)
                      if spec.ranks == 1 else None)
        _emit_obs_outputs(args, validation, run_info={
            "kernel": spec.kernel, "scheme": spec.scheme,
            "backend": report.used_backend, "grid": spec.grid,
            "steps": spec.steps, "dim_t": spec.dim_t, "tile": spec.tile,
            "threads": spec.threads, "ranks": spec.ranks,
            "precision": spec.precision, "elapsed_s": elapsed,
        })
        return 3 if degraded else 0
    finally:
        _disarm_obs()
        for signum, handler in old_handlers.items():
            signal.signal(signum, handler)


def _print_comm(args, runner) -> None:
    """Transport and rank-recovery summary of a distributed run."""
    total = runner.comm.total_stats()
    print(f"comm         : {total.messages_sent} messages, "
          f"{total.bytes_sent / 1e6:.1f} MB payload")
    print(f"comm faults  : {total.dropped} dropped, "
          f"{total.corrupted} corrupted, {total.retries} retries"
          + (" (all recovered)" if total.retries else ""))
    frac = total.overlap_fraction()
    if frac is not None:
        mode = "overlap" if args.overlap else "no overlap"
        print(f"comm overlap : {frac:.1%} of simulated transfer time "
              f"hidden behind compute ({mode}, "
              f"{total.exposed_ns / 1e6:.2f} ms exposed)")
    for line in runner.recovery.lines():
        print(line)


def _cmd_tune_wallclock(args, machine) -> int:
    from repro.core.autotune import TuningCache, autotune_wallclock
    from repro.perf.backends import BackendUnavailableError
    from repro.runspec import RunSpec, make_field, make_kernel

    spec = RunSpec(kernel=args.kernel, grid=args.probe_grid,
                   precision=args.precision)
    backend = args.backend or "fused-numpy"
    try:
        res = autotune_wallclock(
            make_kernel(spec),
            machine,
            spec.dtype,
            probe_field=make_field(spec) if spec.kernel == "lbm" else None,
            capacity=args.capacity,
            backend=backend,
            refresh=args.refresh,
        )
    except (ValueError, BackendUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    best = res.best
    print(f"machine  : {machine.name} (capacity gate only)")
    print(f"kernel   : {args.kernel} ({args.precision.upper()})")
    print(f"backend  : {backend}")
    print("mode     : wallclock (measured on this host)")
    print(f"dim_T    : {best.dim_t}")
    print(f"dim_X=Y  : {best.tile}")
    print(f"median   : {best.seconds_per_round:.3e} s/round "
          f"({best.seconds_per_update:.3e} s/update)")
    print(f"buffer   : {best.buffer_bytes / 1024:.0f} KB of "
          f"{(args.capacity or machine.blocking_capacity) / 1024:.0f} KB"
          f"{'' if best.fits_capacity else ' (exceeds capacity)'}")
    origin = ("cache hit, 0 probe runs" if res.from_cache
              else f"measured, {res.probe_runs} probe runs")
    print(f"cache    : {origin} ({TuningCache().path})")
    return 0


def _cmd_tune(args) -> int:
    from repro.core import tune
    from repro.machine import CORE_I7, GTX_285
    from repro.runspec import RunSpec, make_kernel

    if args.prune:
        from repro.core.autotune import TuningCache
        from repro.resilience.quarantine import corrupt_keep, gc_corrupt

        cache = TuningCache(max_entries=args.cache_max)
        removed, remaining = cache.prune()
        print(f"tuning cache : {cache.path}")
        print(f"pruned       : {removed} entr{'y' if removed == 1 else 'ies'} "
              f"removed, {remaining} remaining (cap {cache.max_entries})")
        gone = gc_corrupt(cache.path.parent)
        print(f"quarantine   : {len(gone)} .corrupt file(s) collected "
              f"(keep {corrupt_keep()})")
        return 0
    machine = CORE_I7 if args.machine == "corei7" else GTX_285
    if args.mode == "wallclock":
        return _cmd_tune_wallclock(args, machine)
    spec = RunSpec(kernel=args.kernel, grid=16, precision=args.precision)
    result = tune(
        make_kernel(spec),
        machine,
        spec.dtype,
        capacity=args.capacity,
        derated=machine.is_gpu,
    )
    print(f"machine  : {machine.name}")
    print(f"kernel   : {args.kernel} ({args.precision.upper()})")
    print(f"gamma    : {result.gamma:.3f} bytes/op")
    print(f"Gamma    : {result.big_gamma:.3f} bytes/op")
    print(f"scheme   : {result.scheme}")
    if result.params is not None and result.params.feasible:
        p = result.params
        print(f"dim_T    : {p.dim_t}")
        print(f"dim_X=Y  : {p.dim_x}")
        print(f"kappa    : {p.kappa:.3f}")
        print(f"buffer   : {p.buffer_bytes / 1024:.0f} KB of "
              f"{(args.capacity or machine.blocking_capacity) / 1024:.0f} KB")
    print(f"rationale: {result.rationale}")
    return 0


def _cmd_reproduce(artifact: str) -> int:
    from repro.perf import (
        breakdown_7pt_gpu,
        breakdown_lbm_cpu,
        format_comparisons,
        format_stages,
        predict_7pt_cpu,
        predict_7pt_gpu,
        predict_lbm_cpu,
        section_viid_comparisons,
    )
    from repro.perf.figures import breakdown_chart, grouped_bar_chart

    def fig4(name, predict, schemes, grids=(64, 256, 512)):
        groups = {}
        for p in ("sp", "dp"):
            for g in grids:
                groups[f"{p.upper()} {g}^3"] = {
                    s: predict(s, p, g).mupdates_per_s for s in schemes
                }
        print(grouped_bar_chart(groups, unit=" MU/s", title=name))

    did = False
    if artifact in ("all", "table1"):
        from repro.machine import CORE_I7, GTX_285
        from repro.perf import format_table

        rows = [
            (
                m.name,
                f"{m.peak_bandwidth / 1e9:.0f}",
                f"{m.peak_ops_sp / 1e9:.0f}",
                f"{m.peak_ops_dp / 1e9:.0f}",
                f"{m.bytes_per_op('sp'):.2f}",
                f"{m.bytes_per_op('dp'):.2f}",
            )
            for m in (CORE_I7, GTX_285)
        ]
        print(format_table(
            ["platform", "BW GB/s", "SP Gops", "DP Gops", "B/op SP", "B/op DP"],
            rows, "Table I",
        ))
        did = True
    if artifact in ("all", "fig4a"):
        print()
        fig4("Figure 4(a): LBM on Core i7", predict_lbm_cpu, ("none", "temporal", "35d"))
        did = True
    if artifact in ("all", "fig4b"):
        print()
        fig4("Figure 4(b): 7pt on Core i7", predict_7pt_cpu, ("none", "spatial", "35d"))
        did = True
    if artifact in ("all", "fig4c"):
        print()
        groups = {
            p.upper(): {
                s: predict_7pt_gpu(s, p).mupdates_per_s
                for s in ("none", "spatial", "35d")
            }
            for p in ("sp", "dp")
        }
        print(grouped_bar_chart(groups, unit=" MU/s", title="Figure 4(c): 7pt on GTX 285"))
        did = True
    if artifact in ("all", "fig5a"):
        print()
        print(breakdown_chart(breakdown_lbm_cpu(), title="Figure 5(a): LBM CPU breakdown"))
        did = True
    if artifact in ("all", "fig5b"):
        print()
        print(breakdown_chart(breakdown_7pt_gpu(), title="Figure 5(b): GPU 7pt breakdown"))
        did = True
    if artifact in ("all", "comparisons"):
        print()
        print(format_comparisons(section_viid_comparisons(), "Section VII-D"))
        did = True
    if artifact == "all":
        print()
        print(format_stages(breakdown_lbm_cpu(), "Figure 5(a) stage table"))
    return 0 if did else 1


#: fault-site prefix -> human subsystem heading for ``repro faults``
_FAULT_SUBSYSTEMS = {
    "backend": "backends (bind/compute failures)",
    "worker": "runtime (threaded sweep workers)",
    "comm": "distributed transport (drop/corrupt/delay)",
    "rank": "distributed ranks (crash/recovery)",
    "cache": "tuning cache (crash-safety)",
    "grid": "grid health (NaN/Inf poisoning)",
    "serve": "serve daemon (admission/journal/deadlines)",
    "memory": "silent data corruption (bit flips in grid/ring memory)",
    "disk": "durable artifacts (checkpoint payload bitrot)",
}


def _cmd_faults() -> int:
    from repro.resilience import REPRO_FAULTS_ENV, SITES

    # the grammar once, up top; then sites grouped by subsystem prefix
    print("fault spec grammar: site[=arg][:times][@after]")
    print("  arg    restrict to probes whose detail matches (backend name,")
    print("         rank id, journal event, ...)")
    print("  times  probes that fire before the spec exhausts (default 1,")
    print("         '*' = forever)")
    print("  after  matching probes skipped before the first firing")
    print(f"arm via ${REPRO_FAULTS_ENV} (comma-separated specs) or "
          "FAULTS.injected(...)")
    width = max(len(site) for site in SITES)
    groups: dict[str, list[str]] = {}
    for site in sorted(SITES):
        groups.setdefault(site.split(".", 1)[0], []).append(site)
    for prefix in sorted(groups):
        print()
        print(f"{_FAULT_SUBSYSTEMS.get(prefix, prefix)}:")
        for site in groups[prefix]:
            print(f"  {site:<{width}}  {SITES[site]}")
    print()
    print("examples:")
    print("  rank.crash=2@1   kill rank 2 after it survives 1 round")
    print("  comm.drop:3      drop the next 3 transported messages")
    print("  serve.journal=done   tear the next terminal journal record")
    print("  backend.compute=fused-numpy:*   every fused-numpy compute raises")
    print("  memory.flip=0:2:3    flip 3 bits in rank 0's grid after round 2")
    print("  memory.flip=ring     flip a bit in a 3.5D ring-buffer plane")
    print("  disk.bitrot@1        rot the 2nd checkpoint payload written")
    return 0


#: ``repro chaos --target`` name -> (module, target); imported on use, so
#: a daemon started through :func:`main` never loads a soak harness
_CHAOS_TARGETS = {
    "distributed": ("repro.resilience.chaos", "DISTRIBUTED"),
    "serve": ("repro.serve.chaos", "SERVE"),
    "sdc": ("repro.resilience.sdc", "SDC"),
}


def _cmd_chaos(args) -> int:
    """Exit codes: 0 all seeds green, 2 usage error, 4 any seed red."""
    import importlib

    from repro.resilience.chaos import run_soak, write_bundle

    module, attr = _CHAOS_TARGETS[args.target]
    target = getattr(importlib.import_module(module), attr)
    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return 2
    schedules = tuple(
        s.strip()
        for s in (args.schedules or ",".join(target.schedules)).split(",")
        if s.strip()
    )
    shape = {
        key: getattr(args, key)
        for key in target.defaults
        if getattr(args, key, None) is not None
    }
    seeds = range(args.seed_base, args.seed_base + args.seeds)
    try:
        results = run_soak(target, seeds, schedules=schedules,
                           trace=args.bundle is not None, **shape)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    headline = target.headline.format(**{**target.defaults, **shape})
    print(f"{target.title:<13}: {args.seeds} seed(s), {headline}")
    print(f"schedules    : {', '.join(schedules)}")
    failures = 0
    for result in results:
        case = result.case
        status = "ok" if result.ok else "FAIL"
        detail = ", ".join(
            value if isinstance(value, str) else f"{value} {label}"
            for label, value in result.counts.items()
        )
        detail = f" ({detail})" if detail else ""
        print(f"seed {case.seed:<4}    : {status}{detail} [{case.describe()}]")
        if result.ok:
            continue
        failures += 1
        if result.error:
            print(f"             ! {result.error}")
        elif not result.bit_exact:
            print("             ! result differs from the fault-free "
                  "reference")
        if args.bundle:
            bundle = write_bundle(result, args.bundle)
            print(f"             ! repro bundle: {bundle}")
    if failures:
        print(f"verdict      : {failures}/{args.seeds} seed(s) FAILED")
        return 4
    print(f"verdict      : all {args.seeds} seed(s) {target.verdict}")
    return 0


def _cmd_serve(args) -> int:
    """Foreground daemon; SIGTERM/SIGINT drain (exit 0 clean, 4 dirty)."""
    import signal
    import threading

    from repro.serve import JobServer, ServeCore

    core = ServeCore(
        args.state_dir,
        workers=args.workers,
        rate=args.rate,
        burst=args.burst,
        queue_cap=args.queue_cap,
        tenant_quota=args.tenant_quota,
        default_deadline_s=args.deadline,
        fsync=not args.no_fsync,
    )
    core.start()
    server = JobServer(core, args.socket)
    server.start()
    replay = core.replay_info
    print(f"serve        : listening on {args.socket}")
    print(f"state        : {args.state_dir} "
          f"({replay.get('records', 0)} journal records replayed, "
          f"{core.counters['recovered']} job(s) recovered)")
    print(f"admission    : {args.rate:g} jobs/s (burst {args.burst:g}), "
          f"queue {args.queue_cap}, {args.tenant_quota}/tenant, "
          f"{args.workers} worker(s)")

    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _on_signal)
        except ValueError:
            pass
    stop.wait()
    print("serve        : draining (no new jobs; finishing accepted work)")
    server.stop()
    clean = core.drain()
    c = core.counters
    print(f"serve        : drained; {c['accepted']} accepted, "
          f"{c['completed']} completed, {c['degraded']} degraded, "
          f"{c['failed']} failed, {c['shed']} shed, {c['rejected']} rejected")
    if not clean:
        print("serve        : DRAIN INCOMPLETE — accepted jobs left "
              "non-terminal (they will recover on restart)", file=sys.stderr)
        return 4
    return 0


def _cmd_submit(args) -> int:
    """Exit codes mirror the job verdict under --wait; else 0/2."""
    import json
    import time

    from repro.serve import JobSpec, ServeClient, ServeUnavailable

    if args.trace and not args.wait:
        print("error: --trace requires --wait (the daemon-side spans only "
              "exist once the job ran)", file=sys.stderr)
        return 2
    trace_id = ""
    client_spans: list[dict] = []
    if args.trace:
        from repro.obs.serving import mint_trace_id

        trace_id = mint_trace_id()
    spec = JobSpec(
        kernel=args.kernel, grid=args.grid, steps=args.steps,
        dim_t=args.dim_t, tile=args.tile, precision=args.precision,
        seed=args.seed, backend=args.backend, priority=args.priority,
        tenant=args.tenant, deadline_s=args.deadline,
        verify=not args.no_verify, integrity=args.integrity,
        trace_id=trace_id,
    )
    client = ServeClient(args.socket)
    try:
        submit_t0 = time.time_ns()
        reply = client.submit(spec.to_dict())
        if trace_id:
            client_spans.append({
                "name": "job_submit", "start_ns": submit_t0,
                "dur_ns": time.time_ns() - submit_t0, "trace_id": trace_id,
                "attrs": {"tenant": spec.tenant, "ok": bool(reply.get("ok"))},
            })
        if not reply.get("ok"):
            print(f"rejected     : {reply.get('reason', reply.get('error'))}",
                  file=sys.stderr)
            return 2
        jid = reply["id"]
        print(f"accepted     : {jid} (priority {spec.priority}, "
              f"tenant {spec.tenant})")
        if trace_id:
            print(f"trace id     : {trace_id}")
        if reply.get("shed"):
            print(f"displaced    : {reply['shed']} was shed to make room")
        if not args.wait:
            return 0
        reply = client.wait(jid, timeout=args.timeout)
        if trace_id:
            respond_t0 = time.time_ns()
            daemon_spans = client.spans(jid)
            client_spans.append({
                "name": "job_respond", "start_ns": respond_t0,
                "dur_ns": time.time_ns() - respond_t0, "trace_id": trace_id,
                "attrs": {"id": jid,
                          "status": reply.get("job", {}).get("status", "")},
            })
            from repro.obs.serving import merge_job_trace

            doc = merge_job_trace(client_spans, daemon_spans,
                                  trace_id=trace_id)
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            n = sum(1 for ev in doc["traceEvents"] if ev.get("ph") == "X")
            print(f"trace        : wrote {args.trace} ({n} spans, "
                  f"trace_id {trace_id})")
    except ServeUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    job = reply.get("job", {})
    print(f"status       : {job.get('status')} "
          f"(backend {job.get('backend_used') or '?'}, "
          f"{job.get('done_steps')} steps)")
    if job.get("sha256"):
        print(f"result sha   : {job['sha256']}")
    for d in job.get("degradations") or []:
        print(f"degraded     : {d}")
    if job.get("reason"):
        print(f"reason       : {job['reason']}")
    code = job.get("code")
    return int(code) if code is not None else 4


def _top_lines(stats: dict) -> list[str]:
    """The queue/tenant/SLO table ``repro top`` and ``jobs --watch`` render."""
    c = stats.get("counters", {})
    lines = [
        f"serve: up {stats.get('uptime_s', 0.0):.0f}s  "
        f"queue {stats.get('queue_depth', 0)}/{stats.get('queue_cap', 0)}  "
        f"busy {stats.get('busy_workers', 0)}/{stats.get('workers', 0)}  "
        f"load {stats.get('overload', '?')}"
        + ("  DRAINING" if stats.get("draining") else ""),
        f"jobs : {c.get('accepted', 0)} accepted  "
        f"{c.get('completed', 0)} done  {c.get('degraded', 0)} degraded  "
        f"{c.get('failed', 0)} failed  {c.get('shed', 0)} shed  "
        f"{c.get('rejected', 0)} rejected  "
        f"{c.get('preemptions', 0)} preempted",
    ]
    latency = stats.get("latency") or {}
    slo = []
    for key, label in (("serve.queue_wait_s", "queue-wait"),
                       ("serve.service_s", "service"),
                       ("serve.latency_s", "latency")):
        q = latency.get(key)
        if q:
            slo.append(f"{label} p50 {q['p50'] * 1e3:.1f}ms "
                       f"p99 {q['p99'] * 1e3:.1f}ms")
    if slo:
        lines.append("slo  : " + "  |  ".join(slo))
    tenants = stats.get("tenants") or {}
    if tenants:
        lines.append(f"{'tenant':<12} {'updates':>12} {'cpu ms':>9} "
                     f"{'done':>5} {'degr':>5} {'fail':>5} {'shed':>5} "
                     f"{'rej':>5}")
        for tenant, u in tenants.items():
            lines.append(
                f"{tenant:<12} {u.get('site_updates', 0):>12} "
                f"{u.get('cpu_ns', 0) / 1e6:>9.1f} "
                f"{u.get('completed', 0):>5} {u.get('degraded', 0):>5} "
                f"{u.get('failed', 0):>5} {u.get('shed', 0):>5} "
                f"{u.get('rejected', 0):>5}"
            )
    mismatches = stats.get("ledger_mismatches") or []
    if mismatches:
        lines.append(f"LEDGER MISMATCH: {'; '.join(mismatches)}")
    return lines


def _watch_stats(socket_path: str, interval: float, iterations: int) -> int:
    """Refreshing stats view shared by ``repro top`` and ``jobs --watch``."""
    import time

    from repro.serve import ServeClient, ServeUnavailable

    client = ServeClient(socket_path)
    shown = 0
    try:
        while True:
            try:
                stats = client.stats().get("stats", {})
            except ServeUnavailable as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 4
            if shown and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            for line in _top_lines(stats):
                print(line)
            shown += 1
            if iterations and shown >= iterations:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def _cmd_top(args) -> int:
    return _watch_stats(args.socket, args.interval, args.iterations)


def _cmd_jobs(args) -> int:
    import json

    from repro.serve import ServeClient, ServeUnavailable

    client = ServeClient(args.socket)
    try:
        if args.drain:
            client.drain()
            print("drain requested; the daemon exits once accepted work "
                  "finishes")
            return 0
        if args.prom is not None:
            reply = client.stats(prom=True)
            text = reply.get("prom", "")
            if args.prom == "-":
                print(text, end="")
            else:
                with open(args.prom, "w", encoding="utf-8") as fh:
                    fh.write(text)
                print(f"prometheus   : wrote {args.prom} "
                      f"({len(text.splitlines())} lines)")
            return 0
        if args.watch:
            return _watch_stats(args.socket, args.interval, args.iterations)
        if args.stats:
            print(json.dumps(client.stats().get("stats", {}), indent=2))
            return 0
        reply = client.jobs()
    except ServeUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    jobs = reply.get("jobs", [])
    if not jobs:
        print("no jobs")
        return 0
    print(f"{'id':<9} {'status':<10} {'code':<5} {'prio':<5} {'tenant':<10} "
          f"{'steps':<11} reason")
    for job in jobs:
        spec = job.get("spec", {})
        code = job.get("code")
        steps = f"{job.get('done_steps', 0)}/{spec.get('steps', '?')}"
        print(f"{job.get('id', ''):<9} {job.get('status', ''):<10} "
              f"{'' if code is None else code:<5} "
              f"{spec.get('priority', ''):<5} {spec.get('tenant', ''):<10} "
              f"{steps:<11} {job.get('reason', '')}")
    return 0


def _cmd_bench_diff(args) -> int:
    """Exit codes: 0 clean, 2 missing baseline/file, 4 regression."""
    import json

    from repro.obs.regress import diff_bench_file

    worst = 0
    all_verdicts = []
    for path in args.files:
        code, lines, verdicts = diff_bench_file(
            path, args.baselines, update=args.update
        )
        for line in lines:
            print(line)
        all_verdicts.extend(v.to_dict() for v in verdicts)
        worst = max(worst, code)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"verdicts": all_verdicts, "exit": worst}, fh, indent=2)
            fh.write("\n")
    if worst == 4:
        print("verdict      : REGRESSION (see FAIL lines above)")
    elif worst == 0 and not args.update:
        print("verdict      : no regressions beyond noise thresholds")
    return worst


def _cmd_info() -> int:
    import repro
    from repro.machine import CORE_I7, GTX_285
    from repro.perf.backends import (
        backend_availability,
        backend_names,
        default_backend_name,
        get_backend,
    )

    print(f"repro {repro.__version__} — 3.5D blocking (Nguyen et al., SC 2010)")
    print("machines:")
    for m in (CORE_I7, GTX_285):
        print(
            f"  {m.name}: {m.peak_bandwidth / 1e9:.0f} GB/s, "
            f"{m.peak_ops_sp / 1e9:.0f}/{m.peak_ops_dp / 1e9:.0f} Gops SP/DP, "
            f"blocking capacity {m.blocking_capacity >> 10} KB"
        )
    default = default_backend_name()
    print("backends:")
    for name in backend_names():
        b = get_backend(name)
        ok, reason = backend_availability(name)
        status = "" if ok else f" [unavailable: {reason}]"
        marker = " (default)" if name == default else ""
        print(f"  {name}{marker}: {b.description}{status}")
    print("packages: core stencils lbm machine gpu runtime distributed perf")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # honor $REPRO_FAULTS (documented by `repro faults`): chaos smokes arm
    # fault sites from the environment without touching the command line.
    # This is the one place a CLI process arms it.
    from repro.resilience import FAULTS

    FAULTS.load_env()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "reproduce":
        return _cmd_reproduce(args.artifact)
    if args.command == "schedule":
        from repro.core import build_schedule
        from repro.core.schedule import schedule_to_text

        schedule = build_schedule(
            args.nz, args.radius, args.dim_t, concurrent=not args.sequential
        )
        schedule.validate()
        variant = "sequential (2R+1 planes)" if args.sequential else "concurrent (2R+2 planes)"
        print(f"3.5D schedule: nz={args.nz}, R={args.radius}, dim_T={args.dim_t}, "
              f"{variant}, lag={schedule.lag}")
        print(schedule_to_text(schedule, max_iterations=args.iterations))
        print("(schedule validated: dependencies and ring liveness hold)")
        return 0
    if args.command == "trace":
        import json

        from repro.obs.export import summarize_trace

        try:
            with open(args.file, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for line in summarize_trace(doc):
            print(line)
        return 0
    if args.command == "faults":
        return _cmd_faults()
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "bench":
        return _cmd_bench_diff(args)
    if args.command == "info":
        return _cmd_info()
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
