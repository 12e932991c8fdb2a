#!/usr/bin/env python
"""Serve-daemon load generator: overload behavior, latency SLOs, zero loss.

Not a paper artifact — the paper runs one sweep at a time — but the
acceptance bar for the serving layer: a long-lived daemon fed *mixed*
traffic at ~2x its measured capacity must degrade gracefully, not
catastrophically.  Concretely, the gates asserted here:

* **Bounded behavior** — the queue never exceeds its hard capacity and
  every refused submit carries an explicit reason (no crash, no silent
  drop, no unbounded growth).
* **Latency SLO** — the p99 acceptance-to-completion latency of jobs that
  *completed* stays under ``base_service_time x (queue_cap / workers) x 3``
  (the worst honest queueing delay, with margin): accepted work is
  served promptly *because* the excess was shed at the door.
* **Explicit shedding** — at 2x capacity the daemon must actually refuse
  or displace some jobs; a run with zero rejections means the overload
  never materialized and the measurement is void.
* **Exit-code contract** — every terminal job maps to the 0/2/3/4
  verdict table, failures carry reasons.
* **Warm plans** — the plan cache (bound backends keyed by job
  signature) serves at least half of the mixed traffic from cache.
* **Zero-loss drain** — the final drain leaves no accepted job
  non-terminal.
* **Ledger reconciliation** — the per-tenant usage ledger's sums
  (site updates, bytes, cpu time, outcome counts) equal the daemon's
  global counters *exactly* after the drain: billing agrees with
  metering on a 3-tenant mixed-traffic run.

The whole exchange runs over the real unix-socket wire path.  Arm
``serve.*`` fault sites via ``$REPRO_FAULTS`` to smoke the same gates
under injected accept-drops/stalls/deadline storms (the CI serve job
does).  Results land in ``BENCH_serve.json`` for artifact upload.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # 30 s soak
    PYTHONPATH=src python benchmarks/bench_serve.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import tempfile
import time

import numpy as np

from repro.perf import format_table
from repro.resilience import FAULTS
from repro.serve import JobServer, JobSpec, ServeClient, ServeCore
from repro.serve.protocol import read_message, write_message

#: the SLO multiplier: p99 <= base_svc * (queue_cap / workers) * SLO_FACTOR
SLO_FACTOR = 3.0
#: absolute floor added to the gate so millisecond-scale jobs don't flap
SLO_MARGIN_S = 0.5


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _submit_retry(client: ServeClient, doc: dict, attempts: int = 8) -> dict:
    """Submit, honoring the accept-drop contract: 'dropped' is retryable."""
    reply = client.submit(doc)
    while not reply.get("ok") and reply.get("error") == "dropped" and attempts:
        attempts -= 1
        reply = client.submit(doc)
    return reply


def _spec(rng, grid: int, steps: int, deadline_frac: float) -> JobSpec:
    """One draw of the mixed-traffic job distribution."""
    return JobSpec(
        kernel="7pt",
        grid=grid,
        steps=steps,
        dim_t=2,
        tile=8,
        seed=int(rng.integers(0, 4)),
        priority=int(rng.integers(0, 3)),
        tenant=f"tenant-{int(rng.integers(0, 3))}",
        deadline_s=(30.0 if rng.random() < deadline_frac else None),
        verify=bool(rng.random() < 0.5),
    )


def run_load(args) -> dict:
    state_dir = tempfile.mkdtemp(prefix="repro-bench-serve-")
    sock = os.path.join(state_dir, "bench.sock")
    core = ServeCore(
        state_dir,
        workers=args.workers,
        queue_cap=args.queue_cap,
        rate=10_000.0,  # the bench overloads the queue, not the bucket
        burst=10_000.0,
        tenant_quota=10_000,
        fsync=False,
    )
    core.start()
    server = JobServer(core, sock)
    server.start()
    client = ServeClient(sock)
    rng = np.random.default_rng(args.seed)

    # -- measure the base service time (warm the plan cache first) -----
    # calibrate on jobs that *complete*, using the server-stamped execution
    # time (started -> finished) so neither queueing delay nor injected
    # faults (stalls, deadline storms eating early probes) skew the base;
    # the min over several probes is the clean-path service time
    exec_times: list[float] = []
    for attempt in range(16):
        probe = _submit_retry(
            client,
            JobSpec(grid=args.grid, steps=args.steps, dim_t=2, tile=8,
                    seed=attempt % 4).to_dict(),
        )
        assert probe.get("ok"), probe
        job = client.wait(probe["id"], timeout=60.0)["job"]
        if job["code"] in (0, 3) and job.get("started_s") is not None:
            exec_times.append(job["finished_s"] - job["started_s"])
            if len(exec_times) >= 4:
                break
    assert exec_times, "no probe job completed; cannot calibrate"
    # capacity uses the *cheapest* service time (aggressive overload);
    # the latency gate uses the *mean* (honest queueing bound)
    base_svc = max(min(exec_times), 1e-4)
    mean_svc = max(sum(exec_times) / len(exec_times), base_svc)
    capacity = args.workers / base_svc  # jobs/s the workers can clear

    # -- mixed traffic at 2x capacity ----------------------------------
    # Submits share one connection (the protocol answers any number of
    # requests per connection) and the queue depth is read in-process: a
    # connection and a stats round trip per submit cap the generator
    # below 2x capacity once a job takes only a few milliseconds.
    target_rate = 2.0 * capacity
    interval = 1.0 / target_rate
    accepted: list[str] = []
    refusals: list[str] = []
    missing_reason = 0
    depth_samples: list[int] = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.connect(sock)
        wire = conn.makefile("rwb")
        t_start = time.perf_counter()
        next_submit = t_start
        while time.perf_counter() - t_start < args.duration:
            now = time.perf_counter()
            if now < next_submit:
                time.sleep(min(next_submit - now, interval))
                continue
            next_submit += interval
            job = _spec(rng, args.grid, args.steps, args.deadline_frac)
            write_message(wire, {"op": "submit", "job": job.to_dict()})
            reply = read_message(wire)
            if reply.get("ok"):
                accepted.append(reply["id"])
            else:
                refusals.append(reply.get("reason", ""))
                if not reply.get("reason"):
                    missing_reason += 1
            depth_samples.append(len(core.queue))
        elapsed_load = time.perf_counter() - t_start
        wire.close()

    # -- wait out the backlog, then drain ------------------------------
    wait_deadline = time.monotonic() + max(60.0, 10 * args.duration)
    while time.monotonic() < wait_deadline:
        jobs = {j["id"]: j for j in client.jobs()["jobs"]}
        if all(jobs[i]["code"] is not None for i in accepted if i in jobs):
            break
        time.sleep(0.05)
    client.drain()
    t_drain = time.monotonic()
    while core.counters and time.monotonic() - t_drain < 60.0:
        if all(r.terminal for r in core.jobs()):
            break
        time.sleep(0.05)
    server.stop()

    jobs = {r.id: r for r in core.jobs()}
    stats = core.stats()
    completed = [r for r in jobs.values() if r.status in ("done", "degraded")]
    shed = [r for r in jobs.values() if r.status == "shed"]
    failed = [r for r in jobs.values() if r.status in ("failed", "cancelled")]
    non_terminal = [r for r in jobs.values() if not r.terminal]
    latencies = [r.latency_s for r in completed if r.latency_s is not None]
    contract_violations = [
        r.id for r in jobs.values()
        if r.terminal and (
            r.code not in (0, 2, 3, 4)
            or (r.status in ("failed", "shed", "cancelled") and not r.reason)
            or (r.status == "degraded" and not r.degradations)
        )
    ]
    # worst honest wait: drain a full queue plus the job in service, each
    # slot costing the mean service time, with SLO_FACTOR margin for
    # preemption/degradation churn
    slo_s = (
        mean_svc * (args.queue_cap / args.workers + 1) * SLO_FACTOR
        + SLO_MARGIN_S
    )
    return {
        "workers": args.workers,
        "queue_cap": args.queue_cap,
        "grid": args.grid,
        "steps": args.steps,
        "duration_s": elapsed_load,
        "base_service_s": base_svc,
        "mean_service_s": mean_svc,
        "capacity_jobs_per_s": capacity,
        "offered_jobs_per_s": target_rate,
        "submitted": len(accepted) + len(refusals),
        "accepted": len(accepted),
        "refused": len(refusals),
        "refusal_reasons": sorted({r.split(" (")[0] for r in refusals if r}),
        "missing_reason": missing_reason,
        "completed": len(completed),
        "degraded": sum(1 for r in completed if r.status == "degraded"),
        "shed_after_accept": len(shed),
        "failed": len(failed),
        "non_terminal_after_drain": len(non_terminal),
        "contract_violations": contract_violations,
        "jobs_per_s": len(completed) / elapsed_load if elapsed_load else 0.0,
        "shed_rate": (len(refusals) + len(shed))
        / max(1, len(accepted) + len(refusals)),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p99_s": percentile(latencies, 99),
        "slo_p99_s": slo_s,
        "max_queue_depth": max(depth_samples, default=0),
        "plan_cache": stats["plan_cache"],
        "counters": stats["counters"],
        # streaming sketches maintained by the daemon itself (merged
        # losslessly across the worker pool)
        "queue_wait_p99_s": (stats.get("latency", {})
                             .get("serve.queue_wait_s", {}).get("p99", 0.0)),
        "service_p99_s": (stats.get("latency", {})
                          .get("serve.service_s", {}).get("p99", 0.0)),
        "tenants": stats.get("tenants", {}),
        "ledger_totals": stats.get("ledger_totals", {}),
        "ledger_mismatches": core.ledger_reconciliation(),
        "faults_armed": os.environ.get("REPRO_FAULTS", ""),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="5 s load phase (CI smoke mode)")
    ap.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                    help="load-phase length (default 30; 5 with --quick)")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--queue-cap", type=int, default=8)
    ap.add_argument("--grid", type=int, default=12)
    ap.add_argument("--steps", type=int, default=6)
    ap.add_argument("--deadline-frac", type=float, default=0.2,
                    help="fraction of jobs carrying a deadline (default 0.2)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="write the machine-readable report to PATH")
    args = ap.parse_args(argv)
    if args.duration is None:
        args.duration = 5.0 if args.quick else 30.0
    FAULTS.load_env()  # this script is its process's entry point

    res = run_load(args)

    print(f"\n== serve load  {res['workers']} workers  queue "
          f"{res['queue_cap']}  {res['grid']}^3 x {res['steps']} steps  "
          f"{res['duration_s']:.1f} s at 2x capacity ==")
    print(format_table(
        ["metric", "value"],
        [
            ("base service time", f"{res['base_service_s'] * 1e3:.1f} ms"),
            ("capacity", f"{res['capacity_jobs_per_s']:.1f} jobs/s"),
            ("offered", f"{res['offered_jobs_per_s']:.1f} jobs/s"),
            ("accepted / refused",
             f"{res['accepted']} / {res['refused']}"),
            ("completed (degraded)",
             f"{res['completed']} ({res['degraded']})"),
            ("shed after accept / failed",
             f"{res['shed_after_accept']} / {res['failed']}"),
            ("throughput", f"{res['jobs_per_s']:.1f} jobs/s"),
            ("shed rate", f"{100 * res['shed_rate']:.1f} %"),
            ("latency p50 / p99",
             f"{res['latency_p50_s'] * 1e3:.0f} / "
             f"{res['latency_p99_s'] * 1e3:.0f} ms"),
            ("p99 SLO gate", f"{res['slo_p99_s'] * 1e3:.0f} ms"),
            ("max queue depth",
             f"{res['max_queue_depth']} of {res['queue_cap']}"),
            ("plan cache hit rate",
             f"{100 * res['plan_cache']['hit_rate']:.1f} %"),
            ("faults armed", res["faults_armed"] or "-"),
        ],
    ))
    if res["refusal_reasons"]:
        print("refusal reasons seen:")
        for reason in res["refusal_reasons"]:
            print(f"  - {reason}")

    failures = []
    if res["latency_p99_s"] > res["slo_p99_s"]:
        failures.append(
            f"p99 {res['latency_p99_s']:.3f}s exceeds the SLO gate "
            f"{res['slo_p99_s']:.3f}s"
        )
    if res["refused"] + res["shed_after_accept"] == 0:
        failures.append("no shedding at 2x capacity: overload never bit")
    if res["missing_reason"]:
        failures.append(
            f"{res['missing_reason']} refusal(s) carried no reason"
        )
    if res["non_terminal_after_drain"]:
        failures.append(
            f"{res['non_terminal_after_drain']} accepted job(s) lost by drain"
        )
    if res["contract_violations"]:
        failures.append(
            f"exit-code contract violated: {res['contract_violations'][:5]}"
        )
    if res["max_queue_depth"] > res["queue_cap"]:
        failures.append(
            f"queue depth {res['max_queue_depth']} exceeded the hard cap"
        )
    if res["plan_cache"]["hit_rate"] < 0.5:
        failures.append(
            f"plan-cache hit rate {res['plan_cache']['hit_rate']:.2f} < 0.5"
        )
    if res["ledger_mismatches"]:
        failures.append(
            "ledger does not reconcile with the global counters: "
            + "; ".join(res["ledger_mismatches"])
        )
    if len(res["tenants"]) < 3:
        failures.append(
            f"mixed traffic only reached {len(res['tenants'])} tenant(s); "
            "the per-tenant accounting gate needs all 3"
        )
    res["failures"] = failures
    res["ok"] = not failures

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {args.json}")

    if failures:
        print("\nFAILED gates:")
        for f in failures:
            print(f"  ! {f}")
        return 1
    print("\nall serve gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
