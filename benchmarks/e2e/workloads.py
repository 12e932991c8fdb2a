"""The benchmark's three workloads; ``run.py`` runs each in a fresh process.

    python workloads.py --workload NAME --seed N --seconds S --t0 T
                        [--setup-only] [--trace-dir DIR]

The last stdout line is one JSON document: end-to-end values with their
sample counts, attempted/failed counts, host facts and, when traced, the
per-layer metrics and waterfall.

Set-up is timed from ``--t0`` (the parent's CLOCK_MONOTONIC reading just
before it spawned this process) to the first timed request, so it covers
interpreter start and imports.  Nothing is checked during the timed phase;
afterwards every output is compared with the sha256 of the naive oracle
run on the same input.  Repro modules are imported inside the workload
functions, after the tracer (if any) has wrapped them.

The bounded timing is the 5th percentile of the per-request latency, and
throughput is one request's useful work over that latency.  A shared host
runs the same request at speeds up to 1.7x apart, switching within a
second and sometimes staying slow for a minute; the mean and the median
follow the share of slow time and moved by 12-24 % between runs, while the
fast end of the distribution moved by about 5 % (README.md).  The median,
p90 and mean-rate throughput are reported beside it, unbounded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / ".bench_out"

#: everything that shapes each workload; recorded in the result JSON
PARAMS = {
    "sweep-serial": {
        "kernel": "7pt", "grid": 128, "precision": "sp", "dim_t": 4,
        "tile": 64, "steps": 4, "callers": 1,
        "executor": "GuardedSweep(Blocking35D)",
    },
    "halo-4rank": {
        "kernel": "7pt", "grid": 128, "precision": "sp", "ranks": 4,
        "dim_t": 4, "tile": 128, "steps": 8, "overlap": True,
        "latency_s": 2e-4, "bandwidth_bytes_s": 2e9, "callers": 1,
    },
    "serve-small": {
        "workers": 2, "queue_cap": 64, "fsync": True, "tenants": 3,
        "seeds": 4, "open_rate_per_s": 25.0, "open_share": 1 / 3,
        "cycles": 3, "poll_ms": 5.0, "slo_ms": 100.0,
        "job": {"kernel": "7pt", "grid": 12, "steps": 6, "dim_t": 2,
                "tile": 8, "verify": False, "integrity": "off"},
    },
}

#: the bounded latency is this quantile of the per-request latencies
FAST_QUANTILE = 0.05

#: daemon counters of jobs that reached a terminal status
_TERMINAL = ("completed", "degraded", "failed", "cancelled", "shed")


def sha256(data) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(data)).hexdigest()


def _vmhwm_mib(status_path: str) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(status_path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in {status_path}")


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            if (int((idx / "level").read_text()) == level
                    and (idx / "type").read_text().strip() != "Instruction"):
                return (idx / "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def host_facts() -> dict:
    """What a number depends on besides the code: compare runs only when
    these match."""
    import platform

    import numpy as np
    from repro.perf.backends import available_backends

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backends": available_backends(),
    }


def _request(tracer, rid):
    return tracer.request(rid) if tracer is not None else contextlib.nullcontext()


def _ms_quantiles(seconds: list[float]) -> tuple[float, float]:
    return (spans.quantile(seconds, 0.5) * 1e3,
            spans.quantile(seconds, 0.9) * 1e3)


def _timings(lat: list[float], useful: int) -> tuple[dict, dict]:
    """End-to-end values (and sample counts) of one request kind: ``lat``
    are its latencies in seconds, ``useful`` the site updates of each."""
    fast = spans.quantile(lat, FAST_QUANTILE)
    p50, p90 = _ms_quantiles(lat)
    values = {"mupd_per_s": useful / fast / 1e6,
              "latency_p5_ms": fast * 1e3,
              "latency_p50_ms": p50, "latency_p90_ms": p90,
              "mean_mupd_per_s": useful / statistics.fmean(lat) / 1e6}
    return values, dict.fromkeys(values, len(lat))


# ----------------------------------------------------------------------
# sweeps: one caller, closed loop, one input
# ----------------------------------------------------------------------

def _sweep_call(name: str, kernel, p: dict):
    """``call(field, traffic) -> Field3D`` for the sweep workloads."""
    from repro.core.blocking35d import Blocking35D
    from repro.distributed.runner import DistributedJacobi
    from repro.resilience.watchdog import GuardedSweep

    steps = p["steps"]
    if name == "halo-4rank":
        dj = DistributedJacobi(
            kernel, n_ranks=p["ranks"], dim_t=p["dim_t"], tile_y=p["tile"],
            tile_x=p["tile"], overlap=p["overlap"], latency_s=p["latency_s"],
            bandwidth_bytes_s=p["bandwidth_bytes_s"],
        )
        return lambda field, traffic: dj.run(field, steps, traffic)[0]
    guarded = GuardedSweep(Blocking35D(kernel, p["dim_t"], p["tile"],
                                       p["tile"]))
    return lambda field, traffic: guarded.run(field, steps, traffic)


def run_sweep(name, seed, seconds, t0, tracer, setup_only, trace_dir):
    import numpy as np
    from repro.core.naive import run_naive
    from repro.core.traffic import TrafficStats
    from repro.perf.backends import bound_rung
    from repro.resilience.fallback import bind_with_fallback
    from repro.stencils.grid import Field3D, interior_points
    from repro.stencils.seven_point import SevenPointStencil

    p = PARAMS[name]
    kernel = SevenPointStencil()
    field = Field3D.random((p["grid"],) * 3, dtype=np.float32, seed=seed)
    bound = bind_with_fallback(kernel, None)
    call = _sweep_call(name, bound.kernel, p)
    call(field, None)  # warm-up: ring buffers, tile plans, schedules
    setup_s = time.monotonic() - t0
    if setup_only:
        return {"setup_s": setup_s}

    lat, digests = [], []
    end = time.monotonic() + seconds
    while time.monotonic() < end or not lat:
        traffic = TrafficStats() if tracer is not None else None
        with _request(tracer, len(lat)):
            a = time.perf_counter()
            out = call(field, traffic)
            b = time.perf_counter()
        lat.append(b - a)
        digests.append(sha256(out.data))  # outside the timed interval
    rss = _vmhwm_mib("/proc/self/status")
    if tracer is not None:
        tracer.enabled = False

    ref = sha256(run_naive(kernel, field, p["steps"]).data)
    mismatches = sum(d != ref for d in digests)
    values, n = _timings(
        lat, interior_points(field.shape, kernel.radius) * p["steps"])
    result = {
        "setup_s": setup_s,
        "values": {**values, "peak_rss_mib": rss},
        "n": {**n, "peak_rss_mib": 1},
        "attempted": len(lat), "failed": mismatches, "mismatches": mismatches,
        "oracle_inputs": 1, "rung": [bound_rung(bound.kernel)],
        "valid": True, "invalid_reasons": [],
        "extra": {"calls_per_s": len(lat) / sum(lat)},
    }
    if tracer is not None:
        result["layers"] = _layers(name, trace_dir, [tracer.summary()],
                                   tracer.chrome_events(os.getpid(), name),
                                   {}, ())
    return result


# ----------------------------------------------------------------------
# serve: the real daemon in its own process
# ----------------------------------------------------------------------

class Daemon:
    """``repro serve`` launched through daemon.py; :meth:`stop` ends it."""

    def __init__(self, workdir: Path, p: dict, trace_out: Path | None):
        from repro.serve import ServeClient

        # relative paths: a unix socket path is limited to ~107 bytes
        self.sock = os.path.relpath(workdir / "s.sock")
        cmd = [sys.executable, str(HERE / "daemon.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["serve", "--socket", self.sock,
                "--state-dir", os.path.relpath(workdir / "state"),
                "--workers", str(p["workers"]),
                "--queue-cap", str(p["queue_cap"]),
                # admission lifted: the engine is measured, not the bucket
                "--rate", "1e6", "--burst", "1e6",
                "--tenant-quota", str(p["queue_cap"])]
        self.log_path = workdir / "daemon.log"
        self._log = open(self.log_path, "wb")
        try:
            self.proc = subprocess.Popen(cmd, stdout=self._log,
                                         stderr=subprocess.STDOUT)
        except OSError:
            self._log.close()
            raise
        # The daemon gets one CPU and the generator another.  Unpinned, the
        # scheduler places the daemon's GIL-sharing threads on one CPU in
        # some runs and across two in others, and serving speed flips
        # between two levels from run to run.  Set before the daemon
        # has started any thread, so every thread (and child) inherits it.
        cpus = sorted(os.sched_getaffinity(0))
        self.cpus = None
        if len(cpus) >= 2:
            self.cpus = {"daemon": cpus[0], "generator": cpus[1]}
            os.sched_setaffinity(self.proc.pid, {cpus[0]})
            os.sched_setaffinity(0, {cpus[1]})
        self.client = ServeClient(self.sock, timeout=30.0)

    def wait_ready(self, timeout: float = 60.0) -> None:
        from repro.serve import ServeUnavailable

        end = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve daemon exited with {self.proc.returncode} before "
                    f"answering ping:\n{self.log_tail()}")
            with contextlib.suppress(ServeUnavailable):
                if self.client.ping().get("ok"):
                    return
            if time.monotonic() > end:
                raise RuntimeError(f"serve daemon silent for {timeout:g} s")
            time.sleep(0.01)

    def log_tail(self, lines: int = 20) -> str:
        if not self._log.closed:
            self._log.flush()
        text = self.log_path.read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-lines:])

    def peak_rss_mib(self) -> float:
        return _vmhwm_mib(f"/proc/{self.proc.pid}/status")

    def stop(self, drain: bool) -> int:
        """SIGTERM and wait for the drain, or (``drain=False``) kill."""
        if self.proc.poll() is None:
            if drain:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
            else:
                self.proc.kill()
            self.proc.wait()
        self._log.close()
        return self.proc.returncode


class Generator:
    """Single-threaded load generator: one connection at a time."""

    def __init__(self, client) -> None:
        self.client = client
        self.sent: list[dict] = []

    def submit(self, spec: dict, due: float, phase: str) -> None:
        from repro.serve import ServeUnavailable

        sent = time.monotonic()
        try:
            reply = self.client.submit(spec)
        except ServeUnavailable as exc:
            reply = {"ok": False, "reason": str(exc)}
        self.sent.append({
            "spec": spec, "due": due, "sent": sent, "phase": phase,
            "id": reply.get("id") if reply.get("ok") else None,
            "reason": reply.get("reason", ""),
        })

    def inflight(self) -> int:
        c = self.client.stats()["stats"]["counters"]
        return c["accepted"] - sum(c[k] for k in _TERMINAL)

    def open_loop(self, rng, rate: float, duration: float, make_job):
        """Seeded Poisson arrivals; each request is due on its schedule."""
        start = due = time.monotonic()
        end = start + duration
        while True:
            due += rng.expovariate(rate)
            if due >= end:
                return start, end
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self.submit(make_job(), due, "open")

    def closed_loop(self, duration: float, make_job, poll_s: float):
        """One caller: submit a job, poll its status until it finishes,
        submit the next, until time is up."""
        start = now = time.monotonic()
        while now < start + duration:
            self.submit(make_job(), time.monotonic(), "closed")
            jid = self.sent[-1]["id"]
            if jid is not None:
                self.client.wait(jid, poll_s=poll_s)
            now = time.monotonic()
        return start, now

    def wait_idle(self, timeout: float = 60.0) -> None:
        """Wait for every accepted job to finish."""
        end = time.monotonic() + timeout
        while self.inflight() > 0:
            if time.monotonic() > end:
                raise RuntimeError(f"jobs still live after {timeout:g} s")
            time.sleep(0.01)

    def settle(self) -> dict:
        """Wait for every accepted job to finish; their records by id."""
        self.wait_idle()
        return {r["id"]: r for r in self.client.jobs()["jobs"]}


def _oracle(specs) -> dict:
    """sha256 of the naive result for every distinct job input."""
    from repro.core.naive import run_naive
    from repro.serve import JobSpec
    from repro.serve.server import make_field, make_kernel

    out = {}
    for doc in specs:
        spec = JobSpec.from_dict(doc)
        key = _input_key(doc)
        if key not in out:
            ref = run_naive(make_kernel(spec), make_field(spec), spec.steps)
            out[key] = sha256(ref.data)
    return out


def _input_key(doc: dict) -> tuple:
    return (doc["kernel"], doc["grid"], doc["steps"], doc["precision"],
            doc["seed"])


def _verdict(s: dict, rec: dict | None, oracle: dict) -> str:
    """``ok`` or why the job counts as failed.  A degraded job (code 3)
    counts as success only when its hash matches."""
    if s["id"] is None:
        return "refused"
    if rec is None:
        return "lost"
    if rec["status"] not in ("done", "degraded"):
        return rec["status"]
    if rec["sha256"] != oracle[_input_key(s["spec"])]:
        return "mismatch"
    return "ok"


def run_serve(name, seed, seconds, t0, tracer, setup_only, trace_dir):
    from repro.serve import JobSpec

    p = PARAMS[name]
    rng = random.Random(seed)
    seeds = [seed * p["seeds"] + k for k in range(p["seeds"])]
    tenants = [f"tenant{k}" for k in range(p["tenants"])]

    def make_job() -> dict:
        return JobSpec(**p["job"], seed=rng.choice(seeds),
                       tenant=rng.choice(tenants)).to_dict()

    mix = [JobSpec(**p["job"], seed=s).to_dict() for s in seeds]
    warm = mix[:1]  # the one plan signature

    def load(gen: Generator) -> dict:
        """The timed phase; returns the (start, end) windows of each loop.

        The open and closed loops alternate over ``cycles`` so both sample
        the host's speed across the whole run; each closed loop starts on
        an idle daemon, and ends with its last job finished.
        """
        windows = {"open": [], "closed": []}
        open_s = seconds * p["open_share"] / p["cycles"]
        closed_s = seconds / p["cycles"] - open_s
        for _ in range(p["cycles"]):
            windows["open"].append(
                gen.open_loop(rng, p["open_rate_per_s"], open_s, make_job))
            gen.wait_idle()
            windows["closed"].append(
                gen.closed_loop(closed_s, make_job, p["poll_ms"] / 1e3))
        return windows

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as tmp:
        sess = _serve_session(Path(tmp), p, t0, warm, load, tracer,
                              setup_only)
    if setup_only:
        return {"setup_s": sess["setup_s"]}
    if tracer is not None:
        tracer.enabled = False

    gen, records, stats = sess["gen"], sess["records"], sess["stats"]
    oracle = _oracle(mix)
    jobs = [s for s in gen.sent if s["phase"] != "warm"]
    verdicts = [(s, records.get(s["id"]), _verdict(s, records.get(s["id"]),
                                                   oracle)) for s in jobs]
    done = [(s, rec) for s, rec, v in verdicts if v == "ok"]
    failed = sum(v != "ok" for _, _, v in verdicts)
    mismatches = sum(v == "mismatch" for _, _, v in verdicts)
    # closed loops: latency counts from the submit
    lat = [rec["finished_s"] - s["sent"] for s, rec in done
           if s["phase"] == "closed"]
    # every job is the same size: 7pt has radius 1
    values, n = _timings(lat, (p["job"]["grid"] - 2) ** 3 * p["job"]["steps"])
    # open loops: latency counts from the job's due time.  Reported but not
    # bounded: a lone job on a just-woken CPU takes ~10 or ~14 ms depending
    # on the host's state, so its median moves by a quarter from run to run
    opened = [(s, rec, v) for s, rec, v in verdicts if s["phase"] == "open"]
    open_lat = [rec["finished_s"] - s["due"]
                for s, rec, v in opened if v == "ok"]
    values["open_loop_p50_ms"], values["open_loop_p90_ms"] = \
        _ms_quantiles(open_lat)
    n["open_loop_p50_ms"] = n["open_loop_p90_ms"] = len(open_lat)
    slo = p["slo_ms"] / 1e3
    misses = sum(v != "ok" or rec["finished_s"] - s["due"] > slo
                 for s, rec, v in opened)
    lag_p90 = spans.quantile([s["sent"] - s["due"] for s, _, _ in opened],
                             0.9) * 1e3
    depth, growing = _backlog(opened, sess["windows"]["open"], p["workers"])
    closed_s = sum(hi - lo for lo, hi in sess["windows"]["closed"])
    extra = {"jobs_per_s": len(lat) / closed_s,
             "serve.slo_miss_ratio": misses / max(1, len(opened)),
             "client.gen_lag_ms_p90": lag_p90,
             "open_loop_jobs": len(opened),
             "queue_depth_end_of_open_loop": depth,
             "backlog_growing": growing}
    valid, reasons = True, []
    if lag_p90 > 50.0:
        valid = False
        reasons.append(f"generator ran {lag_p90:.1f} ms late at p90 (> 50)")
    if growing:
        valid = False
        reasons.append("backlog still growing at the end of the open loop")
    c = stats["counters"]
    extra.update(_daemon_extra(stats))
    extra["status_counts"] = {k: c[k] for k in _TERMINAL}
    extra["cpus"] = sess["cpus"]
    result = {
        "setup_s": sess["setup_s"],
        "values": {**values, "peak_rss_mib": sess["rss"]},
        "n": {**n, "peak_rss_mib": 1},
        "attempted": len(jobs), "failed": failed, "mismatches": mismatches,
        "oracle_inputs": len(oracle),
        "rung": sorted({rec["backend_used"] for _, rec in done}),
        "valid": valid, "invalid_reasons": reasons, "extra": extra,
    }
    if tracer is not None:
        daemon_doc = sess["daemon_trace"]
        layer_extra = {k: v for k, v in extra.items() if k in spans.EXTRA}
        result["layers"] = _layers(
            name, trace_dir, [tracer.summary(), daemon_doc["summary"]],
            tracer.chrome_events(os.getpid(), f"{name} generator")
            + daemon_doc["events"], layer_extra, sess["warm_ids"])
    return result


def _serve_session(workdir: Path, p: dict, t0: float, warm: list[dict],
                   load, tracer, setup_only: bool) -> dict:
    """Start the daemon, warm one job per plan signature, run ``load``,
    wait for every job, then drain the daemon (a set-up-only or failed
    session kills it instead).  Returns what the analysis needs, read
    before ``workdir`` goes away."""
    trace_out = workdir / "daemon-trace.json" if tracer is not None else None
    daemon = Daemon(workdir, p, trace_out)
    drain = False
    try:
        daemon.wait_ready()
        gen = Generator(daemon.client)
        for doc in warm:
            gen.submit(doc, time.monotonic(), "warm")
        records = gen.settle()
        warm_ids = [s["id"] for s in gen.sent]
        if any(records.get(j, {}).get("status") != "done" for j in warm_ids):
            raise RuntimeError(f"warm-up job failed: {records}")
        out = {"setup_s": time.monotonic() - t0, "warm_ids": warm_ids,
               "cpus": daemon.cpus}
        if setup_only:
            return out
        out["windows"] = load(gen)
        out.update(gen=gen, records=gen.settle(),
                   stats=daemon.client.stats()["stats"],
                   rss=daemon.peak_rss_mib())
        drain = True
    finally:
        rc = daemon.stop(drain)
    if rc != 0:
        raise RuntimeError(f"serve daemon drain exited {rc}:\n"
                           f"{daemon.log_tail()}")
    if trace_out is not None:
        with open(trace_out, encoding="utf-8") as fh:
            out["daemon_trace"] = json.load(fh)
    return out


def _backlog(opened, windows, workers: int):
    """Queue depth at the end of each open loop (the largest), and whether
    the backlog (sent minus finished) was still growing at the end of one:
    above both twice the worker count and twice its median over the loop."""
    def backlog(t):
        return sum(s["sent"] <= t and (rec is None or rec["finished_s"] > t)
                   for s, rec, _ in opened)

    depth, growing = 0, False
    for a0, a1 in windows:
        depth = max(depth, sum(
            a0 <= s["sent"] <= a1 and (rec is None or rec["started_s"] is None
                                       or rec["started_s"] > a1)
            for s, rec, _ in opened))
        samples = [backlog(a0 + (a1 - a0) * k / 20) for k in range(1, 21)]
        end = samples[-1]
        growing |= end > 2 * workers and end > 2 * spans.quantile(samples, 0.5)
    return depth, growing


def _daemon_extra(stats: dict) -> dict:
    """Per-layer serve values from the daemon's own always-on telemetry."""
    lat = stats.get("latency", {})
    qw = lat.get("serve.queue_wait_s") or {}
    svc = lat.get("serve.service_s") or {}
    c = stats["counters"]
    return {
        "serve.queue_wait_ms_p50": qw.get("p50", 0.0) * 1e3,
        "serve.queue_wait_ms_p90": qw.get("p90", 0.0) * 1e3,
        "serve.service_ms_p50": svc.get("p50", 0.0) * 1e3,
        "serve.service_ms_p90": svc.get("p90", 0.0) * 1e3,
        "serve.plan_hit_rate": stats["plan_cache"]["hit_rate"],
        "serve.useful_frac": ((c["completed"] + c["degraded"])
                              / max(1, c["accepted"])),
    }


def _layers(name, trace_dir, summaries, events, extra, exclude) -> dict:
    """Per-layer metrics and waterfall; writes the workload's Chrome trace."""
    summary = spans.merge(summaries)
    metrics, absent = spans.layer_metrics(summary, extra, exclude)
    path = Path(trace_dir) / f"trace-{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return {
        "metrics": metrics, "absent": absent,
        "waterfall": spans.waterfall(summary, exclude),
        "requests": len(spans.requests_of(summary, exclude)),
        "spans_kept": summary["records"], "spans_dropped": summary["dropped"],
        "trace": str(path),
    }


WORKLOADS = {
    "sweep-serial": run_sweep,
    "halo-4rank": run_sweep,
    "serve-small": run_serve,
}


def run(name: str, seed: int, seconds: float, t0: float, *,
        trace_dir: str | None = None, setup_only: bool = False) -> dict:
    """One workload in this process; the tracer is installed first."""
    tracer = None
    if trace_dir is not None:
        tracer = spans.Tracer()
        spans.install(tracer)
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
    result = WORKLOADS[name](name, seed, seconds, t0, tracer, setup_only,
                             trace_dir)
    result.update(workload=name, seed=seed, seconds=seconds,
                  params=PARAMS[name], host=host_facts())
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken before this process "
                    "was spawned")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-dir", default=None)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.t0,
                 trace_dir=args.trace_dir, setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
