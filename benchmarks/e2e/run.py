"""End-to-end benchmark of the repository's three entry-point workloads.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1|DIR] [--json PATH]

Each workload runs in a fresh process (``workloads.py``).  Untraced, the
workload is set up five times — four times set-up only, once measured —
and ``setup_s`` is the median.  Every output is checked bit-exactly against
the naive oracle; a mismatch or any failed request makes the exit code 1.

``--trace 1`` (or ``--trace DIR``) instead runs each workload untraced and
then traced, half the timed phase each, reports the per-layer metrics,
prints the per-request waterfall and the tracing overhead, and writes one
Chrome-trace JSON per workload plus ``layers.json`` to DIR
(``.bench_out/trace`` for ``1``).

The metric and workload catalogue, units and bounds come from
``BENCHMARK.json`` at the repository root.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics untraced, per-layer metrics traced; with several
workloads the names are prefixed ``<workload>/``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / ".bench_out"

#: set-ups per untraced workload run; setup_s is their median
SETUP_REPEATS = 5
#: seconds a child may take beyond its timed phase before it is killed
CHILD_SLACK_S = 120.0
#: measured and reported with their sample count, but not bounded: they
#: follow the share of time the host spent slow (workloads.py), and the
#: latency of a lone job on an idle daemon (serve-small's open loops) moves
#: with how fast an idle CPU wakes
UNBOUNDED_UNITS = {"latency_p50_ms": "ms", "latency_p90_ms": "ms",
                   "mean_mupd_per_s": "Mupd/s",
                   "open_loop_p50_ms": "ms", "open_loop_p90_ms": "ms"}


def load_catalogue() -> dict:
    """BENCHMARK.json, the single source of names, units and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def spawn(args: list[str], timeout: float) -> dict:
    """Run ``workloads.py`` in a new process group and parse its result.

    ``--t0`` is read immediately before the spawn, so the child's set-up
    time includes interpreter start.  On timeout the whole group (the
    child and any daemon it started) is killed and reaped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "workloads.py"), *args,
           "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"workload {args} exceeded {timeout:g} s") from None
    except BaseException:  # interrupted: take the whole group down with us
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        # a daemon left behind by a child that died abruptly
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise RuntimeError(f"workload {args} exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float,
                 trace_dir: Path | None) -> dict:
    def args(timed: float) -> list[str]:
        return ["--workload", name, "--seed", str(seed), "--seconds",
                str(timed)]

    if trace_dir is None:
        setups = [spawn(args(seconds) + ["--setup-only"],
                        CHILD_SLACK_S)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        result = spawn(args(seconds), seconds + CHILD_SLACK_S)
        setups.append(result["setup_s"])
        result["values"]["setup_s"] = statistics.median(setups)
        result["n"]["setup_s"] = len(setups)
        result["setup_samples"] = setups
        return result
    # half the timed phase each, so a traced run takes as long as an
    # untraced one
    plain = spawn(args(seconds / 2), seconds + CHILD_SLACK_S)
    traced = spawn(args(seconds / 2) + ["--trace-dir", str(trace_dir)],
                   seconds + CHILD_SLACK_S)
    # end-to-end numbers come only from the untraced run; the traced one
    # gives the layers and, against it, the tracing overhead
    plain["values"]["setup_s"] = plain["setup_s"]
    plain["n"]["setup_s"] = 1
    plain["traced_values"] = traced["values"]
    plain["layers"] = traced["layers"]
    plain["layers"]["metrics"]["trace.overhead_frac"] = (
        plain["values"]["mupd_per_s"] / traced["values"]["mupd_per_s"] - 1.0)
    for key in ("attempted", "failed", "mismatches"):
        plain[key] += traced[key]
    return plain


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _print_layers(name: str, result: dict, units: dict) -> None:
    layers = result["layers"]
    print(f"\n[{name}] per-request waterfall over {layers['requests']} "
          "request(s), ms (self time per layer):")
    print(f"  {'layer':18s} {'median':>10s} {'mean':>10s}")
    for label, med, mean in layers["waterfall"]:
        print(f"  {label:18s} {med:10.3f} {mean:10.3f}")
    overhead = layers["metrics"]["trace.overhead_frac"]
    print(f"  tracing overhead: {overhead:+.1%} mupd_per_s "
          f"(untraced {result['values']['mupd_per_s']:.4g}, "
          f"traced {result['traced_values']['mupd_per_s']:.4g}); spans kept "
          f"{layers['spans_kept']}, dropped from the trace file "
          f"{layers['spans_dropped']}")
    if layers["absent"]:
        print(f"  ABSENT (wrap target missing): {', '.join(layers['absent'])}")
    for metric, unit in units.items():
        print(f"  {metric:32s} {layers['metrics'][metric]:14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark: three workloads, bit-exact oracle.")
    ap.add_argument("--workload", default=None,
                    help="run one workload (default: all, in catalogue order)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", "--duration", dest="seconds", type=float,
                    default=None, help="timed phase per workload "
                    "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", default="0",
                    help="0: untraced; 1: traced into .bench_out/trace; "
                    "any other value: traced into that directory")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="result file (default .bench_out/e2e-<seed>.json, "
                    "or e2e-<workload>-<seed>.json with --workload)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        cat = load_catalogue()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in cat["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    seconds = args.seconds if args.seconds is not None else cat["run_seconds"]
    trace_dir = None
    if args.trace != "0":
        trace_dir = OUT / "trace" if args.trace == "1" else Path(args.trace).resolve()
        trace_dir.mkdir(parents=True, exist_ok=True)
    e2e_units = {m["name"]: m["unit"] for m in cat["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in cat["per_layer"]}

    results, errors = {}, {}
    for name in selected:
        try:
            results[name] = run_workload(name, args.seed, seconds, trace_dir)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            errors[name] = str(exc)

    attempted = sum(r["attempted"] for r in results.values()) + len(errors)
    failed = sum(r["failed"] for r in results.values()) + len(errors)
    line_metrics = {}
    for name, r in results.items():
        prefix = f"{name}/" if len(selected) > 1 else ""
        print(f"\n[{name}] seed {args.seed}, {seconds:g} s timed, rung "
              f"{'/'.join(r['rung'])}: {r['attempted']} request(s), "
              f"{r['failed']} failed, {r['mismatches']} oracle mismatch(es) "
              f"over {r['oracle_inputs']} input(s)")
        if not r["valid"]:
            print(f"  INVALID RUN: {'; '.join(r['invalid_reasons'])}")
        if trace_dir is None:
            for metric, unit in {**e2e_units, **UNBOUNDED_UNITS}.items():
                if metric not in r["values"]:
                    continue
                value = r["values"][metric]
                note = "" if metric in e2e_units else ", unbounded"
                print(f"  {metric:16s} {value:14.6g} {unit:8s} "
                      f"(n={r['n'][metric]}{note})")
                if metric in e2e_units:
                    line_metrics[prefix + metric] = {"value": value,
                                                     "unit": unit}
        else:
            _print_layers(name, r, layer_units)
            for metric, unit in layer_units.items():
                line_metrics[prefix + metric] = {
                    "value": r["layers"]["metrics"][metric], "unit": unit}

    host = next(iter(results.values()))["host"] if results else {}
    doc = {
        "seed": args.seed, "seconds": seconds, "traced": trace_dir is not None,
        "commit": _git_commit(), "host": host,
        "correct": failed == 0,
        "workloads": {
            name: {
                "params": r["params"], "rung": r["rung"], "valid": r["valid"],
                "invalid_reasons": r["invalid_reasons"],
                "attempted": r["attempted"], "failed": r["failed"],
                "mismatches": r["mismatches"],
                "oracle_inputs": r["oracle_inputs"],
                "metrics": {m: {"value": r["values"][m], "unit": u,
                                "n": r["n"][m]}
                            for m, u in e2e_units.items()},
                "unbounded": {m: {"value": r["values"][m], "unit": u,
                                  "n": r["n"][m]}
                              for m, u in UNBOUNDED_UNITS.items()
                              if m in r["values"]},
                "extra": r["extra"],
                **({"setup_samples": r["setup_samples"]}
                   if "setup_samples" in r else {}),
                **({"layers": r["layers"]} if "layers" in r else {}),
            }
            for name, r in results.items()
        },
        "errors": errors,
    }
    stem = f"e2e-{args.workload}" if args.workload else "e2e"
    out_path = (Path(args.json) if args.json
                else OUT / f"{stem}-{args.seed}.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    if trace_dir is not None:
        with open(trace_dir / "layers.json", "w", encoding="utf-8") as fh:
            json.dump({name: r["layers"] for name, r in results.items()},
                      fh, indent=1)
    print(f"\nresult: {out_path}")
    print(json.dumps({"correct": failed == 0, "attempted": max(1, attempted),
                      "failed": failed, "metrics": line_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
