#!/usr/bin/env python
"""Fused-sweep benchmark: whole-z-iteration kernels vs per-plane backends.

Times the 3.5D executor with the ``fused-numpy`` (and, when numba is
installed, ``codegen``) backends against the per-plane ``numpy`` and
``numpy-inplace`` backends, on the 7-point, 27-point and variable-coefficient
kernels, serial and threaded.  Every configuration is cross-checked
bit-exactly against the naive reference before it is timed.

The acceptance bar for this layer: ``fused-numpy`` reaches at least **2x**
the single-thread GUPS of the per-plane ``numpy`` backend on the 7-point
kernel at 128^3 with dim_T >= 2 (run without ``--quick``).  The compiled
rung's own gate is ``bench_codegen.py``.

Results are also written as machine-readable JSON (``--json``, default
``BENCH_fused.json`` next to this script) for CI artifact upload.

Usage::

    PYTHONPATH=src python benchmarks/bench_fused.py          # full (128^3)
    PYTHONPATH=src python benchmarks/bench_fused.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core import Blocking35D, run_naive
from repro.perf.backends import available_backends, bound_rung, wrap_kernel
from repro.resilience import GuardedSweep, bind_with_fallback
from repro.runtime import ParallelBlocking35D
from repro.stencils import (
    Field3D,
    SevenPointStencil,
    TwentySevenPointStencil,
    VariableCoefficientStencil,
)

DEFAULT_BACKENDS = ["numpy", "numpy-inplace", "fused-numpy", "codegen"]


def _make_case(name: str, grid: int):
    shape = (grid, grid, grid)
    if name == "7pt":
        kernel = SevenPointStencil()
    elif name == "27pt":
        kernel = TwentySevenPointStencil()
    elif name == "varco":
        rng = np.random.default_rng(21)
        kernel = VariableCoefficientStencil(
            alpha=(0.8 + 0.4 * rng.random(shape)).astype(np.float32),
            beta=(0.05 + 0.02 * rng.random(shape)).astype(np.float32),
        )
    else:  # pragma: no cover - guarded by argparse choices
        raise ValueError(name)
    field = Field3D.random(shape, dtype=np.float32, seed=17)
    return kernel, field


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def bench_case(
    name: str,
    grid: int,
    steps: int,
    dim_t: int,
    tile: int,
    backends: list[str],
    threads: int,
    repeats: int,
    check: bool,
    rungs: dict[str, str] | None = None,
) -> dict[str, float]:
    kernel, field = _make_case(name, grid)
    n_updates = grid**3 * steps
    ref = run_naive(kernel, field, steps) if check else None

    print(f"\n== {name}  grid={grid}^3  steps={steps}  dim_T={dim_t}  "
          f"tile={tile}  threads={threads} ==")
    print(f"{'backend':<16} {'ms/run':>9} {'GUPS':>8} {'vs numpy':>9}")
    executors = {}
    for bname in backends:
        # bind through the resilience layer — the gate must hold with the
        # full production path (fallback chain + guarded sweep) enabled
        bound = bind_with_fallback(kernel, bname)
        if bound.used != bname:
            print(f"{bname:<16} degraded to {bound.used}; skipped")
            continue
        wrapped = bound.kernel
        if rungs is not None:
            # the ladder rung the wrapped kernel actually executes on — a
            # codegen request can silently serve the fused numpy
            # plan for unsupported kernels, and CI wants to see that
            rungs[bname] = bound_rung(wrapped)
        if threads > 1:
            inner = ParallelBlocking35D(wrapped, dim_t, tile, tile, threads)
        else:
            inner = Blocking35D(wrapped, dim_t, tile, tile)
        ex = GuardedSweep(inner)
        out = ex.run(field, steps)  # warm-up + correctness
        if ref is not None and not np.array_equal(out.data, ref.data):
            print(f"{bname:<16} BIT-EXACTNESS FAILURE vs naive reference")
            raise SystemExit(1)
        executors[bname] = ex
    # Interleave timed repeats so machine-speed drift hits all backends alike.
    best = {bname: float("inf") for bname in executors}
    for _ in range(repeats):
        for bname, ex in executors.items():
            best[bname] = min(best[bname], _timed(ex.run, field, steps))
    gups = {bname: n_updates / t / 1e9 for bname, t in best.items()}
    for bname in executors:
        ratio = gups[bname] / gups[backends[0]]
        print(f"{bname:<16} {best[bname] * 1e3:>9.2f} {gups[bname]:>8.4f} "
              f"{ratio:>8.2f}x")
    return gups


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small grids / fewer repeats (CI smoke mode)")
    ap.add_argument("--grid", type=int, default=None,
                    help="override the grid side (default 128; 32 quick)")
    ap.add_argument("--steps", type=int, default=4)
    ap.add_argument("--dim-t", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument("--kernels", nargs="+", default=["7pt", "27pt", "varco"],
                    choices=["7pt", "27pt", "varco"])
    ap.add_argument("--backends", nargs="+", default=None,
                    help="backend names (default: available fused + per-plane)")
    ap.add_argument("--threads", nargs="+", type=int, default=[1],
                    help="thread counts to bench (1 = serial executor)")
    ap.add_argument("--no-check", action="store_true",
                    help="skip the naive bit-exactness cross-check")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="machine-readable output path "
                    "(default BENCH_fused.json next to this script)")
    args = ap.parse_args(argv)

    grid = args.grid or (32 if args.quick else 128)
    repeats = args.repeats or (1 if args.quick else 4)
    if args.backends is not None:
        backends = args.backends
        for bname in backends:
            try:
                wrap_kernel(SevenPointStencil(), bname)  # fail fast
            except Exception as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    else:
        avail = set(available_backends())
        backends = [b for b in DEFAULT_BACKENDS if b in avail]
    if backends[0] != "numpy":
        backends = ["numpy"] + [b for b in backends if b != "numpy"]

    dim_t = max(2, args.dim_t) if not args.quick else args.dim_t
    tile = min(grid, 128)
    results: dict[str, dict[str, dict[str, float]]] = {}
    bound_rungs: dict[str, dict[str, str]] = {}
    for threads in args.threads:
        tkey = f"threads={threads}"
        results[tkey] = {}
        for name in args.kernels:
            rungs = bound_rungs.setdefault(name, {})
            results[tkey][name] = bench_case(
                name, grid, args.steps, dim_t, tile, backends, threads,
                repeats, not args.no_check, rungs=rungs,
            )

    rc = 0
    acceptance = {}
    serial = results.get("threads=1", {}).get("7pt", {})
    if "fused-numpy" in serial and "numpy" in serial:
        speedup = serial["fused-numpy"] / serial["numpy"]
        bar = 2.0
        verdict = "PASS" if speedup >= bar else ("n/a (quick)" if args.quick else "FAIL")
        print(f"\n7pt fused-numpy vs numpy (dim_T={dim_t}): {speedup:.2f}x "
              f"(acceptance >= {bar}x at 128^3: {verdict})")
        acceptance["fused_numpy_speedup"] = speedup
        acceptance["verdict"] = verdict
        if not args.quick and speedup < bar:
            rc = 1

    # One extra metered sweep (outside the timed repeats) joins measured
    # traffic against the Eq. 2 model so CI can watch kappa drift.
    from repro.obs.validate import metered_sweep_metrics

    mkernel, mfield = _make_case("7pt", grid)
    mbackend = "fused-numpy" if "fused-numpy" in backends else backends[0]
    mthreads = max(args.threads)
    metrics_block = metered_sweep_metrics(
        bind_with_fallback(mkernel, mbackend).kernel, mfield, args.steps,
        dim_t=dim_t, tile=tile, threads=mthreads,
    )
    metrics_block["kernel"] = "7pt"
    metrics_block["backend"] = mbackend
    metrics_block["bound_rung"] = bound_rungs.get("7pt", {}).get(mbackend, mbackend)
    print(f"\nmetrics (7pt, {mbackend}, threads={mthreads}): "
          f"kappa {metrics_block['kappa_measured']:.4f} vs predicted "
          f"{metrics_block['kappa_predicted']:.4f}"
          + (f", barrier wait {100 * metrics_block['barrier_wait_fraction']:.1f}%"
             if metrics_block["barrier_wait_fraction"] is not None else ""))

    json_path = args.json or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_fused.json"
    )
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "benchmark": "fused",
                "grid": grid,
                "steps": args.steps,
                "dim_t": dim_t,
                "tile": tile,
                "quick": args.quick,
                "repeats": repeats,
                "backends": backends,
                "bound_rungs": bound_rungs,
                "gups": results,
                "metrics": metrics_block,
                "acceptance": acceptance,
            },
            fh, indent=2,
        )
        fh.write("\n")
    print(f"wrote {json_path}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
