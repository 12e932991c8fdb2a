"""Compare results of ``run.py`` against the benchmark's bounds.

    python3 benchmarks/e2e/compare.py A B

A and B are each a result file or a directory of result files (runs of
one commit); with several, every metric's median over the runs is
compared.  One row per (workload, end-to-end metric), judging B against
A with the metric's direction and bound from ``BENCHMARK.json``:

* ``ok``      — B is within the bound of A;
* ``better``  — B improved on A by more than the bound;
* ``worse``   — B regressed from A by more than the bound;
* ``missing`` — the metric is absent from one of the files.

The spread column is the run-to-run spread recorded in ``manifest.json``
(interquartile range over median across seeds), for reading a delta
against the noise.  Runs from different host fingerprints are refused
(exit 2); any worse or missing row exits 1, otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import HERE, load_catalogue


def judge(a: float, b: float, better: str, bound: float) -> str:
    """Verdict for B against A; ``bound`` is a share of A."""
    gain = (b - a) if better == "higher" else (a - b)
    if a == 0:
        return "ok" if gain == 0 else ("better" if gain > 0 else "worse")
    rel = gain / abs(a)
    if rel < -bound:
        return "worse"
    if rel > bound:
        return "better"
    return "ok"


def load(path: str) -> list[dict]:
    """The result documents of one side: a file, or every file in a dir."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    docs = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    if not docs:
        raise SystemExit(f"no result files in {path}")
    return docs


def median_value(docs: list[dict], workload: str, metric: str):
    """Median of one metric over the runs that have it (None if none do)."""
    values = [d["workloads"][workload]["metrics"][metric]["value"]
              for d in docs
              if metric in d["workloads"].get(workload, {}).get("metrics", {})]
    return statistics.median(values) if values else None


def compare(docs_a: list[dict], docs_b: list[dict], catalogue: dict,
            spread: dict) -> list[tuple]:
    """(workload, metric, a, b, bound, spread, verdict) rows."""
    rows = []
    for w in catalogue["workloads"]:
        name = w["name"]
        if not any(name in d["workloads"] for d in docs_a + docs_b):
            continue
        for m in catalogue["end_to_end"]:
            a = median_value(docs_a, name, m["name"])
            b = median_value(docs_b, name, m["name"])
            noise = spread.get(name, {}).get(m["name"])
            if a is None or b is None:
                verdict = "missing"
            else:
                verdict = judge(a, b, m["better"], m["bound"])
            rows.append((name, m["name"], a, b, m["bound"], noise, verdict))
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline result file or directory of them")
    ap.add_argument("b", help="candidate result file or directory of them")
    args = ap.parse_args(argv)
    sides = [load(args.a), load(args.b)]
    catalogue = load_catalogue()
    with open(HERE / "manifest.json", encoding="utf-8") as fh:
        spread = json.load(fh)["spread"]["iqr_over_median"]

    host = sides[0][0].get("host", {})
    for doc in sides[0] + sides[1]:
        other = doc.get("host", {})
        if other != host:
            diff = {k: (host.get(k), other.get(k))
                    for k in sorted(set(host) | set(other))
                    if host.get(k) != other.get(k)}
            print(f"refusing to compare runs from different hosts: {diff}",
                  file=sys.stderr)
            return 2
    for label, docs in zip("AB", sides):
        for doc in docs:
            for name, w in doc["workloads"].items():
                if not w.get("valid", True):
                    print(f"warning: {label} {name} was marked invalid: "
                          f"{'; '.join(w['invalid_reasons'])}",
                          file=sys.stderr)

    rows = compare(sides[0], sides[1], catalogue, spread)
    print(f"A: median of {len(sides[0])} run(s); B: median of "
          f"{len(sides[1])} run(s)")
    print(f"{'workload':14s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'change':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    for name, metric, a, b, bound, noise, verdict in rows:
        fa = f"{a:12.5g}" if a is not None else f"{'-':>12s}"
        fb = f"{b:12.5g}" if b is not None else f"{'-':>12s}"
        change = f"{(b - a) / a:+8.1%}" if a and b is not None else f"{'-':>8s}"
        fn = f"{noise:7.1%}" if noise is not None else f"{'-':>7s}"
        print(f"{name:14s} {metric:16s} {fa} {fb} {change} {bound:6.0%} "
              f"{fn}  {verdict}")
    bad = [r for r in rows if r[-1] in ("worse", "missing")]
    print(f"{len(rows)} row(s): {len(bad)} worse or missing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
